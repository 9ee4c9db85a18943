"""Step functions on a truncated group, with L_p, weak-L_p and Hardy quasi-norms.

Every function is represented by its values on the M_N rank-N cylinders in
linear-index order.  Integrals against Haar measure are therefore plain
averages: int f dmu = sum(values) / M_N.  The Hardy quasi-norm is the L_p
quasi-norm of the martingale maximal function f* = sup_n |E_n f|, where
E_n f is the conditional average over rank-n cylinders; f* is computed as a
running maximum over those averages, one level at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, ResolutionMismatch
from .group_core import RadixSequence, build_radix, check_memory


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Complex-valued function constant on rank-N cylinders."""

    radix_seq: RadixSequence
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).reshape(-1).copy()
        if vals.shape[0] != self.radix_seq.size:
            raise ResolutionMismatch(
                f"{vals.shape[0]} values for a group with {self.radix_seq.size} cylinders"
            )
        # NaN propagates to the extremes: no M_N-byte mask beside the copy
        if not np.isfinite((vals.view(np.float64).min(), vals.view(np.float64).max())).all():
            raise ValueError("step function values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def check_exponent(p: float, upper: float = math.inf, closed: bool = False) -> float:
    """Validate an exponent in 0 < p < ``upper``, or 0 < p <= ``upper`` when
    ``closed``, and return it as a float; by default every finite p > 0."""
    p = float(p)
    if not (0 < p < upper or closed and p == upper):
        limit = "finite" if upper == math.inf else f"{'<=' if closed else '<'} {upper:g}"
        raise InvalidExponent(f"exponent needs 0 < p {limit}, got {p}")
    return p


def lp_quasinorm(f: StepFunction, p: float) -> float:
    """( int |f|^p dmu )^{1/p} computed as a cylinder average."""
    p = check_exponent(p)
    a = np.abs(f.values)
    return float(np.sum(a**p) / f.radix_seq.size) ** (1.0 / p)


def weak_lp_quasinorm(f: StepFunction, p: float) -> float:
    """sup_{lambda>0} lambda * mu{|f| > lambda}^{1/p}.

    For a step function the distribution function is a right-continuous
    staircase, so the sup equals the max over the distinct values v of |f|
    of v * mu{|f| >= v}^{1/p}; that finite max is what is computed here.
    """
    p = check_exponent(p)
    a_sorted = np.sort(np.abs(f.values))
    # the first position of each distinct value v counts mu{|f| >= v}
    first = np.flatnonzero(np.diff(a_sorted, prepend=-1.0))
    first = first[a_sorted[first] > 0]
    if first.size == 0:
        return 0.0
    count_ge = a_sorted.size - first
    return float(np.max(a_sorted[first] * (count_ge / a_sorted.size) ** (1.0 / p)))


def conditional_average(f: StepFunction, rank: int) -> StepFunction:
    """Average of f over each rank-``rank`` cylinder, as a rank-N function.

    A rank-n cylinder with anchor index a < M_n is the index set
    {a + t*M_n}, so the average is a column mean of values reshaped to
    (M_N/M_n, M_n).
    """
    m_n = f.radix_seq.scales[rank]
    reps = f.radix_seq.size // m_n
    means = f.values.reshape(reps, m_n).mean(axis=0)
    return StepFunction(f.radix_seq, np.tile(means, reps))


def maximal_function(f: StepFunction) -> StepFunction:
    """f* = sup_n |E_n f| over ranks n = 0..N (real-valued), E_n f :func:`conditional_average`:
    each |E_n f|, on its M_n points, updates a running maximum through (M_N / M_n, M_n) views."""
    best = np.zeros(f.radix_seq.size)
    for m_n in f.radix_seq.scales:
        view = best.reshape(-1, m_n)
        np.maximum(view, np.abs(f.values.reshape(-1, m_n).mean(axis=0)), out=view)
    return StepFunction(f.radix_seq, best)


def hardy_quasinorm(f: StepFunction, p: float) -> float:
    """L_p quasi-norm of the maximal function f*."""
    p = check_exponent(p)
    return lp_quasinorm(maximal_function(f), p)


# ---------------------------------------------------------------------------
# File format: header `radices=<csv pattern>;N=<int>`, then exactly M_N lines
# `re,im` with 17 significant digits (bit-exact round trip for doubles).
# ---------------------------------------------------------------------------

LINE_LIMIT = 1 << 12  # characters a line may hold, newline included; values take 50


def bounded_lines(fh):
    """The lines of the text file ``fh``, read one at a time; a line longer than
    LINE_LIMIT raises ValueError after at most LINE_LIMIT characters are read.
    Step, weight and config files are all read through it."""
    while line := fh.readline(LINE_LIMIT):
        if len(line) == LINE_LIMIT and line[-1] != "\n":
            raise ValueError(f"a line is longer than {LINE_LIMIT - 1} characters")
        yield line


def load_step_function(path) -> StepFunction:
    with open(path, "r", encoding="ascii") as fh:
        lines = bounded_lines(fh)
        header = next(lines, "").strip()
        fields = dict(part.split("=", 1) for part in header.split(";") if part)
        if fields.keys() != {"radices", "N"}:
            raise ValueError(f"malformed header: {header!r}")
        seq = build_radix(fields["radices"].split(","), int(fields["N"]))
        check_memory(32 * seq.size, f"step function file on M_N={seq.size}")  # values, copy
        vals = np.empty(seq.size, dtype=np.complex128)
        for i in range(seq.size):
            line = next(lines, "")
            if not line:
                raise ValueError(f"expected {seq.size} value lines, got {i}")
            re_s, im_s = line.strip().split(",")
            vals[i] = complex(float(re_s), float(im_s))
        # in fixed chunks, so a long tail holds one chunk's memory at a time
        while chunk := fh.read(1 << 16):
            if chunk.strip():
                raise ValueError(f"more than {seq.size} value lines")
    return StepFunction(seq, vals)
