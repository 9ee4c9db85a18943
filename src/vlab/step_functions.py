"""Step functions on a truncated group, with L_p, weak-L_p and Hardy quasi-norms.

Every function is represented by its values on the M_N rank-N cylinders in
linear-index order.  Integrals against Haar measure are therefore plain
averages: int f dmu = sum(values) / M_N.  The Hardy quasi-norm is the L_p
quasi-norm of the martingale maximal function f* = sup_n |E_n f|, where
E_n f is the conditional average over rank-n cylinders; f* is computed as a
running maximum over those averages, one level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, ResolutionMismatch
from .group_core import RadixSequence, build_radix

FLOAT_FMT = ".17g"  # round-trips IEEE doubles exactly


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
        if not np.isfinite(vals).all():
            raise ValueError("step function values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def constant(seq: RadixSequence, c: complex) -> StepFunction:
    return StepFunction(seq, np.full(seq.size, c, dtype=np.complex128))


def zero(seq: RadixSequence) -> StepFunction:
    return StepFunction(seq, np.zeros(seq.size, dtype=np.complex128))


def _check_compatible(f: StepFunction, g: StepFunction) -> None:
    if f.radix_seq != g.radix_seq:
        raise ResolutionMismatch("operands live on different radix sequences")


def check_exponent(p: float) -> float:
    """Validate a quasi-norm exponent: p > 0 and finite."""
    p = float(p)
    if not np.isfinite(p) or p <= 0:
        raise InvalidExponent(f"exponent must be positive and finite, got {p}")
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
    a = np.abs(f.values)
    vs = np.unique(a)
    vs = vs[vs > 0]
    if vs.size == 0:
        return 0.0
    a_sorted = np.sort(a)
    count_ge = a.size - np.searchsorted(a_sorted, vs, side="left")
    return float(np.max(vs * (count_ge / a.size) ** (1.0 / p)))


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
    """f* = sup_n |E_n f| over ranks n = 0..N (real-valued).

    E_n f is :func:`conditional_average` at rank n.  The maximum is kept
    running, so one level is held at a time.
    """
    best = np.abs(conditional_average(f, 0).values)
    for n in range(1, f.radix_seq.depth + 1):
        np.maximum(best, np.abs(conditional_average(f, n).values), out=best)
    return StepFunction(f.radix_seq, best)


def hardy_quasinorm(f: StepFunction, p: float) -> float:
    """L_p quasi-norm of the maximal function f*."""
    p = check_exponent(p)
    return lp_quasinorm(maximal_function(f), p)


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    _check_compatible(f, g)
    return StepFunction(f.radix_seq, f.values + g.values)


def scale(f: StepFunction, c: complex) -> StepFunction:
    return StepFunction(f.radix_seq, f.values * c)


def absolute(f: StepFunction) -> StepFunction:
    return StepFunction(f.radix_seq, np.abs(f.values))


# ---------------------------------------------------------------------------
# File format: header `radices=<csv>;N=<int>[;kind=coeffs]`, then M_N lines
# `re,im` with 17 significant digits (bit-exact round trip for doubles).
# ---------------------------------------------------------------------------


def write_value_file(path, seq: RadixSequence, values: np.ndarray, kind: str | None = None) -> None:
    vals = np.asarray(values, dtype=np.complex128).reshape(-1)
    if vals.shape[0] != seq.size:
        raise ResolutionMismatch(f"{vals.shape[0]} values for group of size {seq.size}")
    header = f"radices={seq};N={seq.depth}"
    if kind:
        header += f";kind={kind}"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for v in vals:
            fh.write(f"{format(v.real, FLOAT_FMT)},{format(v.imag, FLOAT_FMT)}\n")


def read_value_file(path) -> tuple[RadixSequence, np.ndarray, str | None]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split(";") if part)
        if "radices" not in fields or "N" not in fields:
            raise ValueError(f"malformed header: {header!r}")
        seq = build_radix(
            tuple(int(r) for r in fields["radices"].split(",")), depth=int(fields["N"])
        )
        vals = np.empty(seq.size, dtype=np.complex128)
        for i in range(seq.size):
            line = fh.readline()
            if not line:
                raise ValueError(f"expected {seq.size} value lines, got {i}")
            re_s, im_s = line.strip().split(",")
            vals[i] = complex(float(re_s), float(im_s))
    return seq, vals, fields.get("kind")


def save_step_function(f: StepFunction, path) -> None:
    write_value_file(path, f.radix_seq, f.values, kind=None)


def load_step_function(path) -> StepFunction:
    seq, vals, kind = read_value_file(path)
    if kind is not None:
        raise ValueError(f"file holds kind={kind}, not a step function")
    return StepFunction(seq, vals)
