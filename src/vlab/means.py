"""Norlund means of partial sums and the logarithmic mean family.

A nonnegative weight sequence {q_k : k >= 1} with partial sums Q_n defines
the n-th mean (1/Q_n) * sum_{k=1}^{n} q_{n-k} S_k f.  The k = n term needs
q_0, which not every family defines; when absent the sum stops at n-1.
The logarithmic family q_k = 1/k normalizes by the harmonic number l_n and
never touches q_0:

    L_n f = (1/l_n) sum_{k=0}^{n-1} S_k f / (n - k),   S_0 f = 0.

Single means are coefficient multipliers on the whole group.  Stacks of
every S_n f and L_n f up to an order n_max live on the rank-r quotient
(:func:`quotient`, M_r >= n_max): they are constant on rank-r cylinders,
so their work and memory grow with M_r, not M_N.  The same identity,
applied one level at a time, shapes the log-mean product of
:func:`log_mean_blocks`: S_k with M_{s-1} < k <= M_s is constant on
rank-s cylinders, so those rows meet the log-mean triangle on their
first M_s points only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CapacityExceeded,
    IndexOutOfRange,
    InvalidWeight,
    ResolutionMismatch,
    ZeroTotalWeight,
)
from .group_core import RadixSequence, truncate
from .step_functions import StepFunction
from .transform import ROW_BLOCK, character_rows, forward_fast, synthesize_multiplier


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Weights q_1, q_2, ... (1-indexed) with an optional leading q_0.

    ``values[k-1]`` holds q_k.  Families that define no q_0 (such as the
    logarithmic one) leave it None and the k = n mean term is omitted.
    """

    values: np.ndarray
    q0: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if np.any(vals < 0) or not np.isfinite(vals).all():
            raise InvalidWeight("weights must be finite and nonnegative")
        if self.q0 is not None and (self.q0 < 0 or not np.isfinite(self.q0)):
            raise InvalidWeight(f"q_0 must be finite and nonnegative, got {self.q0}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def _cumsum(self) -> np.ndarray:
        return np.cumsum(self.values)

    def total(self, n: int) -> float:
        """Q_n = q_1 + ... + q_n."""
        if n < 1 or n > len(self):
            raise IndexOutOfRange(f"Q_n needs 1 <= n <= {len(self)}, got {n}")
        return float(self._cumsum[n - 1])


def ones_weights(n: int) -> WeightSequence:
    """q_k = 1 for every k, including q_0 (arithmetic means)."""
    return WeightSequence(values=np.ones(n), q0=1.0)


def log_weights(n: int) -> WeightSequence:
    """q_k = 1/k; q_0 is undefined for this family."""
    return WeightSequence(values=1.0 / np.arange(1, n + 1), q0=None)


def harmonic_l(n: int) -> float:
    """n-th harmonic number l_n = Q_n of :func:`log_weights`, a forward running sum."""
    return log_weights(n).total(n)


def weights_from_file(path) -> WeightSequence:
    """One q per line; no q_0."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            vals = [float(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise InvalidWeight(f"cannot read weights from {path}: {exc}") from None
    if not vals:
        raise InvalidWeight(f"no weights found in {path}")
    return WeightSequence(values=np.asarray(vals), q0=None)


def weight_sequence_from_spec(spec: str, n: int) -> WeightSequence:
    """Parse ``ones`` | ``log`` | ``custom:<file>`` and provide n weights."""
    if spec == "ones":
        return ones_weights(n)
    if spec == "log":
        return log_weights(n)
    if spec.startswith("custom:"):
        w = weights_from_file(spec.split(":", 1)[1])
        if len(w) < n:
            raise InvalidWeight(f"custom weights provide {len(w)} entries, need {n}")
        return w
    raise InvalidWeight(f"unknown weight family {spec!r}")


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def quotient(seq: RadixSequence, n: int) -> RadixSequence:
    """The rank-r truncation of ``seq``, r the smallest rank with M_r >= n.

    psi_k depends only on the first r digits when k < M_r, so every S_k f
    and L_k f with k <= n is constant on rank-r cylinders: its values at
    the M_N points are those at the M_r points of the quotient, repeated
    M_N / M_r times (the linear index i of a point fixes its first r
    digits through i mod M_r).  When n > M_{N-1} the quotient is the
    whole group.
    """
    return truncate(seq, next(r for r, m in enumerate(seq.scales) if m >= n))


def _check_stack_fits(group: RadixSequence, n_max: int) -> None:
    """Refuse a stack whose working set would not fit in physical memory.

    ``group`` is the quotient the stack lives on.  The rows and the
    partial sums are (n_max + 1) x M_r complex arrays at most, and the
    log-mean triangles of :func:`log_mean_blocks` hold at most n_max x
    n_max reals; the check runs before any of them is allocated.
    """
    rows_and_sums = 2 * (n_max + 1) * group.size * np.dtype(np.complex128).itemsize
    need = rows_and_sums + n_max * n_max * np.dtype(np.float64).itemsize
    budget = _physical_memory()
    if need > budget:
        raise CapacityExceeded(
            f"partial-sum stack for n_max={n_max}, M_r={group.size} needs {need} bytes, "
            f"physical memory is {budget}"
        )


@lru_cache(maxsize=1)
def leading_rows(group: RadixSequence, n: int) -> np.ndarray:
    """Read-only (n, M) array whose row k holds psi_k on ``group``, k < n.

    ``group`` is the :func:`quotient` of a stack, so M = M_r.  Filled one
    block of at most ROW_BLOCK entries of :func:`character_rows` at a
    time.  One entry is cached: every stack of a run shares its group and
    n, so the rows are built once per run and at most one row set is
    held.
    """
    rows = np.empty((n, group.size), dtype=np.complex128)
    step = max(1, ROW_BLOCK // group.size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows[lo:hi] = character_rows(group, lo, hi)
    rows.flags.writeable = False
    return rows


def partial_sum_stack(f: StepFunction, n_max: int) -> np.ndarray:
    """(n_max + 1, M_r) array whose row n holds S_n f (row 0 is zero).

    The stack lives on the :func:`quotient` for n_max: entry i of a row is
    S_n f at every point whose linear index is i mod M_r.
    ``np.tile(row, M_N // M_r)`` is the row on the whole group.

    Row k + 1 first receives c_k psi_k, from the rows of
    :func:`leading_rows`, which are built once per (quotient, n_max); a
    running sum down the rows then turns the terms into partial sums.
    """
    seq = f.radix_seq
    if n_max < 0 or n_max > seq.size:
        raise IndexOutOfRange(f"n_max {n_max} outside 0..{seq.size}")
    group = quotient(seq, n_max)
    _check_stack_fits(group, n_max)
    coeffs = forward_fast(f).coeffs
    stack = np.zeros((n_max + 1, group.size), dtype=np.complex128)
    np.multiply(coeffs[:n_max, None], leading_rows(group, n_max), out=stack[1:])
    return np.cumsum(stack, axis=0, out=stack)


def _log_mean_triangle(ns: np.ndarray) -> np.ndarray:
    """(len(ns), max(ns)) triangle T[i, k] = 1/((ns[i] - k) l_{ns[i]}), 1 <= k < ns[i]."""
    top = int(ns.max())
    ks = np.arange(top)
    ell = log_weights(top)._cumsum[ns - 1]
    gap = ns[:, None] - ks
    tri = np.zeros(gap.shape, dtype=np.float64)
    np.divide(1.0, gap * ell[:, None], out=tri, where=(gap > 0) & (ks >= 1))
    return tri


# Orders per block of :func:`log_mean_blocks`, and the least scale that
# gets a level of its own in a block's product.  Each block holds its
# log-mean rows and their moduli, at most _BLOCK * M_r complex plus float
# entries, beside the stack and its shared character rows.
_BLOCK = 64


@lru_cache(maxsize=1)
def _log_mean_plan(scales: tuple[int, ...], n_max: int):
    """(ns, triangle, levels) for n = 2..n_max, _BLOCK orders at a time.

    A block reaches the stack rows k = 1..max(ns) - 1.  Row k <= M_s is
    S_k f, constant on rank-s cylinders, so the rows k in (M_{s-1}, M_s]
    form a level that needs only the first M_s points of the stack.  The
    levels are cut at the ``scales`` >= _BLOCK; the rows below the first
    cut form one level.  ``levels`` holds (lo, hi, m) for the rows
    lo..hi-1 at width m, the smallest scale >= hi - 1, widest first.

    One entry is cached: every stack of a run shares its quotient and
    n_max, so each block is planned once per run.
    """
    blocks = []
    for start in range(2, n_max + 1, _BLOCK):
        ns = np.arange(start, min(start + _BLOCK, n_max + 1))
        tri = _log_mean_triangle(ns)
        ns.flags.writeable = tri.flags.writeable = False
        top = int(ns[-1]) - 1  # the last stack row the block reaches
        bounds = [1, *(m + 1 for m in scales if _BLOCK <= m < top), top + 1]
        levels = tuple(
            (lo, hi, next(m for m in scales if m >= hi - 1))
            for lo, hi in zip(bounds, bounds[1:])
        )
        blocks.append((ns, tri, levels[::-1]))
    return tuple(blocks)


def log_mean_blocks(s_stack: np.ndarray, group: RadixSequence, n_max: int):
    """Yield (ns, rows L_n f for n in ns) for n = 2..n_max from a :func:`partial_sum_stack`.

    ``group`` is the quotient the stack lives on, and the stack needs rows
    up to n_max - 1.  A block's rows have width w, the smallest scale of
    ``group`` >= max(ns) - 1: entry i of a row is L_n f at every point
    whose linear index is i mod w.
    """
    if s_stack.shape[1] != group.size:
        raise ResolutionMismatch(f"stack of width {s_stack.shape[1]} is not on M_r = {group.size}")
    if n_max > s_stack.shape[0]:
        raise IndexOutOfRange(f"log mean orders need n <= {s_stack.shape[0]}")
    parts = np.ascontiguousarray(s_stack, dtype=np.complex128).view(np.float64)
    for ns, tri, levels in _log_mean_plan(group.scales, n_max):
        # the triangle is real, so each level multiplies the interleaved
        # real and imaginary parts of its rows' first m points as one real
        # product; a narrower level repeats across the widest one
        rows = None
        for lo, hi, m in levels:
            part = (tri[:, lo:hi] @ parts[lo:hi, : 2 * m]).view(np.complex128)
            if rows is None:
                rows = part
            else:
                folded = rows.reshape(len(ns), -1, m)
                folded += part[:, None, :]
        yield ns, rows


def norlund_mean(f: StepFunction, n: int, weights: WeightSequence) -> StepFunction:
    """(1/Q_n) sum q_{n-k} S_k f over k = 1..n-1, plus q_0 S_n f when q_0 exists.

    Summing the partial sums gives the coefficient multiplier
    w_j = (Q_{n-1-j} + q_0) / Q_n for j < n, with Q_0 = 0 and the q_0 term
    only when q_0 exists.
    """
    seq = f.radix_seq
    if n < 1 or n > seq.size:
        raise IndexOutOfRange(f"mean order {n} outside 1..{seq.size}")
    q_n = weights.total(n)
    if q_n <= 0:
        raise ZeroTotalWeight(f"Q_{n} = {q_n}")
    totals = np.concatenate(([0.0], weights._cumsum[: n - 1]))  # Q_0 .. Q_{n-1}
    return synthesize_multiplier(f, (totals[::-1] + (weights.q0 or 0.0)) / q_n)


def log_mean(f: StepFunction, n: int) -> StepFunction:
    """L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n - k).

    n = 1 would give the identically zero mean (S_0 f = 0) and is rejected.
    """
    seq = f.radix_seq
    if n < 2 or n > seq.size:
        raise IndexOutOfRange(f"log mean order {n} outside 2..{seq.size}")
    return norlund_mean(f, n, log_weights(n))
