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
applied one level at a time, packs the stack: S_k f with
M_{s-1} < k <= M_s is constant on rank-s cylinders, so
:func:`partial_sum_stack` stores it on its first M_s points only, the
levels back to back in one array.  :func:`log_mean_blocks` cuts the
orders at those levels and yields each block's log means beside a view
of its partial sums, both on the M_s points of its level, so the packed
layout stays in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IndexOutOfRange, InvalidWeight, ZeroTotalWeight
from .group_core import RadixSequence, check_memory, truncate
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


# Orders per block of :func:`log_mean_blocks`, and the least scale that
# cuts a level of the packed stack.  Each block holds its log-mean rows
# and their moduli, at most _BLOCK * M_r complex plus float entries,
# beside the stack and its shared character rows.
_BLOCK = 64


def _levels(scales: tuple[int, ...], top: int) -> tuple[tuple[int, int, int], ...]:
    """(lo, hi, m) for the partial sums S_lo .. S_{hi-1} at width m, over 1..top.

    S_k f with k <= M_s is constant on rank-s cylinders, so the sums k in
    (M_{s-1}, M_s] form a level that needs only the first M_s points.  The
    levels are cut at the ``scales`` >= _BLOCK below ``top``; the sums
    below the first cut form one level.  m is the smallest scale >= hi - 1,
    and the levels run from the narrowest to the widest.
    """
    bounds = [1, *(m + 1 for m in scales if _BLOCK <= m < top), top + 1]
    return tuple(
        (lo, hi, next(m for m in scales if m >= hi - 1))
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    )


def _entries(levels) -> int:
    """Entries of a packed stack with these levels."""
    return sum((hi - lo) * m for lo, hi, m in levels)


def _check_stack_fits(group: RadixSequence, n_max: int) -> None:
    """Refuse a stack whose working set would not fit in physical memory.

    ``group`` is the quotient the stack lives on.  The working set is the
    packed stack and its packed character rows, complex arrays laid out by
    :func:`_levels`, plus the log-mean triangles of :func:`log_mean_blocks`,
    one (len(ns), max(ns)) real array per block of at most _BLOCK orders
    ns of a level; the check runs before any of them is allocated.
    """
    levels = _levels(group.scales, n_max)
    rows_and_sums = 2 * _entries(levels) * np.dtype(np.complex128).itemsize
    blocks = [(n, min(n + _BLOCK, hi)) for lo, hi, _ in levels for n in range(lo, hi, _BLOCK)]
    triangles = sum((stop - start) * (stop - 1) for start, stop in blocks)
    need = rows_and_sums + triangles * np.dtype(np.float64).itemsize
    check_memory(need, f"partial-sum stack for n_max={n_max}, M_r={group.size}")


def _split(flat: np.ndarray, levels) -> list[tuple[int, int, np.ndarray]]:
    """(lo, hi, rows) for each level of a packed ``flat``: rows is its (hi - lo, m) view."""
    views, start = [], 0
    for lo, hi, m in levels:
        views.append((lo, hi, flat[start : start + (hi - lo) * m].reshape(hi - lo, m)))
        start += (hi - lo) * m
    return views


def _log_mean_triangle(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ns = start..stop-1 and their (len(ns), max(ns)) triangle
    T[i, k] = 1/((ns[i] - k) l_{ns[i]}), 1 <= k < ns[i]."""
    ns = np.arange(start, stop)
    ks = np.arange(stop - 1)
    ell = log_weights(stop - 1)._cumsum[ns - 1]
    gap = ns[:, None] - ks
    tri = np.zeros(gap.shape, dtype=np.float64)
    np.divide(1.0, gap * ell[:, None], out=tri, where=(gap > 0) & (ks >= 1))
    ns.flags.writeable = tri.flags.writeable = False
    return ns, tri


@lru_cache(maxsize=1)
def _stack_plan(group: RadixSequence, n_max: int):
    """(levels, rows, blocks) of the stacks of order n_max on the quotient ``group``.

    ``levels`` are the :func:`_levels` over 1..n_max.  ``rows`` holds
    psi_0 .. psi_{n_max-1}, read-only, in the packed layout of
    :func:`partial_sum_stack`: the row of S_k holds psi_{k-1} on the
    first m points of its level; k - 1 < m, so psi_{k-1} repeats every m
    points.  A level of width m = M_s is built on the rank-s truncation
    of ``group``, one block of at most ROW_BLOCK entries of
    :func:`character_rows` at a time; its roots are exact, so the rows
    equal the first m points of the rows on ``group`` bit for bit.
    ``blocks[i]`` holds the :func:`_log_mean_triangle` of each block of
    level i, at most _BLOCK consecutive orders ns of the level.

    One entry is cached: every stack of a run shares its group and n_max,
    so the plan is built once per run and at most one is held.
    """
    levels = _levels(group.scales, n_max)
    flat = np.empty(_entries(levels), dtype=np.complex128)
    for lo, hi, rows in _split(flat, levels):
        m = rows.shape[1]
        level_group = truncate(group, group.scales.index(m))
        step = max(1, ROW_BLOCK // m)
        for i in range(0, hi - lo, step):
            k = lo - 1 + i  # psi_k goes in the row of S_{k+1}
            rows[i : i + step] = character_rows(level_group, k, min(k + step, hi - 1))
    flat.flags.writeable = False
    blocks = tuple(
        tuple(_log_mean_triangle(n, min(n + _BLOCK, hi)) for n in range(lo, hi, _BLOCK))
        for lo, hi, _ in levels
    )
    return levels, flat, blocks


def partial_sum_stack(f: StepFunction, n_max: int) -> np.ndarray:
    """S_1 f .. S_{n_max} f packed level by level into one complex array.

    The stack lives on the :func:`quotient` for n_max, and the levels of
    :func:`_levels` cut it further: S_k f in the level of width m is
    stored on the first m points only, and entry i is S_k f at every point
    whose linear index is i mod m.

    Each level first receives c_{k-1} psi_{k-1} in the row of S_k, from
    the packed character rows of :func:`_stack_plan`; its first row then
    gets the previous level's last row (S_0 f = 0 before the first),
    repeated to width m, and a running sum down the rows turns the terms
    into partial sums.  Every S_k f equals, bit for bit, the first m
    points of a running sum over full-width rows.
    """
    seq = f.radix_seq
    if n_max < 0 or n_max > seq.size:
        raise IndexOutOfRange(f"n_max {n_max} outside 0..{seq.size}")
    group = quotient(seq, n_max)
    _check_stack_fits(group, n_max)
    levels, chars, _ = _stack_plan(group, n_max)
    coeffs = forward_fast(f).coeffs
    stack = np.empty_like(chars)
    prev = np.zeros(1, dtype=np.complex128)  # S_0 f
    for (lo, hi, rows), (_, _, terms) in zip(_split(stack, levels), _split(chars, levels)):
        np.multiply(coeffs[lo - 1 : hi - 1, None], terms, out=rows)
        first = rows[0].reshape(-1, prev.size)
        first += prev
        np.cumsum(rows, axis=0, out=rows)
        prev = rows[-1]
    return stack


def log_mean_blocks(f: StepFunction, n_max: int):
    """Yield (ns, means, sums) for the orders n = 1..n_max: L_n f and S_n f for n in ns.

    The orders come in blocks of at most _BLOCK, each inside one level of
    the :func:`partial_sum_stack` this builds.  ``sums`` is a view of the
    level's rows and ``means`` has the same width m, the level's: entry i
    of either row is its function at every point whose linear index is
    i mod m.  L_1 f = 0 is the zero first row.
    """
    stack = partial_sum_stack(f, n_max)
    levels, _, blocks = _stack_plan(quotient(f.radix_seq, n_max), n_max)
    levels = _split(stack, levels)
    for i, level_blocks in enumerate(blocks):
        lo, _, sums = levels[i]
        for ns, tri in level_blocks:
            # built in a call of its own, so that once the caller drops the
            # means nothing here holds them while the next block is built
            yield ns, _block_means(tri, levels[: i + 1]), sums[ns[0] - lo : ns[-1] + 1 - lo]


def _block_means(tri: np.ndarray, levels) -> np.ndarray:
    """A block's log means from its triangle and the levels up to its own, the last.

    The triangle is real, so each level multiplies the interleaved real
    and imaginary parts of its rows S_k f, k < max(ns), as one real
    product on the points it is stored on: the block's own level gives
    the width, and each narrower one repeats across it.
    """
    *narrower, (lo, _, sums) = levels
    means = (tri[:, lo:] @ sums[: tri.shape[1] - lo].view(np.float64)).view(np.complex128)
    for k, _, rows in reversed(narrower):
        folded = means.reshape(len(tri), -1, rows.shape[1])
        folded += (tri[:, k : k + len(rows)] @ rows.view(np.float64)).view(np.complex128)[:, None, :]
    return means


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
