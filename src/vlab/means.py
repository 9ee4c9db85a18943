"""Norlund means of partial sums and the logarithmic mean family.

A nonnegative weight sequence {q_k : k >= 1} with partial sums Q_n defines
the n-th mean (1/Q_n) * sum_{k=1}^{n} q_{n-k} S_k f.  The k = n term needs
q_0, which not every family defines; when absent the sum stops at n-1.
The logarithmic family q_k = 1/k normalizes by the harmonic number l_n and
never touches q_0:

    L_n f = (1/l_n) sum_{k=0}^{n-1} S_k f / (n - k),   S_0 f = 0.

Single means are coefficient multipliers on the whole group.  Every
S_n f and L_n f up to an order n_max comes from one generator,
:func:`log_mean_blocks`.  They are constant on rank-r cylinders, M_r the
smallest scale >= n_max, so their work and memory grow with M_r, not
M_N.  The same identity, applied one level at a time, packs the stack:
S_k f with M_{s-1} < k <= M_s is constant on rank-s cylinders, so it is
stored on its first M_s points only, the levels back to back in one
array.  The generator cuts the orders at those levels and yields each
block's log means beside a view of its partial sums, both on the M_s
points of its level, so the packed layout stays in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IndexOutOfRange, InvalidWeight, ZeroTotalWeight
from .group_core import RadixSequence, check_memory, check_range, truncate
from .step_functions import StepFunction, bounded_lines
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
            vals = [float(line) for line in bounded_lines(fh) if line.strip()]
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


# Orders per block of :func:`log_mean_blocks`, and the least scale that
# cuts a level of the stack.  Each block holds its log-mean rows and
# their moduli, at most _BLOCK * M_r complex plus float entries, beside
# the stack and its shared character rows.
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
def _stack_plan(seq: RadixSequence, n_max: int):
    """(rows, levels) of the stacks of order n_max on ``seq``.

    Per :func:`_levels` level over 1..n_max: its first order lo, its rows
    psi_{lo-1} .. psi_{hi-2} on its m = M_s points, read-only views of the
    one array ``rows``, and the :func:`_log_mean_triangle` of each block of
    at most _BLOCK of its orders.  The rows are built on the rank-s
    truncation, at most ROW_BLOCK entries of :func:`character_rows` at a
    time; its roots are exact, so they equal the first m points of the
    rows on ``seq`` bit for bit.  Physical memory must hold the rows, a
    stack of their layout and the triangles, checked before any of them
    is allocated.  One entry is cached: every stack of a run shares its
    group and n_max, so the plan is built once per run.
    """
    levels = _levels(seq.scales, n_max)
    entries = sum((hi - lo) * m for lo, hi, m in levels)
    blocks = [[(n, min(n + _BLOCK, hi)) for n in range(lo, hi, _BLOCK)] for lo, hi, _ in levels]
    triangles = sum((stop - n) * (stop - 1) for level in blocks for n, stop in level)
    rows_and_sums = 2 * entries * np.dtype(np.complex128).itemsize
    need = rows_and_sums + triangles * np.dtype(np.float64).itemsize
    check_memory(need, f"partial-sum stack for n_max={n_max}, M_r={levels[-1][2]}")
    flat = np.empty(entries, dtype=np.complex128)
    plan, start = [], 0
    for (lo, hi, m), level_blocks in zip(levels, blocks):
        rows = flat[start : start + (hi - lo) * m].reshape(hi - lo, m)
        start += rows.size
        level_group = truncate(seq, seq.scales.index(m))
        step = max(1, ROW_BLOCK // m)
        for i in range(0, hi - lo, step):
            k = lo - 1 + i  # psi_k goes in the row of S_{k+1}
            rows[i : i + step] = character_rows(level_group, k, min(k + step, hi - 1))
        rows.flags.writeable = False
        plan.append((lo, rows, tuple(_log_mean_triangle(*block) for block in level_blocks)))
    flat.flags.writeable = False
    return flat, tuple(plan)


def log_mean_blocks(f: StepFunction, n_max: int):
    """Yield (ns, means, sums) for the orders n = 1..n_max: L_n f and S_n f for n in ns.

    The stack of S_1 f .. S_{n_max} f is one array cut into the levels of
    :func:`_levels`, the widest M_r points, M_r the smallest scale >= n_max.
    S_k f in the level of width m is stored on its first m points: the
    running sum of c_{k-1} psi_{k-1} down the level's rows, on top of the
    previous level's last row, so it equals the first m points of the dense
    running sums bit for bit.  Each level is filled just before its blocks
    of at most _BLOCK orders are yielded.  ``sums`` is a view of the
    level's rows and ``means`` has the same width m: entry i of either row
    is its function at every point whose linear index is i mod m.
    L_1 f = 0 is the zero first row.
    """
    seq = f.radix_seq
    check_range(n_max, 2, seq.size, "n_max")
    chars, plan = _stack_plan(seq, n_max)
    coeffs = forward_fast(f).coeffs
    stack = np.empty_like(chars)
    prev = np.zeros(1, dtype=np.complex128)  # S_0 f
    filled, start = [], 0
    for lo, terms, tris in plan:
        sums = stack[start : start + terms.size].reshape(terms.shape)
        start += terms.size
        np.multiply(coeffs[lo - 1 : lo - 1 + len(terms), None], terms, out=sums)
        first = sums[0].reshape(-1, prev.size)
        first += prev
        np.cumsum(sums, axis=0, out=sums)
        prev = sums[-1]
        filled.append((lo, sums))
        for ns, tri in tris:
            # built in a call of its own, so that once the caller drops the
            # means nothing here holds them while the next block is built
            yield ns, _block_means(tri, filled), sums[ns[0] - lo : ns[-1] + 1 - lo]


def _block_means(tri: np.ndarray, levels) -> np.ndarray:
    """A block's log means from its triangle and the (lo, rows) levels up to its own, the last.

    The triangle is real, so each level multiplies the interleaved real
    and imaginary parts of its rows S_k f, k < max(ns), as one real
    product on the points it is stored on: the block's own level gives
    the width, and each narrower one repeats across it.
    """
    *narrower, (lo, sums) = levels
    means = (tri[:, lo:] @ sums[: tri.shape[1] - lo].view(np.float64)).view(np.complex128)
    for k, rows in reversed(narrower):
        folded = means.reshape(len(tri), -1, rows.shape[1])
        folded += (tri[:, k : k + len(rows)] @ rows.view(np.float64)).view(np.complex128)[:, None, :]
    return means


def norlund_mean(f: StepFunction, n: int, weights: WeightSequence) -> StepFunction:
    """(1/Q_n) sum q_{n-k} S_k f over k = 1..n-1, plus q_0 S_n f when q_0 exists.

    Summing the partial sums gives the coefficient multiplier
    w_j = (Q_{n-1-j} + q_0) / Q_n for j < n, with Q_0 = 0 and the q_0 term
    only when q_0 exists.
    """
    check_range(n, 1, f.radix_seq.size, "mean order")
    q_n = weights.total(n)
    if q_n <= 0:
        raise ZeroTotalWeight(f"Q_{n} = {q_n}")
    totals = np.concatenate(([0.0], weights._cumsum[: n - 1]))  # Q_0 .. Q_{n-1}
    return synthesize_multiplier(f, (totals[::-1] + (weights.q0 or 0.0)) / q_n)


def log_mean(f: StepFunction, n: int) -> StepFunction:
    """L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n - k).

    n = 1 would give the identically zero mean (S_0 f = 0) and is rejected.
    """
    check_range(n, 2, f.radix_seq.size, "log mean order")
    return norlund_mean(f, n, log_weights(n))
