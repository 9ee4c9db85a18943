"""Norlund means of partial sums and the logarithmic mean family.

A nonnegative weight sequence {q_k : k >= 1} with partial sums Q_n defines
the n-th mean (1/Q_n) * sum_{k=1}^{n} q_{n-k} S_k f.  The k = n term needs
q_0, which not every family defines; when absent the sum stops at n-1.
The logarithmic family q_k = 1/k normalizes by the harmonic number l_n and
never touches q_0:

    L_n f = (1/l_n) sum_{k=0}^{n-1} S_k f / (n - k),   S_0 f = 0.

Every mean is a coefficient multiplier, a row of :func:`multiplier_rows`:
:func:`norlund_mean` applies one on the whole group; :func:`mean_blocks`
yields the log means of all orders up to n_max.  Order n <= M_s reads only
c_j, j < M_s, so it lives on the M_s points of the rank-s truncation: the
orders come in levels cut at the scales M_s >= 64, each in blocks of
BLOCK_POINTS // M_s orders, one inverse pass each.  :func:`partial_sum_blocks`
yields S_n f in the same blocks from a packed stack of running sums of
c_j psi_j.  Both read the coefficients of f, so one transform serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IndexOutOfRange, InvalidWeight, ZeroTotalWeight
from .group_core import RadixSequence, check_memory, check_range, truncate
from .step_functions import StepFunction, bounded_lines
from .transform import (
    BLOCK_POINTS,
    ROW_BLOCK,
    CoefficientVector,
    character_rows,
    inverse_block,
    synthesize_multiplier,
)


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


# Multiplier rows a run caches, in float64 entries; past them each block builds its own.
_ROW_CACHE = 1 << 20


def _levels(scales: tuple[int, ...], top: int) -> tuple[tuple[int, int, int], ...]:
    """(lo, hi, m) for the orders lo .. hi-1 on their first m points, over 1..top: cut at the
    ``scales`` >= 64 below ``top``, m the smallest scale >= hi - 1."""
    bounds = [1, *(m + 1 for m in scales if 64 <= m < top), top + 1]
    return tuple(
        (lo, hi, next(m for m in scales if m >= hi - 1))
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    )


def _blocks(lo: int, hi: int, m: int) -> list[np.ndarray]:
    """The orders lo .. hi-1 of a level of width m, BLOCK_POINTS // m at a time."""
    step = max(1, BLOCK_POINTS // m)
    return [np.arange(n, min(n + step, hi)) for n in range(lo, hi, step)]


def multiplier_rows(weights: WeightSequence, ns: np.ndarray, width: int) -> np.ndarray:
    """(len(ns), width) multipliers w_j = (Q_{n-1-j} + q_0) / Q_n of the orders ns, zero
    from j = n on: windows of the totals Q_t + q_0, reversed after width - 1 zeros, over
    the real Q_n.  Q_0 = 0, and the q_0 term only when q_0 exists."""
    top = int(ns.max())
    weights.total(top)  # the weights reach the highest order
    q_n = weights._cumsum[ns - 1]
    if np.any(q_n <= 0):
        raise ZeroTotalWeight(f"Q_{ns[q_n <= 0][0]} = {q_n[q_n <= 0][0]}")
    padded = np.zeros(width - 1 + top)
    padded[width:] = weights._cumsum[: top - 1]
    padded[width - 1 :] += weights.q0 or 0.0
    # window s of the reversed array starts at Q_{top-1-s} + q_0: row n is window top - n
    windows = np.lib.stride_tricks.sliding_window_view(padded[::-1], width)
    return windows[top - ns] / q_n[:, None]


@lru_cache(maxsize=1)
def _mean_plan(seq: RadixSequence, n_max: int):
    """(weights, blocks) of :func:`mean_blocks`, built once per run: the log weights and
    per block its orders, level truncation and read-only :func:`multiplier_rows`, None
    past _ROW_CACHE entries."""
    weights = log_weights(n_max)
    plan = [
        (ns, truncate(seq, seq.scales.index(m)))
        for lo, hi, m in _levels(seq.scales, n_max)
        for ns in _blocks(lo, hi, m)
    ]
    entries = sum(len(ns) * group.size for ns, group in plan)
    if entries > _ROW_CACHE:
        return weights, tuple((ns, group, None) for ns, group in plan)
    check_memory(entries * np.dtype(np.float64).itemsize, f"multiplier rows for n_max={n_max}")
    rows = [multiplier_rows(weights, ns, group.size) for ns, group in plan]
    for block in rows:
        block.flags.writeable = False
    return weights, tuple((ns, group, block) for (ns, group), block in zip(plan, rows))


def mean_blocks(cv: CoefficientVector, n_max: int):
    """Yield (ns, means) for n = 1..n_max: the log means L_n f, n in ns, of the f whose
    coefficients are ``cv``.

    A block of a :func:`_levels` level of width M_s is one inverse pass on the
    rank-s truncation of its multiplier rows times the first M_s coefficients;
    entry i of a row is the mean at every point whose linear index is i mod M_s.
    """
    seq = cv.radix_seq
    check_range(n_max, 2, seq.size, "n_max")
    weights, plan = _mean_plan(seq, n_max)
    for ns, group, rows in plan:
        if rows is None:
            rows = multiplier_rows(weights, ns, group.size)
        yield ns, inverse_block(rows * cv.coeffs[: group.size], group)


@lru_cache(maxsize=1)
def _stack_plan(seq: RadixSequence, n_max: int):
    """(rows, levels) of the partial-sum stacks of order n_max on ``seq``, built once per run.

    Per :func:`_levels` level, its first order lo and its rows psi_{lo-1} .. psi_{hi-2}
    on its m = M_s points: read-only views of one array, built on the rank-s truncation
    at most ROW_BLOCK entries at a time, whose exact roots give the first m points of the
    rows on ``seq`` bit for bit.  The rows and a stack of their layout, 16 bytes an entry
    each, are checked against physical memory.
    """
    levels = _levels(seq.scales, n_max)
    entries = sum((hi - lo) * m for lo, hi, m in levels)
    check_memory(2 * 16 * entries, f"partial-sum stack for n_max={n_max}, M_r={levels[-1][2]}")
    flat = np.empty(entries, dtype=np.complex128)
    plan, start = [], 0
    for lo, hi, m in levels:
        rows = flat[start : start + (hi - lo) * m].reshape(hi - lo, m)
        start += rows.size
        level_group = truncate(seq, seq.scales.index(m))
        step = max(1, ROW_BLOCK // m)
        for i in range(0, hi - lo, step):
            k = lo - 1 + i  # psi_k goes in the row of S_{k+1}
            rows[i : i + step] = character_rows(level_group, k, min(k + step, hi - 1))
        rows.flags.writeable = False
        plan.append((lo, rows))
    flat.flags.writeable = False
    return flat, tuple(plan)


def partial_sum_blocks(cv: CoefficientVector, n_max: int):
    """Yield (ns, sums) for n = 1..n_max: S_n f for n in ns, in the blocks of :func:`mean_blocks`.

    S_k f in a level of width m is stored on its first m points, the running
    sum of c_{k-1} psi_{k-1} down the level's rows on top of the last level's
    last row: the first m points of the dense running sums bit for bit.  The
    levels are one array, each filled just before its blocks, views of it.
    """
    seq = cv.radix_seq
    check_range(n_max, 2, seq.size, "n_max")
    chars, plan = _stack_plan(seq, n_max)
    coeffs = cv.coeffs
    stack = np.empty_like(chars)
    prev = np.zeros(1, dtype=np.complex128)  # S_0 f
    start = 0
    for lo, terms in plan:
        sums = stack[start : start + terms.size].reshape(terms.shape)
        start += terms.size
        np.multiply(coeffs[lo - 1 : lo - 1 + len(terms), None], terms, out=sums)
        first = sums[0].reshape(-1, prev.size)
        first += prev
        np.cumsum(sums, axis=0, out=sums)
        prev = sums[-1]
        for ns in _blocks(lo, lo + len(terms), terms.shape[1]):
            yield ns, sums[ns[0] - lo : ns[-1] + 1 - lo]


def norlund_mean(f: StepFunction, n: int, weights: WeightSequence) -> StepFunction:
    """(1/Q_n) sum q_{n-k} S_k f over k = 1..n-1, plus q_0 S_n f when q_0 exists:
    the coefficient multiplier of :func:`multiplier_rows` on the whole group."""
    check_range(n, 1, f.radix_seq.size, "mean order")
    return synthesize_multiplier(f, multiplier_rows(weights, np.array([n]), n)[0])


def log_mean(f: StepFunction, n: int) -> StepFunction:
    """L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n - k).

    n = 1 would give the identically zero mean (S_0 f = 0) and is rejected.
    """
    check_range(n, 2, f.radix_seq.size, "log mean order")
    return norlund_mean(f, n, log_weights(n))
