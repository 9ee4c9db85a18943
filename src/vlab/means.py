"""Norlund means of partial sums and the logarithmic mean family.

A nonnegative weight sequence {q_k : k >= 1} with partial sums Q_n defines
the n-th mean (1/Q_n) * sum_{k=1}^{n} q_{n-k} S_k f.  The k = n term needs
q_0, which not every family defines; when absent the sum stops at n-1.
The logarithmic family q_k = 1/k normalizes by the harmonic number l_n and
never touches q_0:

    L_n f = (1/l_n) sum_{k=0}^{n-1} S_k f / (n - k),   S_0 f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange, InvalidWeight, ZeroTotalWeight
from .step_functions import StepFunction
from .transform import ROW_BLOCK, character_rows, forward_fast, synthesize_multiplier


def harmonic_l(n: int) -> float:
    """n-th harmonic number by forward summation in double precision."""
    return float(harmonic_numbers(n)[-1])


def harmonic_numbers(n_max: int) -> np.ndarray:
    """Array [l_1, ..., l_{n_max}] via a running sum."""
    if n_max < 1:
        raise IndexOutOfRange(f"need n_max >= 1, got {n_max}")
    return np.cumsum(1.0 / np.arange(1, n_max + 1))


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

    def q(self, k: int) -> float:
        if k < 1 or k > len(self):
            raise IndexOutOfRange(f"weight index {k} outside 1..{len(self)}")
        return float(self.values[k - 1])

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


def partial_sum_stack(f: StepFunction, n_max: int) -> np.ndarray:
    """(n_max + 1, M_N) array whose row n holds S_n f (row 0 is zero).

    Row k + 1 first receives c_k psi_k, one block of at most ROW_BLOCK
    entries of :func:`character_rows` at a time; a running sum down the
    rows then turns the terms into partial sums.
    """
    seq = f.radix_seq
    if n_max < 0 or n_max > seq.size:
        raise IndexOutOfRange(f"n_max {n_max} outside 0..{seq.size}")
    coeffs = forward_fast(f).coeffs
    stack = np.zeros((n_max + 1, seq.size), dtype=np.complex128)
    step = max(1, ROW_BLOCK // seq.size)
    for lo in range(0, n_max, step):
        hi = min(lo + step, n_max)
        np.multiply(coeffs[lo:hi, None], character_rows(seq, lo, hi), out=stack[lo + 1 : hi + 1])
    return np.cumsum(stack, axis=0, out=stack)


def log_mean_rows(s_stack: np.ndarray, ns) -> np.ndarray:
    """Rows L_n f for the orders in ``ns`` from a :func:`partial_sum_stack`.

    Applies the triangle T[n, k] = 1/((n - k) l_n), 1 <= k < n, so the
    stack needs rows up to max(ns) - 1.
    """
    ns = np.asarray(ns, dtype=np.int64).reshape(-1)
    if ns.size == 0 or ns.min() < 2 or ns.max() > s_stack.shape[0]:
        raise IndexOutOfRange(f"log mean orders need 2 <= n <= {s_stack.shape[0]}")
    ks = np.arange(s_stack.shape[0])
    ell = harmonic_numbers(int(ns.max()))[ns - 1]
    gap = ns[:, None] - ks
    tri = np.zeros(gap.shape, dtype=np.float64)
    np.divide(1.0, gap * ell[:, None], out=tri, where=(gap > 0) & (ks >= 1))
    return tri @ s_stack


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
