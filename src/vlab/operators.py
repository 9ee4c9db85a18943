"""Weighted maximal operators, the domination chain, p-atoms, ratio sweeps.

The weighted maximal operator of a transform family T_n is the pointwise
sup over n of |T_n f| / phi(n+1), where phi is a non-decreasing weight
with phi >= 1.  Partial sums enter at n = 1, logarithmic means at n = 2.
The built-in power family phi(n) = n^alpha with alpha = 1/p - 1 is the
critical weight for 0 < p < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    IndexOutOfRange,
    InvalidExponent,
    InvalidWeight,
    RankOutOfRange,
)
from .group_core import Cylinder, GroupPoint, RadixSequence, cylinder_of
from .means import log_mean_rows, partial_sum_stack, weights_from_file
from .step_functions import (
    StepFunction,
    check_exponent,
    hardy_quasinorm,
    lp_quasinorm,
)
from .transform import forward_fast

_FAMILIES = ("power", "log", "custom")
_KINDS = ("partial_sum", "log_mean")


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Non-decreasing weight phi: {1, 2, ...} -> [1, inf)."""

    family: str
    alpha: float | None = None
    table: np.ndarray | None = None
    spec: str = ""

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidWeight(f"unknown weight family {self.family!r}")
        if self.family == "power":
            if self.alpha is None or self.alpha < 0 or not np.isfinite(self.alpha):
                raise InvalidWeight(f"power weight needs alpha >= 0, got {self.alpha}")
        if self.family == "custom":
            vals = np.asarray(self.table, dtype=np.float64).reshape(-1).copy()
            if vals.size == 0 or not np.isfinite(vals).all():
                raise InvalidWeight("custom weight table must be non-empty and finite")
            if np.any(vals < 1) or np.any(np.diff(vals) < 0):
                raise InvalidWeight("custom weight table must be >= 1 and non-decreasing")
            vals.flags.writeable = False
            object.__setattr__(self, "table", vals)
        if not self.spec:
            object.__setattr__(self, "spec", self._default_spec())

    def _default_spec(self) -> str:
        if self.family == "power":
            return f"power:{self.alpha:g}"
        return self.family

    def phi(self, n):
        """Evaluate the weight; accepts scalars or integer arrays (n >= 1)."""
        arr = np.asarray(n, dtype=np.float64)
        if np.any(arr < 1):
            raise InvalidWeight(f"weight argument must be >= 1, got {n}")
        if self.family == "power":
            out = arr**self.alpha
        elif self.family == "log":
            out = np.maximum(1.0, np.log(arr + 1.0))
        else:
            idx = np.asarray(n, dtype=np.int64) - 1
            if np.any(idx >= self.table.shape[0]):
                raise InvalidWeight(
                    f"custom weight table has {self.table.shape[0]} entries, "
                    f"argument {np.max(idx) + 1} requested"
                )
            out = self.table[idx]
        return float(out) if np.isscalar(n) else out


def power_weight(alpha: float) -> WeightFunction:
    return WeightFunction(family="power", alpha=float(alpha))


def log_weight() -> WeightFunction:
    """phi(n) = max(1, ln(n+1)); satisfies the divergence condition for p < 1."""
    return WeightFunction(family="log")


def custom_weight(values) -> WeightFunction:
    return WeightFunction(family="custom", table=np.asarray(values, dtype=np.float64))


def critical_power_weight(p: float) -> WeightFunction:
    """phi(n) = n^{1/p - 1}, the boundedness-critical power for 0 < p < 1."""
    p = check_p_unit(p)
    return power_weight(1.0 / p - 1.0)


def parse_weight_spec(spec: str) -> WeightFunction:
    """Parse ``power:<alpha>`` | ``log`` | ``custom:<file>``."""
    if spec == "log":
        return log_weight()
    if spec.startswith("power:"):
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidWeight(f"bad power weight spec {spec!r}") from None
        return power_weight(alpha)
    if spec.startswith("custom:"):
        w = custom_weight(weights_from_file(spec.split(":", 1)[1]).values)
        object.__setattr__(w, "spec", spec)
        return w
    raise InvalidWeight(f"unknown weight spec {spec!r}")


def check_p_unit(p: float) -> float:
    """Validate an exponent in the open range 0 < p < 1 and return it as a float."""
    p = float(p)
    if not 0 < p < 1:
        raise InvalidExponent(f"need 0 < p < 1, got {p}")
    return p


# Row-block size for the triangular log-mean accumulation; bounds scratch
# memory at roughly block * (n_max + M_N) complex entries.
_BLOCK = 128


def _log_mean_blocks(s_stack: np.ndarray, n_max: int):
    """Yield (ns, log_mean_rows(s_stack, ns)) for n = 2..n_max, _BLOCK orders at a time."""
    for start in range(2, n_max + 1, _BLOCK):
        ns = np.arange(start, min(start + _BLOCK, n_max + 1))
        yield ns, log_mean_rows(s_stack, ns)


def weighted_maximal(
    f: StepFunction, transform_kind: str, weight: WeightFunction, n_max: int
) -> StepFunction:
    """Pointwise sup over n <= n_max of |T_n f| / phi(n+1).

    Truncation is exact for partial sums once n_max = M_N (higher partial
    sums reproduce f while the weight keeps growing); for log means it is
    an approximant, see :func:`log_mean_tail_bound`.
    """
    if transform_kind not in _KINDS:
        raise InvalidWeight(f"unknown transform kind {transform_kind!r}")
    if not isinstance(weight, WeightFunction):
        raise InvalidWeight(f"weight must be a WeightFunction, got {type(weight)}")
    seq = f.radix_seq
    lo = 1 if transform_kind == "partial_sum" else 2
    if n_max < lo or n_max > seq.size:
        raise IndexOutOfRange(f"n_max {n_max} outside {lo}..{seq.size}")
    s_stack = partial_sum_stack(f, n_max if transform_kind == "partial_sum" else n_max - 1)
    if transform_kind == "partial_sum":
        ws = weight.phi(np.arange(2, n_max + 2))
        best = np.max(np.abs(s_stack[1:]) / ws[:, None], axis=0)
    else:
        best = np.zeros(seq.size, dtype=np.float64)
        for ns, rows in _log_mean_blocks(s_stack, n_max):
            cand = np.abs(rows) / weight.phi(ns + 1)[:, None]
            np.maximum(best, cand.max(axis=0), out=best)
    return StepFunction(seq, best)


def log_mean_tail_bound(f: StepFunction, weight: WeightFunction, n_max: int) -> float:
    """Crude bound on sup_{n > n_max} |L_n f| / phi(n+1).

    |L_n f| never exceeds the total coefficient mass sum_k |c_k|, while the
    weight is non-decreasing, so the tail is at most mass / phi(n_max + 2).
    """
    mass = float(np.sum(np.abs(forward_fast(f).coeffs)))
    return mass / weight.phi(n_max + 2)


@dataclass(frozen=True)
class DominationResult:
    passed: bool
    max_slack: float
    tol: float


def domination_check(f: StepFunction, p: float, n_max: int, tol: float = 1e-12) -> DominationResult:
    """Verify |L_n f|/(n+1)^{1/p-1} <= sup_{1<=k<=n} |S_k f|/(k+1)^{1/p-1}.

    Checked pointwise for every n <= n_max; n = 1 holds trivially because
    L_1 f = 0.  Returns the largest violation found (negative or tiny
    positive slack means the chain holds).
    """
    p = check_p_unit(p)
    seq = f.radix_seq
    if n_max < 2 or n_max > seq.size:
        raise IndexOutOfRange(f"n_max {n_max} outside 2..{seq.size}")
    expo = 1.0 / p - 1.0
    s_stack = partial_sum_stack(f, n_max)
    k_weights = (np.arange(1, n_max + 1) + 1.0) ** expo
    # running[j] = sup over 1 <= k <= j+1 of |S_k| / (k+1)^expo
    running = np.maximum.accumulate(np.abs(s_stack[1:]) / k_weights[:, None], axis=0)
    worst = -np.inf
    for ns, rows in _log_mean_blocks(s_stack, n_max):
        lhs = np.abs(rows) / ((ns + 1.0) ** expo)[:, None]
        worst = max(worst, float(np.max(lhs - running[ns - 1])))
    return DominationResult(passed=worst <= tol, max_slack=worst, tol=tol)


@dataclass(frozen=True)
class Atom:
    """Mean-zero function supported on one cylinder with sup-norm control."""

    function: StepFunction
    cylinder: Cylinder
    exponent: float


def make_atom(rng: np.random.Generator, seq: RadixSequence, rank: int, p: float) -> Atom:
    """Random p-atom on a random rank-``rank`` cylinder.

    Values on the children are mean-subtracted and rescaled so the sup norm
    equals mu(I)^{-1/p} = M_rank^{1/p}; the construction enforces the
    support, zero-integral and sup-norm constraints directly.
    """
    if rank < 0 or rank > seq.depth:
        raise RankOutOfRange(f"rank {rank} outside 0..{seq.depth}")
    if seq.scales[rank] == seq.size:
        # a single-cell cylinder admits no nonzero mean-zero function
        raise DegenerateInput(f"rank {rank} cylinders have one cell; need rank < depth")
    p = float(p)
    if not 0 < p <= 1:
        raise InvalidExponent(f"atom exponent needs 0 < p <= 1, got {p}")
    anchor = tuple(int(rng.integers(0, seq.radices[j])) for j in range(rank))
    anchor_full = anchor + tuple(0 for _ in range(seq.depth - rank))
    cyl = cylinder_of(GroupPoint(anchor_full, seq), rank)
    members = cyl.member_indices()
    target = float(seq.scales[rank]) ** (1.0 / p)
    while True:
        raw = rng.standard_normal(members.size)
        raw -= raw.mean()
        peak = np.abs(raw).max()
        if peak > 1e-9:
            break
    vals = raw * (target / peak)
    vals -= vals.mean()  # re-center after scaling
    peak = np.abs(vals).max()
    if peak > target:
        vals *= target / peak
    full = np.zeros(seq.size, dtype=np.complex128)
    full[members] = vals
    return Atom(function=StepFunction(seq, full), cylinder=cyl, exponent=p)


def boundedness_ratio(f: StepFunction, p: float, weight: WeightFunction, n_max: int) -> float:
    """L_p norm of the weighted log-mean maximal function over the Hardy norm."""
    p = check_p_unit(p)
    h = hardy_quasinorm(f, p)
    if h == 0.0:
        raise DegenerateInput("zero Hardy norm")
    return lp_quasinorm(weighted_maximal(f, "log_mean", weight, n_max), p) / h


def condition6_advisory(weight: WeightFunction, p: float) -> str:
    """Symbolic verdict on limsup n^{1/p-1} / (log n * phi(n)) = infinity.

    Only the built-in families admit a closed answer; finite custom tables
    cannot decide a limsup and return ``unknown``.
    """
    gap = 1.0 / check_exponent(p) - 1.0
    if weight.family == "power":
        return "satisfied" if weight.alpha < gap else "violated"
    if weight.family == "log":
        return "satisfied" if gap > 0 else "violated"
    return "unknown"
