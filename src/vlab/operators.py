"""Weighted maximal operators, the domination chain and p-atoms.

The weighted maximal operator is the pointwise sup over n >= 2 of
|L_n f| / phi(n+1) over the logarithmic means L_n, where phi is a
non-decreasing weight with phi >= 1.
The power weight phi(n) = n^alpha with alpha = 1/p - 1 is the critical
weight for 0 < p < 1.  The maximal operator and the domination chain
read the blocks of ``means.log_mean_blocks``, the one generator of the
partial sums and log means up to n_max, which also checks n_max: L_n f
and S_n f side by side, on the points of the stack level that holds n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidWeight, RankOutOfRange
from .group_core import RadixSequence, check_range
from .means import log_mean_blocks, weights_from_file
from .step_functions import StepFunction, check_exponent

# Largest slack domination_check lets pass: the chain holds up to roundoff.
DOMINATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Non-decreasing weight phi: {1, 2, ...} -> [1, inf).

    Closed weights are phi(n) = max(1, n^alpha * log(n+1)^(-beta)) with
    alpha >= 0 and beta <= 0, a product of non-decreasing factors; a
    ``table`` of values phi(1), phi(2), ... replaces the formula.
    """

    alpha: float = 0.0
    beta: float = 0.0
    table: np.ndarray | None = None
    spec: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidWeight(f"power weight needs alpha >= 0, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta <= 0):
            raise InvalidWeight(f"log weight needs beta <= 0, got {self.beta}")
        if self.table is not None:
            vals = np.asarray(self.table, dtype=np.float64).reshape(-1).copy()
            if vals.size == 0 or not np.isfinite(vals).all():
                raise InvalidWeight("custom weight table must be non-empty and finite")
            if np.any(vals < 1) or np.any(np.diff(vals) < 0):
                raise InvalidWeight("custom weight table must be >= 1 and non-decreasing")
            vals.flags.writeable = False
            object.__setattr__(self, "table", vals)

    def phi(self, n):
        """Evaluate the weight on scalars or integer arrays (n >= 1); refuse one that overflows."""
        arr = np.asarray(n, dtype=np.float64)
        if np.any(arr < 1):
            raise InvalidWeight(f"weight argument must be >= 1, got {n}")
        if self.table is None:
            with np.errstate(over="ignore"):
                out = np.maximum(1.0, arr**self.alpha * np.log(arr + 1.0) ** -self.beta)
            bad = arr[~np.isfinite(out)]  # phi is non-decreasing: the least is the first
            if bad.size:
                raise InvalidWeight(f"weight {self.spec} is not finite at n={int(bad.min())}")
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
    alpha = float(alpha)
    return WeightFunction(alpha=alpha, spec=f"power:{alpha:g}")


def log_weight() -> WeightFunction:
    """phi(n) = max(1, ln(n+1)); satisfies the divergence condition for p < 1."""
    return WeightFunction(beta=-1.0, spec="log")


def custom_weight(values, spec: str = "custom") -> WeightFunction:
    return WeightFunction(table=np.asarray(values, dtype=np.float64), spec=spec)


def critical_power_weight(p: float) -> WeightFunction:
    """phi(n) = n^{1/p - 1}, the boundedness-critical power for 0 < p < 1."""
    p = check_exponent(p, 1.0)
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
        return custom_weight(weights_from_file(spec.split(":", 1)[1]).values, spec)
    raise InvalidWeight(f"unknown weight spec {spec!r}")


def weighted_maximal(f: StepFunction, weight: WeightFunction, n_max: int) -> StepFunction:
    """Pointwise sup over 2 <= n <= n_max of |L_n f| / phi(n+1).

    Truncation at n_max gives a lower bound on the sup over all n.  The
    sup is taken on the widths of the log-mean blocks, the last of them
    the M_r points of the stack's widest level, and tiled out to M_N
    only at the end.
    """
    if not isinstance(weight, WeightFunction):
        raise InvalidWeight(f"weight must be a WeightFunction, got {type(weight)}")
    seq = f.radix_seq
    # phi(n+1) at entry n-1, so a bad weight is refused before any block
    phis = weight.phi(np.arange(2, min(n_max, seq.size) + 2))
    best = np.zeros(1)
    for ns, means, _ in log_mean_blocks(f, n_max):
        cand = np.abs(means)
        cand /= phis[ns - 1, None]
        # each block's width is a multiple of the last one's
        best = np.maximum(cand.max(axis=0).reshape(-1, best.size), best).ravel()
        # free the block before the next is built: glibc hands back free
        # heap beyond twice the largest block it has freed (the stack), so
        # a call that held two blocks would fault its pages in every time
        del means, cand
    return StepFunction(seq, np.tile(best, seq.size // best.size))


@dataclass(frozen=True)
class DominationResult:
    passed: bool
    max_slack: float


def domination_check(f: StepFunction, p: float, n_max: int) -> DominationResult:
    """Verify |L_n f|/(n+1)^{1/p-1} <= sup_{1<=k<=n} |S_k f|/(k+1)^{1/p-1}.

    Checked pointwise for every 2 <= n <= n_max, row for row on the
    blocks of ``log_mean_blocks``; n = 1 holds trivially because
    L_1 f = 0.  Both sides are constant on the rank-r cylinders of the
    stack's widest level, so checking its M_r points checks all M_N.  Returns
    the largest violation found (negative or tiny positive slack means
    the chain holds).
    """
    # phi(n+1) = (n+1)^{1/p-1} at entry n-1, once, as in weighted_maximal
    phis = critical_power_weight(p).phi(np.arange(2, min(n_max, f.radix_seq.size) + 2))
    # sup over the orders so far of |S_k| / phi(k+1), carried from block to block
    best = np.zeros(1)
    worst = -np.inf
    for ns, means, sums in log_mean_blocks(f, n_max):
        ws = phis[ns - 1, None]
        lhs = np.abs(means)
        lhs /= ws
        del means  # only its moduli are read
        running = np.abs(sums)
        running /= ws
        np.maximum(running[0], np.tile(best, running.shape[1] // best.size), out=running[0])
        np.maximum.accumulate(running, axis=0, out=running)
        best = running[-1].copy()
        lhs -= running
        # the row L_1 f = 0 only seeds the sup: the chain is checked from n = 2
        worst = max(worst, float(np.max(lhs, where=ns[:, None] > 1, initial=-np.inf)))
        del lhs, running  # freed before the next block, as in weighted_maximal
    return DominationResult(passed=worst <= DOMINATION_TOL, max_slack=worst)


@dataclass(frozen=True)
class Atom:
    """Mean-zero function supported on one cylinder with sup-norm control."""

    function: StepFunction


def make_atom(rng: np.random.Generator, seq: RadixSequence, rank: int, p: float) -> Atom:
    """Random p-atom on a random rank-``rank`` cylinder.

    Values on the children are mean-subtracted and rescaled so the sup norm
    equals mu(I)^{-1/p} = M_rank^{1/p}; the construction enforces the
    support, zero-integral and sup-norm constraints directly.
    """
    check_range(rank, 0, seq.depth, "rank", RankOutOfRange)
    if seq.scales[rank] == seq.size:
        # a single-cell cylinder admits no nonzero mean-zero function
        raise DegenerateInput(f"rank {rank} cylinders have one cell; need rank < depth")
    p = check_exponent(p, 1.0, closed=True)
    # the cylinder {anchor + t*M_rank}, its anchor digits drawn one by one
    anchor = sum(int(rng.integers(0, seq.radices[j])) * seq.scales[j] for j in range(rank))
    m_rank = seq.scales[rank]
    members = anchor + m_rank * np.arange(seq.size // m_rank)
    target = float(m_rank) ** (1.0 / p)
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
    return Atom(function=StepFunction(seq, full))


def condition6_advisory(weight: WeightFunction, p: float) -> str:
    """Symbolic verdict on limsup n^{1/p-1} / (log n * phi(n)) = infinity, 0 < p < 1.

    For a closed weight the ratio grows like n^{1/p-1-alpha} / (log n)^{1-beta};
    with beta <= 0 the limsup is infinite iff alpha < 1/p - 1.  Finite custom
    tables cannot decide a limsup and return ``unknown``.
    """
    gap = 1.0 / check_exponent(p, 1.0) - 1.0
    if weight.table is not None:
        return "unknown"
    return "satisfied" if weight.alpha < gap else "violated"
