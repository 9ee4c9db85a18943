"""The divergence construction: kernel-difference functions and their sweep.

For a scale index pair (M_lo, M_hi) = (M_{2k}, M_{2k+1}) the case function
is the kernel difference D_{M_hi} - D_{M_lo}.  Its coefficients are an
indicator of [M_lo, M_hi); its partial sums collapse to three branches
(zero, kernel difference, the function itself); its martingale maximal
function equals |f| pointwise; and at the probe order n* = M_lo + 2 the
logarithmic mean collapses to a single character over the harmonic number,
so |L_{n*} f| is constant on the whole group.  Those exact facts drive the
weak-type ratio sweep R_k and the exploratory bracket fit.  A case carries
its coefficients, L_{n*} f and f*, each computed once, when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInput, DepthTooSmall
from .group_core import RadixSequence, truncate
from .means import harmonic_l, log_mean
from .operators import (
    WeightFunction,
    condition6_advisory,
    make_atom,
    power_weight,
    weighted_maximal,
)
from .report import ExperimentReport
from .step_functions import (
    StepFunction,
    check_exponent,
    hardy_quasinorm,
    lp_quasinorm,
    maximal_function,
)
from .transform import character_rows, dirichlet_closed_MN, forward_fast

SWEEP_COLUMNS = [
    "k",
    "n_k",
    "M_2nk",
    "n_star",
    "p",
    "phi",
    "l_nstar",
    "L_modulus",
    "hardy_norm",
    "R_k",
    "comparator",
]

THETA_COLUMNS = ["n", "lower", "upper", "measured_ratio", "source"]

# Relative slack used when counting level sets at a computed threshold;
# |L| matches the threshold only up to roundoff.
LEVELSET_SLACK = 1e-12

# Absolute tolerance of the partial-sum and log-mean-identity checks, the
# largest variance of |L_{n*} f| over the group that still counts as a
# constant modulus, and relative tolerance of the Hardy-norm check.
CASE_TOL = 1e-9
MODULUS_VARIANCE_TOL = 1e-18
HARDY_REL_TOL = 1e-12

# Points of the theta bracket's geometric grid before duplicates merge.
THETA_GRID = 25


@dataclass(frozen=True)
class CounterexampleCase:
    """One kernel-difference function with its derived scale data."""

    n_k: int
    radix_seq: RadixSequence  # truncated to the working depth 2 n_k + 1
    m_lo: int  # M_{2 n_k}
    m_hi: int  # M_{2 n_k + 1}
    func: StepFunction
    n_star: int  # probe order M_{2 n_k} + 2

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Analysis coefficients of the case function (read-only)."""
        return forward_fast(self.func).coeffs

    @cached_property
    def mean(self) -> StepFunction:
        """L_{n*} f, the logarithmic mean at the probe order."""
        return log_mean(self.func, self.n_star)

    @cached_property
    def maximal(self) -> StepFunction:
        """f*, the martingale maximal function."""
        return maximal_function(self.func)


def build_case(n_k: int, radix_seq: RadixSequence) -> CounterexampleCase:
    """Construct the kernel difference exactly from the closed kernel forms.

    The function takes the value M_hi - M_lo on the rank-(2 n_k + 1)
    cylinder at 0, -M_lo on the rest of the rank-2 n_k cylinder at 0, and
    0 outside it.
    """
    if n_k < 1:
        raise DepthTooSmall(f"need n_k >= 1, got {n_k}")
    need = 2 * n_k + 1
    if radix_seq.depth < need:
        raise DepthTooSmall(f"depth {radix_seq.depth} < {need} required for n_k = {n_k}")
    work = truncate(radix_seq, need)
    hi = dirichlet_closed_MN(work, need)
    lo = dirichlet_closed_MN(work, need - 1)
    func = StepFunction(work, hi.values - lo.values)
    m_lo = work.scales[need - 1]
    m_hi = work.scales[need]
    return CounterexampleCase(
        n_k=n_k, radix_seq=work, m_lo=m_lo, m_hi=m_hi, func=func, n_star=m_lo + 2
    )


@dataclass(frozen=True)
class PartialSumCheck:
    ok: bool
    max_err_zero: float
    max_err_middle: float
    max_err_tail: float


def verify_partial_sums(case: CounterexampleCase) -> PartialSumCheck:
    """Certify the partial-sum branches from the coefficients, in O(M_N).

    S_i = 0 for i <= M_lo, D_i - D_{M_lo} for M_lo < i < M_hi, f for i >= M_hi.
    Each prediction is sum_{k<i} e_k psi_k with e the indicator of [M_lo, M_hi),
    so each error is sum_{k<i} delta_k psi_k with delta = c - e; as |psi_k| = 1
    it is at most the l1 mass of delta below the branch's last order.  The
    tail's mass, sum_k |delta_k|, also bounds max_k |delta_k|: it certifies
    the coefficient pattern itself.
    """
    delta = case.coeffs.copy()
    delta[case.m_lo : case.m_hi] -= 1.0
    mass = np.cumsum(np.abs(delta))
    err_zero = float(mass[case.m_lo - 1])
    err_middle = float(mass[case.m_hi - 2])
    err_tail = float(mass[-1])
    ok = max(err_zero, err_middle, err_tail) <= CASE_TOL
    return PartialSumCheck(
        ok=ok, max_err_zero=err_zero, max_err_middle=err_middle, max_err_tail=err_tail
    )


@dataclass(frozen=True)
class HardyCheck:
    ok: bool
    measured: float
    closed_value: float
    upper_bound: float


def hardy_closed_value(case: CounterexampleCase, p: float) -> float:
    """Exact Hardy quasi-norm of the case function.

    The maximal function equals |f|: the conditional-average levels vanish
    below the top rank and reproduce f there.  Integrating |f|^p over its
    two level sets gives
    (M_hi - M_lo)^p / M_hi + M_lo^p (1/M_lo - 1/M_hi), all to the 1/p.
    """
    p = check_exponent(p, 1.0)
    lo, hi = case.m_lo, case.m_hi
    power = (hi - lo) ** p / hi + lo**p * (1.0 / lo - 1.0 / hi)
    return power ** (1.0 / p)


def verify_hardy_bound(case: CounterexampleCase, p: float) -> HardyCheck:
    """Measured Hardy norm against the closed value and the uniform bound."""
    p = check_exponent(p, 1.0)
    fstar = case.maximal
    gap = float(np.max(np.abs(fstar.values - np.abs(case.func.values))))
    measured = lp_quasinorm(fstar, p)
    closed = hardy_closed_value(case, p)
    upper = 2.0 ** (1.0 / p) * case.m_lo ** (1.0 - 1.0 / p)
    uniform = 2.0 ** (1.0 / p)
    ok = (
        gap <= HARDY_REL_TOL * max(1.0, case.m_hi)
        and abs(measured - closed) <= HARDY_REL_TOL * closed
        and measured <= upper * (1.0 + HARDY_REL_TOL)
        and upper <= uniform * (1.0 + HARDY_REL_TOL)
    )
    return HardyCheck(
        ok=ok,
        measured=measured,
        closed_value=closed,
        upper_bound=upper,
    )


@dataclass(frozen=True)
class LogMeanIdentityCheck:
    ok: bool
    modulus: float
    predicted: float
    levelset_measure: float


def levelset_measure(f: StepFunction, threshold: float) -> float:
    """mu{|f| >= threshold}, with LEVELSET_SLACK relative forgiveness."""
    count = int(np.count_nonzero(np.abs(f.values) >= threshold * (1.0 - LEVELSET_SLACK)))
    return count / f.radix_seq.size


def l_mean_identity(case: CounterexampleCase) -> LogMeanIdentityCheck:
    """L_{n*} f must equal psi_{M_lo} / l_{n*} with constant modulus 1/l_{n*}.

    Only the k = M_lo + 1 partial sum survives in the mean (its neighbors
    are zero or absent), with denominator n* - k = 1, so the whole-group
    level set of the modulus has measure exactly 1.
    """
    ell = harmonic_l(case.n_star)
    predicted = 1.0 / ell
    computed = case.mean
    target = character_rows(case.radix_seq, case.m_lo, case.m_lo + 1)[0] / ell
    gap = float(np.max(np.abs(computed.values - target)))
    moduli = np.abs(computed.values)
    variance = float(np.var(moduli))
    measure = levelset_measure(computed, predicted)
    ok = gap <= CASE_TOL and variance <= MODULUS_VARIANCE_TOL and measure == 1.0
    return LogMeanIdentityCheck(
        ok=ok,
        modulus=float(np.mean(moduli)),
        predicted=predicted,
        levelset_measure=measure,
    )


def sweep_row(position, case, p, weight):
    """One divergence-sweep report row for the given case."""
    ell = harmonic_l(case.n_star)
    phi = weight.phi(case.n_star + 1)
    threshold = 1.0 / (ell * phi)
    modulus = float(np.mean(np.abs(case.mean.values)))
    measure = levelset_measure(case.mean, threshold)
    lp_norm = lp_quasinorm(case.func, p)
    hardy = lp_quasinorm(case.maximal, p)
    ratio = threshold * measure ** (1.0 / p) / lp_norm
    comparator = case.m_lo ** (1.0 / p - 1.0) / (math.log(case.m_lo + 2.0) * phi)
    return (
        position,
        case.n_k,
        case.m_lo,
        case.n_star,
        p,
        phi,
        ell,
        modulus,
        hardy,
        ratio,
        comparator,
    )


@dataclass(frozen=True)
class DivergenceSweep:
    """Rows under SWEEP_COLUMNS, the condition-6 verdict, whether R_k strictly
    increases on every step where the comparator does, and on how many it does."""

    rows: tuple[tuple, ...]
    condition6: str
    monotone: bool
    asserted: int


def divergence_sweep(cases, p: float, weight: WeightFunction) -> DivergenceSweep:
    """Weak-type ratio R_k per case, with the analytic comparator.

    R_k = threshold * mu{|L_{n*} f| >= threshold}^{1/p} / ||f||_p where
    threshold = 1/(l_{n*} phi(n*+1)).  Growth of R_k is expected only
    when the weight's verdict is ``satisfied``, so callers assert
    ``monotone`` in that case alone.  Even then condition (6) gives only
    limsup R_k = inf: R_k follows the comparator, which can fall over the
    first cases (at p = 0.7 on the dyadic group), so strict growth of R_k
    is required only on the steps k -> k+1 where the comparator grows.
    """
    p = check_exponent(p, 1.0)
    verdict = condition6_advisory(weight, p)
    rows = tuple(sweep_row(pos + 1, case, p, weight) for pos, case in enumerate(cases))
    steps = [(a, b) for a, b in zip(rows, rows[1:]) if b[10] > a[10]]
    monotone = all(b[9] > a[9] for a, b in steps)
    return DivergenceSweep(rows=rows, condition6=verdict, monotone=monotone, asserted=len(steps))


def theta_bracket(
    radix_seq: RadixSequence, p: float, cases, samples: int = 5, seed: int = 0
) -> ExperimentReport:
    """Exploratory envelope C_1 n^{1/p-1}/log(n+1) .. C_2 n^{1/p-1}.

    Measured points are unweighted ratios: the sweep cases contribute
    1/(l_{n*} ||f||_p) at n = n*, random atoms contribute the flat-weight
    maximal ratio at their truncation order.  C_1 and C_2 are fitted so
    the band encloses every point (C_1 clamped below C_2 so the band stays
    ordered on the whole grid).  The fit only encloses finite data; it
    carries no optimality content.
    """
    p = check_exponent(p, 1.0)
    expo = 1.0 / p - 1.0
    points = []
    for case in cases:
        y = 1.0 / (harmonic_l(case.n_star) * lp_quasinorm(case.func, p))
        points.append((case.n_star, y, "sweep"))
    atom_seq = truncate(radix_seq, min(radix_seq.depth, 8))
    atom_nmax = min(atom_seq.size, 256)
    flat = power_weight(0.0)
    # an atom of rank r has c_j = 0 for j < M_r, so L_n of it vanishes for
    # n < M_r + 2: only ranks that some order up to atom_nmax sees are drawn
    ranks = sum(m + 2 <= atom_nmax for m in atom_seq.scales[:-1])
    if samples > 0 and ranks == 0:
        raise DegenerateInput(f"theta atoms need a group of 3 or more points, not {atom_seq.size}")
    children = np.random.SeedSequence(seed).spawn(samples)
    for i in range(samples):
        rng = np.random.default_rng(children[i])
        rank = int(rng.integers(0, ranks))
        atom = make_atom(rng, atom_seq, rank, p)
        a = atom.function  # a p-atom: its Hardy norm is not zero
        y = lp_quasinorm(weighted_maximal(a, flat, atom_nmax), p) / hardy_quasinorm(a, p)
        points.append((atom_nmax, y, "atom"))
    if not points:
        raise DegenerateInput("theta bracket needs a sweep case or an atom sample to fit")
    c2 = max(y / n**expo for n, y, _ in points)
    c1 = min(min(y * math.log(n + 1.0) / n**expo for n, y, _ in points), c2)
    top = max(n for n, _, _ in points)
    grid = sorted({int(n) for n in np.geomspace(2, max(top, 4), THETA_GRID).astype(np.int64)})
    report = ExperimentReport(columns=list(THETA_COLUMNS))
    report.add_meta("p", p)
    report.add_meta("C1", c1)
    report.add_meta("C2", c2)
    report.add_meta("note", "exploratory envelope fit from finite data; no optimality claim")
    for n in grid:
        report.add_row(n, c1 * n**expo / math.log(n + 1.0), c2 * n**expo, None, "grid")
    for n, y, source in points:
        n = int(n)
        report.add_row(n, c1 * n**expo / math.log(n + 1.0), c2 * n**expo, y, source)
    return report
