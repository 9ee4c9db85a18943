import numpy as np
import pytest

from vlab.errors import DegenerateInput, DepthTooSmall, InvalidExponent
from vlab.counterexample import (
    SWEEP_COLUMNS,
    build_case,
    divergence_sweep,
    hardy_closed_value,
    l_mean_identity,
    theta_bracket,
    verify_hardy_bound,
    verify_partial_sums,
)
import vlab.counterexample as counterexample_mod
from vlab.group_core import build_radix
from vlab.means import harmonic_l
from vlab.operators import log_weight, power_weight
from vlab.step_functions import hardy_quasinorm, lp_quasinorm
from vlab.transform import CoefficientVector, character_rows, dirichlet_kernel, forward_fast

TEST_MATRIX = [
    (2,) * 7,
    build_radix((2, 3), 7).radices,
    (3,) * 7,
    build_radix((2, 3, 4, 2, 3), 7).radices,
]


def dyadic(depth):
    return build_radix((2,) * depth)


def walk_partial_sums(case):
    """Per-branch max errors of S_i f by the incremental S_i/D_i walk (oracle).

    S_i = 0 for i <= M_lo, S_i = D_i - D_{M_lo} for M_lo < i < M_hi and
    S_i = f for i >= M_hi; one character row per step, O(M_N^2).
    """
    seq = case.radix_seq
    f = case.func
    coeffs = forward_fast(f).coeffs
    s_acc = np.zeros(seq.size, dtype=np.complex128)
    d_acc = np.zeros(seq.size, dtype=np.complex128)
    d_at_lo = None
    err_zero = err_middle = err_tail = 0.0
    for i in range(1, seq.size + 1):
        row = character_rows(seq, i - 1, i)[0]
        s_acc += coeffs[i - 1] * row
        d_acc += row
        if i == case.m_lo:
            d_at_lo = d_acc.copy()
        if i <= case.m_lo:
            err_zero = max(err_zero, float(np.max(np.abs(s_acc))))
        elif i < case.m_hi:
            err_middle = max(err_middle, float(np.max(np.abs(s_acc - (d_acc - d_at_lo)))))
        else:
            err_tail = max(err_tail, float(np.max(np.abs(s_acc - f.values))))
    return err_zero, err_middle, err_tail


def walk_branch_deltas(case):
    """Per-branch maxima of |sum_{k<i} delta_k psi_k|, delta = c - 1_[M_lo, M_hi).

    These are the exact branch errors the certificate bounds, summed
    without the S_i/D_i walk's extra rounding.
    """
    seq = case.radix_seq
    delta = forward_fast(case.func).coeffs.copy()
    delta[case.m_lo : case.m_hi] -= 1.0
    acc = np.zeros(seq.size, dtype=np.complex128)
    sup = np.empty(seq.size)  # sup[i - 1] is the error of S_i
    for k in range(seq.size):
        acc += delta[k] * character_rows(seq, k, k + 1)[0]
        sup[k] = np.max(np.abs(acc))
    return sup[: case.m_lo].max(), sup[case.m_lo : case.m_hi - 1].max(), sup[-1]


def test_build_case_dyadic_values():
    case = build_case(1, dyadic(3))
    assert (case.m_lo, case.m_hi, case.n_star) == (4, 8, 6)
    want = np.zeros(8)
    want[0] = 4.0  # I_3 anchor
    want[4] = -4.0  # rest of I_2
    assert np.array_equal(case.func.values.real, want)
    assert np.max(np.abs(case.func.values.imag)) == 0.0


def test_build_case_mixed_radix_values():
    case = build_case(1, build_radix((2, 3, 2, 3)))
    assert (case.m_lo, case.m_hi) == (6, 12)
    vals = case.func.values.real
    assert vals[0] == 6.0
    assert vals[6] == -6.0
    assert np.count_nonzero(vals) == 2


def test_case_function_integrates_to_zero():
    for radices in TEST_MATRIX:
        case = build_case(2, build_radix(radices))
        assert abs(np.mean(case.func.values)) <= 1e-12


def test_case_equals_kernel_difference():
    for radices in TEST_MATRIX:
        case = build_case(1, build_radix(radices))
        seq = case.radix_seq
        want = dirichlet_kernel(seq, case.m_hi).values - dirichlet_kernel(seq, case.m_lo).values
        assert np.max(np.abs(case.func.values - want)) <= 1e-9


def test_build_case_depth_guard():
    with pytest.raises(DepthTooSmall):
        build_case(2, dyadic(4))
    with pytest.raises(DepthTooSmall):
        build_case(0, dyadic(4))


def test_coefficient_pattern_dyadic():
    case = build_case(1, dyadic(3))
    coeffs = forward_fast(case.func).coeffs
    assert np.max(np.abs(coeffs[:4])) <= 1e-12
    assert np.max(np.abs(coeffs[4:8] - 1.0)) <= 1e-12
    assert abs(coeffs[0]) <= 1e-12
    assert coeffs.sum().real == pytest.approx(case.m_hi - case.m_lo, abs=1e-9)
    # the certificate's tail mass bounds every coefficient's distance from the pattern
    report = verify_partial_sums(case)
    assert report.ok
    pattern = np.zeros(case.radix_seq.size)
    pattern[case.m_lo : case.m_hi] = 1.0
    assert np.max(np.abs(coeffs - pattern)) <= report.max_err_tail


def test_partial_sum_branches_across_matrix():
    for radices in TEST_MATRIX:
        for n_k in (1, 2):
            case = build_case(n_k, build_radix(radices))
            report = verify_partial_sums(case)
            assert report.ok, (radices, n_k, report)
            assert max(walk_partial_sums(case)) <= counterexample_mod.CASE_TOL, (radices, n_k)


@pytest.mark.parametrize(
    "radices", [*TEST_MATRIX, (5,) * 5, build_radix((7, 2), 5).radices], ids=str
)
def test_partial_sum_certificate_bounds_branch_errors(radices):
    # the certificate is the l1 mass of delta up to each branch's last order;
    # it must dominate every summed branch error up to summation rounding
    for n_k in (1, 2):
        case = build_case(n_k, build_radix(radices))
        report = verify_partial_sums(case)
        cert = (report.max_err_zero, report.max_err_middle, report.max_err_tail)
        slack = 1.0 + 4 * case.radix_seq.size * 2.0**-52
        for walked, bound in zip(walk_branch_deltas(case), cert):
            assert walked <= bound * slack, (radices, n_k, walked, bound)


def test_partial_sum_certificate_costs_one_transform(monkeypatch):
    calls = {"forward_fast": 0, "character_rows": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        fn = getattr(counterexample_mod, name)
        monkeypatch.setattr(counterexample_mod, name, counting(name, fn))
    assert verify_partial_sums(build_case(2, build_radix((2, 3), 5))).ok
    assert calls == {"forward_fast": 1, "character_rows": 0}


def test_partial_sum_certificate_catches_a_wrong_coefficient(monkeypatch):
    case = build_case(2, dyadic(5))

    bumps = []

    def bumped(f):
        coeffs = forward_fast(f).coeffs.copy()
        before = coeffs[case.m_lo + 1]
        coeffs[case.m_lo + 1] += 2e-9
        # added to c = 1.0 the bump is stored as 1.99999994e-9
        bumps.append(abs(coeffs[case.m_lo + 1] - before))
        return CoefficientVector(f.radix_seq, coeffs)

    monkeypatch.setattr(counterexample_mod, "forward_fast", bumped)
    report = verify_partial_sums(case)
    assert not report.ok
    assert report.max_err_zero == 0.0
    assert report.max_err_middle >= bumps[0]
    assert report.max_err_tail >= bumps[0]


@pytest.mark.parametrize("where", ["below M_lo", "last"])
def test_partial_sum_certificate_fails_in_the_zero_and_tail_branches(monkeypatch, where):
    # a coefficient off the pattern by 2 CASE_TOL: below M_lo it reaches
    # every branch; the case's group ends at M_hi, so the last coefficient,
    # M_hi - 1, is the one the middle branch (S_i, i < M_hi) does not see
    case = build_case(2, dyadic(5))
    index = case.m_lo - 1 if where == "below M_lo" else case.m_hi - 1
    assert case.m_hi == case.radix_seq.size
    bumps = []

    def bumped(f):
        coeffs = forward_fast(f).coeffs.copy()
        before = coeffs[index]
        coeffs[index] += 2 * counterexample_mod.CASE_TOL
        bumps.append(abs(coeffs[index] - before))  # rounded when added to c = 1
        return CoefficientVector(f.radix_seq, coeffs)

    monkeypatch.setattr(counterexample_mod, "forward_fast", bumped)
    report = verify_partial_sums(case)
    assert not report.ok
    # the dyadic case's coefficients are exact, so each mass is the bump or 0
    inside = bumps[0] if where == "below M_lo" else 0.0
    errs = (report.max_err_zero, report.max_err_middle, report.max_err_tail)
    assert errs == (inside, inside, bumps[0])


def test_hardy_bound_dyadic_value():
    case = build_case(1, dyadic(3))
    check = verify_hardy_bound(case, 0.5)
    assert check.ok
    assert check.measured == pytest.approx(0.25, abs=1e-12)
    assert check.closed_value == pytest.approx(0.25, abs=1e-12)
    # 1/4 = M_2^{1 - 1/p} at p = 1/2
    assert check.measured == pytest.approx(case.m_lo ** (1 - 1 / 0.5), abs=1e-12)


def test_hardy_norm_decreasing_in_case_index():
    seq = dyadic(11)
    norms = [verify_hardy_bound(build_case(k, seq), 0.5).measured for k in (1, 2, 3, 4, 5)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_hardy_closed_value_near_p_one():
    # as p -> 1 the closed value approaches ||f||_1 <= 2
    case = build_case(1, dyadic(3))
    assert hardy_closed_value(case, 0.999) <= 2.0 + 1e-6
    with pytest.raises(InvalidExponent):
        hardy_closed_value(case, 1.0)


def test_hardy_uniform_bound_across_matrix():
    for radices in TEST_MATRIX:
        for n_k in (1, 2):
            case = build_case(n_k, build_radix(radices))
            for p in (0.3, 0.5, 0.8):
                check = verify_hardy_bound(case, p)
                assert check.ok
                assert check.measured <= 2 ** (1 / p) * (1 + 1e-12)


def test_l_mean_identity_dyadic():
    case = build_case(1, dyadic(3))
    check = l_mean_identity(case)
    assert check.ok
    assert check.predicted == pytest.approx(20 / 49, abs=1e-12)
    assert abs(check.modulus - 20 / 49) <= 1e-12
    assert check.levelset_measure == 1.0
    assert np.var(np.abs(case.mean.values)) <= counterexample_mod.MODULUS_VARIANCE_TOL


def test_l_mean_identity_mixed_radix():
    # radices (2,3,...): M_2 = 6, probe order 8, modulus 1/l_8 everywhere
    case = build_case(1, build_radix((2, 3), 3))
    assert case.n_star == 8
    check = l_mean_identity(case)
    assert check.ok
    assert check.modulus == pytest.approx(1 / harmonic_l(8), abs=1e-12)


def test_l_mean_identity_across_matrix():
    for radices in TEST_MATRIX:
        for n_k in (1, 2):
            case = build_case(n_k, build_radix(radices))
            check = l_mean_identity(case)
            assert check.ok
            assert check.levelset_measure == 1.0
            assert np.var(np.abs(case.mean.values)) <= counterexample_mod.MODULUS_VARIANCE_TOL


def _expected_ratio(case, p, weight):
    # independent recomputation from the collapse identity: the level set is
    # the whole group, so R = 1 / (l_{n*} phi(n*+1) ||f||_p)
    ell = harmonic_l(case.n_star)
    phi = weight.phi(case.n_star + 1)
    lo, hi = case.m_lo, case.m_hi
    norm = ((hi - lo) ** p / hi + lo**p * (1 / lo - 1 / hi)) ** (1 / p)
    return 1.0 / (ell * phi * norm)


def test_divergence_sweep_rows_match_oracle():
    seq = dyadic(9)
    weight = log_weight()
    sweep = divergence_sweep([build_case(k, seq) for k in [1, 2, 3, 4]], 0.5, weight)
    assert len(sweep.rows) == 4
    for pos, row in enumerate(sweep.rows, start=1):
        assert len(row) == len(SWEEP_COLUMNS)
        case = build_case(row[1], seq)
        assert row[0] == pos
        assert row[2] == case.m_lo
        assert row[3] == case.n_star
        assert row[9] == pytest.approx(_expected_ratio(case, 0.5, weight), rel=1e-12)


def test_divergence_sweep_strictly_increasing():
    sweep = divergence_sweep([build_case(k, dyadic(9)) for k in [1, 2, 3, 4]], 0.5, log_weight())
    ratios = [row[9] for row in sweep.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert sweep.condition6 == "satisfied"
    assert sweep.monotone


def test_divergence_sweep_ratio_dominates_comparator():
    sweep = divergence_sweep([build_case(k, dyadic(9)) for k in [1, 2, 3, 4]], 0.5, log_weight())
    for row in sweep.rows:
        assert row[9] >= row[10] * 0.4  # same growth order, modest constant


def test_divergence_sweep_flags_violating_weight():
    # alpha = 1/p - 1 fails the divergence condition; the sweep still runs
    # and reports the verdict, on which the CLI skips the growth assertion
    cases = [build_case(k, dyadic(9)) for k in [1, 2, 3]]
    sweep = divergence_sweep(cases, 0.5, power_weight(1.0))
    assert sweep.condition6 == "violated"
    assert len(sweep.rows) == 3


def test_divergence_sweep_asserts_growth_where_the_comparator_grows(monkeypatch):
    # condition (6) gives limsup R_k = inf, not growth over a few cases: at
    # p = 0.7 the comparator, and R_k with it, falls over k = 1..3 before it
    # rises; at p = 0.5 it rises on every step, so growth is asserted on all
    cases = [build_case(k, dyadic(13)) for k in range(1, 7)]
    falls = divergence_sweep(cases, 0.7, log_weight())
    comparators = [row[10] for row in falls.rows]
    assert comparators[1] < comparators[0] and comparators[5] > comparators[4]
    assert falls.condition6 == "satisfied" and falls.monotone
    rises = divergence_sweep(cases, 0.5, log_weight())
    assert all(b[10] > a[10] for a, b in zip(rises.rows, rises.rows[1:]))
    real = counterexample_mod.sweep_row
    for p, drops in [(0.7, [6]), (0.5, [2, 3, 4, 5, 6])]:
        for drop in drops:
            # R_k falling on a step where the comparator rises still fails

            def falling(position, case, p, weight, _drop=drop):
                row = real(position, case, p, weight)
                return (*row[:9], row[9] / 100, row[10]) if position == _drop else row

            monkeypatch.setattr(counterexample_mod, "sweep_row", falling)
            assert not divergence_sweep(cases, p, log_weight()).monotone, (p, drop)


def test_hardy_column_uniformly_bounded():
    cases = [build_case(k, dyadic(11)) for k in [1, 2, 3, 4, 5]]
    sweep = divergence_sweep(cases, 0.5, log_weight())
    assert max(row[8] for row in sweep.rows) <= 2 ** (1 / 0.5)


def test_theta_bracket_structure():
    seq = dyadic(9)
    report = theta_bracket(seq, 0.5, [build_case(k, seq) for k in [1, 2, 3, 4]], samples=3, seed=1)
    text = report.to_csv_text()
    assert "exploratory" in report.meta["note"]
    assert "sharp" not in text.lower()
    c1 = float(report.meta["C1"])
    c2 = float(report.meta["C2"])
    assert 0 < c1 <= c2
    grid_rows = [row for row in report.rows if row[4] == "grid"]
    assert grid_rows
    for n, lower, upper, _, _ in grid_rows:
        assert n >= 2
        assert lower < upper
    sweep_rows = [row for row in report.rows if row[4] == "sweep"]
    assert len(sweep_rows) == 4
    for n, lower, upper, measured, _ in sweep_rows:
        assert measured >= lower - 1e-12
        assert measured <= upper + 1e-12


def test_theta_atoms_are_drawn_where_the_means_see_them():
    # theorem-b --radices 3 --k-list 1,2,3,4 --seed 2: an atom of rank r has
    # L_n = 0 below n = M_r + 2, so a rank with M_r + 2 > 256 would give a
    # roundoff ratio, and C1 would be fitted to it
    seq = build_radix((3,) * 9)
    report = theta_bracket(seq, 0.5, [build_case(k, seq) for k in [1, 2, 3, 4]], seed=2)
    atoms = [row[3] for row in report.rows if row[4] == "atom"]
    assert len(atoms) == 5
    assert min(atoms) > 1e-6
    assert float(report.meta["C1"]) > 1e-6


@pytest.mark.parametrize("depth", [0, 1])
def test_theta_atoms_on_fewer_than_three_points_are_refused(depth):
    # orders up to M_N <= 2 see no rank: L_n of a rank-0 atom vanishes below n = 3
    with pytest.raises(DegenerateInput, match="3 or more points"):
        theta_bracket(build_radix((2,), depth), 0.5, [], samples=1)


def test_theta_bracket_with_no_points_is_refused():
    # no sweep case and no atom leave nothing to fit C1 and C2 to
    with pytest.raises(DegenerateInput, match="sweep case or an atom"):
        theta_bracket(build_radix((2,), 4), 0.5, [], samples=0)


def test_theta_bracket_deterministic():
    seq = dyadic(9)
    a = theta_bracket(seq, 0.5, [build_case(k, seq) for k in [1, 2]], samples=3, seed=7)
    b = theta_bracket(seq, 0.5, [build_case(k, seq) for k in [1, 2]], samples=3, seed=7)
    assert a.to_csv_text() == b.to_csv_text()


def test_sweep_vs_module_norms():
    # hardy_norm column reproduces the step_functions measurement
    seq = dyadic(9)
    sweep = divergence_sweep([build_case(k, seq) for k in [1, 2]], 0.5, log_weight())
    for row in sweep.rows:
        case = build_case(row[1], seq)
        assert row[8] == pytest.approx(hardy_quasinorm(case.func, 0.5), rel=1e-12)
        assert row[8] == pytest.approx(lp_quasinorm(case.func, 0.5), rel=1e-12)
