import numpy as np
import pytest

from vlab.errors import DepthTooSmall, InvalidExponent
from vlab.counterexample import (
    SWEEP_COLUMNS,
    build_case,
    divergence_sweep,
    hardy_closed_value,
    l_mean_identity,
    theta_bracket,
    verify_coefficients,
    verify_hardy_bound,
    verify_partial_sums,
)
import vlab.counterexample as counterexample_mod
from vlab.group_core import build_radix, cycle_radices
from vlab.means import harmonic_l
from vlab.operators import log_weight, power_weight
from vlab.step_functions import hardy_quasinorm, lp_quasinorm
from vlab.transform import CoefficientVector, character_rows, dirichlet_kernel, forward_fast

TEST_MATRIX = [
    (2,) * 7,
    cycle_radices((2, 3), 7),
    (3,) * 7,
    cycle_radices((2, 3, 4, 2, 3), 7),
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
    from vlab.transform import forward_fast

    coeffs = forward_fast(case.func).coeffs
    assert np.max(np.abs(coeffs[:4])) <= 1e-12
    assert np.max(np.abs(coeffs[4:8] - 1.0)) <= 1e-12
    assert abs(coeffs[0]) <= 1e-12
    assert coeffs.sum().real == pytest.approx(case.m_hi - case.m_lo, abs=1e-9)
    report = verify_coefficients(case)
    assert report.ok


def test_coefficient_pattern_across_matrix():
    for radices in TEST_MATRIX:
        for n_k in (1, 2):
            case = build_case(n_k, build_radix(radices))
            assert verify_coefficients(case).ok


def test_partial_sum_branches_across_matrix():
    for radices in TEST_MATRIX:
        for n_k in (1, 2):
            case = build_case(n_k, build_radix(radices))
            report = verify_partial_sums(case)
            assert report.ok, (radices, n_k, report)
            assert max(walk_partial_sums(case)) <= report.tol, (radices, n_k)


@pytest.mark.parametrize(
    "radices", [*TEST_MATRIX, (5,) * 5, cycle_radices((7, 2), 5)], ids=str
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
    assert verify_partial_sums(build_case(2, build_radix(cycle_radices((2, 3), 5)))).ok
    assert calls == {"forward_fast": 1, "character_rows": 0}


def test_partial_sum_certificate_catches_a_wrong_coefficient(monkeypatch):
    case = build_case(2, dyadic(5))

    def bumped(f):
        coeffs = forward_fast(f).coeffs.copy()
        coeffs[case.m_lo + 1] += 2e-9
        return CoefficientVector(f.radix_seq, coeffs)

    monkeypatch.setattr(counterexample_mod, "forward_fast", bumped)
    report = verify_partial_sums(case)
    assert not report.ok
    assert report.max_err_zero == 0.0
    assert report.max_err_middle >= 2e-9
    assert report.max_err_tail >= 2e-9


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
    check = l_mean_identity(build_case(1, dyadic(3)))
    assert check.ok
    assert check.predicted == pytest.approx(20 / 49, abs=1e-12)
    assert abs(check.modulus - 20 / 49) <= 1e-12
    assert check.levelset_measure == 1.0
    assert check.modulus_variance <= 1e-18


def test_l_mean_identity_mixed_radix():
    # radices (2,3,...): M_2 = 6, probe order 8, modulus 1/l_8 everywhere
    case = build_case(1, build_radix(cycle_radices((2, 3), 3)))
    assert case.n_star == 8
    check = l_mean_identity(case)
    assert check.ok
    assert check.modulus == pytest.approx(1 / harmonic_l(8), abs=1e-12)


def test_l_mean_identity_across_matrix():
    for radices in TEST_MATRIX:
        for n_k in (1, 2):
            check = l_mean_identity(build_case(n_k, build_radix(radices)))
            assert check.ok
            assert check.levelset_measure == 1.0
            assert check.modulus_variance <= 1e-18


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
    report = divergence_sweep(seq, [1, 2, 3, 4], 0.5, weight)
    assert report.columns == SWEEP_COLUMNS
    assert len(report.rows) == 4
    for pos, row in enumerate(report.rows, start=1):
        case = build_case(row[1], seq)
        assert row[0] == pos
        assert row[2] == case.m_lo
        assert row[3] == case.n_star
        assert row[9] == pytest.approx(_expected_ratio(case, 0.5, weight), rel=1e-12)


def test_divergence_sweep_strictly_increasing():
    report = divergence_sweep(dyadic(9), [1, 2, 3, 4], 0.5, log_weight())
    ratios = [row[9] for row in report.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert report.meta["condition6"] == "satisfied"
    assert report.meta["monotone_ok"] == "true"


def test_divergence_sweep_ratio_dominates_comparator():
    report = divergence_sweep(dyadic(9), [1, 2, 3, 4], 0.5, log_weight())
    for row in report.rows:
        assert row[9] >= row[10] * 0.4  # same growth order, modest constant


def test_divergence_sweep_flags_violating_weight():
    # alpha = 1/p - 1 fails the divergence condition; the sweep still runs
    # but growth is not asserted
    report = divergence_sweep(dyadic(9), [1, 2, 3], 0.5, power_weight(1.0))
    assert report.meta["condition6"] == "violated"
    assert report.meta["monotone_checked"] == "false"
    assert len(report.rows) == 3


def test_hardy_column_uniformly_bounded():
    report = divergence_sweep(dyadic(11), [1, 2, 3, 4, 5], 0.5, log_weight())
    assert max(row[8] for row in report.rows) <= 2 ** (1 / 0.5)


def test_theta_bracket_structure():
    seq = dyadic(9)
    report = theta_bracket(seq, 0.5, [1, 2, 3, 4], samples=3, seed=1)
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


def test_theta_bracket_deterministic():
    seq = dyadic(9)
    a = theta_bracket(seq, 0.5, [1, 2], samples=3, seed=7)
    b = theta_bracket(seq, 0.5, [1, 2], samples=3, seed=7)
    assert a.to_csv_text() == b.to_csv_text()


def test_sweep_vs_module_norms():
    # hardy_norm column reproduces the step_functions measurement
    seq = dyadic(9)
    report = divergence_sweep(seq, [1, 2], 0.5, log_weight())
    for row in report.rows:
        case = build_case(row[1], seq)
        assert row[8] == pytest.approx(hardy_quasinorm(case.func, 0.5), rel=1e-12)
        assert row[8] == pytest.approx(lp_quasinorm(case.func, 0.5), rel=1e-12)
