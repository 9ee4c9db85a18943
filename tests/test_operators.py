import numpy as np
import pytest

from vlab.errors import (
    DegenerateInput,
    IndexOutOfRange,
    InvalidExponent,
    InvalidWeight,
    RankOutOfRange,
)
from vlab.group_core import build_radix
from vlab.operators import (
    boundedness_ratio,
    condition6_advisory,
    critical_power_weight,
    custom_weight,
    domination_check,
    log_mean_tail_bound,
    log_weight,
    make_atom,
    parse_weight_spec,
    power_weight,
    weighted_maximal,
)
from vlab.step_functions import (
    StepFunction,
    constant,
    hardy_quasinorm,
    lp_quasinorm,
    scale,
    zero,
)
from vlab.transform import character_rows, dirichlet_closed_MN
from vlab.means import harmonic_l


def random_function(seq, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


def dyadic(depth):
    return build_radix((2,) * depth)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


def test_power_weight_values():
    w = power_weight(2.0)
    assert w.phi(1) == 1.0
    assert w.phi(3) == 9.0
    assert np.allclose(w.phi(np.array([1, 2, 4])), [1.0, 4.0, 16.0])


def test_log_weight_floors_at_one():
    w = log_weight()
    assert w.phi(1) == 1.0  # ln 2 < 1 gets clamped
    assert w.phi(10) == pytest.approx(np.log(11.0))


def test_custom_weight_validation():
    w = custom_weight([1.0, 1.5, 1.5, 2.0])
    assert w.phi(3) == 1.5
    with pytest.raises(InvalidWeight):
        custom_weight([1.0, 0.5])
    with pytest.raises(InvalidWeight):
        custom_weight([2.0, 1.5])
    with pytest.raises(InvalidWeight):
        w.phi(9)


def test_weight_spec_parsing(tmp_path):
    assert parse_weight_spec("log").family == "log"
    assert parse_weight_spec("power:1.5").alpha == 1.5
    path = tmp_path / "w.txt"
    path.write_text("1.0\n2.0\n3.0\n")
    w = parse_weight_spec(f"custom:{path}")
    assert w.phi(2) == 2.0
    with pytest.raises(InvalidWeight):
        parse_weight_spec("power:abc")
    with pytest.raises(InvalidWeight):
        parse_weight_spec("mystery")
    with pytest.raises(InvalidWeight):
        power_weight(-0.5)


def test_critical_power_weight():
    w = critical_power_weight(0.5)
    assert w.alpha == pytest.approx(1.0)
    with pytest.raises(InvalidExponent):
        critical_power_weight(1.5)


def test_condition6_verdicts():
    assert condition6_advisory(power_weight(1.0), 0.5) == "violated"  # alpha = 1/p - 1
    assert condition6_advisory(power_weight(0.5), 0.5) == "satisfied"
    assert condition6_advisory(log_weight(), 0.5) == "satisfied"
    assert condition6_advisory(log_weight(), 1.0) == "violated"
    assert condition6_advisory(custom_weight([1.0, 2.0]), 0.5) == "unknown"
    with pytest.raises(InvalidExponent):
        condition6_advisory(log_weight(), 0.0)


# ---------------------------------------------------------------------------
# weighted maximal operator
# ---------------------------------------------------------------------------


def test_weighted_maximal_of_zero():
    seq = dyadic(4)
    for kind in ("partial_sum", "log_mean"):
        out = weighted_maximal(zero(seq), kind, log_weight(), seq.size)
        assert np.max(np.abs(out.values)) == 0.0


def test_weighted_maximal_of_character_partial_sums():
    # S_n psi_1 = psi_1 for n >= 2, else 0; the critical weight at p = 1/2
    # divides by n + 1, so the sup is 1/3 at n = 2
    seq = dyadic(4)
    psi1 = StepFunction(seq, character_rows(seq, 1, 2)[0])
    out = weighted_maximal(psi1, "partial_sum", critical_power_weight(0.5), seq.size)
    assert np.max(np.abs(out.values - 1.0 / 3.0)) <= 1e-12


def test_weighted_maximal_domination_log_vs_partial():
    seq = build_radix((2, 3, 2, 2))
    for seed in range(5):
        f = random_function(seq, seed)
        for weight in (critical_power_weight(0.5), log_weight()):
            log_side = weighted_maximal(f, "log_mean", weight, seq.size)
            sum_side = weighted_maximal(f, "partial_sum", weight, seq.size)
            assert np.all(log_side.values.real <= sum_side.values.real + 1e-12)


def test_weighted_maximal_monotone_in_nmax():
    seq = dyadic(5)
    f = random_function(seq, 9)
    w = log_weight()
    prev = None
    for n_max in (2, 4, 8, 16, 32):
        cur = weighted_maximal(f, "log_mean", w, n_max)
        if prev is not None:
            assert np.all(cur.values.real >= prev.values.real - 1e-15)
        prev = cur


def test_weighted_maximal_partial_sum_stabilizes_at_full_order():
    # beyond n_max = M_N every partial sum equals f while the weight keeps
    # growing, so the computed sup already dominates the whole tail
    seq = dyadic(4)
    f = random_function(seq, 4)
    w = critical_power_weight(0.5)
    full = weighted_maximal(f, "partial_sum", w, seq.size)
    tail_term = np.abs(f.values) / w.phi(seq.size + 2)
    assert np.all(full.values.real >= tail_term - 1e-15)


def test_weighted_maximal_errors():
    seq = dyadic(3)
    f = random_function(seq)
    with pytest.raises(InvalidWeight):
        weighted_maximal(f, "cesaro", log_weight(), 4)
    with pytest.raises(InvalidWeight):
        weighted_maximal(f, "log_mean", "log", 4)
    with pytest.raises(IndexOutOfRange):
        weighted_maximal(f, "log_mean", log_weight(), seq.size + 1)
    with pytest.raises(IndexOutOfRange):
        weighted_maximal(f, "log_mean", log_weight(), 1)


def test_weighted_maximal_scaling_exact_for_power_of_two():
    seq = dyadic(4)
    f = random_function(seq, 12)
    w = log_weight()
    base = weighted_maximal(f, "log_mean", w, seq.size)
    scaled = weighted_maximal(scale(f, 4.0), "log_mean", w, seq.size)
    assert np.array_equal(scaled.values, base.values * 4.0)


def test_boundedness_ratio_scaling_invariance():
    seq = dyadic(4)
    f = random_function(seq, 13)
    w = log_weight()
    r1 = boundedness_ratio(f, 0.5, w, seq.size)
    r2 = boundedness_ratio(scale(f, 3.0), 0.5, w, seq.size)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_tail_bound_is_positive_and_shrinks():
    seq = dyadic(4)
    f = random_function(seq, 2)
    w = critical_power_weight(0.5)
    bounds = [log_mean_tail_bound(f, w, n) for n in (4, 8, 16)]
    assert all(b > 0 for b in bounds)
    assert bounds[0] >= bounds[1] >= bounds[2]


# ---------------------------------------------------------------------------
# domination check
# ---------------------------------------------------------------------------


def test_domination_on_random_functions():
    seq = dyadic(8)
    for seed in range(20):
        f = random_function(seq, seed)
        res = domination_check(f, 0.5, 200)
        assert res.passed, res
        assert res.max_slack <= 1e-12


def test_domination_on_kernel_difference():
    seq = dyadic(5)
    f = StepFunction(seq, dirichlet_closed_MN(seq, 3).values - dirichlet_closed_MN(seq, 2).values)
    res = domination_check(f, 0.5, seq.size)
    assert res.passed


def test_domination_of_zero_function():
    seq = dyadic(4)
    res = domination_check(zero(seq), 0.5, 10)
    assert res.passed
    assert res.max_slack <= 0.0


def test_domination_needs_p_below_one():
    seq = dyadic(3)
    with pytest.raises(InvalidExponent):
        domination_check(random_function(seq), 1.0, 4)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def test_atom_rank_zero_is_global():
    seq = dyadic(4)
    rng = np.random.default_rng(0)
    atom = make_atom(rng, seq, 0, 0.5)
    assert atom.cylinder.rank == 0
    assert abs(np.mean(atom.function.values)) <= 1e-12
    assert np.max(np.abs(atom.function.values)) <= 1.0 * (1 + 1e-12)


def test_atom_dyadic_rank_one_sup_norm():
    seq = dyadic(4)
    rng = np.random.default_rng(1)
    atom = make_atom(rng, seq, 1, 0.5)
    assert np.max(np.abs(atom.function.values)) == pytest.approx(4.0, rel=1e-12)


def test_atom_construction_audit():
    # 1000 samples: zero integral, support containment, sup-norm bound
    seq = build_radix((2, 3, 2, 2, 3, 2))
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rank = int(rng.integers(0, 4))
        p = float(rng.choice([0.5, 0.8]))
        atom = make_atom(rng, seq, rank, p)
        vals = atom.function.values
        assert abs(vals.sum() / seq.size) <= 1e-12
        members = set(atom.cylinder.member_indices().tolist())
        outside = [i for i in range(seq.size) if i not in members]
        assert np.max(np.abs(vals[outside])) == 0.0 if outside else True
        target = float(seq.scales[rank]) ** (1.0 / p)
        assert np.max(np.abs(vals)) <= target * (1 + 1e-12)


def test_atom_errors():
    seq = dyadic(3)
    rng = np.random.default_rng(0)
    with pytest.raises(RankOutOfRange):
        make_atom(rng, seq, 7, 0.5)
    with pytest.raises(InvalidExponent):
        make_atom(rng, seq, 1, 1.5)
    with pytest.raises(DegenerateInput):
        make_atom(rng, seq, seq.depth, 0.5)  # one-cell cylinder


# ---------------------------------------------------------------------------
# boundedness ratio
# ---------------------------------------------------------------------------


def test_ratio_log_mean_below_partial_sum_version():
    seq = dyadic(5)
    w = critical_power_weight(0.5)
    for seed in range(5):
        f = random_function(seq, seed)
        h = hardy_quasinorm(f, 0.5)
        log_ratio = boundedness_ratio(f, 0.5, w, seq.size)
        sum_ratio = lp_quasinorm(weighted_maximal(f, "partial_sum", w, seq.size), 0.5) / h
        assert log_ratio <= sum_ratio * (1 + 1e-12)


def test_ratio_of_constant_is_bounded_by_mean_formula():
    # L_n c = c (1 - 1/(n l_n)), so the ratio cannot exceed the sup of
    # (1 - 1/(n l_n)) / (n+1)^{1/p-1}
    seq = dyadic(5)
    p = 0.5
    w = critical_power_weight(p)
    ratio = boundedness_ratio(constant(seq, 3.0), p, w, seq.size)
    bound = max(
        (1.0 - 1.0 / (n * harmonic_l(n))) / (n + 1.0) ** (1.0 / p - 1.0)
        for n in range(2, seq.size + 1)
    )
    assert np.isfinite(ratio)
    assert ratio <= bound * (1 + 1e-12)


def test_ratio_of_zero_is_degenerate():
    seq = dyadic(3)
    with pytest.raises(DegenerateInput):
        boundedness_ratio(zero(seq), 0.5, log_weight(), seq.size)
