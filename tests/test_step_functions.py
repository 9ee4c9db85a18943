import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlab.errors import InvalidExponent, ResolutionMismatch
from vlab.group_core import build_radix
from vlab.step_functions import (
    StepFunction,
    absolute,
    add,
    conditional_average,
    constant,
    hardy_quasinorm,
    load_step_function,
    lp_quasinorm,
    maximal_function,
    save_step_function,
    scale,
    weak_lp_quasinorm,
    zero,
)
from vlab.transform import character_rows, dirichlet_closed_MN


def character(seq, n):
    """psi_n on all M_N points."""
    return character_rows(seq, n, n + 1)[0]


def random_function(seq, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


def dyadic(depth):
    return build_radix((2,) * depth)


def test_values_are_validated():
    seq = dyadic(2)
    with pytest.raises(ResolutionMismatch):
        StepFunction(seq, np.zeros(3))
    with pytest.raises(ValueError):
        StepFunction(seq, np.array([0, np.nan, 0, 0]))
    f = constant(seq, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_lp_of_constant():
    seq = dyadic(3)
    for p in (0.3, 1.0, 2.0, 5.0):
        assert lp_quasinorm(constant(seq, -3.0 + 4j), p) == pytest.approx(5.0, rel=1e-12)


def test_lp_of_dirichlet_block():
    # D_{M_2} = 4 on I_2 over the dyadic group: norm M_2^{1-1/p} at p = 1/2
    seq = dyadic(3)
    f = dirichlet_closed_MN(seq, 2)
    assert lp_quasinorm(f, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_lp_of_character_is_one():
    seq = build_radix((2, 3, 2))
    f = StepFunction(seq, character(seq, 5))
    for p in (0.5, 1.0, 3.0):
        assert lp_quasinorm(f, p) == pytest.approx(1.0, rel=1e-12)


def test_lp_rejects_bad_exponent():
    seq = dyadic(2)
    with pytest.raises(InvalidExponent):
        lp_quasinorm(constant(seq, 1.0), 0.0)
    with pytest.raises(InvalidExponent):
        weak_lp_quasinorm(constant(seq, 1.0), -1.0)


def test_weak_lp_examples():
    seq = dyadic(3)
    psi = StepFunction(seq, character(seq, 3))
    assert weak_lp_quasinorm(psi, 0.7) == pytest.approx(1.0, rel=1e-12)
    d4 = dirichlet_closed_MN(seq, 2)
    assert weak_lp_quasinorm(d4, 0.5) == pytest.approx(0.25, rel=1e-12)
    assert weak_lp_quasinorm(zero(seq), 0.5) == 0.0


def test_weak_lp_below_strong_lp():
    seq = build_radix((2, 3, 2, 2))
    for seed in range(5):
        f = random_function(seq, seed)
        for p in (0.4, 1.0, 2.0):
            assert weak_lp_quasinorm(f, p) <= lp_quasinorm(f, p) * (1 + 1e-12)


def test_weak_lp_matches_brute_force_sup():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 7)
    p = 0.6
    a = np.abs(f.values)
    # scan just below each distinct value, where the staircase sup lives
    best = 0.0
    for v in np.unique(a):
        for lam in (v * (1 - 1e-9), v):
            mu = np.mean(a > lam)
            best = max(best, lam * mu ** (1 / p))
    assert weak_lp_quasinorm(f, p) == pytest.approx(best, rel=1e-6)


def test_martingale_of_constant():
    seq = dyadic(3)
    f = constant(seq, 2.5)
    for n in range(seq.depth + 1):
        assert np.allclose(conditional_average(f, n).values, 2.5)


def test_martingale_of_character():
    # averaging (-1)^{x_0} over x_0 kills the rank-0 level
    seq = dyadic(3)
    psi1 = StepFunction(seq, character(seq, 1))
    assert np.max(np.abs(conditional_average(psi1, 0).values)) < 1e-15
    assert np.allclose(conditional_average(psi1, 1).values, psi1.values)
    assert np.allclose(conditional_average(psi1, 3).values, psi1.values)


def test_level_zero_is_global_mean():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 3)
    assert conditional_average(f, 0).values[0] == pytest.approx(np.mean(f.values), rel=1e-12)


def test_conditional_average_against_cylinder_loop():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 11)
    for rank in range(seq.depth + 1):
        got = conditional_average(f, rank)
        m_n = seq.scales[rank]
        for i in range(seq.size):
            members = [a for a in range(seq.size) if a % m_n == i % m_n]
            want = np.mean([f.values[a] for a in members])
            assert got.values[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_adaptedness_on_random_functions():
    # E_n(E_{n+1} f) = E_n f
    seq = build_radix((2, 3, 2, 2))
    for seed in range(5):
        f = random_function(seq, seed)
        for n in range(seq.depth):
            upper = conditional_average(f, n + 1)
            dev = np.abs(conditional_average(upper, n).values - conditional_average(f, n).values)
            assert np.max(dev) <= 1e-12 * max(1.0, np.max(np.abs(upper.values)))


def test_maximal_function_of_constant():
    seq = dyadic(2)
    fstar = maximal_function(constant(seq, -2.0))
    assert np.allclose(fstar.values, 2.0)


def test_maximal_function_of_character():
    seq = dyadic(3)
    psi1 = StepFunction(seq, character(seq, 1))
    fstar = maximal_function(psi1)
    assert np.allclose(fstar.values, 1.0)


def test_maximal_dominates_every_level():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 21)
    fstar = maximal_function(f)
    for n in range(seq.depth + 1):
        assert np.all(fstar.values.real >= np.abs(conditional_average(f, n).values) - 1e-12)


def test_maximal_function_is_max_over_stacked_levels():
    # the running maximum is exact: equal to the max over all levels at once
    seq = build_radix((2, 3, 2, 4))
    f = random_function(seq, 17)
    levels = np.stack(
        [np.abs(conditional_average(f, n).values) for n in range(seq.depth + 1)]
    )
    fstar = maximal_function(f)
    assert np.array_equal(fstar.values, levels.max(axis=0).astype(np.complex128))


def test_maximal_agrees_with_averaging_form():
    # independent oracle: sup over ranks of |cylinder average of f|
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 5)
    fstar = maximal_function(f)
    for i in range(seq.size):
        best = 0.0
        for rank in range(seq.depth + 1):
            m_n = seq.scales[rank]
            members = [a for a in range(seq.size) if a % m_n == i % m_n]
            best = max(best, abs(np.mean([f.values[a] for a in members])))
        assert fstar.values[i].real == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_hardy_of_constant():
    seq = dyadic(3)
    assert hardy_quasinorm(constant(seq, 1.5), 0.5) == pytest.approx(1.5, rel=1e-12)


def test_hardy_of_kernel_difference():
    # |f| = 4 on I_2, so the maximal function integrates to (2*2/8)^2 = 1/4
    seq = dyadic(3)
    f = StepFunction(seq, dirichlet_closed_MN(seq, 3).values - dirichlet_closed_MN(seq, 2).values)
    assert hardy_quasinorm(f, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_hardy_of_character():
    seq = dyadic(3)
    psi = StepFunction(seq, character(seq, 5))
    assert hardy_quasinorm(psi, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_hardy_memory_is_one_level_at_a_time():
    # f* is a running maximum: the N+1 conditional-average levels (2 MiB each
    # at M_N = 2^17) are never held together
    seq = dyadic(17)
    f = random_function(seq, 6)
    tracemalloc.start()
    try:
        hardy_quasinorm(f, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_pointwise_arithmetic():
    seq = build_radix((2, 3))
    f = random_function(seq, 4)
    assert np.max(np.abs(add(f, scale(f, -1)).values)) == 0.0
    psi = StepFunction(seq, character(seq, 2))
    assert np.allclose(absolute(psi).values, 1.0)


def test_arithmetic_resolution_mismatch():
    f = constant(build_radix((2, 2)), 1.0)
    g = constant(build_radix((2, 3)), 1.0)
    with pytest.raises(ResolutionMismatch):
        add(f, g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 0.95))
def test_p_power_triangle_inequality(seed, p):
    seq = build_radix((2, 3, 2))
    rng = np.random.default_rng(seed)
    f = StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))
    g = StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))
    lhs = lp_quasinorm(add(f, g), p) ** p
    rhs = lp_quasinorm(f, p) ** p + lp_quasinorm(g, p) ** p
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1.0, 4.0))
def test_triangle_inequality_p_at_least_one(seed, p):
    seq = build_radix((2, 3, 2))
    rng = np.random.default_rng(seed)
    f = StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))
    g = StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))
    assert lp_quasinorm(add(f, g), p) <= (lp_quasinorm(f, p) + lp_quasinorm(g, p)) * (1 + 1e-12)


def test_file_round_trip_is_bit_exact(tmp_path):
    seq = build_radix((2, 3, 2))
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(seq.size) * 10.0 ** rng.integers(-8, 8, seq.size)
    f = StepFunction(seq, vals + 1j * rng.standard_normal(seq.size))
    path = tmp_path / "f.step"
    save_step_function(f, path)
    g = load_step_function(path)
    assert g.radix_seq == seq
    assert np.array_equal(g.values, f.values)


def test_file_header_format(tmp_path):
    seq = build_radix((2, 3))
    path = tmp_path / "f.step"
    save_step_function(constant(seq, 1.0), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "radices=2,3;N=2"
    assert lines[1] == "1,0"
    assert len(lines) == 1 + seq.size
