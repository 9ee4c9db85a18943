import cmath
import tracemalloc

import numpy as np
import pytest

from vlab import transform
from vlab.errors import IndexOutOfRange, RankOutOfRange, ResolutionMismatch
from vlab.group_core import build_radix, point_from_index
from vlab.means import partial_sum_stack
from vlab.step_functions import StepFunction, conditional_average, constant, lp_quasinorm
from vlab.transform import (
    ROW_BLOCK,
    CoefficientVector,
    OpCount,
    character_rows,
    dirichlet_closed_MN,
    dirichlet_kernel,
    fast_op_bound,
    forward_fast,
    forward_naive,
    forward_naive_many,
    inverse,
    load_coefficients,
    partial_sum,
    save_coefficients,
    vilenkin_char,
)


def random_function(seq, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


def test_char_zero_is_one():
    seq = build_radix((2, 3, 2))
    for i in range(seq.size):
        assert vilenkin_char(0, point_from_index(i, seq)) == pytest.approx(1.0)


def test_char_at_origin_is_one():
    seq = build_radix((2, 3, 2))
    x0 = point_from_index(0, seq)
    for n in range(seq.size):
        assert vilenkin_char(n, x0) == pytest.approx(1.0)


def test_char_mixed_radix_example():
    # n = 3 has digits (1, 1) over (2, 3); at x = (1, 2) the factors are
    # (-1) and exp(4 pi i / 3)
    seq = build_radix((2, 3))
    x = point_from_index(1 + 2 * 2, seq)
    assert x.digits == (1, 2)
    want = -cmath.exp(4j * cmath.pi / 3)
    assert vilenkin_char(3, x) == pytest.approx(want)


def test_char_out_of_range():
    seq = build_radix((2, 3))
    with pytest.raises(IndexOutOfRange):
        vilenkin_char(6, point_from_index(0, seq))


def test_character_row_matches_pointwise():
    # blocks from 0, from an interior lo, up to M_N, and an empty one
    seq = build_radix((2, 3, 2))
    for lo, hi in ((0, 3), (5, 9), (10, 12), (7, 7)):
        rows = character_rows(seq, lo, hi)
        assert rows.shape == (hi - lo, seq.size)
        for n in range(lo, hi):
            for i in range(seq.size):
                want = vilenkin_char(n, point_from_index(i, seq))
                assert rows[n - lo, i] == pytest.approx(want, abs=1e-12)
    for lo, hi in ((-1, 2), (4, 3), (0, seq.size + 1), (seq.size + 1, seq.size + 2)):
        with pytest.raises(IndexOutOfRange):
            character_rows(seq, lo, hi)


def test_orthonormality_exhaustive():
    seq = build_radix((2, 3, 2, 4))  # M_N = 48
    rows = character_rows(seq, 0, seq.size)
    gram = rows @ rows.conj().T / seq.size
    assert np.max(np.abs(gram - np.eye(seq.size))) <= 1e-9


def test_forward_naive_on_characters():
    seq = build_radix((2, 3, 2))
    for j in (0, 3, 7):
        f = StepFunction(seq, character_rows(seq, j, j + 1)[0])
        coeffs = forward_naive(f).coeffs
        want = np.zeros(seq.size)
        want[j] = 1.0
        assert np.max(np.abs(coeffs - want)) <= 1e-9


def test_forward_naive_constant():
    seq = build_radix((2, 3, 2))
    coeffs = forward_naive(constant(seq, 1.0)).coeffs
    assert coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_forward_of_delta_has_unimodular_coefficients():
    seq = build_radix((2, 3, 2))
    vals = np.zeros(seq.size)
    vals[5] = seq.size
    f = StepFunction(seq, vals)
    assert np.max(np.abs(np.abs(forward_naive(f).coeffs) - 1.0)) <= 1e-9


def test_fast_matches_naive_on_random_functions():
    seq = build_radix((2, 3, 2, 4))
    for seed in range(100):
        f = random_function(seq, seed)
        fast = forward_fast(f).coeffs
        naive = forward_naive(f).coeffs
        assert np.max(np.abs(fast - naive)) <= 1e-9


def test_fast_of_zero():
    seq = build_radix((2, 3, 2, 4))
    assert np.max(np.abs(forward_fast(StepFunction(seq, np.zeros(seq.size))).coeffs)) == 0.0


def test_op_count_instrumentation():
    seq = build_radix((2, 3, 2, 4))
    ops = OpCount()
    forward_fast(random_function(seq), ops)
    expected = seq.size * sum(seq.radices) + seq.size
    assert ops.madds == expected
    assert ops.madds <= fast_op_bound(seq)
    naive_ops = OpCount()
    forward_naive(random_function(seq), naive_ops)
    assert naive_ops.madds == seq.size**2


def dense_reference(fs):
    """Coefficients by numpy's fftn over the digit axes (digit 0 varies fastest)."""
    seq = fs[0].radix_seq
    shape = tuple(reversed(seq.radices))
    return [np.fft.fftn(f.values.reshape(shape)).reshape(-1) / seq.size for f in fs]


# (2,3,2,4) and (3,5) at depth 4 fit one block; (3,5) at depth 5 has
# M_N = 675, which 97-row blocks do not divide.
@pytest.mark.parametrize("radices", [(2, 3, 2, 4), (3, 5, 3, 5), (3, 5, 3, 5, 3)])
def test_naive_oracle_matches_dense_reference(radices):
    seq = build_radix(radices)
    assert seq.size < ROW_BLOCK
    fs = [random_function(seq, seed) for seed in range(3)]
    want = dense_reference(fs)
    for got, ref in zip(forward_naive_many(fs), want):
        assert got.radix_seq == seq
        assert np.max(np.abs(got.coeffs - ref)) <= 1e-12
    assert np.max(np.abs(forward_naive(fs[1]).coeffs - want[1])) <= 1e-12


@pytest.mark.parametrize("block", [1, 100])
def test_naive_oracle_partial_blocks(monkeypatch, block):
    # one row per block, as for M_N > ROW_BLOCK, and 2-row blocks with a short last one
    seq = build_radix((3, 5, 3))
    fs = [random_function(seq, seed) for seed in range(2)]
    want = dense_reference(fs)
    monkeypatch.setattr(transform, "ROW_BLOCK", block)
    for got, ref in zip(forward_naive_many(fs), want):
        assert np.max(np.abs(got.coeffs - ref)) <= 1e-12


def test_naive_oracle_batch_is_bitwise_single_calls():
    seq = build_radix((2, 3, 2, 4, 5))
    fs = [random_function(seq, seed) for seed in range(4)]
    for got, f in zip(forward_naive_many(fs), fs):
        assert np.array_equal(got.coeffs, forward_naive(f).coeffs)


def test_naive_oracle_counts_batch_work():
    seq = build_radix((2, 3, 2, 4))
    ops = OpCount()
    forward_naive_many([random_function(seq, seed) for seed in range(5)], ops)
    assert ops.madds == 5 * seq.size**2
    assert forward_naive_many([], ops) == []
    assert ops.madds == 5 * seq.size**2


def test_naive_oracle_rejects_mixed_groups():
    with pytest.raises(ResolutionMismatch):
        forward_naive_many([random_function(build_radix((2, 3))),
                            random_function(build_radix((3, 2)))])


def test_naive_oracle_memory_is_bounded():
    # a dense M_N x M_N complex matrix would need 256 MiB at M_N = 4096
    seq = build_radix((2,) * 12)
    f = random_function(seq)
    tracemalloc.start()
    try:
        forward_naive(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_inverse_of_unit_vector_is_character():
    seq = build_radix((2, 3, 2))
    for j in (0, 4, 9):
        unit = np.zeros(seq.size)
        unit[j] = 1.0
        got = inverse(CoefficientVector(seq, unit))
        assert np.max(np.abs(got.values - character_rows(seq, j, j + 1)[0])) <= 1e-12


def test_inverse_round_trip():
    seq = build_radix((2, 3, 2, 4))
    for seed in range(10):
        f = random_function(seq, seed)
        back = inverse(forward_fast(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-9


def test_all_ones_coefficients_synthesize_full_kernel():
    seq = build_radix((2, 3, 2))
    got = inverse(CoefficientVector(seq, np.ones(seq.size)))
    want = dirichlet_closed_MN(seq, seq.depth)
    assert np.max(np.abs(got.values - want.values)) <= 1e-9


def test_parseval():
    seq = build_radix((2, 3, 2, 4))
    for seed in range(10):
        f = random_function(seq, seed)
        energy = float(np.sum(np.abs(f.values) ** 2)) / seq.size
        coeff_energy = float(np.sum(np.abs(forward_fast(f).coeffs) ** 2))
        assert abs(energy - coeff_energy) <= 1e-9 * energy


def test_dirichlet_ternary_block():
    seq = build_radix((3, 3))
    d3 = dirichlet_kernel(seq, 3)
    want = np.zeros(seq.size)
    want[::3] = 3.0
    assert np.max(np.abs(d3.values - want)) <= 1e-12


def test_dirichlet_first_kernel_is_one():
    seq = build_radix((2, 3))
    assert np.allclose(dirichlet_kernel(seq, 1).values, 1.0)


def test_dirichlet_at_origin():
    seq = build_radix((2, 2, 2))
    assert dirichlet_kernel(seq, 3).values[0] == pytest.approx(3.0)


def test_dirichlet_closed_form_matches_kernel():
    for radices in ((2, 3, 2, 4), (2, 2, 2, 2, 2), (3, 3, 3)):
        seq = build_radix(radices)
        for n in range(seq.depth + 1):
            closed = dirichlet_closed_MN(seq, n)
            if n == 0:
                assert np.allclose(closed.values, 1.0)
            kernel = dirichlet_kernel(seq, seq.scales[n])
            assert np.max(np.abs(closed.values - kernel.values)) <= 1e-9


def test_dirichlet_closed_integral_is_one():
    seq = build_radix((2, 3, 2, 3))
    for n in range(seq.depth + 1):
        mean = np.mean(dirichlet_closed_MN(seq, n).values)
        assert mean == pytest.approx(1.0, rel=1e-12)


def test_dirichlet_range_errors():
    seq = build_radix((2, 3))
    with pytest.raises(IndexOutOfRange):
        dirichlet_kernel(seq, 0)
    with pytest.raises(IndexOutOfRange):
        dirichlet_kernel(seq, 7)
    with pytest.raises(RankOutOfRange):
        dirichlet_closed_MN(seq, 3)


def test_partial_sum_of_constant():
    seq = build_radix((2, 3, 2))
    one = constant(seq, 1.0)
    for n in (1, 3, seq.size):
        assert np.max(np.abs(partial_sum(one, n).values - 1.0)) <= 1e-12


def test_partial_sum_zero_and_full():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 8)
    assert np.max(np.abs(partial_sum(f, 0).values)) == 0.0
    assert np.max(np.abs(partial_sum(f, seq.size).values - f.values)) <= 1e-9
    with pytest.raises(IndexOutOfRange):
        partial_sum(f, seq.size + 1)


def test_partial_sum_middle_branch_of_kernel_difference():
    # with f = D_8 - D_4 on the dyadic group, S_5 f = D_5 - D_4 = psi_4
    seq = build_radix((2,) * 3)
    f = StepFunction(seq, dirichlet_closed_MN(seq, 3).values - dirichlet_closed_MN(seq, 2).values)
    s5 = partial_sum(f, 5)
    assert np.max(np.abs(s5.values - character_rows(seq, 4, 5)[0])) <= 1e-9


def test_martingale_bridge():
    # conditional averages E_n f coincide with the scale partial sums S_{M_n} f
    seq = build_radix((2, 3, 2, 2))
    f = random_function(seq, 13)
    for n in range(seq.depth + 1):
        s = partial_sum(f, seq.scales[n])
        assert np.max(np.abs(conditional_average(f, n).values - s.values)) <= 1e-9


def test_batch_partial_sums_buffer_is_cumulative():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 3)
    coeffs = forward_fast(f).coeffs
    stack = partial_sum_stack(f, seq.size)
    for k in range(1, seq.size + 1):
        step = stack[k] - stack[k - 1]
        assert np.max(np.abs(step - coeffs[k - 1] * character_rows(seq, k - 1, k)[0])) <= 1e-9
        assert np.max(np.abs(stack[k] - partial_sum(f, k).values)) <= 1e-9


def test_coefficient_file_round_trip(tmp_path):
    seq = build_radix((2, 3))
    cv = forward_fast(random_function(seq, 1))
    path = tmp_path / "f.coeffs"
    save_coefficients(cv, path)
    back = load_coefficients(path)
    assert back.radix_seq == seq
    assert np.array_equal(back.coeffs, cv.coeffs)
    assert path.read_text().splitlines()[0] == "radices=2,3;N=2;kind=coeffs"
    from vlab.step_functions import load_step_function, save_step_function

    with pytest.raises(ValueError):
        load_step_function(path)  # kind=coeffs is not a step function
    step_path = tmp_path / "f.step"
    save_step_function(random_function(seq, 2), step_path)
    with pytest.raises(ValueError):
        load_coefficients(step_path)


def test_lp_norm_identity_for_scale_kernels():
    # ||D_{M_n}||_p = M_n^{1 - 1/p} for p < 1
    for radices in ((2,) * 6, (2, 3, 2, 3, 2, 3)):
        seq = build_radix(radices)
        for p in (0.3, 0.5, 0.8):
            for n in range(seq.depth + 1):
                want = seq.scales[n] ** (1.0 - 1.0 / p)
                got = lp_quasinorm(dirichlet_closed_MN(seq, n), p)
                assert got == pytest.approx(want, rel=1e-9)
