import cmath
import math
import tracemalloc

import numpy as np
import pytest

from vlab import transform
from vlab.errors import CapacityExceeded, IndexOutOfRange, RankOutOfRange
from vlab.group_core import build_radix, decompose
from vlab.step_functions import StepFunction, conditional_average, lp_quasinorm
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
    inverse,
    partial_sum,
    vilenkin_char,
)


def random_function(seq, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


def test_char_zero_is_one():
    seq = build_radix((2, 3, 2))
    for i in range(seq.size):
        assert vilenkin_char(0, i, seq) == pytest.approx(1.0)


def test_char_at_origin_is_one():
    seq = build_radix((2, 3, 2))
    for n in range(seq.size):
        assert vilenkin_char(n, 0, seq) == pytest.approx(1.0)


def test_char_mixed_radix_example():
    # n = 3 has digits (1, 1) over (2, 3); the point x = (1, 2) has index
    # i = 1 + 2 * 2 = 5, and the factors are (-1) and exp(4 pi i / 3)
    seq = build_radix((2, 3))
    want = -cmath.exp(4j * cmath.pi / 3)
    assert vilenkin_char(3, 5, seq) == pytest.approx(want)


def test_char_out_of_range():
    seq = build_radix((2, 3))
    with pytest.raises(IndexOutOfRange):
        vilenkin_char(6, 0, seq)
    with pytest.raises(IndexOutOfRange):
        vilenkin_char(0, 6, seq)


def test_character_row_matches_pointwise():
    # blocks from 0, from an interior lo, up to M_N, and an empty one; on
    # (2, 3, 5, 7) the period L = lcm(m_j) is M_N itself
    for radices in ((2, 3, 2), (2, 3, 5, 7)):
        seq = build_radix(radices)
        size = seq.size
        for lo, hi in ((0, 3), (5, 9), (size - 2, size), (7, 7)):
            rows = character_rows(seq, lo, hi)
            assert rows.shape == (hi - lo, size)
            want = [[vilenkin_char(n, i, seq) for i in range(size)] for n in range(lo, hi)]
            want = np.array(want).reshape(hi - lo, size)
            assert np.max(np.abs(rows - want), initial=0.0) <= 1e-13
        for lo, hi in ((-1, 2), (4, 3), (0, size + 1), (size + 1, size + 2)):
            with pytest.raises(IndexOutOfRange):
                character_rows(seq, lo, hi)


def test_dyadic_and_quaternary_rows_are_exact():
    rows = character_rows(build_radix((2,) * 6), 0, 64)
    assert np.all(np.abs(rows.real) == 1.0) and np.all(rows.imag == 0.0)
    rows = character_rows(build_radix((4, 4, 4)), 0, 64)
    assert set(np.unique(rows).tolist()) == {1, -1, 1j, -1j}


# Groups and row blocks lo..hi for the character-row tests: depth 0, one
# digit, two large digits, L = M_N = 210, M_N = 675 and (2,)^9.
ROW_CASES = [
    ((), ((0, 1),)),
    ((7,), ((0, 7), (3, 5))),
    ((64, 64), ((0, 3), (62, 67), (4094, 4096))),
    ((2, 3, 5, 7), ((0, 210), (4, 9))),
    (build_radix((3, 5, 3), 5).radices, ((13, 17), (44, 47), (670, 675), (0, 300))),
    ((2,) * 9, ((14, 19), (30, 34), (510, 512))),
]


@pytest.mark.parametrize("radices, blocks", ROW_CASES)
def test_character_rows_are_the_roots_at_exact_integer_phases(radices, blocks):
    # q = sum_j k_j x_j (L / m_j) in Python integers; the blocks that
    # straddle a multiple of some M_j carry from its digits into the next
    seq = build_radix(radices)
    period = math.lcm(*radices)
    roots = transform._roots(period)
    points = [decompose(x, seq) for x in range(seq.size)]

    def phase(n, point):
        return sum(k * x * (period // m) for k, x, m in zip(decompose(n, seq), point, radices))

    for lo, hi in blocks:
        want = [[roots[phase(n, p) % period] for p in points] for n in range(lo, hi)]
        want = np.array(want).reshape(hi - lo, seq.size)
        assert character_rows(seq, lo, hi).tobytes() == want.tobytes()


def test_character_rows_are_block_independent():
    # phases are exact integers, so a block's rows equal the same rows built
    # one at a time, bit for bit, and an empty block keeps its M_N columns
    for radices, blocks in ROW_CASES:
        seq = build_radix(radices)
        for lo, hi in blocks:
            single = np.concatenate([character_rows(seq, k, k + 1) for k in range(lo, hi)])
            assert character_rows(seq, lo, hi).tobytes() == single.tobytes()
            assert character_rows(seq, hi, hi).shape == (0, seq.size)


@pytest.mark.parametrize("radices, blocks", ROW_CASES)
def test_character_phases_stay_below_the_period_times_the_depth(monkeypatch, radices, blocks):
    # each digit's term is reduced mod L before the sum, so the wrap-mode
    # gather subtracts L at most N times per entry, not up to m_j times
    seq = build_radix(radices)
    bound = math.lcm(*radices) * max(seq.depth, 1)
    gathered = []
    take = np.take

    def recording_take(table, phases, **kwargs):
        gathered.append(int(phases.max(initial=0)))
        return take(table, phases, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    for lo, hi in blocks:
        character_rows(seq, lo, hi)
    assert gathered and max(gathered) < bound


def test_one_character_row_peaks_within_twice_its_size():
    # one row of (2,)^16 holds 2^16 complex values; its phases grow digit by
    # digit to 2^16 integers, and no (2^16, 16) digit table is built
    seq = build_radix((2,) * 16)
    transform._roots.cache_clear()
    tracemalloc.start()
    try:
        row = character_rows(seq, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * row.nbytes


def test_character_phases_beyond_2_53_are_refused():
    # L * sum(m_j) = 2^54 passes the 2^53 bound on the phase sums
    with pytest.raises(CapacityExceeded):
        character_rows(build_radix((2**27,)), 0, 1)


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
    coeffs = forward_naive(StepFunction(seq, np.ones(seq.size))).coeffs
    assert coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_forward_of_delta_has_unimodular_coefficients():
    seq = build_radix((2, 3, 2))
    vals = np.zeros(seq.size)
    vals[5] = seq.size
    f = StepFunction(seq, vals)
    assert np.max(np.abs(np.abs(forward_naive(f).coeffs) - 1.0)) <= 1e-9


# Mixed radices; 2x12, whose passes start on digits of two points; (3,5,3)
# cycled to depth 5; and one digit, whose single pass ends in index order.
fast_groups = pytest.mark.parametrize(
    "radices", [(2, 3, 2, 4), (2,) * 12, build_radix((3, 5, 3), 5).radices, (7,)],
    ids=["2-3-2-4", "2x12", "3-5-3x5", "7"],
)


@fast_groups
def test_fast_matches_naive_on_random_functions(radices):
    seq = build_radix(radices)
    for seed in range(100):
        f = random_function(seq, seed)
        assert np.max(np.abs(forward_fast(f).coeffs - forward_naive(f).coeffs)) <= 1e-9


def test_fast_of_zero():
    seq = build_radix((2, 3, 2, 4))
    assert np.max(np.abs(forward_fast(StepFunction(seq, np.zeros(seq.size))).coeffs)) == 0.0


# Digits are grouped into chunks of at most 16 points, and a larger digit
# is a chunk of its own: (2,3,2,4) into 12 and 4 points, (2,)*12 into three
# of 16, (3,5,3,5,3) into 15, 15 and 3, and (2,3,2,250) into 12 and 250.
@pytest.mark.parametrize(
    "radices, chunk_points",
    [((2, 3, 2, 4), 12 + 4), ((2,) * 12, 3 * 16), ((3, 5, 3, 5, 3), 15 + 15 + 3), ((7,), 7),
     ((2, 3, 2, 250), 12 + 250)],
    ids=["2-3-2-4", "2x12", "3-5-3x5", "7", "2-3-2-250"],
)
def test_op_count_instrumentation(radices, chunk_points):
    seq = build_radix(radices)
    ops = OpCount()
    forward_fast(random_function(seq), ops)
    assert ops.madds == seq.size * chunk_points + seq.size
    assert ops.madds <= fast_op_bound(seq)


def test_dyadic_passes_are_exact():
    # dyadic kernels are exactly +-1, so the transform of a character is
    # its unit coefficient vector and the synthesis of a unit vector its
    # character, bit for bit; a kernel built by exp would carry roundoff
    # such as -1.2e-16 in its imaginary parts
    seq = build_radix((2,) * 10)
    for k in np.random.default_rng(3).choice(seq.size, 24, replace=False):
        psi = character_rows(seq, k, k + 1)[0]
        unit = np.zeros(seq.size, dtype=np.complex128)
        unit[k] = 1.0
        assert forward_fast(StepFunction(seq, psi)).coeffs.tobytes() == unit.tobytes()
        assert inverse(CoefficientVector(seq, unit)).values.tobytes() == psi.tobytes()


def dense_reference(fs):
    """Coefficients by numpy's fftn over the digit axes (digit 0 varies fastest)."""
    seq = fs[0].radix_seq
    shape = tuple(reversed(seq.radices))
    return [np.fft.fftn(f.values.reshape(shape)).reshape(-1) / seq.size for f in fs]


# (2,3,2,4) and (3,5) at depth 4 fit one block; (3,5) at depth 5 has
# M_N = 675.  (2,)*9 has factors of 16 and 32 points, (4,4,4) exact
# quarter turns.  The halves differ: (2,3,5,7) splits into 6 and 35
# points, (3,5,3) cycled to depth 5 into 15 and 45, and (64,64) into
# 64 and 64 with L = 64; (7,) is one factor of every point.  The digits
# of 257 points, alone and beside 3, are taken by FFT.
@pytest.mark.parametrize(
    "radices",
    [(2, 3, 2, 4), (3, 5, 3, 5), (3, 5, 3, 5, 3), (2,) * 9, (4, 4, 4),
     (2, 3, 5, 7), (7,), (64, 64), build_radix((3, 5, 3), 5).radices,
     (257,), (3, 310)],
)
def test_naive_oracle_matches_dense_reference(radices):
    seq = build_radix(radices)
    assert seq.size < ROW_BLOCK
    fs = [random_function(seq, seed) for seed in range(3)]
    for f, ref in zip(fs, dense_reference(fs)):
        got = forward_naive(f)
        assert got.radix_seq == seq
        assert np.max(np.abs(got.coeffs - ref)) <= 1e-12


def scalar_characters(seq):
    """(M_N, M_N) matrix of psi_k(x) from the scalar oracle ``vilenkin_char``, whose
    float phases share no code with the integer phases of ``character_rows``."""
    assert seq.size <= 300
    return np.array([[vilenkin_char(k, x, seq) for x in range(seq.size)] for k in range(seq.size)])


# The first chunk of (2,)*8 is real and that of (2,3,2,4) complex, both
# applied from the right; the digit of 257 points passes the right-hand
# cap, and the oracle takes it by FFT.  fftn shares that FFT with the
# oracle, so only the scalar characters check its arithmetic.
@pytest.mark.parametrize(
    "radices", [(2,) * 8, (2, 3, 2, 4), (257,), (3, 5, 3, 5), (7,)],
    ids=["2x8", "2-3-2-4", "257", "3-5-3-5", "7"],
)
def test_transforms_match_scalar_characters(radices):
    seq = build_radix(radices)
    chars = scalar_characters(seq)
    for seed in range(2):
        f = random_function(seq, seed)
        want = chars.conj() @ f.values / seq.size
        for got in (forward_fast(f), forward_naive(f)):
            assert np.max(np.abs(got.coeffs - want)) <= 1e-12
        cv = CoefficientVector(seq, f.values)
        assert np.max(np.abs(inverse(cv).values - cv.coeffs @ chars)) <= 1e-10


def definition_analysis(seq):
    """(M_N, M_N) matrix of conj(psi_k(x)) = exp(-2 pi i sum_j k_j x_j / m_j):
    ``vilenkin_char``'s float phase, vectorized over the ``decompose`` digits
    of every index, with no code of the fast passes, the oracle or numpy's FFT."""
    digits = np.array([decompose(i, seq) for i in range(seq.size)]).reshape(seq.size, -1)
    phase = sum(np.outer(digits[:, j], digits[:, j]) / m for j, m in enumerate(seq.radices))
    return np.exp(-2j * np.pi * phase)


# On one digit of 257 or 1296 points the oracle is numpy's FFT, which
# dense_reference shares; the definition's matrix checks both paths there.
@pytest.mark.parametrize("radices", [(257,), (1296,)], ids=["257", "1296"])
def test_fft_oracle_groups_match_the_definition(radices):
    seq = build_radix(radices)
    analysis = definition_analysis(seq)
    for seed in range(2):
        f = random_function(seq, seed)
        want = analysis @ f.values / seq.size
        for got in (forward_fast(f), forward_naive(f)):
            assert np.max(np.abs(got.coeffs - want)) <= 1e-12


def counted_products(monkeypatch, call):
    """Run ``call`` with np.matmul recording each product; return its result and
    the (k, s, n) of each product, whose multiply-adds are k s n.

    A stack of products, ``a`` of shape (..., k, s) times ``b`` of (..., s, n),
    records (k, s, n) once per product in the stack the two broadcast to."""
    products = []
    matmul = np.matmul

    def counting_matmul(a, b, **kwargs):
        stack = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        products.extend([(a.shape[-2], a.shape[-1], b.shape[-1])] * stack)
        return matmul(a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", counting_matmul)
        got = call()
    return got, products


# Kernels of at most ROW_BLOCK entries: at 100 the halves (3,5) and (3,11)
# of (3,5,3,11) split again into digits, and the 11-point digit is taken
# by FFT beside kernels of 3, 5 and 3 points; at 1 every digit is.
@pytest.mark.parametrize("block, factor_points", [(1, 0), (100, 3 + 5 + 3)], ids=["1", "100"])
def test_naive_oracle_partial_blocks(monkeypatch, block, factor_points):
    seq = build_radix((3, 5, 3, 11))
    fs = [random_function(seq, seed) for seed in range(2)]
    monkeypatch.setattr(transform, "ROW_BLOCK", block)
    got, products = counted_products(monkeypatch, lambda: [forward_naive(f) for f in fs])
    assert sum(map(math.prod, products)) == len(fs) * seq.size * factor_points
    for cv, ref in zip(got, dense_reference(fs)):
        assert np.max(np.abs(cv.coeffs - ref)) <= 1e-12


def cold_calls(fs):
    """forward_naive of each f with no factor matrix cached before it."""
    got = []
    for f in fs:
        transform._chunk_kernel.cache_clear()
        got.append(forward_naive(f))
    return got


def test_naive_oracle_batch_is_bitwise_single_calls():
    # consecutive calls, as a transform run makes them, reuse cached factor
    # matrices; each equals a call that builds them afresh, bit for bit
    seq = build_radix((2, 3, 2, 4, 5))
    fs = [random_function(seq, seed) for seed in range(4)]
    transform._chunk_kernel.cache_clear()
    for got, cold in zip([forward_naive(f) for f in fs], cold_calls(fs)):
        assert np.array_equal(got.coeffs, cold.coeffs)


# (2,)*9 has real characters, (2, 3, 2, 4, 5) complex ones
@pytest.mark.parametrize("radices", [(2,) * 9, (2, 3, 2, 4, 5)])
def test_naive_oracle_panels_are_bitwise_single_calls(radices):
    # 19 functions in order and reversed, which gives every function other
    # cached factor matrices before it, and each with none cached
    seq = build_radix(radices)
    fs = [random_function(seq, seed) for seed in range(19)]
    forwards = [forward_naive(f) for f in fs]
    backwards = [forward_naive(f) for f in fs[::-1]][::-1]
    for got, back, cold in zip(forwards, backwards, cold_calls(fs)):
        assert np.array_equal(got.coeffs, cold.coeffs)
        assert np.array_equal(got.coeffs, back.coeffs)


# (2,)*7 has real characters: at 100 its 16-point half splits again into
# kernels of 4 and 4 points beside the 8-point one; at 1 every 2-point
# digit is taken by FFT.
@pytest.mark.parametrize("block, factor_points", [(1, 0), (100, 8 + 4 + 4)], ids=["1", "100"])
def test_naive_oracle_cosine_partial_blocks(monkeypatch, block, factor_points):
    seq = build_radix((2,) * 7)
    fs = [random_function(seq, seed) for seed in range(2)]
    monkeypatch.setattr(transform, "ROW_BLOCK", block)
    got, products = counted_products(monkeypatch, lambda: [forward_naive(f) for f in fs])
    assert sum(map(math.prod, products)) == len(fs) * seq.size * factor_points
    for cv, ref in zip(got, dense_reference(fs)):
        assert np.max(np.abs(cv.coeffs - ref)) <= 1e-12


@pytest.mark.parametrize("radices", [(2,) * 7, (3, 5, 3)])
def test_naive_oracle_short_products(monkeypatch, radices):
    # A cap of M_s - 1 multiply-adds, below the smaller factor's order, which
    # one row's sum exceeds, splits every sum into spans: of 7 points for the
    # factors of 8 and 16 points of (2,)*7, of 2 for the factors of 3 and 15
    # of (3,5,3).  No span divides its sum, so each sum ends on a short span.
    seq = build_radix(radices)
    fs = [random_function(seq, seed) for seed in range(2)]
    cap = max(m for m in seq.scales if m * m <= seq.size) - 1
    monkeypatch.setattr(transform, "PRODUCT_MADDS", cap)
    got, products = counted_products(monkeypatch, lambda: [forward_naive(f) for f in fs])
    assert max(map(math.prod, products)) <= cap
    for cv, ref in zip(got, dense_reference(fs)):
        assert np.max(np.abs(cv.coeffs - ref)) <= 1e-12


@pytest.mark.parametrize("radices, per_function", [
    ((2,) * 12, 4096 * (64 + 64)),  # M_s = 64: 1/32 of M_N^2
    ((7,), 7 * 7),  # one factor, M_N^2
    ((2,) * 17, 2**17 * (256 + 16 + 32)),  # the 512-point half split again
    ((3,) * 11, 3**11 * (243 + 27 + 27)),  # the 729-point half split again
    ((1296,), 0),  # one digit of more than 256 points, taken by FFT
])
def test_naive_oracle_work_is_factor_products(monkeypatch, radices, per_function):
    seq = build_radix(radices)
    fs = [random_function(seq, seed) for seed in range(3)]
    _, products = counted_products(monkeypatch, lambda: [forward_naive(f) for f in fs])
    assert sum(map(math.prod, products)) == len(fs) * per_function


def test_naive_oracle_takes_kernel_rows_over_all_columns(monkeypatch):
    # the 125-point factor of (5,)*5 has 25 columns: columns first would take
    # 2 at a time (2^15 // 125^2), kernel rows over all columns take 10 rows,
    # the wider product; the 25-point factor keeps its column products
    f = random_function(build_radix((5,), 5))
    _, products = counted_products(monkeypatch, lambda: forward_naive(f))
    assert products == [(25, 25, 52)] * 2 + [(25, 25, 21)] + [(10, 125, 25)] * 12 + [(5, 125, 25)]


def test_naive_oracle_keeps_groups_apart():
    # (2, 2, 4) factors into (2, 2) and (4,), (4, 2, 2) into (4,) and
    # (2, 2): matrices of one shape on other groups, which consecutive calls
    # must not take from each other's cache entries
    for radices in ((2, 2, 4), (4, 2, 2), (2, 2, 4)):
        f = random_function(build_radix(radices))
        ref = dense_reference([f])[0]
        assert np.max(np.abs(forward_naive(f).coeffs - ref)) <= 1e-12


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


def test_naive_oracle_batch_memory_is_bounded():
    # 100 functions at M_N = 4096 transformed one after another: one
    # function's arrays and the cached factor matrices, where the batch
    # layout held all 100 and a dense matrix took 256 MiB
    seq = build_radix((2,) * 12)
    fs = [random_function(seq, seed) for seed in range(100)]
    transform._chunk_kernel.cache_clear()
    tracemalloc.start()
    try:
        for f in fs:
            forward_naive(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_naive_oracle_one_digit_memory_is_bounded():
    # one factor of all 3000 points, whose dense matrix would take 144 MB;
    # numpy's FFT applies it in O(M_N) memory
    f = random_function(build_radix((3000,)))
    tracemalloc.start()
    try:
        forward_naive(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# Under the default cap (2,)*16 splits the columns of its chunk products
# at scales of 256 and more, and a digit of 1296 points its kernel rows; a
# cap of 7 splits the 15-point kernel rows of (3,5,3) into sums of 7, 7 and
# 1 terms, a cap of 300 takes the 250-point digit of (2,3,2,250) one
# kernel row and one column at a time, and a cap of 5000 the 32 columns at
# scale 16 of (2,)*9 as a product of 19 and a short one of 13.  The first
# chunk of (2,)*9 takes its 32 rows of 32 floats from the right, 4 at a
# time under 5000, in 6 products of 5 and a short one of 2 under 5120, and
# from the left under 1000, below the 1024 multiply-adds of one row.
@pytest.mark.parametrize("radices, cap", [
    ((2,) * 16, transform.PRODUCT_MADDS), ((1296,), transform.PRODUCT_MADDS),
    ((3, 5, 3), 7), ((2, 3, 2, 250), 300), ((2,) * 9, 5000), ((2,) * 9, 5120),
    ((2,) * 9, 1000),
])
def test_fast_products_stay_within_the_cap(monkeypatch, radices, cap):
    seq = build_radix(radices)
    f = random_function(seq)
    monkeypatch.setattr(transform, "PRODUCT_MADDS", cap)
    (fast, back), products = counted_products(
        monkeypatch, lambda: (forward_fast(f), inverse(forward_fast(f))))
    assert products and max(map(math.prod, products)) <= cap
    assert np.max(np.abs(fast.coeffs - forward_naive(f).coeffs)) <= 1e-12
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_fast_first_chunk_takes_row_products(monkeypatch):
    # (2,)*12 in chunks of 16 points: the first chunk's 256 rows of 32 floats
    # in 8 products of 32 rows, where the kernel on the left made 256;
    # then 16 and 4 column products
    f = random_function(build_radix((2,) * 12))
    _, products = counted_products(monkeypatch, lambda: inverse(forward_fast(f)))
    assert len(products) <= 2 * (8 + 16 + 4)
    assert max(map(math.prod, products)) <= transform.PRODUCT_MADDS


# A (B, M_N) block is B functions' passes at once: every product keeps the
# shape it has for one function and only the np.matmul stacks grow, so each
# row keeps its bits.  The first chunk is taken from the right in products
# of rows of one function: 8 of 32 rows each on (2,)*12, one short one of
# 108 rows on (2,3)*4 and of 135 on (3,5,3)*2, two of 227 rows and a short
# one of 194 on (2,3)*5.  The digit of 1296 points passes the right-hand
# cap, and the oracle takes it by FFT, as it does the 300-point digit of
# (3,300); (10,25,10) has the oracle's 250-point kernel.
@pytest.mark.parametrize(
    "seq",
    [build_radix((2,), 12), build_radix((2, 3), 8), build_radix((3, 5, 3), 6),
     build_radix((2, 3), 10), build_radix((1296,), 1), build_radix((3, 300), 2),
     build_radix((10, 25), 3)],
    ids=["2x12", "2-3x4", "3-5-3x2", "2-3x5", "1296", "3-300", "10-25-10"],
)
def test_block_rows_are_bitwise_blocks_of_one(monkeypatch, seq):
    rng = np.random.default_rng(11)
    values = np.empty((7, seq.size), dtype=np.complex128)
    values.real, values.imag = rng.standard_normal((2, 7, seq.size))
    ops_one = OpCount()
    one = transform.forward_fast_block(values[:1], seq, ops_one)
    for fn in (
        lambda v: transform.forward_fast_block(v, seq, OpCount()),
        lambda v: transform.forward_naive_block(v, seq),
        lambda v: transform.inverse_block(v, seq),
    ):
        ones = [fn(values[i : i + 1]) for i in range(7)]
        for b in (1, 2, 3, 7):
            got = fn(values[:b])
            assert got.shape == (b, seq.size)
            assert [row.tobytes() for row in got] == [row.tobytes() for row in ones[:b]]
        _, single = counted_products(monkeypatch, lambda: fn(values[:1]))
        _, products = counted_products(monkeypatch, lambda: fn(values))
        assert sorted(products) == sorted(7 * single)
    ops = OpCount()
    transform.forward_fast_block(values, seq, ops)
    assert ops.madds == 7 * ops_one.madds
    # the object API is a block of one
    f = StepFunction(seq, values[0])
    assert forward_fast(f).coeffs.tobytes() == one[0].tobytes()
    assert forward_naive(f).coeffs.tobytes() == transform.forward_naive_block(values[:1], seq).tobytes()
    assert inverse(CoefficientVector(seq, values[0])).values.tobytes() == ones[0].tobytes()


def test_warm_naive_factor_holds_only_its_output():
    # the 256-point half of 2^16 applies its complex kernel, cast once and
    # cached: a cast on every call copied 1 MiB beside the 1 MiB output
    values = random_function(build_radix((2,), 16)).values.reshape(1, -1)
    transform._conj_factor((2,) * 8, values)
    tracemalloc.start()
    try:
        out = transform._conj_factor((2,) * 8, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2**16


def test_inverse_of_unit_vector_is_character():
    seq = build_radix((2, 3, 2))
    for j in (0, 4, 9):
        unit = np.zeros(seq.size)
        unit[j] = 1.0
        got = inverse(CoefficientVector(seq, unit))
        assert np.max(np.abs(got.values - character_rows(seq, j, j + 1)[0])) <= 1e-12


@fast_groups
def test_inverse_round_trip(radices):
    seq = build_radix(radices)
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
    one = StepFunction(seq, np.ones(seq.size))
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


def test_batch_partial_sums_buffer_is_cumulative(dense_sums):
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 3)
    coeffs = forward_fast(f).coeffs
    stack = dense_sums(f, seq.size)
    for k in range(1, seq.size + 1):
        step = stack[k] - stack[k - 1]
        assert np.max(np.abs(step - coeffs[k - 1] * character_rows(seq, k - 1, k)[0])) <= 1e-9
        assert np.max(np.abs(stack[k] - partial_sum(f, k).values)) <= 1e-9


def test_lp_norm_identity_for_scale_kernels():
    # ||D_{M_n}||_p = M_n^{1 - 1/p} for p < 1
    for radices in ((2,) * 6, (2, 3, 2, 3, 2, 3)):
        seq = build_radix(radices)
        for p in (0.3, 0.5, 0.8):
            for n in range(seq.depth + 1):
                want = seq.scales[n] ** (1.0 - 1.0 / p)
                got = lp_quasinorm(dirichlet_closed_MN(seq, n), p)
                assert got == pytest.approx(want, rel=1e-9)
