import hashlib
import tracemalloc

import numpy as np
import pytest

from vlab.errors import (
    CapacityExceeded,
    IndexOutOfRange,
    InvalidWeight,
    ZeroTotalWeight,
)
from vlab.group_core import build_radix, truncate
import vlab.group_core as group_core
import vlab.means as means_mod
import vlab.transform as transform_mod
from vlab.means import (
    WeightSequence,
    harmonic_l,
    log_mean,
    log_mean_blocks,
    log_weights,
    norlund_mean,
    ones_weights,
    weight_sequence_from_spec,
    weights_from_file,
)
from vlab.step_functions import StepFunction
from vlab.transform import ROW_BLOCK, character_rows, dirichlet_closed_MN, forward_fast, partial_sum


def character(seq, n):
    """psi_n on all M_N points."""
    return character_rows(seq, n, n + 1)[0]


def random_function(seq, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


def stack_group(seq, n_max):
    """The rank-r truncation of ``seq`` that a stack of order n_max lives on,
    M_r the smallest scale >= n_max."""
    return truncate(seq, next(r for r, m in enumerate(seq.scales) if m >= n_max))


def walk_partial_sums(f, n_max):
    """Oracle: rows S_0 f .. S_{n_max} f, adding one character row c_k psi_k per step."""
    seq = f.radix_seq
    coeffs = forward_fast(f).coeffs
    rows = [np.zeros(seq.size, dtype=np.complex128)]
    for k in range(n_max):
        rows.append(rows[-1] + coeffs[k] * character(seq, k))
    return np.array(rows)


def walk_norlund(f, n, weights):
    """Oracle: the Norlund mean by its definition over the walked partial sums."""
    s = walk_partial_sums(f, n)
    acc = sum(weights.values[n - k - 1] * s[k] for k in range(1, n))
    if weights.q0 is not None:
        acc = acc + weights.q0 * s[n]
    return acc / weights.total(n)


def test_harmonic_values():
    assert harmonic_l(1) == 1.0
    assert harmonic_l(4) == pytest.approx(25 / 12, abs=1e-14)
    assert harmonic_l(6) == pytest.approx(49 / 20, abs=1e-14)
    with pytest.raises(IndexOutOfRange):
        harmonic_l(0)


def test_harmonic_l_is_forward_summation():
    # forward summation, term by term, bit for bit; the log-mean
    # triangles read the same running sums of log_weights
    total = 0.0
    for n in range(1, 4099):
        total += 1.0 / n
        if n in (1, 2, 5, 300, 999, 4098):
            assert harmonic_l(n) == total
            assert log_weights(4098)._cumsum[n - 1] == total


def test_weight_sequence_validation():
    with pytest.raises(InvalidWeight):
        WeightSequence(values=np.array([1.0, -0.5]))
    with pytest.raises(InvalidWeight):
        WeightSequence(values=np.array([1.0]), q0=-1.0)
    w = WeightSequence(values=np.array([3.0, 1.0, 2.0]))
    assert w.total(3) == 6.0
    with pytest.raises(IndexOutOfRange):
        w.total(4)
    with pytest.raises(IndexOutOfRange):
        w.total(0)


def test_weight_families_from_spec(tmp_path):
    assert weight_sequence_from_spec("ones", 4).q0 == 1.0
    lw = weight_sequence_from_spec("log", 4)
    assert lw.q0 is None
    assert lw.values[2] == pytest.approx(1 / 3)
    path = tmp_path / "w.txt"
    path.write_text("1.0\n0.5\n0.25\n")
    cw = weight_sequence_from_spec(f"custom:{path}", 3)
    assert cw.values[1] == 0.5
    with pytest.raises(InvalidWeight):
        weight_sequence_from_spec(f"custom:{path}", 5)
    with pytest.raises(InvalidWeight):
        weight_sequence_from_spec("fancy", 3)


def test_weights_from_file_rejects_empty(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("\n")
    with pytest.raises(InvalidWeight):
        weights_from_file(path)
    path.write_text("1.0\nabc\n")
    with pytest.raises(InvalidWeight):
        weights_from_file(path)
    with pytest.raises(InvalidWeight):
        weights_from_file(tmp_path / "missing.txt")


def test_norlund_arithmetic_mean_of_constant():
    seq = build_radix((2, 3, 2))
    one = StepFunction(seq, np.ones(seq.size))
    for n in (1, 2, 5, 12):
        got = norlund_mean(one, n, ones_weights(n))
        assert np.max(np.abs(got.values - 1.0)) <= 1e-12


def test_norlund_concentrated_weight_picks_first_partial_sum():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 1)
    n = 6
    q = np.zeros(n)
    q[n - 2] = 1.0  # q_{n-1} = 1, all others 0
    got = norlund_mean(f, n, WeightSequence(values=q))
    want = partial_sum(f, 1)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_norlund_zero_total_weight():
    seq = build_radix((2, 3))
    with pytest.raises(ZeroTotalWeight):
        norlund_mean(StepFunction(seq, np.ones(seq.size)), 2, WeightSequence(values=np.zeros(2)))


def test_norlund_log_weights_reproduce_log_mean():
    seq = build_radix((2, 3, 2, 3, 2, 3))  # M_N = 216
    f = random_function(seq, 5)
    w = log_weights(200)
    for n in range(2, 201):
        a = norlund_mean(f, n, w)
        b = log_mean(f, n)
        assert np.max(np.abs(a.values - b.values)) <= 1e-9


def test_log_mean_of_constant():
    seq = build_radix((2, 3, 2))
    one = StepFunction(seq, np.ones(seq.size))
    for n in (2, 5, 9):
        want = 1.0 - 1.0 / (n * harmonic_l(n))
        got = log_mean(one, n)
        assert np.max(np.abs(got.values - want)) <= 1e-12
    assert log_mean(one, 2).values[0] == pytest.approx(2 / 3, rel=1e-14)


def test_log_mean_single_surviving_term():
    # f = D_8 - D_4 dyadic: at n = 6 only S_5 f = psi_4 survives, weight 1
    seq = build_radix((2,) * 3)
    f = StepFunction(seq, dirichlet_closed_MN(seq, 3).values - dirichlet_closed_MN(seq, 2).values)
    got = log_mean(f, 6)
    want = character(seq, 4) / harmonic_l(6)
    assert np.max(np.abs(got.values - want)) <= 1e-12
    assert np.max(np.abs(np.abs(got.values) - 20 / 49)) <= 1e-12


def test_log_mean_of_zero():
    seq = build_radix((2, 3))
    z = StepFunction(seq, np.zeros(seq.size))
    assert np.max(np.abs(log_mean(z, 4).values)) == 0.0


def test_log_mean_first_order_needs_flag():
    seq = build_radix((2, 3))
    one = StepFunction(seq, np.ones(seq.size))
    with pytest.raises(IndexOutOfRange):
        log_mean(one, 1)
    with pytest.raises(IndexOutOfRange):
        log_mean(one, seq.size + 1)


def test_log_mean_linearity():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 2)
    g = random_function(seq, 3)
    combo = StepFunction(seq, f.values * (2.0 - 1j) + g.values * 0.5)
    got = log_mean(combo, 7)
    want = log_mean(f, 7).values * (2.0 - 1j) + log_mean(g, 7).values * 0.5
    assert np.max(np.abs(got.values - want)) <= 1e-9


def test_norlund_weight_normalization_property():
    # constant functions have S_k f = c for every k >= 1, so a mean with no
    # q_0 equals c * (sum of used weights) / Q_n
    seq = build_radix((2, 3))
    c = 2.5 - 1.5j
    f = StepFunction(seq, np.full(seq.size, c))
    q = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    n = 5
    got = norlund_mean(f, n, WeightSequence(values=q))
    used = sum(q[n - k - 1] for k in range(1, n))
    want = c * used / q.sum()
    assert np.max(np.abs(got.values - want)) <= 1e-12


def test_batch_partial_sums_match_individual(dense_sums):
    # no scale of dyadic(6) below M_N = 64 cuts a level, so S_1 .. S_64
    # are stored at all 64 points
    seq = build_radix((2, 2, 2, 2, 2, 2))
    f = random_function(seq, 7)
    stack = dense_sums(f, seq.size)
    assert means_mod._stack_plan(seq, seq.size)[0].shape == (seq.size * seq.size,)
    assert np.max(np.abs(stack[0])) == 0.0
    for k in range(1, seq.size + 1):
        want = partial_sum(f, k)
        assert np.max(np.abs(stack[k] - want.values)) <= 1e-9
    assert np.max(np.abs(stack[-1] - f.values)) <= 1e-9


def test_batch_stabilizes_after_last_coefficient(dense_sums):
    seq = build_radix((2, 3))
    psi2 = StepFunction(seq, character(seq, 2))
    stack = dense_sums(psi2, seq.size)
    for k in range(3, seq.size + 1):
        assert np.max(np.abs(stack[k] - psi2.values)) <= 1e-12


def test_batch_out_of_range():
    seq = build_radix((2, 3))
    for n_max in (1, seq.size + 1):
        with pytest.raises(IndexOutOfRange):
            next(log_mean_blocks(StepFunction(seq, np.ones(seq.size)), n_max))


def test_log_mean_stack_matches_single_calls():
    seq = build_radix((2, 3, 2, 3))
    f = random_function(seq, 11)
    n_max = 20
    ((ns, rows, _),) = log_mean_blocks(f, n_max)
    assert list(ns) == list(range(1, n_max + 1))
    assert rows.shape == (n_max, seq.size)
    assert not rows[0].any()  # L_1 f = 0
    for n in range(2, n_max + 1):
        want = log_mean(f, n)
        assert np.max(np.abs(rows[n - 1] - want.values)) <= 1e-9


def _custom(q0):
    values = np.random.default_rng(4).uniform(0.1, 2.0, 12)
    return WeightSequence(values=values, q0=q0)


@pytest.mark.parametrize(
    "weights", [ones_weights(12), log_weights(12), _custom(None), _custom(0.7)],
    ids=["ones", "log", "custom", "custom_q0"],
)
def test_norlund_mean_matches_walk(weights):
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 21)
    for n in range(1, seq.size + 1):
        got = norlund_mean(f, n, weights)
        assert np.max(np.abs(got.values - walk_norlund(f, n, weights))) <= 1e-12


def test_log_mean_stacks_match_walk():
    # no scale of (2,3,2) cuts a level, so orders 1..12 are one block on
    # all 12 points
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 22)
    walk = walk_partial_sums(f, seq.size)
    ((ns, rows, sums),) = log_mean_blocks(f, seq.size)
    assert list(ns) == list(range(1, seq.size + 1))
    assert np.max(np.abs(sums - walk[1:])) <= 1e-12
    for n in ns[1:]:
        want = sum(walk[k] / (n - k) for k in range(1, n)) / harmonic_l(n)
        assert np.max(np.abs(log_mean(f, n).values - want)) <= 1e-12
        assert np.max(np.abs(rows[n - 1] - want)) <= 1e-12


def test_means_cost_one_transform_pair(monkeypatch):
    # each mean is one forward pass, a coefficient scaling and one inverse
    # pass; no character row is synthesized
    calls = {"forward_fast": 0, "inverse": 0, "character_rows": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # count each call once, in whichever module looks the name up
    for mod in (means_mod, transform_mod):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    seq = build_radix((2, 3, 2, 3, 2, 3))
    f = random_function(seq, 23)
    for mean in (lambda: log_mean(f, 150), lambda: norlund_mean(f, 150, ones_weights(150))):
        for name in calls:
            calls[name] = 0
        mean()
        assert calls == {"forward_fast": 1, "inverse": 1, "character_rows": 0}


def test_stack_plan_builds_rows_one_block_at_a_time(monkeypatch):
    # n_max = 300 puts the stack on the M_r = 432 of the M_N = 1296
    # points, packed as S_1..S_72 on 72 points, S_73..S_216 on 216 and
    # S_217..S_300 on 432; each level's rows fit in one block of
    # ROW_BLOCK entries, so the first call makes 3 builds and holds them
    # beside the stack; a second call on the same group and n_max reuses
    # them and needs little more than the stack and one block of means
    seq = build_radix((2, 3) * 4)
    n_max = 300
    f = random_function(seq, 29)
    spans = []

    def counting(seq_, lo, hi):
        spans.append((seq_.size, lo, hi))
        return character_rows(seq_, lo, hi)

    def traced_blocks():
        digest = hashlib.blake2b()
        tracemalloc.start()
        try:
            for _, _, block_sums in log_mean_blocks(f, n_max):
                digest.update(block_sums)  # read in place, not copied
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return digest.digest(), peak

    monkeypatch.setattr(means_mod, "character_rows", counting)
    means_mod._stack_plan.cache_clear()
    sums, peak = traced_blocks()
    stack_bytes = means_mod._stack_plan(seq, n_max)[0].nbytes
    assert stack_bytes == 1_161_216
    assert spans == [(72, 0, 72), (216, 72, 216), (432, 216, 300)]
    assert peak < 2 * stack_bytes + 4 * 2**20

    spans.clear()
    again, peak = traced_blocks()
    assert spans == []
    assert peak < stack_bytes + 2**20
    assert again == sums

    # dyadic at n_max = M_N = 1024, the widest levels take several
    # blocks: 128 rows of 512 points at a time, then 64 of 1024
    means_mod._stack_plan.cache_clear()
    next(log_mean_blocks(random_function(build_radix((2,) * 10), 30), 1024))
    assert spans == [
        (64, 0, 64), (128, 64, 128), (256, 128, 256),
        *((512, lo, lo + 128) for lo in range(256, 512, 128)),
        *((1024, lo, lo + 64) for lo in range(512, 1024, 64)),
    ]
    assert all((hi - lo) * m <= ROW_BLOCK for m, lo, hi in spans)


def test_packed_stack_sizes():
    # at the domination parameters (n_max = 300 on (2,3)x4, M_r = 432) the
    # stack and its character rows each hold 72 x 72 + 144 x 216 + 84 x 432
    # complex entries, 55.8% of the dense 301 x 432 stack; dyadic at
    # n_max = M_N = 1024, about 2/3 of the dense 1025 x 1024
    # (each block's sums are a view of the stack)
    seq = build_radix((2, 3) * 4)
    assert next(log_mean_blocks(random_function(seq, 5), 300))[2].base.nbytes == 1_161_216
    rows, _ = means_mod._stack_plan(seq, 300)
    assert rows.nbytes == 1_161_216
    seq = build_radix((2,) * 10)
    packed = next(log_mean_blocks(random_function(seq, 6), 1024))[2].base.size
    assert packed == 64 * 64 + 64 * 128 + 128 * 256 + 256 * 512 + 512 * 1024
    assert round(packed / (1025 * 1024), 3) == 0.667


def dense_cumsum(f, group, n_max):
    """Oracle: (n_max + 1, M_r) rows S_0 f .. S_{n_max} f on ``group``, a
    running sum down full-width rows c_k psi_k."""
    stack = np.zeros((n_max + 1, group.size), dtype=np.complex128)
    np.multiply(forward_fast(f).coeffs[:n_max, None], character_rows(group, 0, n_max), out=stack[1:])
    return np.cumsum(stack, axis=0, out=stack)


# one level and a cut at 64 and one past it, dyadic; the domination
# parameters; a first cut at M_4 = 135 on (3,5,3) cycled to depth 5
_PACKED_CASES = [
    pytest.param((2, 3) * 4, 300, id="2,3x4-300"),
    *(pytest.param((2,) * 10, n, id=f"2x10-{n}") for n in (63, 64, 65, 1024)),
    pytest.param(build_radix((3, 5, 3), 5).radices, 675, id="3,5,3-675"),
]


@pytest.mark.parametrize("radices, n_max", _PACKED_CASES)
def test_packed_stack_matches_dense_cumsum(radices, n_max):
    # each level's rows are the first m points of the dense rows bit for
    # bit, and the dense rows repeat with period m, so the level loses
    # nothing; every block's sums are a view of one array, the levels
    # back to back
    seq = build_radix(radices)
    f = random_function(seq, 47)
    dense = dense_cumsum(f, stack_group(seq, n_max), n_max).view(np.uint64)
    levels = means_mod._levels(seq.scales, n_max)
    assert [lo for lo, _, _ in levels] == [1, *(hi for _, hi, _ in levels[:-1])]
    assert levels[-1][1] == n_max + 1
    orders, stacks = [], set()
    for ns, _, sums in log_mean_blocks(f, n_max):
        lo, hi, m = next(level for level in levels if level[0] <= ns[0] < level[1])
        assert ns[-1] < hi and sums.shape == (len(ns), m)
        rows = dense[ns[0] : ns[-1] + 1]
        assert np.array_equal(sums.view(np.uint64), rows[:, : 2 * m])
        periods = rows.reshape(len(ns), -1, 2 * m)
        assert np.array_equal(periods, np.broadcast_to(periods[:, :1], periods.shape))
        orders += list(ns)
        stacks.add(id(sums.base))
    assert orders == list(range(1, n_max + 1))
    assert len(stacks) == 1
    assert sums.base.size == sum((hi - lo) * m for lo, hi, m in levels)


def test_stack_memory_check_counts_quotient_points(monkeypatch):
    # M_N = 7776, but n_max = 300 needs only M_7 = 432 points, and the
    # packed stack keeps S_1..S_72 on 72 of them, S_73..S_216 on 216 and
    # S_217..S_300 on 432; rows and partial sums hold that many complex
    # values each, beside the log-mean triangles of the blocks of at most
    # 64 orders of each level: 1..64 and 65..72; 73..136, 137..200 and
    # 201..216; 217..280 and 281..300
    packed = (72 * 72 + 144 * 216 + 84 * 432) * 16
    orders = [(1, 64), (65, 72), (73, 136), (137, 200), (201, 216), (217, 280), (281, 300)]
    need = 2 * packed + sum((top - start + 1) * top for start, top in orders) * 8
    seq = build_radix((2, 3) * 5)
    f = StepFunction(seq, np.ones(seq.size))
    monkeypatch.setattr(group_core, "_physical_memory", lambda: need)
    means_mod._stack_plan.cache_clear()
    assert next(log_mean_blocks(f, 300))[2].base.nbytes == packed
    monkeypatch.setattr(group_core, "_physical_memory", lambda: need - 1)
    means_mod._stack_plan.cache_clear()
    with pytest.raises(CapacityExceeded):
        next(log_mean_blocks(f, 300))


def assert_near_dense(rows, stack, group, ns, rtol=1e-15):
    """``rows`` are L_n f for the orders ``ns`` to relative ``rtol``, on the
    first m points of ``group``, m the rows' width: the reference applies
    the triangle 1/((n - k) l_n), 1 <= k < n, to every row of the dense
    ``stack`` as one complex product at every point."""
    ks = np.arange(stack.shape[0])
    ell = np.cumsum(1.0 / np.arange(1, ns.max() + 1))[ns - 1]
    gap = ns[:, None] - ks
    tri = np.zeros(gap.shape)
    np.divide(1.0, gap * ell[:, None], out=tri, where=(gap > 0) & (ks >= 1))
    want = tri.astype(np.complex128) @ stack
    assert rows.shape[0] == len(ns)
    got = np.tile(rows, group.size // rows.shape[1])
    scale_ = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale_)


def test_log_mean_triangles_are_built_once_per_n_max(monkeypatch):
    # orders 1..300 fall in 7 blocks of at most 64 inside the levels
    # 1..72, 73..216 and 217..300; the stacks of a run share their
    # group and n_max, so each block's triangle is built once, and
    # every block's rows match the dense reference
    built = []
    real = means_mod._log_mean_triangle

    def counting(start, stop):
        built.append(start)
        return real(start, stop)

    monkeypatch.setattr(means_mod, "_log_mean_triangle", counting)
    means_mod._stack_plan.cache_clear()
    seq = build_radix((2, 3) * 4)
    group = stack_group(seq, 300)
    fs = [random_function(seq, seed) for seed in (1, 2, 3, 31)]
    blocks = [[(ns, rows) for ns, rows, _ in log_mean_blocks(f, 300)] for f in fs]
    assert built == [1, 65, 73, 137, 201, 217, 281]
    for f, f_blocks in zip(fs, blocks):
        assert [int(ns[-1]) for ns, _ in f_blocks] == [64, 72, 136, 200, 216, 280, 300]
        assert [int(n) for ns, _ in f_blocks for n in ns] == list(range(1, 301))
        dense = dense_cumsum(f, group, 300)
        for ns, rows in f_blocks:
            assert_near_dense(rows, dense, group, ns)


# n_max at a scale M_s >= 64 and one and two past it: on (2,3)x4 at
# M_5 = 72 and M_6 = 216, on (3,5,3) cycled to depth 5 at M_4 = 135, and
# dyadic at M_N = 1024
_LEVEL_CASES = [
    *(pytest.param((2, 3) * 4, n, id=f"2,3x4-{n}") for n in (72, 73, 74, 216, 217, 218)),
    *(pytest.param(build_radix((3, 5, 3), 5).radices, n, id=f"3,5,3-{n}") for n in (135, 136, 137)),
    pytest.param((2,) * 10, 1024, id="2x10-1024"),
]


@pytest.mark.parametrize("radices, n_max", _LEVEL_CASES)
def test_level_product_matches_dense_reference(radices, n_max):
    # each level of a block's triangle meets only the first M_s points of
    # its stack rows; the rows, repeated over the M_r points, are the dense
    # product over every row and point
    seq = build_radix(radices)
    group = stack_group(seq, n_max)
    f = random_function(seq, 37)
    dense = dense_cumsum(f, group, n_max)
    orders = []
    for ns, rows, _ in log_mean_blocks(f, n_max):
        assert_near_dense(rows, dense, group, ns, rtol=1e-12)
        orders += list(ns)
    assert orders == list(range(1, n_max + 1))


def test_level_plan_cuts_the_product_work():
    # at the domination parameters (n_max = 300 on (2,3)x4, M_r = 432) the
    # levels are cut at the scales 72 and 216, and each block of at most
    # 64 orders lies in one level; the full-width product of a block
    # reaches max(ns) columns x 432 points per order, the level products
    # only the points each level is stored on
    seq = build_radix((2, 3) * 4)
    levels = means_mod._levels(seq.scales, 300)
    assert levels == ((1, 73, 72), (73, 217, 216), (217, 301, 432))
    _, stack_plan = means_mod._stack_plan(seq, 300)
    assert [(lo, rows.shape) for lo, rows, _ in stack_plan] == [
        (1, (72, 72)), (73, (144, 216)), (217, (84, 432))
    ]
    starts = [[int(ns[0]) for ns, _ in tris] for _, _, tris in stack_plan]
    assert starts == [[1, 65], [73, 137, 201], [217, 281]]
    plan = [ns for _, _, tris in stack_plan for ns, _ in tris]
    full = sum(len(ns) * int(ns[-1]) * 432 for ns in plan)
    levelled = sum(
        len(ns) * (min(hi, int(ns[-1])) - lo) * m
        for ns in plan
        for lo, hi, m in levels
        if lo < ns[-1]
    )
    assert full == 23_134_464
    assert levelled <= 0.45 * full
