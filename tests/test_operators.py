import tracemalloc

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
import vlab.means as means_mod
from vlab.means import mean_blocks, partial_sum_blocks
from vlab.operators import (
    WeightFunction,
    condition6_advisory,
    critical_power_weight,
    custom_weight,
    domination_check,
    log_weight,
    make_atom,
    parse_weight_spec,
    power_weight,
    weighted_maximal,
)
from vlab.step_functions import (
    StepFunction,
    hardy_quasinorm,
    lp_quasinorm,
)
from vlab.transform import (
    BLOCK_POINTS,
    character_rows,
    dirichlet_closed_MN,
    forward_fast,
    partial_sum,
)
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
    # the closed formula reproduces the plain power bit for bit
    n = np.arange(1, 10**5 + 1)
    for alpha in (0.0, 0.5, 1.0, 1 / 0.3 - 1):
        assert np.array_equal(power_weight(alpha).phi(n), n.astype(np.float64) ** alpha)


def test_log_weight_floors_at_one():
    w = log_weight()
    assert w.phi(1) == 1.0  # ln 2 < 1 gets clamped
    assert w.phi(10) == pytest.approx(np.log(11.0))
    n = np.arange(1, 10**5 + 1)
    assert np.array_equal(w.phi(n), np.maximum(1, np.log(n + 1)))


def test_overflowing_closed_weight_is_refused():
    # 5^400 is about 4e279 and 6^400 overflows a float, so phi is finite up
    # to n = 5 and refused from there, naming the first argument it overflows at
    w = power_weight(400)
    assert w.phi(5) == 5.0**400
    for n in (6, np.arange(2, 66)):
        with pytest.raises(InvalidWeight, match=r"^weight power:400 is not finite at n=6$"):
            w.phi(n)


def test_custom_weight_validation():
    w = custom_weight([1.0, 1.5, 1.5, 2.0])
    assert w.phi(3) == 1.5
    with pytest.raises(InvalidWeight):
        custom_weight([1.0, 0.5])
    with pytest.raises(InvalidWeight):
        custom_weight([2.0, 1.5])
    with pytest.raises(InvalidWeight):
        w.phi(9)
    with pytest.raises(InvalidWeight):
        WeightFunction(beta=0.5)  # a falling log factor would break monotonicity


def test_weight_spec_parsing(tmp_path):
    assert parse_weight_spec("log").spec == "log"
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
    assert condition6_advisory(custom_weight([1.0, 2.0]), 0.5) == "unknown"
    # the verdict is defined for 0 < p < 1, the range its callers enforce
    for p in (0.0, 1.0):
        with pytest.raises(InvalidExponent):
            condition6_advisory(log_weight(), p)
    # closed weights n^alpha log(n+1)^(-beta), beta <= 0: satisfied iff alpha < 1/p - 1
    for p in (0.3, 0.5, 0.8):
        gap = 1 / p - 1
        for alpha in (0.0, gap / 2, gap, 2 * gap):
            for beta in (0.0, -1.0):
                verdict = condition6_advisory(WeightFunction(alpha=alpha, beta=beta), p)
                assert verdict == ("satisfied" if alpha < gap else "violated")


# ---------------------------------------------------------------------------
# weighted maximal operator
# ---------------------------------------------------------------------------


def partial_sum_maximal(f, weight):
    """max over 1 <= n <= M_N of |S_n f| / phi(n+1) at the M_N points of the group."""
    n = f.radix_seq.size
    sums = _whole_group_stack(f, n)[1:]
    return np.max(np.abs(sums) / weight.phi(np.arange(2, n + 2))[:, None], axis=0)


def test_weighted_maximal_of_zero():
    seq = dyadic(4)
    out = weighted_maximal(StepFunction(seq, np.zeros(seq.size)), log_weight(), seq.size)
    assert np.max(np.abs(out.values)) == 0.0


def test_weighted_maximal_of_character_partial_sums():
    # S_k psi_1 = psi_1 for k >= 2, else 0, so L_2 psi_1 = 0 and
    # L_n psi_1 = psi_1 l_{n-2} / l_n for n >= 3; the critical weight at
    # p = 1/2 divides by n + 1, and the sup is 18/125 at n = 4
    seq = dyadic(4)
    psi1 = StepFunction(seq, character_rows(seq, 1, 2)[0])
    out = weighted_maximal(psi1, critical_power_weight(0.5), seq.size)
    closed = [harmonic_l(n - 2) / ((n + 1) * harmonic_l(n)) for n in range(3, seq.size + 1)]
    assert max(closed) == closed[1] == pytest.approx(18 / 125, rel=1e-15)
    assert np.max(np.abs(out.values - 18 / 125)) <= 1e-15


def test_weighted_maximal_domination_log_vs_partial():
    seq = build_radix((2, 3, 2, 2))
    for seed in range(5):
        f = random_function(seq, seed)
        for weight in (critical_power_weight(0.5), log_weight()):
            log_side = weighted_maximal(f, weight, seq.size)
            sum_side = partial_sum_maximal(f, weight)
            assert np.all(log_side.values.real <= sum_side + 1e-12)


def test_weighted_maximal_monotone_in_nmax():
    seq = dyadic(5)
    f = random_function(seq, 9)
    w = log_weight()
    prev = None
    for n_max in (2, 4, 8, 16, 32):
        cur = weighted_maximal(f, w, n_max)
        if prev is not None:
            assert np.all(cur.values.real >= prev.values.real - 1e-15)
        prev = cur


def test_weighted_maximal_errors():
    seq = dyadic(3)
    f = random_function(seq)
    with pytest.raises(InvalidWeight):
        weighted_maximal(f, "log", 4)
    with pytest.raises(IndexOutOfRange):
        weighted_maximal(f, log_weight(), seq.size + 1)
    with pytest.raises(IndexOutOfRange):
        weighted_maximal(f, log_weight(), 1)


def test_weight_is_refused_before_any_block(monkeypatch):
    # the weight is evaluated at every order up to n_max before the first
    # log-mean block: an overflowing power and a table shorter than n_max
    # are refused with no block built
    import vlab.operators as operators_mod

    blocks = []

    def counting(cv, n_max):
        for block in mean_blocks(cv, n_max):
            blocks.append(block[0])
            yield block

    monkeypatch.setattr(operators_mod, "mean_blocks", counting)
    f = random_function(build_radix((2, 3) * 4), 3)
    calls = [
        lambda: weighted_maximal(f, power_weight(400), 300),
        lambda: weighted_maximal(f, custom_weight(np.arange(1.0, 101.0)), 300),
        lambda: domination_check(f, 1 / 401, 300),  # the critical weight n^400
    ]
    for call in calls:
        with pytest.raises(InvalidWeight, match="n=6|argument 301"):
            call()
    assert blocks == []
    weighted_maximal(f, log_weight(), 300)
    assert len(blocks) > 1


def test_weighted_maximal_scaling_exact_for_power_of_two():
    seq = dyadic(4)
    f = random_function(seq, 12)
    w = log_weight()
    base = weighted_maximal(f, w, seq.size)
    scaled = weighted_maximal(StepFunction(seq, f.values * 4.0), w, seq.size)
    assert np.array_equal(scaled.values, base.values * 4.0)


def atom_ratio(f, p, weight, n_max):
    """||sup_n |L_n f| / phi(n+1)||_p / ||f||_{H_p}, as theorem-a and the theta bracket take it."""
    return lp_quasinorm(weighted_maximal(f, weight, n_max), p) / hardy_quasinorm(f, p)


def test_boundedness_ratio_scaling_invariance():
    seq = dyadic(4)
    f = random_function(seq, 13)
    w = log_weight()
    r1 = atom_ratio(f, 0.5, w, seq.size)
    r2 = atom_ratio(StepFunction(seq, f.values * 3.0), 0.5, w, seq.size)
    assert r2 == pytest.approx(r1, rel=1e-12)


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


def _full_accumulate_slack(dense, blocks, p, n_max):
    # the running sup of |S_k| / (k+1)^(1/p-1) as one accumulate over every
    # order, at every point of the dense stack, against the log-mean
    # ``blocks`` (ns, rows) repeated out to the same points, for n >= 2
    expo = 1.0 / p - 1.0
    k_weights = (np.arange(1, n_max + 1) + 1.0) ** expo
    running = np.maximum.accumulate(np.abs(dense[1:]) / k_weights[:, None], axis=0)
    worst = -np.inf
    for ns, rows in blocks:
        ns, rows = ns[ns > 1], rows[ns > 1]
        lhs = np.abs(rows) / ((ns + 1.0) ** expo)[:, None]
        lhs = np.tile(lhs, dense.shape[1] // rows.shape[1])
        worst = max(worst, float(np.max(lhs - running[ns - 1])))
    return worst


@pytest.mark.parametrize(
    "radices",
    [(2, 3) * 4, build_radix((3, 5, 3), 5).radices, (2,) * 9],
    ids=["2,3x4", "3,5,3", "2x9"],
)
@pytest.mark.parametrize("n_max", [2, 64, 65, 129, 300])
def test_blocked_running_max_matches_full_accumulate(radices, n_max):
    # orders 1..64 fill the first level, and 300 carries the running sup
    # across several levels and blocks; the log-mean rows come from the
    # same blocks, so only the running sup differs from the reference.
    # Dyadic, 65 and 129 each open a level of their own, the log means of
    # orders 64 and 128 on 64 and 128 points beside L_65 and L_129 on 128
    # and 256
    seq = build_radix(radices)
    for seed, p in ((14, 0.5), (15, 0.8)):
        f = random_function(seq, seed)
        blocks = list(mean_blocks(forward_fast(f), n_max))
        want = _full_accumulate_slack(_whole_group_stack(f, n_max), blocks, p, n_max)
        assert domination_check(f, p, n_max).max_slack == want


def _whole_group_stack(f, n_max):
    # partial sums at all M_N points, from the characters of the whole group
    seq = f.radix_seq
    stack = np.zeros((n_max + 1, seq.size), dtype=np.complex128)
    np.multiply(forward_fast(f).coeffs[:n_max, None], character_rows(seq, 0, n_max), out=stack[1:])
    return np.cumsum(stack, axis=0, out=stack)


def _whole_group_log_means(full, n_max):
    """(ns, rows L_n f) for n = 2..n_max from the dense rows ``full``: the
    triangle 1/((n - k) l_n), 1 <= k < n, as one complex product."""
    ns = np.arange(2, n_max + 1)
    ks = np.arange(n_max)
    gap = ns[:, None] - ks
    tri = np.zeros(gap.shape)
    ell = np.cumsum(1.0 / np.arange(1, n_max + 1))[ns - 1]
    np.divide(1.0, gap * ell[:, None], out=tri, where=(gap > 0) & (ks >= 1))
    return ns, tri.astype(np.complex128) @ full[:n_max]


# M_r, the smallest scale >= n_max, for each n_max; on (3,5,3) cycled to
# depth 5, 300 > M_4 = 135, so that stack spans the whole group, M_5 = 675
_QUOTIENT_WIDTHS = [
    ("2,3x4", (2, 3) * 4, {2: 2, 3: 6, 7: 12, 37: 72, 300: 432}),
    ("3,5,3", build_radix((3, 5, 3), 5).radices, {2: 3, 3: 3, 7: 15, 37: 45, 300: 675}),
]


@pytest.mark.parametrize(
    "radices, n_max, width",
    [
        pytest.param(radices, n, m, id=f"{name}-{n}")
        for name, radices, widths in _QUOTIENT_WIDTHS
        for n, m in widths.items()
    ],
)
def test_quotient_stack_matches_whole_group(radices, n_max, width, dense_sums):
    # a stack of order n_max lives on the M_r = width points of the rank-r
    # truncation; tiled M_N / M_r times it is the stack on the whole group,
    # and the maximal function and the domination slack are those of the
    # whole-group stack.  The stacks are equal bit for bit; the log-mean
    # rows behind the maximal function come from multiplier blocks, not
    # the reference's triangle product, which may round the last bits
    # differently
    seq = build_radix(radices)
    f = random_function(seq, 41)
    stack = dense_sums(f, n_max)
    assert stack.shape == (n_max + 1, width)
    copies = seq.size // width
    for n in range(n_max + 1):
        assert np.max(np.abs(np.tile(stack[n], copies) - partial_sum(f, n).values)) <= 1e-12
    full = _whole_group_stack(f, n_max)
    assert np.array_equal(np.tile(stack, copies), full)

    weight = power_weight(1.0)
    ns, rows = _whole_group_log_means(full, n_max)
    want = np.max(np.abs(rows) / weight.phi(ns + 1)[:, None], axis=0, initial=0.0)
    got = weighted_maximal(f, weight, n_max).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for p in (0.5, 0.8):
        want = _full_accumulate_slack(full, [(ns, rows)], p, n_max)
        assert abs(domination_check(f, p, n_max).max_slack - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "radices, n_max",
    [((2, 3) * 4, 300), ((2,) * 8, 65), ((2,) * 8, 129)],
    ids=["2,3x4-300", "2x8-65", "2x8-129"],
)
def test_log_mean_blocks_lie_inside_one_level(radices, n_max):
    # each block of BLOCK_POINTS // m orders lies inside one level of width m,
    # its log means as wide as its partial sums, and L_1 f = 0 opens the
    # first; at 65 and 129, n_max - 1 is a scale and the top level holds
    # one order.  Tiled out, the rows are the whole-group rows
    seq = build_radix(radices)
    f = random_function(seq, 45)
    levels = means_mod._levels(seq.scales, n_max)
    orders, means, sums = [], [], []
    cv = forward_fast(f)
    blocks = zip(mean_blocks(cv, n_max), partial_sum_blocks(cv, n_max), strict=True)
    for (ns, block_means), (sum_ns, block_sums) in blocks:
        m = block_sums.shape[1]
        assert np.array_equal(ns, sum_ns) and len(ns) <= max(1, BLOCK_POINTS // m)
        assert any(lo <= ns[0] and ns[-1] < hi and width == m for lo, hi, width in levels)
        assert block_means.shape == block_sums.shape
        orders += list(ns)
        means.append(np.tile(block_means, seq.size // block_means.shape[1]))
        sums.append(np.tile(block_sums, seq.size // block_sums.shape[1]))
    assert orders == list(range(1, n_max + 1))
    if n_max in (65, 129):
        assert levels[-1][:2] == (n_max, n_max + 1)
    means, sums = np.concatenate(means), np.concatenate(sums)
    assert not means[0].any()
    full = _whole_group_stack(f, n_max)
    _, want = _whole_group_log_means(full, n_max)
    assert np.max(np.abs(means[1:] - want)) <= 1e-12
    assert np.max(np.abs(sums - full[1:])) <= 1e-12


def test_log_mean_maximal_memory_does_not_grow_with_the_group():
    # M_N = 46656, but n_max = 300 needs only M_7 = 432 points; rows and
    # stack on the whole group would take 2 * 301 * 46656 complex values
    # (429 MiB).  The maximal function builds no partial-sum stack: a cold
    # call holds its cached multiplier rows (72,576 reals), one block and
    # the M_N-wide coefficients and result
    seq = build_radix((2, 3) * 6)
    f = random_function(seq, 43)
    means_mod._stack_plan.cache_clear()
    means_mod._mean_plan.cache_clear()
    tracemalloc.start()
    try:
        weighted_maximal(f, log_weight(), 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert means_mod._stack_plan.cache_info().currsize == 0


def test_maximal_at_the_top_order_holds_one_block():
    # n_max = M_N = 8192 dyadic: the parent's stack and triangles took more
    # than 1 GiB here; the rows of all orders (4096 x 8192 at the top level
    # alone) pass the cache cap, so each block builds its own and a cold
    # call holds one block of BLOCK_POINTS values at a time
    seq = build_radix((2,) * 13)
    f = random_function(seq, 46)
    means_mod._mean_plan.cache_clear()
    tracemalloc.start()
    try:
        weighted_maximal(f, log_weight(), seq.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


_WARM_CASES = [((2, 3) * 4, 300), ((2,) * 10, 1024), (build_radix((3, 5, 3), 5).radices, 300)]


def test_warm_calls_hold_one_block_beside_the_stack():
    # at the domination parameters, and on a dyadic and a (3,5,3) stack, a
    # warm domination check holds its stack and one block's rows and
    # moduli at a time: with glibc's 128 KiB top pad that stays below
    # twice the stack, the free heap glibc keeps between calls, so the
    # calls do not hand back pages and fault them in again.  The bound
    # holds only where the stack is large beside the call's M_N-wide
    # arrays: on (2,)x12 at n_max 200 (stack 491,520 B) a warm call's peak
    # plus the pad is about 1.29 MB against a bound of 983,040 B.  The
    # maximal function builds no stack: it holds a few arrays of one
    # block, of BLOCK_POINTS complex values, at a time
    for radices, n_max in _WARM_CASES:
        seq = build_radix(radices)
        f = random_function(seq, 44)
        domination_check(f, 0.5, n_max)
        weighted_maximal(f, log_weight(), n_max)
        stack_bytes = means_mod._stack_plan(seq, n_max)[0].nbytes  # the stack's layout
        for call, bound in (
            (lambda: domination_check(f, 0.5, n_max), 2 * stack_bytes - 2**17),
            (lambda: weighted_maximal(f, log_weight(), n_max), 4 * 16 * BLOCK_POINTS),
        ):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (radices, n_max)


def test_warm_calls_take_few_page_faults():
    # the same calls, 20 at a time: each domination check allocates its
    # stack as one array, which glibc keeps between calls, so warm calls
    # fault in almost no pages.  A stack of one array per level is handed
    # back and faulted in again on every call: about 9,000 faults per 20
    # calls at (2,3)x4, 28,000 at 2^10.  The maximal function holds no
    # stack; on (2,)x12 at n_max 200 it took about 4,320 faults per 20
    # calls while it still filled one
    resource = pytest.importorskip("resource")
    cases = [(case, (domination_check, weighted_maximal)) for case in _WARM_CASES]
    for (radices, n_max), fns in [*cases, (((2,) * 12, 200), (weighted_maximal,))]:
        seq = build_radix(radices)
        f = random_function(seq, 44)
        calls = {
            domination_check: lambda: domination_check(f, 0.5, n_max),
            weighted_maximal: lambda: weighted_maximal(f, log_weight(), n_max),
        }
        for fn in fns:
            calls[fn]()
        for fn in fns:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(20):
                calls[fn]()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            assert faults < 200, (radices, n_max, fn.__name__, faults)


def test_domination_reads_each_partial_sum_on_its_cylinders():
    # f = 1 + psi_64 on dyadic(7): S_k = 1 for 1 <= k <= 64, and S_65 is 2
    # on the first 64 points and 0 on the other 64, where the running sup
    # stays 1/phi(2).  The log means below order 66 are l_{n-1}/l_n
    # everywhere, and with phi(n) = n^(1/999) the slack grows with n, so
    # the largest slack is at n = 65 on the second half of the group
    seq = dyadic(7)
    f = StepFunction(seq, 1.0 + character_rows(seq, 64, 65)[0])
    p = 0.999
    alpha = 1.0 / p - 1.0
    want = harmonic_l(64) / (harmonic_l(65) * 66.0**alpha) - 2.0**-alpha
    assert domination_check(f, p, 65).max_slack == pytest.approx(want, rel=1e-12, abs=0)


def test_domination_on_kernel_difference():
    seq = dyadic(5)
    f = StepFunction(seq, dirichlet_closed_MN(seq, 3).values - dirichlet_closed_MN(seq, 2).values)
    res = domination_check(f, 0.5, seq.size)
    assert res.passed


def test_domination_of_zero_function():
    seq = dyadic(4)
    res = domination_check(StepFunction(seq, np.zeros(seq.size)), 0.5, 10)
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
        if rank >= 1:
            # the support lies in one rank-r cylinder {a + t*M_r}
            support = np.flatnonzero(vals)
            assert len(set((support % seq.scales[rank]).tolist())) == 1
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
        log_ratio = atom_ratio(f, 0.5, w, seq.size)
        sum_ratio = lp_quasinorm(StepFunction(seq, partial_sum_maximal(f, w)), 0.5) / h
        assert log_ratio <= sum_ratio * (1 + 1e-12)


def test_ratio_of_constant_is_bounded_by_mean_formula():
    # L_n c = c (1 - 1/(n l_n)), so the ratio cannot exceed the sup of
    # (1 - 1/(n l_n)) / (n+1)^{1/p-1}
    seq = dyadic(5)
    p = 0.5
    w = critical_power_weight(p)
    ratio = atom_ratio(StepFunction(seq, np.full(seq.size, 3.0)), p, w, seq.size)
    bound = max(
        (1.0 - 1.0 / (n * harmonic_l(n))) / (n + 1.0) ** (1.0 / p - 1.0)
        for n in range(2, seq.size + 1)
    )
    assert np.isfinite(ratio)
    assert ratio <= bound * (1 + 1e-12)
