import tracemalloc

import numpy as np
import pytest

from vlab.errors import IndexOutOfRange, InvalidWeight, ZeroTotalWeight
from vlab.group_core import build_radix
import vlab.means as means_mod
import vlab.transform as transform_mod
from vlab.means import (
    WeightSequence,
    harmonic_l,
    harmonic_numbers,
    log_mean,
    log_mean_rows,
    log_weights,
    norlund_mean,
    ones_weights,
    partial_sum_stack,
    weight_sequence_from_spec,
    weights_from_file,
)
from vlab.step_functions import StepFunction, add, constant, scale
from vlab.transform import ROW_BLOCK, character_rows, dirichlet_closed_MN, forward_fast, partial_sum


def character(seq, n):
    """psi_n on all M_N points."""
    return character_rows(seq, n, n + 1)[0]


def random_function(seq, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


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
    acc = sum(weights.q(n - k) * s[k] for k in range(1, n))
    if weights.q0 is not None:
        acc = acc + weights.q0 * s[n]
    return acc / weights.total(n)


def test_harmonic_values():
    assert harmonic_l(1) == 1.0
    assert harmonic_l(4) == pytest.approx(25 / 12, abs=1e-14)
    assert harmonic_l(6) == pytest.approx(49 / 20, abs=1e-14)
    with pytest.raises(IndexOutOfRange):
        harmonic_l(0)


def test_harmonic_numbers_match_scalar():
    hs = harmonic_numbers(30)
    for n in (1, 7, 30):
        assert hs[n - 1] == pytest.approx(harmonic_l(n), rel=1e-15)
    # forward summation, term by term
    total = 0.0
    for n in range(1, 3001):
        total += 1.0 / n
        if n in (1, 2, 999, 3000):
            assert harmonic_l(n) == total


def test_weight_sequence_validation():
    with pytest.raises(InvalidWeight):
        WeightSequence(values=np.array([1.0, -0.5]))
    with pytest.raises(InvalidWeight):
        WeightSequence(values=np.array([1.0]), q0=-1.0)
    w = WeightSequence(values=np.array([3.0, 1.0, 2.0]))
    assert w.q(1) == 3.0
    assert w.total(3) == 6.0
    with pytest.raises(IndexOutOfRange):
        w.q(4)
    with pytest.raises(IndexOutOfRange):
        w.total(0)


def test_weight_families_from_spec(tmp_path):
    assert weight_sequence_from_spec("ones", 4).q0 == 1.0
    lw = weight_sequence_from_spec("log", 4)
    assert lw.q0 is None
    assert lw.q(3) == pytest.approx(1 / 3)
    path = tmp_path / "w.txt"
    path.write_text("1.0\n0.5\n0.25\n")
    cw = weight_sequence_from_spec(f"custom:{path}", 3)
    assert cw.q(2) == 0.5
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
    one = constant(seq, 1.0)
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
        norlund_mean(constant(seq, 1.0), 2, WeightSequence(values=np.zeros(2)))


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
    one = constant(seq, 1.0)
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
    z = constant(seq, 0.0)
    assert np.max(np.abs(log_mean(z, 4).values)) == 0.0


def test_log_mean_first_order_needs_flag():
    seq = build_radix((2, 3))
    one = constant(seq, 1.0)
    with pytest.raises(IndexOutOfRange):
        log_mean(one, 1)
    with pytest.raises(IndexOutOfRange):
        log_mean(one, seq.size + 1)


def test_log_mean_linearity():
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 2)
    g = random_function(seq, 3)
    combo = add(scale(f, 2.0 - 1j), scale(g, 0.5))
    got = log_mean(combo, 7)
    want = add(scale(log_mean(f, 7), 2.0 - 1j), scale(log_mean(g, 7), 0.5))
    assert np.max(np.abs(got.values - want.values)) <= 1e-9


def test_norlund_weight_normalization_property():
    # constant functions have S_k f = c for every k >= 1, so a mean with no
    # q_0 equals c * (sum of used weights) / Q_n
    seq = build_radix((2, 3))
    c = 2.5 - 1.5j
    f = constant(seq, c)
    q = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    n = 5
    got = norlund_mean(f, n, WeightSequence(values=q))
    used = sum(q[n - k - 1] for k in range(1, n))
    want = c * used / q.sum()
    assert np.max(np.abs(got.values - want)) <= 1e-12


def test_batch_partial_sums_match_individual():
    seq = build_radix((2, 2, 2, 2, 2, 2))
    f = random_function(seq, 7)
    stack = partial_sum_stack(f, seq.size)
    assert stack.shape == (seq.size + 1, seq.size)
    assert np.max(np.abs(stack[0])) == 0.0
    for k in range(1, seq.size + 1):
        want = partial_sum(f, k)
        assert np.max(np.abs(stack[k] - want.values)) <= 1e-9
    assert np.max(np.abs(stack[-1] - f.values)) <= 1e-9


def test_batch_stabilizes_after_last_coefficient():
    seq = build_radix((2, 3))
    psi2 = StepFunction(seq, character(seq, 2))
    stack = partial_sum_stack(psi2, seq.size)
    for k in range(3, seq.size + 1):
        assert np.max(np.abs(stack[k] - psi2.values)) <= 1e-12


def test_batch_out_of_range():
    seq = build_radix((2, 3))
    with pytest.raises(IndexOutOfRange):
        partial_sum_stack(constant(seq, 1.0), seq.size + 1)
    stack = partial_sum_stack(constant(seq, 1.0), 3)
    for ns in ([1, 2], [2, 5], []):
        with pytest.raises(IndexOutOfRange):
            log_mean_rows(stack, ns)


def test_log_mean_stack_matches_single_calls():
    seq = build_radix((2, 3, 2, 3))
    f = random_function(seq, 11)
    n_max = 20
    rows = log_mean_rows(partial_sum_stack(f, n_max - 1), np.arange(2, n_max + 1))
    assert rows.shape == (n_max - 1, seq.size)
    for n in range(2, n_max + 1):
        want = log_mean(f, n)
        assert np.max(np.abs(rows[n - 2] - want.values)) <= 1e-9


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
    seq = build_radix((2, 3, 2))
    f = random_function(seq, 22)
    walk = walk_partial_sums(f, seq.size)
    assert np.max(np.abs(partial_sum_stack(f, seq.size) - walk)) <= 1e-12
    ns = np.arange(2, seq.size + 1)
    rows = log_mean_rows(walk[:-1], ns)
    for n in ns:
        want = sum(walk[k] / (n - k) for k in range(1, n)) / harmonic_l(n)
        assert np.max(np.abs(log_mean(f, n).values - want)) <= 1e-12
        assert np.max(np.abs(rows[n - 2] - want)) <= 1e-12


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


def test_partial_sum_stack_builds_rows_one_block_at_a_time(monkeypatch):
    # M_N = 1296 takes 50-row blocks: 6 builds for 300 rows, and scratch
    # memory of about one block on top of the stack itself
    seq = build_radix((2, 3) * 4)
    n_max = 300
    f = random_function(seq, 29)
    spans = []

    def counting(seq_, lo, hi):
        spans.append((lo, hi))
        return character_rows(seq_, lo, hi)

    monkeypatch.setattr(means_mod, "character_rows", counting)
    tracemalloc.start()
    try:
        stack = partial_sum_stack(f, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    step = ROW_BLOCK // seq.size
    assert len(spans) == -(-n_max // step) == 6
    assert [lo for lo, _ in spans] == list(range(0, n_max, step))
    assert spans[-1][1] == n_max
    assert peak < stack.nbytes + 4 * 2**20
