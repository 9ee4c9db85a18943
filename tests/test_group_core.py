import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from vlab.errors import (
    CapacityExceeded,
    IndexOutOfRange,
    RadixTooSmall,
    RankOutOfRange,
    VilenkinError,
)
from vlab.group_core import (
    build_radix,
    decompose,
    truncate,
)
import vlab.group_core as group_core_mod
from vlab.means import (
    log_mean,
    mean_blocks,
    norlund_mean,
    ones_weights,
    partial_sum_blocks,
)
from vlab.operators import make_atom
from vlab.step_functions import StepFunction
from vlab.transform import dirichlet_closed_MN, dirichlet_kernel, forward_fast, partial_sum


def test_build_radix_scale_table():
    seq = build_radix((2, 3, 2), 3)
    assert seq.scales == (1, 2, 6, 12)
    assert seq.size == 12


def test_build_radix_dyadic():
    seq = build_radix((2, 2, 2, 2), 4)
    assert seq.scales == (1, 2, 4, 8, 16)


def test_build_radix_rejects_small_radix():
    with pytest.raises(RadixTooSmall):
        build_radix((1, 2), 2)


def test_build_radix_capacity(monkeypatch):
    with pytest.raises(CapacityExceeded):
        build_radix((2,) * 40, 40)
    monkeypatch.setattr(group_core_mod, "CAPACITY", 2**50)
    build_radix((2,) * 40, 40)


def test_build_radix_bad_depth():
    with pytest.raises(ValueError):
        build_radix((2, 3), -1)
    with pytest.raises(ValueError):
        build_radix((), 1)
    assert build_radix((), 0).size == 1  # the one-point group


def test_scales_strictly_increasing():
    seq = build_radix((2, 3, 4, 5))
    assert all(b > a for a, b in zip(seq.scales, seq.scales[1:]))
    prod = 1
    for r in seq.radices:
        prod *= r
    assert seq.size == prod


def test_decompose_examples():
    assert decompose(3, build_radix((2, 3))) == (1, 1)
    assert decompose(5, build_radix((2, 3))) == (1, 2)
    assert decompose(0, build_radix((2, 3, 2))) == (0, 0, 0)
    assert decompose(5, build_radix((2, 2, 2))) == (1, 0, 1)


def test_decompose_out_of_range():
    seq = build_radix((2, 3))
    with pytest.raises(IndexOutOfRange):
        decompose(6, seq)
    with pytest.raises(IndexOutOfRange):
        decompose(-1, seq)


@given(st.data())
def test_round_trip_decompose_compose(data):
    radices = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=6))
    seq = build_radix(tuple(radices))
    n = data.draw(st.integers(0, seq.size - 1))
    digits = decompose(n, seq)
    assert all(0 <= d < r for d, r in zip(digits, seq.radices))
    assert sum(d * m for d, m in zip(digits, seq.scales)) == n


def test_order_bracket_and_exhaustive_round_trip():
    seq = build_radix((2, 3, 2, 4))
    for n in range(seq.size):
        digits = decompose(n, seq)
        assert sum(d * m for d, m in zip(digits, seq.scales)) == n
        if n >= 1:
            order = max(j for j, d in enumerate(digits) if d != 0)
            assert seq.scales[order] <= n < seq.scales[order + 1]


def _cylinder(seq, rank, i):
    """I_rank(i) by its definition: the indices whose first ``rank`` digits are those of i."""
    prefix = decompose(i, seq)[:rank]
    return [j for j in range(seq.size) if decompose(j, seq)[:rank] == prefix]


def test_cylinder_rank_zero_is_whole_group():
    seq = build_radix((2, 3))
    assert _cylinder(seq, 0, 5) == list(range(seq.size))


def test_cylinder_measure():
    # I_n(a) for a < M_n is the index set {a + t*M_n}, 1/M_n of the group
    seq = build_radix((2, 3, 2))
    for n in range(seq.depth + 1):
        for a in range(seq.scales[n]):
            cells = _cylinder(seq, n, a)
            assert cells == list(range(a, seq.size, seq.scales[n]))
            assert Fraction(len(cells), seq.size) == Fraction(1, seq.scales[n])


def test_cylinder_dyadic_example():
    assert _cylinder(build_radix((2, 2)), 1, 1) == [1, 3]


def test_cylinder_rank_out_of_range():
    # truncating at rank n leaves the group of rank-n cylinders
    seq = build_radix((2, 2))
    for rank in (-1, 3):
        with pytest.raises(RankOutOfRange):
            truncate(seq, rank)


def test_measure_additivity_over_children():
    # the m_n children I_{n+1}(a + c*M_n) of I_n(a) are disjoint and cover it
    seq = build_radix((2, 3, 2))
    for rank in range(seq.depth):
        for a in range(seq.scales[rank]):
            children = [
                _cylinder(seq, rank + 1, a + c * seq.scales[rank])
                for c in range(seq.radices[rank])
            ]
            merged = sorted(j for child in children for j in child)
            assert merged == _cylinder(seq, rank, a)


def test_build_radix_cycles_the_pattern():
    # a pattern is repeated to the depth, and a longer one is cut
    assert build_radix((2, 3), 5).radices == (2, 3, 2, 3, 2)
    assert build_radix((2,), 3).radices == (2, 2, 2)
    assert build_radix((2, 3, 2, 4), 2).radices == (2, 3)
    assert build_radix((2, 3), 5).scales == (1, 2, 6, 12, 36, 72)
    # capacity is checked on the cycled scales, before the depth is walked out
    with pytest.raises(CapacityExceeded):
        build_radix((2, 3), 10**12)


def test_truncate():
    seq = build_radix((2, 3, 2, 4))
    sub = truncate(seq, 2)
    assert sub.radices == (2, 3)
    assert sub.scales == (1, 2, 6)
    assert sub == build_radix((2, 3))


# Each caller of check_range on (2,3,2), M_N = 12, depth 3: its range, its
# exception class and the message the hand-written checks it replaced gave.
_SEQ = build_radix((2, 3, 2))
_F = StepFunction(_SEQ, np.arange(12.0))
RANGE_CALLERS = {
    "truncate": (lambda v: truncate(_SEQ, v), 0, 3, RankOutOfRange, "depth {} outside 0..3"),
    "decompose": (lambda v: decompose(v, _SEQ), 0, 11, IndexOutOfRange, "index {} outside 0..11"),
    "partial_sum": (lambda v: partial_sum(_F, v), 0, 12, IndexOutOfRange,
                    "partial sum order {} outside 0..12"),
    "dirichlet_kernel": (lambda v: dirichlet_kernel(_SEQ, v), 1, 12, IndexOutOfRange,
                         "kernel order {} outside 1..12"),
    "dirichlet_closed_MN": (lambda v: dirichlet_closed_MN(_SEQ, v), 0, 3, RankOutOfRange,
                            "rank {} outside 0..3"),
    "mean_blocks": (lambda v: next(mean_blocks(forward_fast(_F), v)), 2, 12, IndexOutOfRange,
                    "n_max {} outside 2..12"),
    "partial_sum_blocks": (lambda v: next(partial_sum_blocks(forward_fast(_F), v)), 2, 12, IndexOutOfRange,
                           "n_max {} outside 2..12"),
    "norlund_mean": (lambda v: norlund_mean(_F, v, ones_weights(14)), 1, 12, IndexOutOfRange,
                     "mean order {} outside 1..12"),
    "log_mean": (lambda v: log_mean(_F, v), 2, 12, IndexOutOfRange,
                 "log mean order {} outside 2..12"),
    "make_atom": (lambda v: make_atom(np.random.default_rng(0), _SEQ, v, 0.5), 0, 3,
                  RankOutOfRange, "rank {} outside 0..3"),
}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("caller", sorted(RANGE_CALLERS))
def test_range_checks_keep_their_messages_and_classes(caller, side):
    call, lo, hi, error, message = RANGE_CALLERS[caller]
    value = lo - 1 if side == "below" else hi + 1
    with pytest.raises(VilenkinError) as excinfo:
        call(value)
    assert excinfo.type is error
    assert str(excinfo.value) == message.format(value)
