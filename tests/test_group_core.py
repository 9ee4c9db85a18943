import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from vlab.errors import (
    CapacityExceeded,
    IndexOutOfRange,
    RadixTooSmall,
    RankOutOfRange,
)
from vlab.group_core import (
    build_radix,
    decompose,
    truncate,
)
import vlab.group_core as group_core_mod


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
