import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from vlab.errors import (
    CapacityExceeded,
    ConfigError,
    DigitOutOfRange,
    IndexOutOfRange,
    RadixTooSmall,
    RankOutOfRange,
)
from vlab.group_core import (
    GroupPoint,
    build_radix,
    compose,
    cycle_radices,
    cylinder_of,
    decompose,
    digit_table,
    parse_radices,
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
        build_radix((2, 3), 3)


def test_scales_strictly_increasing():
    seq = build_radix((2, 3, 4, 5))
    assert all(b > a for a, b in zip(seq.scales, seq.scales[1:]))
    prod = 1
    for r in seq.radices:
        prod *= r
    assert seq.size == prod


def test_decompose_examples():
    assert decompose(3, build_radix((2, 3))).digits == (1, 1)
    assert decompose(3, build_radix((2, 3))).order == 1
    idx = decompose(0, build_radix((2, 3, 2)))
    assert idx.digits == (0, 0, 0)
    assert idx.order == -1
    assert decompose(5, build_radix((2, 2, 2))).digits == (1, 0, 1)
    assert decompose(5, build_radix((2, 2, 2))).order == 2


def test_decompose_out_of_range():
    seq = build_radix((2, 3))
    with pytest.raises(IndexOutOfRange):
        decompose(6, seq)
    with pytest.raises(IndexOutOfRange):
        decompose(-1, seq)


def test_compose_examples():
    seq = build_radix((2, 3))
    assert compose((1, 1), seq) == 3
    assert compose((0, 0), seq) == 0
    assert compose((1, 2), seq) == 5


def test_compose_rejects_bad_digits():
    seq = build_radix((2, 3))
    with pytest.raises(DigitOutOfRange):
        compose((2, 0), seq)
    with pytest.raises(DigitOutOfRange):
        compose((0, -1), seq)
    with pytest.raises(DigitOutOfRange):
        compose((0, 0, 0), seq)


@given(st.data())
def test_round_trip_decompose_compose(data):
    radices = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=6))
    seq = build_radix(tuple(radices))
    n = data.draw(st.integers(0, seq.size - 1))
    assert compose(decompose(n, seq).digits, seq) == n


def test_order_bracket_and_exhaustive_round_trip():
    seq = build_radix((2, 3, 2, 4))
    for n in range(seq.size):
        idx = decompose(n, seq)
        assert compose(idx.digits, seq) == n
        if n >= 1:
            assert seq.scales[idx.order] <= n < seq.scales[idx.order + 1]


def test_cylinder_rank_zero_is_whole_group():
    seq = build_radix((2, 3))
    cyl = cylinder_of(GroupPoint((0, 2), seq), 0)
    assert cyl.measure == Fraction(1)
    assert cyl.anchor == ()
    assert len(cyl.member_indices()) == seq.size


def test_cylinder_measure():
    seq = build_radix((2, 3, 2))
    x0 = GroupPoint((0, 0, 0), seq)
    for n in range(seq.depth + 1):
        assert cylinder_of(x0, n).measure == Fraction(1, seq.scales[n])


def test_cylinder_dyadic_example():
    seq = build_radix((2, 2))
    cyl = cylinder_of(GroupPoint((1, 0), seq), 1)
    assert cyl.anchor == (1,)
    assert cyl.measure == Fraction(1, 2)
    assert sorted(cyl.member_indices().tolist()) == [1, 3]


def test_cylinder_rank_out_of_range():
    seq = build_radix((2, 2))
    with pytest.raises(RankOutOfRange):
        cylinder_of(GroupPoint((0, 0), seq), 3)


def test_measure_additivity_over_children():
    seq = build_radix((2, 3, 2))
    for rank in range(seq.depth):
        for a in range(seq.scales[rank]):
            points = [
                GroupPoint(decompose(a + seq.scales[rank] * c, seq).digits, seq)
                for c in range(seq.radices[rank])
            ]
            parent = cylinder_of(points[0], rank)
            children = [cylinder_of(pt, rank + 1) for pt in points]
            # children anchors must be distinct and their measures add up
            assert len({ch.anchor for ch in children}) == seq.radices[rank]
            assert sum(ch.measure for ch in children) == parent.measure


def test_group_point_index_matches_decompose():
    seq = build_radix((2, 3, 2))
    for i in range(seq.size):
        assert GroupPoint(decompose(i, seq).digits, seq).index == i


def test_parse_radices():
    assert parse_radices("2,3,2,4") == (2, 3, 2, 4)
    assert parse_radices(" 2 , 3 ") == (2, 3)
    with pytest.raises(ConfigError):
        parse_radices("")
    with pytest.raises(ConfigError):
        parse_radices("2,x")


def test_cycle_radices():
    assert cycle_radices((2, 3), 5) == (2, 3, 2, 3, 2)
    assert cycle_radices((2,), 3) == (2, 2, 2)


def test_truncate():
    seq = build_radix((2, 3, 2, 4))
    sub = truncate(seq, 2)
    assert sub.radices == (2, 3)
    assert sub.scales == (1, 2, 6)
    assert sub == build_radix((2, 3))


def test_digit_table_matches_decompose():
    seq = build_radix((2, 3, 2))
    table = digit_table(seq)
    assert table.shape == (12, 3)
    for i in range(12):
        assert tuple(table[i]) == decompose(i, seq).digits
    with pytest.raises(ValueError):
        table[0, 0] = 5
