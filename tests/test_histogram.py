import pytest

from gkasami.histogram import ValueHistogram

from reference import histogram_from_json_dict


def test_entries_sorted_descending():
    h = ValueHistogram({-1: 5, 7: 2, 3: 9})
    assert h.entries() == [(7, 2), (3, 9), (-1, 5)]
    assert h.total() == 16


def test_zero_counts_dropped_and_negative_rejected():
    assert ValueHistogram({1: 0, 2: 3}).counts == {2: 3}
    with pytest.raises(ValueError):
        ValueHistogram({1: -2})


def test_merge_scale_shift():
    h = ValueHistogram({1: 2})
    h.merge(ValueHistogram({1: 1, -1: 4}), times=3)
    assert h.counts == {1: 5, -1: 12}
    assert h.shifted(-1).counts == {0: 5, -2: 12}


def test_json_round_trip_uses_decimal_strings():
    h = ValueHistogram({5: 2**70, -3: 1})
    obj = h.to_json_dict()
    assert obj["entries"][0] == {"value": 5, "count": str(2**70)}
    assert histogram_from_json_dict(obj) == h


def test_equality_ignores_zero_rows():
    assert ValueHistogram({1: 2, 9: 0}) == ValueHistogram({1: 2})
    assert ValueHistogram({1: 2}) != ValueHistogram({1: 3})


def test_max_abs_value():
    assert ValueHistogram({-17: 1, 15: 100}).max_abs_value() == 17
    with pytest.raises(ValueError):
        ValueHistogram({}).max_abs_value()
