"""Tests for repro.ops: operator laws, lifting, finalization, validation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops import (
    AVERAGE,
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregationOperator,
    Histogram,
    KSmallest,
    bounded_sum,
    check_monoid_laws,
    k_smallest,
)
from repro.ops.standard import BoundedSum

FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def approx_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


class TestMonoidLaws:
    def test_sum_laws(self):
        check_monoid_laws(SUM, [0.0, 1.5, -2.0, 7.25], equal=approx_equal)

    def test_min_laws(self):
        check_monoid_laws(MIN, [math.inf, -1.0, 0.0, 5.0])

    def test_max_laws(self):
        check_monoid_laws(MAX, [-math.inf, -1.0, 0.0, 5.0])

    def test_count_laws(self):
        check_monoid_laws(COUNT, [0, 1, 2, 5])

    def test_average_laws(self):
        check_monoid_laws(AVERAGE, [(0.0, 0), (1.0, 1), (4.5, 3)], equal=approx_equal)

    def test_bounded_sum_laws(self):
        op = bounded_sum(10.0)
        check_monoid_laws(op, [0.0, 2.0, 5.0, 10.0], equal=approx_equal)

    def test_k_smallest_laws(self):
        op = k_smallest(3)
        check_monoid_laws(op, [(), (1,), (1, 2), (0, 3, 9)])

    def test_histogram_laws(self):
        op = Histogram(0.0, 10.0, 4)
        check_monoid_laws(op, [op.identity, op.lift(1.0), op.lift(9.9), op.lift(5.0)])

    def test_check_monoid_laws_catches_bad_identity(self):
        bad = AggregationOperator(name="bad", combine_fn=lambda a, b: a + b + 1, identity=0)
        with pytest.raises(AssertionError, match="identity"):
            check_monoid_laws(bad, [1, 2])

    def test_check_monoid_laws_catches_noncommutative(self):
        bad = AggregationOperator(name="sub", combine_fn=lambda a, b: a - b, identity=0)
        with pytest.raises(AssertionError):
            check_monoid_laws(bad, [1, 2])

    @given(st.lists(FLOATS, max_size=8))
    def test_sum_aggregate_matches_builtin(self, xs):
        assert math.isclose(SUM.aggregate(xs), math.fsum(xs), rel_tol=1e-9, abs_tol=1e-6)

    @given(st.lists(FLOATS, min_size=1, max_size=8))
    def test_min_max_aggregate(self, xs):
        assert MIN.aggregate(xs) == min(xs)
        assert MAX.aggregate(xs) == max(xs)

    @given(st.lists(FLOATS, max_size=8))
    def test_count_counts(self, xs):
        assert COUNT.aggregate_raw(xs) == len(xs)


class TestSpecificOperators:
    def test_sum_identity_is_zero(self):
        assert SUM.identity == 0.0

    def test_min_identity_is_inf(self):
        assert MIN.identity == math.inf

    def test_max_identity_is_minus_inf(self):
        assert MAX.identity == -math.inf

    def test_average_lift_and_finalize(self):
        agg = AVERAGE.aggregate_raw([2.0, 4.0, 6.0])
        assert agg == (12.0, 3)
        assert AVERAGE.finalize(agg) == pytest.approx(4.0)

    def test_average_empty_is_nan(self):
        assert math.isnan(AVERAGE.finalize(AVERAGE.identity))

    def test_bounded_sum_saturates(self):
        op = bounded_sum(5.0)
        assert op.aggregate_raw([3.0, 3.0, 3.0]) == 5.0

    def test_bounded_sum_clamps_lift(self):
        op = bounded_sum(5.0)
        assert op.lift(-2.0) == 0.0
        assert op.lift(99.0) == 5.0

    def test_bounded_sum_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            BoundedSum(-1.0)

    def test_k_smallest_keeps_k(self):
        op = k_smallest(2)
        assert op.aggregate_raw([5, 1, 4, 2, 3]) == (1, 2)

    def test_k_smallest_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_smallest(0)

    def test_histogram_bins(self):
        op = Histogram(0.0, 10.0, 2)
        agg = op.aggregate_raw([1.0, 2.0, 9.0])
        assert agg == (2, 1)

    def test_histogram_out_of_range_clamps(self):
        op = Histogram(0.0, 10.0, 2)
        assert op.lift(-5.0) == (1, 0)
        assert op.lift(50.0) == (0, 1)

    def test_histogram_edges_and_mapping(self):
        op = Histogram(0.0, 4.0, 2)
        assert op.bin_edges() == (0.0, 2.0, 4.0)
        assert op.as_mapping((3, 1)) == {(0.0, 2.0): 3, (2.0, 4.0): 1}

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 10.0, 0)
        with pytest.raises(ValueError):
            Histogram(5.0, 5.0, 3)

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=12), st.integers(1, 5))
    def test_k_smallest_matches_sorted_prefix(self, xs, k):
        op = KSmallest(k)
        assert op.aggregate_raw(xs) == tuple(sorted(xs)[:k])

    @given(
        st.lists(FLOATS, max_size=10),
        st.lists(FLOATS, max_size=10),
    )
    def test_sum_split_associativity(self, xs, ys):
        whole = SUM.aggregate(xs + ys)
        split = SUM.combine(SUM.aggregate(xs), SUM.aggregate(ys))
        assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-6)

    def test_aggregate_raw_lifts(self):
        assert COUNT.aggregate_raw([10.0, 20.0]) == 2
        assert COUNT.aggregate([1, 1], lifted=True) == 2

    def test_repr_contains_name(self):
        assert "sum" in repr(SUM)
