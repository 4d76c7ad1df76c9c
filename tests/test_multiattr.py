"""Tests for the multi-attribute aggregation layer."""

from __future__ import annotations

import math

import pytest

from repro import AVERAGE, COUNT, MAX, MIN, SUM, NeverLeasePolicy
from repro.core.multiattr import MultiAttributeSystem
from repro.tree import binary_tree, path_tree, star_tree


def make_system(tree=None, **kwargs):
    return MultiAttributeSystem(
        tree if tree is not None else binary_tree(2),
        {"load": AVERAGE, "peak": MAX, "alive": COUNT, "total": SUM},
        **kwargs,
    )


class TestConstruction:
    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            MultiAttributeSystem(path_tree(3), {})

    def test_unknown_attribute_rejected(self):
        system = make_system()
        with pytest.raises(KeyError):
            system.write(0, "bogus", 1.0)
        with pytest.raises(KeyError):
            system.query(0, ["bogus"])

    def test_per_attribute_policies(self):
        system = MultiAttributeSystem(
            path_tree(3),
            {"hot": SUM, "cold": SUM},
            policies={"cold": NeverLeasePolicy},
        )
        system.query(0)
        assert system.lease_graph("hot")  # RWW granted leases
        assert system.lease_graph("cold") == []  # never-lease did not


class TestCorrectness:
    def test_query_values_all_attributes(self):
        tree = star_tree(5)
        system = MultiAttributeSystem(
            tree, {"load": AVERAGE, "peak": MAX, "low": MIN, "sum": SUM}
        )
        values = [3.0, 9.0, 1.0, 5.0, 2.0]
        for node, v in enumerate(values):
            system.write_many(node, {"load": v, "peak": v, "low": v, "sum": v})
        report = system.query(0)
        assert report.values["peak"] == 9.0
        assert report.values["low"] == 1.0
        assert report.values["sum"] == 20.0
        assert report.values["load"] == pytest.approx(4.0)

    def test_attributes_isolated(self):
        system = make_system(tree=path_tree(3))
        system.write(0, "total", 5.0)
        report = system.query(2, ["total", "peak"])
        assert report.values["total"] == 5.0
        assert report.values["peak"] == -math.inf  # never written

    def test_invariants_across_attributes(self):
        system = make_system()
        for node in range(5):
            system.write_many(node, {"total": float(node), "peak": float(node)})
        system.query(3)
        system.check_invariants()


class TestBatching:
    def test_single_attribute_batching_is_identity(self):
        system = make_system(tree=path_tree(4))
        report = system.query(0, ["total"])
        assert report.batched_messages == report.unbatched_messages

    def test_cold_multi_query_batches_fully(self):
        """A first-ever query for k attributes probes identical paths: the
        batched cost equals one attribute's cost, saving (k-1)x."""
        tree = path_tree(4)
        system = make_system(tree=tree)
        report = system.query(0)  # all four attributes, all cold
        single = 2 * (tree.n - 1)
        assert report.unbatched_messages == 4 * single
        assert report.batched_messages == single
        assert report.batching_savings == 3 * single

    def test_batched_never_exceeds_unbatched(self):
        system = make_system()
        for node in range(7):
            r = system.write_many(node, {"total": 1.0, "peak": 2.0})
            assert r.batched_messages <= r.unbatched_messages
        r = system.query(4)
        assert r.batched_messages <= r.unbatched_messages

    def test_divergent_lease_states_reduce_batching(self):
        """After attribute lease states diverge, a multi-query's waves no
        longer coincide, so batching saves less than the cold case."""
        tree = path_tree(4)
        system = MultiAttributeSystem(tree, {"a": SUM, "b": SUM})
        system.query(0)  # both leased toward 0
        # Two writes break attribute "a"'s leases only.
        system.write(3, "a", 1.0)
        system.write(3, "a", 2.0)
        report = system.query(0)
        # "b" is fully leased (0 messages); "a" re-pulls (6 messages).
        assert report.unbatched_messages == 6
        assert report.batched_messages == 6  # nothing coincides to share

    def test_write_many_batches_shared_lease_paths(self):
        tree = path_tree(3)
        system = MultiAttributeSystem(tree, {"a": SUM, "b": SUM})
        system.query(0)  # lease both attributes along the path
        report = system.write_many(2, {"a": 1.0, "b": 2.0})
        # Each attribute pushes 2 updates down the same 2 edges.
        assert report.unbatched_messages == 4
        assert report.batched_messages == 2

    def test_totals_accumulate(self):
        system = make_system(tree=path_tree(3))
        system.query(0)
        system.write_many(2, {"total": 1.0, "peak": 1.0})
        assert system.total_unbatched >= system.total_batched > 0

    def test_attribute_message_accounting(self):
        system = MultiAttributeSystem(path_tree(3), {"a": SUM, "b": SUM})
        system.query(0, ["a"])
        assert system.attribute_messages("a") == 4
        assert system.attribute_messages("b") == 0
