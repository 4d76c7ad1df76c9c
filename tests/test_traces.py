"""Tests for workload trace serialization (JSONL round-trips)."""

from __future__ import annotations

import pytest

from repro import AggregationSystem, random_tree
from repro.workloads import combine, uniform_workload, write
from repro.workloads.requests import copy_sequence
from repro.workloads.traces import (
    dumps_trace,
    load_trace,
    loads_trace,
    request_from_dict,
    request_to_dict,
    save_trace,
)


class TestDictConversion:
    def test_minimal_combine(self):
        d = request_to_dict(combine(3))
        assert d == {"node": 3, "op": "combine"}
        q = request_from_dict(d)
        assert q.node == 3 and q.op == "combine" and q.index == -1

    def test_write_keeps_arg(self):
        d = request_to_dict(write(1, 7.5))
        assert d == {"node": 1, "op": "write", "arg": 7.5}

    def test_executed_fields_roundtrip(self):
        q = combine(2)
        q.retval, q.index = 42.0, 3
        q.initiated_at, q.completed_at = 1.5, 2.5
        back = request_from_dict(request_to_dict(q))
        assert (back.retval, back.index) == (42.0, 3)
        assert (back.initiated_at, back.completed_at) == (1.5, 2.5)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            request_from_dict({"op": "combine"})


class TestStringRoundTrip:
    def test_dumps_loads(self):
        wl = uniform_workload(5, 40, read_ratio=0.5, seed=9)
        text = dumps_trace(wl)
        back = loads_trace(text)
        assert [(q.node, q.op, q.arg) for q in back] == [
            (q.node, q.op, q.arg) for q in wl
        ]

    def test_comments_and_blanks_ignored(self):
        text = '# header\n\n{"node": 0, "op": "combine"}\n'
        assert len(loads_trace(text)) == 1


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        wl = uniform_workload(6, 30, read_ratio=0.4, seed=2)
        path = tmp_path / "trace.jsonl"
        assert save_trace(path, wl) == 30
        back = load_trace(path)
        assert len(back) == 30
        assert [(q.node, q.op) for q in back] == [(q.node, q.op) for q in wl]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"node": 0, "op": "combine"}\nNOT JSON\n')
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_replay_is_deterministic(self, tmp_path):
        tree = random_tree(6, 5)
        wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=7)
        path = tmp_path / "wl.jsonl"
        save_trace(path, wl)
        replayed = load_trace(path)
        c1 = AggregationSystem(tree).run(copy_sequence(wl)).total_messages
        c2 = AggregationSystem(tree).run(copy_sequence(replayed)).total_messages
        assert c1 == c2

    def test_saved_result_is_replayable(self, tmp_path):
        tree = random_tree(5, 1)
        wl = uniform_workload(tree.n, 30, read_ratio=0.5, seed=1)
        result = AggregationSystem(tree).run(copy_sequence(wl))
        path = tmp_path / "result.jsonl"
        save_trace(path, result.requests)  # executed requests, with retvals
        back = load_trace(path)
        rerun = AggregationSystem(tree).run(copy_sequence(back))
        assert rerun.combine_results() == result.combine_results()


class TestScopedRoundTrip:
    def test_scope_field_survives(self):
        from repro.workloads.requests import scoped_combine

        q = scoped_combine(1, toward=2)
        d = request_to_dict(q)
        assert d["scope"] == 2
        back = request_from_dict(d)
        assert back.scope == 2
