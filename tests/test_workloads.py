"""Tests for the request model and workload generators."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import (
    COMBINE,
    WRITE,
    Request,
    adv_sequence,
    alternating_phases,
    combine,
    count_ops,
    hotspot_workload,
    phase_workload,
    uniform_workload,
    validate_sequence,
    write,
    zipf_node_weights,
    zipf_workload,
)
from repro.workloads.phases import Phase, migrating_hotspot
from repro.workloads.requests import copy_sequence, latest_writes
from repro.workloads.synthetic import WorkloadSpec, reader_writer_partition_workload
from repro.workloads.adversarial import single_edge_alternating


class TestRequestModel:
    def test_write_needs_arg(self):
        with pytest.raises(ValueError, match="need an arg"):
            Request(node=0, op=WRITE)

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError, match="invalid op"):
            Request(node=0, op="read")

    def test_constructors(self):
        c, w = combine(3), write(2, 7.0)
        assert c.is_combine and not c.is_write
        assert w.is_write and w.arg == 7.0

    def test_copy_unexecuted_resets(self):
        q = write(0, 1.0)
        q.index, q.retval = 5, 9.9
        fresh = q.copy_unexecuted()
        assert fresh.index == -1 and fresh.retval is None
        assert fresh.arg == 1.0

    def test_count_ops(self):
        seq = [combine(0), write(1, 1.0), combine(2)]
        assert count_ops(seq) == (2, 1)

    def test_validate_sequence(self):
        validate_sequence([combine(0), write(1, 1.0)], n_nodes=2)
        with pytest.raises(ValueError, match="outside"):
            validate_sequence([combine(5)], n_nodes=2)

    def test_validate_rejects_gather(self):
        q = Request(node=0, op="gather")
        with pytest.raises(ValueError, match="combine/write"):
            validate_sequence([q], n_nodes=2)

    def test_latest_writes(self):
        seq = [write(0, 1.0), write(1, 2.0), write(0, 3.0), combine(1)]
        assert latest_writes(seq) == {0: 3.0, 1: 2.0}
        assert latest_writes(seq, upto=2) == {0: 1.0, 1: 2.0}

    def test_copy_sequence_is_deep(self):
        seq = [write(0, 1.0)]
        cp = copy_sequence(seq)
        cp[0].retval = 9
        assert seq[0].retval is None


class TestUniformWorkload:
    def test_deterministic(self):
        a = uniform_workload(5, 50, seed=3)
        b = uniform_workload(5, 50, seed=3)
        assert [(q.node, q.op, q.arg) for q in a] == [(q.node, q.op, q.arg) for q in b]

    def test_length_and_node_range(self):
        wl = uniform_workload(4, 100, seed=1)
        assert len(wl) == 100
        assert all(0 <= q.node < 4 for q in wl)

    def test_read_ratio_extremes(self):
        all_reads = uniform_workload(3, 50, read_ratio=1.0, seed=2)
        all_writes = uniform_workload(3, 50, read_ratio=0.0, seed=2)
        assert all(q.op == COMBINE for q in all_reads)
        assert all(q.op == WRITE for q in all_writes)

    def test_read_ratio_approximate(self):
        wl = uniform_workload(3, 2000, read_ratio=0.7, seed=5)
        c, w = count_ops(wl)
        assert 0.65 < c / (c + w) < 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_workload(3, 10, read_ratio=1.5)
        with pytest.raises(ValueError):
            uniform_workload(3, -1)


class TestZipfAndHotspot:
    def test_zipf_weights_normalized_and_decreasing(self):
        w = zipf_node_weights(10, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] >= w[i + 1] for i in range(9))

    def test_zipf_zero_exponent_is_uniform(self):
        w = zipf_node_weights(4, 0.0)
        assert all(abs(x - 0.25) < 1e-12 for x in w)

    def test_zipf_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            zipf_node_weights(4, -1.0)

    def test_zipf_workload_skews_to_low_ids(self):
        wl = zipf_workload(10, 3000, exponent=1.5, seed=7)
        counts = [0] * 10
        for q in wl:
            counts[q.node] += 1
        assert counts[0] > counts[9] * 2

    def test_hotspot_concentrates(self):
        wl = hotspot_workload(10, 2000, hot_nodes=[4], hot_fraction=0.9, seed=3)
        hot = sum(1 for q in wl if q.node == 4)
        assert hot > 1500

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            hotspot_workload(5, 10, hot_nodes=[])
        with pytest.raises(ValueError):
            hotspot_workload(5, 10, hot_nodes=[9])
        with pytest.raises(ValueError):
            hotspot_workload(5, 10, hot_nodes=[0], hot_fraction=2.0)

    def test_partition_workload_separates_roles(self):
        wl = reader_writer_partition_workload([0, 1], [2, 3], 200, seed=4)
        for q in wl:
            if q.op == COMBINE:
                assert q.node in (0, 1)
            else:
                assert q.node in (2, 3)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            reader_writer_partition_workload([], [1], 10)

    def test_workload_spec_generate(self):
        spec = WorkloadSpec(length=30, read_ratio=0.5, skew=0.0, seed=2)
        wl = spec.generate(5)
        assert len(wl) == 30
        skewed = WorkloadSpec(length=30, read_ratio=0.5, skew=1.0, seed=2)
        assert len(skewed.generate(5)) == 30


class TestPhases:
    def test_phase_lengths_concatenate(self):
        wl = phase_workload(4, [Phase(10, 0.9), Phase(5, 0.1)], seed=1)
        assert len(wl) == 15

    def test_phase_node_restriction(self):
        wl = phase_workload(6, [Phase(20, 0.5, nodes=[2, 3])], seed=2)
        assert all(q.node in (2, 3) for q in wl)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            phase_workload(4, [Phase(5, 2.0)])
        with pytest.raises(ValueError):
            phase_workload(4, [Phase(5, 0.5, nodes=[9])])

    def test_alternating_phases_mix(self):
        wl = alternating_phases(4, n_phases=2, phase_length=500,
                                read_heavy=1.0, write_heavy=0.0, seed=3)
        first, second = wl[:500], wl[500:]
        assert all(q.op == COMBINE for q in first)
        assert all(q.op == WRITE for q in second)

    def test_migrating_hotspot_one_node_per_phase(self):
        wl = migrating_hotspot(8, n_phases=3, phase_length=50, seed=5)
        for i in range(3):
            phase_nodes = {q.node for q in wl[i * 50 : (i + 1) * 50]}
            assert len(phase_nodes) == 1


class TestAdversarial:
    def test_structure(self):
        wl = adv_sequence(2, 3, rounds=2, reader=0, writer=1)
        ops = [q.op for q in wl]
        assert ops == [COMBINE] * 2 + [WRITE] * 3 + [COMBINE] * 2 + [WRITE] * 3
        assert all(q.node == 0 for q in wl if q.op == COMBINE)
        assert all(q.node == 1 for q in wl if q.op == WRITE)

    def test_write_values_distinct(self):
        wl = adv_sequence(1, 2, rounds=3)
        args = [q.arg for q in wl if q.op == WRITE]
        assert len(set(args)) == len(args)

    def test_validation(self):
        with pytest.raises(ValueError):
            adv_sequence(0, 1, 5)
        with pytest.raises(ValueError):
            adv_sequence(1, 0, 5)
        with pytest.raises(ValueError):
            adv_sequence(1, 1, -1)
        with pytest.raises(ValueError):
            adv_sequence(1, 1, 5, reader=1, writer=1)

    def test_single_edge_alternating(self):
        wl = single_edge_alternating(3)
        assert [q.op for q in wl] == [COMBINE, WRITE] * 3

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10))
    def test_length_formula(self, a, b, rounds):
        assert len(adv_sequence(a, b, rounds)) == rounds * (a + b)
