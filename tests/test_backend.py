"""The execution-backend seam: factory contracts and the flat backend's
integration with the layers around the engines.

Complements ``test_flat_equivalence.py`` (which pins observational
equivalence on golden workloads): here we test the *seam itself* —
:func:`~repro.core.backend.build_backend` selection and refusal rules
(everything the flat kernel does not run — simulated transports,
unflattenable policies, tracing, ghost logs, dynamic topology — is
refused) and the engines built on top of it.
"""

from __future__ import annotations

import pytest

from repro.core.backend import BACKENDS, Backend, BackendUnsupported, build_backend
from repro.core.dynamic import DynamicAggregationSystem
from repro.core.policies import ABPolicy, RWWPolicy
from repro.core.randomized import RandomBreakPolicy
from repro.core.runtime import NodeRuntime
from repro.flat.runtime import FlatRuntime
from repro.ops.standard import SUM
from repro.sim.transport import TransportConfig
from repro.tree.generators import path_tree
from repro.workloads.requests import combine, write


class TestFactory:
    def test_backend_names(self):
        assert BACKENDS == ("reference", "flat")
        with pytest.raises(ValueError, match="unknown backend"):
            build_backend("turbo", path_tree(3), op=SUM, policy_factory=RWWPolicy)

    def test_builds_each_backend(self):
        ref = build_backend("reference", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        flat = build_backend("flat", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        assert isinstance(ref, NodeRuntime) and ref.backend_name == "reference"
        assert isinstance(flat, FlatRuntime) and flat.backend_name == "flat"
        assert isinstance(ref, Backend) and isinstance(flat, Backend)

    def test_flat_rejects_simulated_transport(self):
        with pytest.raises(BackendUnsupported, match="synchronous"):
            build_backend(
                "flat",
                path_tree(3),
                op=SUM,
                policy_factory=RWWPolicy,
                transport=TransportConfig.simulated(),
            )

    def test_flat_rejects_unflattenable_policy(self):
        with pytest.raises(BackendUnsupported, match="does not flatten"):
            build_backend(
                "flat",
                path_tree(3),
                op=SUM,
                policy_factory=lambda: RandomBreakPolicy(0.5, seed=1),
            )

    #: Reference-only features: keyword -> the name the refusal must carry.
    REFERENCE_ONLY = [
        ({"trace_enabled": True}, "trace_enabled"),
        ({"ghost": True}, "ghost"),
    ]

    @pytest.mark.parametrize(
        "kwargs,feature", REFERENCE_ONLY, ids=[f for _, f in REFERENCE_ONLY]
    )
    def test_flat_refuses_reference_only_feature(self, kwargs, feature):
        with pytest.raises(BackendUnsupported, match=feature):
            build_backend(
                "flat", path_tree(3), op=SUM, policy_factory=RWWPolicy, **kwargs
            )

    def test_flat_subclassed_builtin_policy_rejected(self):
        # type(...) is exact on purpose: a subclass might override a hook.
        class Tweaked(ABPolicy):
            pass

        with pytest.raises(BackendUnsupported):
            build_backend(
                "flat", path_tree(3), op=SUM, policy_factory=lambda: Tweaked(1, 2)
            )


class TestEngineSelection:
    def test_dynamic_engine_falls_back_to_reference(self):
        """Attach/detach/rename need per-node objects, so the dynamic
        engine always runs on the reference backend."""
        system = DynamicAggregationSystem(path_tree(4))
        assert isinstance(system.runtime, NodeRuntime)
        assert system.backend_name == "reference"
        system.execute(write(1, 3.0))
        new_id = system.add_leaf(2)
        system.execute(write(new_id, 4.0))
        assert system.execute(combine(0)).retval == 7.0
        system.remove_leaf(new_id)
        assert system.execute(combine(0)).retval == 3.0
        system.check_quiescent_invariants()

    def test_flat_topology_mutators_raise(self):
        rt = build_backend("flat", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        with pytest.raises(BackendUnsupported, match="static-topology"):
            rt.set_topology(path_tree(4))
        with pytest.raises(BackendUnsupported):
            rt.add_node(3, path_tree(4))
        with pytest.raises(BackendUnsupported):
            rt.remove_node(2)
        with pytest.raises(BackendUnsupported):
            rt.rename_node(2, 5)

    def test_flat_state_snapshot_renders_quiescent_states_only(self):
        rt = build_backend("flat", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        rt.submit_combine(combine(0), lambda _q: None)
        with pytest.raises(RuntimeError, match="quiescent"):
            rt.state_snapshot()
        rt.drain()
        nodes, pending = rt.state_snapshot()
        assert pending == () and [n[0] for n in nodes] == [0, 1, 2]

    def test_multiattr_backend_passthrough(self):
        from repro.core.multiattr import MultiAttributeSystem
        from repro.ops.standard import MAX

        system = MultiAttributeSystem(
            path_tree(5), {"load": SUM, "peak": MAX}, backend="flat"
        )
        assert all(
            sub.backend_name == "flat" for sub in system.systems.values()
        )
        system.write_many(3, {"load": 2.0, "peak": 5.0})
        report = system.query(0)
        assert report.values["load"] == 2.0
        assert report.values["peak"] == 5.0
        system.check_invariants()
