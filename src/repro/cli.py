"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``       run a small aggregation demo and print a summary
``lp``         build and solve the Figure-5 LP (c = 5/2)
``ratio``      run a workload under a policy; report cost vs offline bounds
``exact``      exact competitive ratio of a policy automaton (game solver)
``adversary``  run the Theorem-3 adversary against an (a, b)-algorithm
``baselines``  read-ratio sweep: RWW vs the static baselines
``chaos``      fault-rate sweep under the reliable-delivery layer
``trace``      record / summarize / diff / top-edges on JSONL event traces
``perf``       wall-clock profiling + online cost accounting:
               record / report / flame / compare
``verify``     protocol verification: AST lint, small-scope model checking,
               offline happens-before checking of recorded traces
``serve``      run the tree as real OS processes over TCP (``--chaos`` kills
               and restarts processes mid-run); merges the per-process
               traces and re-verifies them offline

Workload traces can be saved/loaded as JSONL (``ratio --save/--load``), and
``trace record`` exports the full telemetry event stream the same way, so
an experiment run on one machine replays bit-identically on another.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.core.engine import AggregationSystem, ConcurrentAggregationSystem
from repro.core.policies import ABPolicy, AlwaysLeasePolicy, NeverLeasePolicy
from repro.core.policies import RWWPolicy
from repro.core.runtime import Router
from repro.sim.faults import FaultyNetwork
from repro.sim.reliability import ReliableNetwork
from repro.sim.scheduler import Simulator
from repro.tree.generators import (
    binary_tree,
    path_tree,
    random_tree,
    star_tree,
)
from repro.util import format_table
from repro.workloads.requests import copy_sequence
from repro.workloads.synthetic import uniform_workload


def make_tree(topology: str, nodes: int, seed: int):
    """Build a topology by name."""
    builders = {
        "path": lambda: path_tree(nodes),
        "star": lambda: star_tree(nodes),
        "binary": lambda: _binary_near(nodes),
        "random": lambda: random_tree(nodes, seed),
    }
    if topology not in builders:
        raise SystemExit(f"unknown topology {topology!r}; pick from {sorted(builders)}")
    return builders[topology]()


def _binary_near(nodes: int):
    import math

    depth = max(0, int(math.log2(max(nodes, 1) + 1)) - 1)
    return binary_tree(depth)


def make_policy_factory(spec: str):
    """Parse a policy spec: rww | always | never | ab:a,b | random:p."""
    if spec == "rww":
        return RWWPolicy, "RWW"
    if spec == "always":
        return AlwaysLeasePolicy, "always-lease"
    if spec == "never":
        return NeverLeasePolicy, "never-lease"
    if spec.startswith("ab:"):
        try:
            a_str, b_str = spec[3:].split(",")
            a, b = int(a_str), int(b_str)
        except ValueError:
            raise SystemExit(f"bad ab spec {spec!r}; expected ab:a,b")
        return (lambda: ABPolicy(a, b)), f"({a},{b})"
    if spec.startswith("random:"):
        from repro.core.randomized import random_break_factory

        try:
            p = float(spec[7:])
        except ValueError:
            raise SystemExit(f"bad random spec {spec!r}; expected random:p")
        return random_break_factory(p), f"random-break[{p}]"
    raise SystemExit(f"unknown policy {spec!r}")


# ----------------------------------------------------------------- helpers
def _warn_violations(monitors) -> int:
    """Print one warning line per monitor violation; return the count."""
    from repro.obs.monitors import all_violations

    violations = all_violations(monitors)
    for v in violations:
        print(f"WARNING: monitor {v.monitor} @ t={v.time}: {v.message}",
              file=sys.stderr)
    return len(violations)


def _export_trace(trace, path: str) -> None:
    from repro.obs.export import export_jsonl

    n = export_jsonl(trace, path)
    print(f"exported {n} trace events to {path}", file=sys.stderr)


# ---------------------------------------------------------------- commands
def cmd_demo(args) -> int:
    from repro.obs.monitors import attach_standard_monitors
    from repro.report import busiest_edges, summarize_run_data
    from repro.workloads.requests import combine, write

    tree = make_tree(args.topology, args.nodes, args.seed)
    system = AggregationSystem(tree, trace_enabled=True)
    monitors = attach_standard_monitors(system.trace, strict=False)
    import random as _random

    rng = _random.Random(args.seed)
    for node in tree.nodes():
        system.execute(write(node, float(rng.randrange(100))))
    r1 = system.execute(combine(0))
    r2 = system.execute(combine(0))
    result = system.result()
    if args.json:
        data = summarize_run_data(result, title=f"demo {args.topology}/{tree.n}")
        data["monitors"] = {"violations": _warn_violations(monitors)}
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"tree: {args.topology} with {tree.n} nodes")
        print(f"global aggregate: {r1.retval}")
        print(f"first combine + writes cost {system.stats.total} messages; "
              f"repeat combine cost 0 extra" if r2.retval == r1.retval else "")
        print(f"message breakdown: {system.stats.by_kind()}")
        print(f"leases installed: {sorted(system.lease_graph_edges())}")
        hottest = [(e, n) for e, n in busiest_edges(result, top=3) if n]
        if hottest:
            print("hottest edges: "
                  + ", ".join(f"{u}-{v} ({n} msgs)" for (u, v), n in hottest))
        _warn_violations(monitors)
    if args.trace_out:
        _export_trace(system.trace, args.trace_out)
    return 0


def cmd_lp(args) -> int:
    from repro.analysis.lp import PAPER_POTENTIALS, solve_competitive_lp
    from repro.analysis.potential import verify_potential_on_machine

    solution = solve_competitive_lp()
    print(f"Figure 5 LP: {solution.n_constraints} constraints")
    print(f"optimum: {solution}")
    ok = not verify_potential_on_machine(PAPER_POTENTIALS, 2.5)
    print(f"paper potentials feasible at c = 5/2: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def cmd_ratio(args) -> int:
    from repro.offline.vectorized import (
        nice_lower_bound_fast,
        offline_lease_lower_bound_fast,
    )
    from repro.workloads.traces import load_trace, save_trace

    tree = make_tree(args.topology, args.nodes, args.seed)
    if args.load:
        workload = load_trace(args.load)
        print(f"loaded {len(workload)} requests from {args.load}")
    else:
        workload = uniform_workload(
            tree.n, args.length, read_ratio=args.read_ratio, seed=args.seed
        )
    if args.save:
        save_trace(args.save, workload)
        print(f"saved workload to {args.save}")
    factory, name = make_policy_factory(args.policy)
    system = AggregationSystem(tree, policy_factory=factory)
    result = system.run(copy_sequence(workload))
    opt = offline_lease_lower_bound_fast(tree, workload)
    nice = nice_lower_bound_fast(tree, workload)
    print(f"policy {name} on {args.topology}/{tree.n} nodes, {len(workload)} requests")
    print(f"  messages:         {result.total_messages}")
    print(f"  offline lease OPT >= {opt}"
          + (f"   ratio {result.total_messages / opt:.3f}" if opt else ""))
    print(f"  nice bound        >= {nice}"
          + (f"   ratio {result.total_messages / nice:.3f}" if nice else ""))
    return 0


def cmd_exact(args) -> int:
    from repro.analysis.games import (
        ab_automaton,
        always_lease_automaton,
        exact_competitive_ratio,
        never_lease_automaton,
        rww_automaton,
        ttl_automaton,
    )

    spec = args.policy
    if spec == "rww":
        auto = rww_automaton()
    elif spec == "always":
        auto = always_lease_automaton()
    elif spec == "never":
        auto = never_lease_automaton()
    elif spec.startswith("ab:"):
        a, b = (int(x) for x in spec[3:].split(","))
        auto = ab_automaton(a, b)
    elif spec.startswith("ttl:"):
        auto = ttl_automaton(int(spec[4:]))
    else:
        raise SystemExit(f"unknown automaton spec {spec!r}")
    ratio = exact_competitive_ratio(auto)
    if ratio is None:
        print(f"{auto.name}: competitive ratio UNBOUNDED")
    else:
        print(f"{auto.name}: exact competitive ratio {ratio} ({float(ratio):.4f})")
    return 0


def cmd_adversary(args) -> int:
    from repro.offline.vectorized import offline_lease_lower_bound_fast
    from repro.tree.generators import two_node_tree
    from repro.workloads.adversarial import adv_sequence, adv_sequence_strong

    tree = two_node_tree()
    gen = adv_sequence_strong if args.strong else adv_sequence
    wl = gen(args.a, args.b, rounds=args.rounds)
    system = AggregationSystem(
        tree, policy_factory=lambda: ABPolicy(args.a, args.b)
    )
    cost = system.run(copy_sequence(wl)).total_messages
    opt = offline_lease_lower_bound_fast(tree, wl)
    label = "ADV+N" if args.strong else "ADV"
    print(f"{label}({args.a},{args.b}) x {args.rounds} rounds vs the "
          f"({args.a},{args.b})-algorithm:")
    print(f"  algorithm: {cost}   offline OPT: {opt}   ratio: {cost / opt:.4f}")
    return 0


def cmd_exact_grid(args) -> int:
    from repro.analysis.games import ab_automaton, exact_competitive_ratio

    rows = []
    for a in range(1, args.max_a + 1):
        for b in range(1, args.max_b + 1):
            r = exact_competitive_ratio(ab_automaton(a, b))
            rows.append((a, b, str(r), float(r)))
    print(format_table(["a", "b", "exact ratio", "float"], rows,
                       title="Exact competitive ratios of (a, b)-algorithms:"))
    best = min(rows, key=lambda r: r[3])
    print(f"\nminimum {best[2]} at (a, b) = ({best[0]}, {best[1]})"
          + ("  — RWW" if (best[0], best[1]) == (1, 2) else ""))
    return 0


def cmd_gap(args) -> int:
    from repro.offline.global_dp import relaxation_gap

    tree = make_tree(args.topology, args.nodes, args.seed)
    wl = uniform_workload(tree.n, args.length, read_ratio=args.read_ratio, seed=args.seed)
    relaxed, exact, gap = relaxation_gap(tree, wl)
    print(f"{args.topology}/{tree.n} nodes, {args.length} requests:")
    print(f"  per-edge relaxed bound: {relaxed}")
    print(f"  closure-constrained OPT: {exact}")
    print(f"  gap: {gap:.4f}" + ("  (relaxation tight)" if gap == 1.0 else ""))
    return 0


def cmd_baselines(args) -> int:
    from repro.baselines import (
        StaticLeaseBaseline,
        astrolabe_config,
        mds_config,
        up_tree_config,
    )

    tree = make_tree(args.topology, args.nodes, args.seed)
    rows = []
    for rr in (0.1, 0.3, 0.5, 0.7, 0.9):
        wl = uniform_workload(tree.n, args.length, read_ratio=rr, seed=args.seed)
        rww = AggregationSystem(tree).run(copy_sequence(wl)).total_messages
        astro = StaticLeaseBaseline(tree, astrolabe_config(tree)).run(
            copy_sequence(wl)
        ).total_messages
        mds = StaticLeaseBaseline(tree, mds_config(tree)).run(
            copy_sequence(wl)
        ).total_messages
        root = StaticLeaseBaseline(tree, up_tree_config(tree, 0)).run(
            copy_sequence(wl)
        ).total_messages
        rows.append((rr, rww, astro, mds, root))
    print(
        format_table(
            ["read ratio", "RWW", "Astrolabe", "MDS-2", "RootHier"],
            rows,
            title=f"{args.topology}/{tree.n} nodes, {args.length} requests:",
        )
    )
    return 0


def _cmd_chaos_churn(args) -> int:
    """``chaos --churn``: scheduled crash/recover/partition faults plus
    message drops, healed by the reliable layer and the recovery subsystem.

    Verifies the crash-recovery acceptance bar: the run drains to
    quiescence, every combine either completes or is failed fast (lease
    expiry / deadline — never hung), the recorded trace is causally
    consistent net of declared losses, and time-to-recover is reported.
    """
    import random as _random

    from repro.core.engine import ScheduledRequest, reliable_concurrent_system
    from repro.obs.monitors import attach_standard_monitors
    from repro.recovery import RecoveryConfig
    from repro.sim.channel import constant_latency
    from repro.sim.faults import FaultPlan, crash, heal, partition, recover
    from repro.sim.reliability import ReliabilityConfig
    from repro.verify.causal import check_trace
    from repro.workloads.requests import COMBINE

    if not 0.0 <= args.drop_pct <= 100.0:
        raise SystemExit(f"--drop-pct must be in [0, 100], got {args.drop_pct}")
    tree = make_tree(args.topology, args.nodes, args.seed)
    wl = uniform_workload(tree.n, args.length, read_ratio=args.read_ratio,
                          seed=args.seed)
    horizon = args.gap * len(wl)
    rng = _random.Random(args.seed + 11)
    # Crash/recover cycles on distinct nodes, spread across the run.
    cycles = min(args.churn_cycles, tree.n - 1)
    victims = rng.sample([n for n in tree.nodes() if n != 0], cycles)
    events = []
    for k, node in enumerate(victims):
        t0 = horizon * (k + 1) / (cycles + 2)
        events.append(crash(node, t0))
        events.append(recover(node, t0 + rng.uniform(1.0, 2.5) * args.gap))
    # One partition epoch on a random tree edge, healed two gaps later.
    edge = list(tree.edges)[rng.randrange(len(tree.edges))]
    t_cut = horizon * (cycles + 1) / (cycles + 2)
    events += [partition([edge], t_cut), heal(t_cut + 2 * args.gap)]
    plan = FaultPlan(drop_prob=args.drop_pct / 100, seed=args.seed + 5,
                     events=tuple(events))
    ttl = 2.0 * args.gap
    system = reliable_concurrent_system(
        tree,
        plan,
        config=ReliabilityConfig(
            base_timeout=6.0, backoff=1.5, max_timeout=20.0,
            max_retries=args.max_retries, combine_deadline=3 * args.gap,
        ),
        latency=constant_latency(1.0),
        seed=args.seed,
        trace_enabled=True,
        # Horizon: sweeps must outlive the *request* schedule, not just the
        # fault plan — a round wedged by the last fault can form as late as
        # the last request and needs first-seen + TTL to age into the
        # stuck-round re-probe, plus a TTL of re-probe pacing.
        recovery=RecoveryConfig(
            checkpoint_interval=2 * args.gap,
            lease_ttl=ttl,
            horizon=horizon + 3 * ttl,
        ),
    )
    monitors = attach_standard_monitors(system.trace, strict=False)
    result = system.run([
        ScheduledRequest(time=args.gap * i, request=q)
        for i, q in enumerate(copy_sequence(wl))
    ])
    system.check_quiescent_invariants()
    monitor_violations = _warn_violations(monitors)
    if args.trace_out:
        _export_trace(system.trace, args.trace_out)
    report = check_trace(system.trace.events(), n_nodes=tree.n)
    hung = [q for q in result.requests
            if q.op == COMBINE and q.index < 0 and not q.failed]
    failed = result.failed_requests()
    mgr = system.runtime.recovery
    ttr = mgr.recovery_durations
    data = {
        "seed": args.seed,
        "plan": plan.to_dict(),
        "recovery": {
            "checkpoint_interval": 2 * args.gap,
            "lease_ttl": ttl,
            "recoveries": len(ttr),
            "time_to_recover": ttr,
            "checkpoints": sum(
                1 for e in system.trace.events() if e.kind == "checkpoint"
            ),
        },
        "requests": len(result.requests),
        "failed_fast": len(failed),
        "hung_combines": len(hung),
        "declared_losses": report.declared_losses,
        "causal_violations": [str(v) for v in report.violations],
        "monitor_violations": monitor_violations,
        "ok": (report.ok and not hung and not monitor_violations),
    }
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"chaos --churn on {args.topology}/{tree.n} nodes, "
              f"{args.length} requests, drop {args.drop_pct}%:")
        print(f"  fault plan: {cycles} crash/recover cycles + 1 partition "
              f"epoch (seed {args.seed}, full plan in --json output)")
        print(f"  requests: {len(result.requests)} total, "
              f"{len(failed)} failed fast, {len(hung)} hung")
        print(f"  declared losses: {report.declared_losses}   "
              f"causal violations: {len(report.violations)}")
        if ttr:
            print(f"  time-to-recover: n={len(ttr)} "
                  f"min={min(ttr):g} median={sorted(ttr)[len(ttr) // 2]:g} "
                  f"max={max(ttr):g}")
        for v in report.violations:
            print(f"  VIOLATION {v}", file=sys.stderr)
        print("  churn run clean: zero hung combines, causally consistent"
              if data["ok"] else "  CHURN RUN DEGRADED")
    return 0 if data["ok"] else 1


def cmd_chaos(args) -> int:
    from repro.consistency import check_strict_consistency
    from repro.core.engine import ConcurrentAggregationSystem, ScheduledRequest
    from repro.sim.channel import constant_latency
    from repro.sim.faults import FaultPlan
    from repro.core.engine import reliable_concurrent_system
    from repro.sim.reliability import ReliabilityConfig

    if args.churn:
        return _cmd_chaos_churn(args)
    if args.step_pct < 1:
        raise SystemExit("--step-pct must be >= 1")
    if not 0 <= args.max_rate_pct <= 40:
        raise SystemExit("--max-rate-pct must be in [0, 40] "
                         "(drop + dup + reorder draws must sum to <= 1)")
    tree = make_tree(args.topology, args.nodes, args.seed)
    wl = uniform_workload(tree.n, args.length, read_ratio=args.read_ratio,
                          seed=args.seed)
    schedule = [
        ScheduledRequest(time=args.gap * i, request=q)
        for i, q in enumerate(copy_sequence(wl))
    ]
    ref = ConcurrentAggregationSystem(
        tree, latency=constant_latency(1.0)
    ).run([
        ScheduledRequest(time=args.gap * i, request=q)
        for i, q in enumerate(copy_sequence(wl))
    ])
    config = ReliabilityConfig(
        base_timeout=6.0, backoff=1.5, max_timeout=20.0,
        max_retries=args.max_retries, combine_deadline=args.gap,
    )
    rows = []
    plans = []
    monitor_violations = 0
    rates = [r / 100 for r in range(0, args.max_rate_pct + 1, args.step_pct)]
    for rate in rates:
        # When exporting a trace, record the highest-rate (most eventful) run
        # and attach the lemma monitors to it in warn-only mode.
        tracing = args.trace_out is not None and rate == rates[-1]
        plan = FaultPlan(drop_prob=rate, duplicate_prob=rate / 2,
                         reorder_prob=rate, seed=args.seed + 5)
        plans.append(plan)
        system = reliable_concurrent_system(
            tree,
            plan,
            config=config,
            latency=constant_latency(1.0),
            seed=args.seed,
            trace_enabled=tracing,
        )
        if tracing:
            from repro.obs.monitors import attach_standard_monitors

            monitors = attach_standard_monitors(system.trace, strict=False)
        result = system.run([
            ScheduledRequest(time=sr.time, request=sr.request.copy_unexecuted())
            for sr in schedule
        ])
        system.check_quiescent_invariants()
        if tracing:
            monitor_violations = _warn_violations(monitors)
            _export_trace(system.trace, args.trace_out)
        over = result.stats.overhead_by_kind()
        strict = check_strict_consistency(result.requests, tree.n)
        rows.append((
            f"{rate:.2f}",
            system.network.faults.count(),
            result.stats.goodput,
            "yes" if result.stats.goodput == ref.stats.total else "NO",
            over.get("retransmit", 0),
            over.get("ack", 0),
            over.get("duplicate", 0),
            len(result.failed_requests()),
            "ok" if not strict else f"{len(strict)} VIOLATIONS",
        ))
    bad = [r for r in rows if r[3] == "NO" or r[7] or r[8] != "ok"]
    if args.json:
        # The seed and every run's full fault plan make a failing sweep
        # reproducible from this output alone.
        print(json.dumps({
            "seed": args.seed,
            "topology": args.topology,
            "nodes": tree.n,
            "length": args.length,
            "plans": [p.to_dict() for p in plans],
            "rows": [
                dict(zip(["fault_rate", "faults", "goodput", "matches_ref",
                          "retransmits", "acks", "dups", "failed", "strict"],
                         r))
                for r in rows
            ],
            "monitor_violations": monitor_violations,
            "ok": not bad and not monitor_violations,
        }, indent=2, sort_keys=True))
    else:
        print(format_table(
            ["fault rate", "faults", "goodput", "==ref", "retransmits", "acks",
             "dups", "failed", "strict"],
            rows,
            title=(f"chaos sweep on {args.topology}/{tree.n} nodes, "
                   f"{args.length} requests (fault-free cost {ref.stats.total}):"),
        ))
        print("\nreliable layer held: goodput fault-free-identical, zero failures"
              if not bad else f"\n{len(bad)} rate(s) showed degradation")
    return 0 if not bad and not monitor_violations else 1


def cmd_trace_record(args) -> int:
    """Run a deterministic workload with full telemetry and export the trace.

    The run is seeded end-to-end, so recording the same arguments twice
    yields byte-identical JSONL files — the property the CI golden-trace
    job checks with ``trace diff``.
    """
    from repro.core.engine import ScheduledRequest
    from repro.obs.monitors import attach_standard_monitors
    from repro.report import summarize_run_data
    from repro.sim.channel import constant_latency
    from repro.sim.faults import FaultPlan
    from repro.core.engine import reliable_concurrent_system
    from repro.sim.reliability import ReliabilityConfig

    tree = make_tree(args.topology, args.nodes, args.seed)
    wl = uniform_workload(tree.n, args.length, read_ratio=args.read_ratio,
                          seed=args.seed)
    if args.mode == "seq":
        system = AggregationSystem(tree, trace_enabled=True)
        monitors = attach_standard_monitors(system.trace, strict=False)
        result = system.run(copy_sequence(wl))
    else:
        rate = args.fault_pct / 100
        system = reliable_concurrent_system(
            tree,
            FaultPlan(drop_prob=rate, duplicate_prob=rate / 2, reorder_prob=rate,
                      seed=args.seed + 5),
            config=ReliabilityConfig(base_timeout=6.0, backoff=1.5,
                                     max_timeout=20.0, combine_deadline=args.gap),
            latency=constant_latency(1.0),
            seed=args.seed,
            trace_enabled=True,
        )
        monitors = attach_standard_monitors(system.trace, strict=False)
        result = system.run([
            ScheduledRequest(time=args.gap * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ])
    violations = _warn_violations(monitors)
    _export_trace(system.trace, args.out)
    if args.summary_json:
        data = summarize_run_data(
            result, title=f"trace record {args.mode} {args.topology}/{tree.n}")
        data["monitors"] = {"violations": violations}
        with open(args.summary_json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote run summary to {args.summary_json}", file=sys.stderr)
    return 1 if violations else 0


def cmd_trace_summarize(args) -> int:
    from repro.obs.export import import_jsonl, trace_summary

    trace = import_jsonl(args.trace_file)
    summary = trace_summary(trace)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    t0, t1 = summary["time_window"]
    print(f"{args.trace_file}: {summary['events']} events, "
          f"{summary['nodes']} nodes, t=[{t0}, {t1}]")
    print(f"logical messages: {summary['logical_messages']}")
    for kind, n in sorted(summary["by_kind"].items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {kind:<20}{n}")
    if summary["spans"]:
        print(f"spans: {summary['spans']}  failed: {summary['failed_spans']}")
    if summary["top_edges"]:
        print("top edges: "
              + ", ".join(f"{u}-{v} ({n})" for (u, v), n in summary["top_edges"]))
    return 0


def cmd_trace_diff(args) -> int:
    from repro.obs.export import import_jsonl, trace_diff

    a = import_jsonl(args.trace_a)
    b = import_jsonl(args.trace_b)
    diffs = trace_diff(a, b, limit=args.limit)
    if not diffs:
        print(f"traces identical ({len(a)} events)")
        return 0
    print(f"traces differ ({len(a)} vs {len(b)} events):")
    for line in diffs:
        print(f"  {line}")
    return 1


def cmd_trace_top_edges(args) -> int:
    from repro.obs.export import import_jsonl, top_edges

    trace = import_jsonl(args.trace_file)
    ranked = top_edges(trace, top=args.top)
    if not ranked:
        print("no logical message traffic in trace")
        return 0
    print(format_table(
        ["edge", "messages"],
        [(f"{u}-{v}", n) for (u, v), n in ranked],
        title=f"busiest undirected edges in {args.trace_file}:",
    ))
    return 0


def cmd_verify_lint(args) -> int:
    from repro.verify.protolint import findings_to_json, run_lint

    findings = run_lint()
    if args.json:
        print(findings_to_json(findings))
    else:
        for f in findings:
            print(f)
        print(f"protolint: {len(findings)} finding(s)"
              if findings else "protolint: clean")
    return 1 if findings else 0


def cmd_verify_explore(args) -> int:
    from repro.verify.explore import Explorer, default_script, parse_script

    tree = make_tree(args.topology, args.nodes, args.seed)
    try:
        if args.script:
            script = parse_script(args.script)
        else:
            script = default_script(tree.n, args.max_ops)
        factory, name = make_policy_factory(args.policy)
        explorer = Explorer(
            tree,
            script,
            policy_factory=factory,
            max_states=args.max_states,
            independence=args.independence,
        )
    except ValueError as exc:
        raise SystemExit(f"verify explore: {exc}")
    result = explorer.run()
    if args.json:
        data = result.to_dict()
        data["script"] = [str(s) for s in script]
        data["policy"] = name
        data["independence"] = args.independence
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"explore {args.topology}/{tree.n} nodes, policy {name}, "
              f"independence {args.independence}, "
              f"script [{', '.join(str(s) for s in script)}]:")
        print(f"  states explored:      {result.states}")
        print(f"  transitions executed: {result.transitions}")
        print(f"  sleep-set pruned:     {result.slept} "
              f"(reduction ratio {result.reduction_ratio:.2%})")
        print(f"  terminal schedules:   {result.terminals} "
              f"({result.serial_terminals} serial)")
        if result.truncated:
            print(f"  TRUNCATED at {args.max_states} states — not exhaustive",
                  file=sys.stderr)
        for v in result.violations:
            print(f"  VIOLATION [{v.kind}] {v.message}", file=sys.stderr)
            print(f"    schedule: {' ; '.join(v.schedule)}", file=sys.stderr)
        if result.ok:
            print("  all interleavings consistent: lemmas, causal, "
                  "strict-on-serial, no deadlock")
    return 0 if result.ok else 1


def cmd_verify_effects(args) -> int:
    """The extracted protocol reaction graph + derived POR independence —
    the one source of truth the model checker, lint and docs consume."""
    from repro.verify.effects import (
        check_reaction,
        derived_independence,
        reaction_graph_json,
    )

    if args.json:
        print(reaction_graph_json())
        return 0 if not check_reaction() else 1
    from repro.verify.effects import extract_reaction_graph

    graph = extract_reaction_graph()
    indep = derived_independence()
    findings = check_reaction()
    for kind in sorted(graph.core):
        eff = graph.core[kind]
        sends = ", ".join(
            f"{k}→{'/'.join(roles)}" for k, roles in eff.sends
        ) or "—"
        print(f"on {kind}:")
        print(f"  sends:  {sends}")
        print(f"  emits:  {', '.join(sorted(eff.emits)) or '—'}")
        print(f"  reads:  {', '.join(sorted(eff.reads))}")
        print(f"  writes: {', '.join(sorted(eff.writes))}")
    indep_desc = (
        "node-local — deliveries at distinct nodes commute"
        if indep.node_local
        else "DEGRADED to full dependence"
    )
    print(f"independence: {indep_desc}")
    for item in indep.unknown_effects:
        print(f"  non-local effect: {item}", file=sys.stderr)
    for f in findings:
        print(f"  {f}", file=sys.stderr)
    print(f"reaction graph: {len(findings)} finding(s)"
          if findings else "reaction graph: clean (matches reaction_spec)")
    return 1 if findings else 0


def cmd_verify_causal(args) -> int:
    from repro.obs.export import import_jsonl
    from repro.verify.causal import check_trace

    try:
        events = import_jsonl(args.trace_file)
    except OSError as exc:
        raise SystemExit(f"verify causal: cannot read {args.trace_file}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"verify causal: {exc}")
    report = check_trace(events, n_nodes=args.nodes)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{args.trace_file}: {report.events} events — "
              f"{report.sends} sends / {report.deliveries} deliveries "
              f"(via {report.delivery_kind!r}), {report.writes} writes, "
              f"{report.combines_checked} combines checked")
        for v in report.violations:
            print(f"  VIOLATION [{v.kind}] {v.message}", file=sys.stderr)
        if report.ok:
            print("  exactly-once FIFO delivery and causal visibility hold")
    return 0 if report.ok else 1


# ---------------------------------------------------------------- serve
def cmd_serve_node(args) -> int:
    """Internal: one node process of a live cluster (spawned by ``serve``)."""
    from repro.net.server import serve_node

    return serve_node(args.config, args.proc, args.incarnation)


def cmd_serve(args) -> int:
    """Run the tree as real OS processes over TCP, drive a workload, then
    merge the per-process traces and re-verify them offline."""
    import asyncio
    import pathlib
    import random

    from repro.net.cluster import ClusterConfig, ClusterSupervisor
    from repro.net.merge import merge_run_dir, verify_merged
    from repro.obs.export import _dump_line
    from repro.workloads.requests import COMBINE, WRITE

    tree = make_tree(args.topology, args.nodes, args.seed)
    # Absolute: node processes run inside the run directory and read every
    # path from cluster.json.
    run_dir = pathlib.Path(args.run_dir).resolve()
    config = ClusterConfig.for_tree(
        tree,
        run_dir,
        nodes_per_proc=args.nodes_per_proc,
        policy=args.policy,
        lease_ttl=args.lease_ttl,
        checkpoint_interval=args.checkpoint_interval,
    )

    async def drive():
        sup = ClusterSupervisor(config)
        await sup.start()
        rng = random.Random(args.seed)
        victims: list = []
        kill_at = restart_at = None
        if args.chaos:
            k = min(2, max(1, len(config.procs) - 1))
            victims = rng.sample(config.procs, k)
            kill_at = args.length // 3
            restart_at = (2 * args.length) // 3
        dead: set = set()
        writes = combines = 0
        try:
            for i in range(args.length):
                if kill_at is not None and i == kill_at:
                    for p in victims:
                        await sup.kill_proc(p)
                        dead.add(p)
                if restart_at is not None and i == restart_at:
                    for p in victims:
                        await sup.restart_proc(p)
                        dead.discard(p)
                node = rng.randrange(config.n)
                is_write = rng.random() < args.write_ratio
                if dead and not is_write and rng.random() < 0.7:
                    is_write = True  # bound the dead-window combine timeouts
                timeout = args.chaos_timeout if dead else args.req_timeout
                try:
                    if is_write:
                        writes += 1
                        await sup.submit(
                            node, WRITE, arg=rng.uniform(-10.0, 10.0),
                            timeout=timeout,
                        )
                    else:
                        combines += 1
                        await sup.submit(node, COMBINE, timeout=timeout)
                except (RuntimeError, TimeoutError, ConnectionError, OSError) as exc:
                    sup.failed.append({
                        "req": None, "node": node,
                        "op": WRITE if is_write else COMBINE,
                        "error": str(exc),
                    })
        finally:
            settled = await sup.quiesce(timeout=args.quiesce_timeout)
            await sup.shutdown()
        return sup, settled, writes, combines, victims

    sup, settled, writes, combines, victims = asyncio.run(drive())

    events, files, synthesized = merge_run_dir(run_dir)
    merged_path = run_dir / "merged.jsonl"
    with open(merged_path, "w") as fh:
        for ev in events:
            fh.write(_dump_line(ev) + "\n")
    verdict = verify_merged(events, n_nodes=config.n)

    completed_combines = sum(
        1 for r in sup.results if r.get("op") == COMBINE and "value" in r
    )
    failed_combines = sum(1 for r in sup.failed if r.get("op") == COMBINE)
    combines_accounted = completed_combines + failed_combines == combines
    # Only a killed process may fail a request or lose a message.
    healthy = args.chaos or (not sup.failed and synthesized == 0)
    ok = bool(verdict["ok"] and settled and combines_accounted and healthy)
    summary = {
        "nodes": config.n,
        "procs": len(config.procs),
        "chaos": bool(args.chaos),
        "victims": sorted(victims),
        "requests": args.length,
        "writes": writes,
        "combines": combines,
        "completed_combines": completed_combines,
        "failed_requests": len(sup.failed),
        "settled": settled,
        "trace_files": files,
        "merged": str(merged_path),
        "merged_events": len(events),
        "synthesized_losses": synthesized,
        "verify": verdict,
        "ok": ok,
    }
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"serve: {config.n} nodes across {len(config.procs)} processes "
              f"({'chaos: killed ' + ', '.join(victims) if victims else 'no chaos'})")
        print(f"  requests: {writes} writes + {combines} combines "
              f"({completed_combines} combines completed, "
              f"{len(sup.failed)} requests failed)")
        print(f"  merged {len(events)} events from {len(files)} trace files "
              f"({synthesized} crash losses synthesized) -> {merged_path}")
        causal = verdict["causal"]
        print(f"  verify: causal {'OK' if causal['ok'] else 'FAIL'} "
              f"({causal['combines_checked']} combines checked), "
              f"monitors {'OK' if not verdict['monitor_violations'] else 'FAIL'}")
        for v in causal["violations"]:
            print(f"  VIOLATION [{v['kind']}] {v['message']}", file=sys.stderr)
        for v in verdict["monitor_violations"]:
            print(f"  VIOLATION [monitor] {v}", file=sys.stderr)
        if not settled:
            print("  WARNING: cluster did not settle before shutdown",
                  file=sys.stderr)
        if not healthy:
            print("  FAIL: without --chaos no request may fail and no loss "
                  "may be synthesized", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------- perf
def _load_profile(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"perf: cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"perf: {path} is not valid JSON: {exc}")
    if not isinstance(data, dict) or "phases" not in data:
        raise SystemExit(f"perf: {path} is not a perf profile (no 'phases' key)")
    return data


def _message_phase(router: Router, src: int, dst: int, message: object) -> str:
    return "mechanism." + type(message).__name__.lower()


#: The entry points ``perf record`` times, as (class, method, phase); a
#: phase is a name or a function of the call's arguments.  The table lives
#: here rather than in :mod:`repro.obs.perf` because ``repro.obs`` may not
#: import the simulator layers (lint rule PL302).
PERF_ATTACH_POINTS = (
    (Router, "route", _message_phase),
    (Simulator, "run", "sim.run"),
    (FaultyNetwork, "_deliver", "faults.deliver"),
    (ConcurrentAggregationSystem, "_initiate", "engine.initiate"),
    (ReliableNetwork, "_on_timeout", "reliability.timeout"),
)


def run_perf_workload(args):
    """Build and run the seeded workload ``perf record`` profiles (``seq``
    or ``chaos`` mode, per ``args``); returns ``(system, result)``."""
    from repro.core.engine import ScheduledRequest, reliable_concurrent_system
    from repro.sim.channel import constant_latency
    from repro.sim.faults import FaultPlan
    from repro.sim.reliability import ReliabilityConfig

    tree = make_tree(args.topology, args.nodes, args.seed)
    wl = uniform_workload(tree.n, args.length, read_ratio=args.read_ratio,
                          seed=args.seed)
    if args.mode == "seq":
        system = AggregationSystem(tree, cost_accounting=True)
        return system, system.run(copy_sequence(wl))
    rate = args.fault_pct / 100
    system = reliable_concurrent_system(
        tree,
        FaultPlan(drop_prob=rate, duplicate_prob=rate / 2, reorder_prob=rate,
                  seed=args.seed + 5),
        config=ReliabilityConfig(base_timeout=6.0, backoff=1.5,
                                 max_timeout=20.0, combine_deadline=args.gap),
        latency=constant_latency(1.0),
        seed=args.seed,
        cost_accounting=True,
    )
    return system, system.run([
        ScheduledRequest(time=args.gap * i, request=q)
        for i, q in enumerate(copy_sequence(wl))
    ])


def cmd_perf_record(args) -> int:
    """Run a seeded workload with the wall-clock profiler attached to
    :data:`PERF_ATTACH_POINTS` and the online cost meter on; write the
    profile JSON and a collapsed-stack file.

    The profile captures per-phase wall-clock totals (inclusive and self),
    call counts, named counters, the collapsed stacks, and — for static-tree
    runs — the live cost-vs-OPT report from the streaming cost meter.
    """
    from repro.obs.perf import PerfProfiler

    profiler = PerfProfiler()
    # Attach before building: the runtime binds Router.route at construction.
    for owner, attr, phase in PERF_ATTACH_POINTS:
        profiler.attach(owner, attr, phase)
    try:
        system, result = run_perf_workload(args)
    finally:
        profiler.detach()
    profiler.count("messages_routed", sum(
        n for name, n in profiler.phase_count.items() if name.startswith("mechanism.")
    ))
    if args.mode == "chaos":
        profiler.count("sim.events", system.sim.events_processed)
        profiler.count("reliability.retransmits", system.network.summary.retransmits)
    data = profiler.snapshot()
    data["run"] = {
        "mode": args.mode,
        "topology": args.topology,
        "nodes": system.tree.n,
        "length": len(result.requests),
        "read_ratio": args.read_ratio,
        "seed": args.seed,
        "messages": result.total_messages,
    }
    if result.cost is not None:
        data["cost"] = result.cost.to_dict()
    collapsed_path = args.collapsed or (args.out + ".collapsed")
    n_stacks = profiler.write_collapsed(collapsed_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote profile to {args.out} "
          f"({len(data['phases'])} phases, {result.total_messages} messages)")
    print(f"wrote {n_stacks} collapsed stacks to {collapsed_path}")
    _print_profile(data, top=5)
    return 0


def _print_profile(data: dict, top: Optional[int] = None) -> None:
    phases = data.get("phases", {})
    rows = sorted(
        ((name, p["count"], p["total_s"], p["self_s"]) for name, p in phases.items()),
        key=lambda r: -r[3],
    )
    if top is not None:
        rows = rows[:top]
    print(format_table(
        ["phase", "count", "total s", "self s"],
        [(n, c, f"{t:.6f}", f"{s:.6f}") for n, c, t, s in rows],
        title="hottest phases (by self time):" if top is not None else "phases:",
    ))
    counters = data.get("counters", {})
    if counters:
        print("counters: " + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    cost = data.get("cost")
    if cost:
        ratio = cost["competitive_ratio"]
        ratio_txt = f"{ratio:.4f}" if ratio is not None else "inf"
        print(f"cost vs OPT: observed {cost['observed_messages']}, "
              f"lower bound {cost['opt_lower_bound']}, live ratio {ratio_txt}")


def cmd_perf_report(args) -> int:
    data = _load_profile(args.profile)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    run = data.get("run", {})
    if run:
        print(f"profile: {run.get('mode', '?')} "
              f"{run.get('topology', '?')}/{run.get('nodes', '?')} nodes, "
              f"{run.get('length', '?')} requests, seed {run.get('seed', '?')}")
    _print_profile(data)
    return 0


def cmd_perf_flame(args) -> int:
    """Emit the profile's collapsed stacks (``frame;frame weight`` lines) —
    the input format of standard flamegraph renderers."""
    from repro.obs.perf import format_collapsed

    lines = format_collapsed(_load_profile(args.profile).get("stacks", {}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {len(lines)} collapsed stacks to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_perf_compare(args) -> int:
    """Per-phase wall-clock deltas between two profiles; exit 1 when any
    shared phase's self time regressed by more than ``--threshold``."""
    base = _load_profile(args.baseline)
    new = _load_profile(args.candidate)
    base_phases = base.get("phases", {})
    new_phases = new.get("phases", {})
    shared = sorted(set(base_phases) & set(new_phases))
    rows = []
    regressions = []
    for name in shared:
        b, n = base_phases[name]["self_s"], new_phases[name]["self_s"]
        delta = (n - b) / b if b > 0 else (float("inf") if n > 0 else 0.0)
        rows.append((name, f"{b:.6f}", f"{n:.6f}", f"{delta:+.1%}"))
        if b >= args.min_seconds and delta > args.threshold:
            regressions.append((name, delta))
    print(format_table(
        ["phase", "baseline self s", "candidate self s", "delta"],
        rows,
        title=f"{args.baseline} vs {args.candidate}:",
    ))
    only_base = sorted(set(base_phases) - set(new_phases))
    only_new = sorted(set(new_phases) - set(base_phases))
    if only_base:
        print(f"only in baseline: {', '.join(only_base)}")
    if only_new:
        print(f"only in candidate: {', '.join(only_new)}")
    if regressions:
        for name, delta in regressions:
            print(f"REGRESSION: {name} self time {delta:+.1%} "
                  f"(threshold {args.threshold:.0%})", file=sys.stderr)
        return 1
    print(f"no phase regressed beyond {args.threshold:.0%}")
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online Aggregation over Trees (IPPS 2007) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--topology", default="binary",
                       choices=["path", "star", "binary", "random"])
        p.add_argument("--nodes", type=int, default=15)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("demo", help="run a small aggregation demo")
    add_common(p)
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable run summary (JSON)")
    p.add_argument("--trace-out", help="export the telemetry trace as JSONL")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("lp", help="solve the Figure-5 LP")
    p.set_defaults(fn=cmd_lp)

    p = sub.add_parser("ratio", help="run a workload and report ratios")
    add_common(p)
    p.add_argument("--length", type=int, default=500)
    p.add_argument("--read-ratio", type=float, default=0.5)
    p.add_argument("--policy", default="rww",
                   help="rww | always | never | ab:a,b | random:p")
    p.add_argument("--save", help="save the workload as JSONL")
    p.add_argument("--load", help="replay a JSONL workload")
    p.set_defaults(fn=cmd_ratio)

    p = sub.add_parser("exact", help="exact competitive ratio (game solver)")
    p.add_argument("--policy", default="rww",
                   help="rww | always | never | ab:a,b | ttl:k")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("adversary", help="Theorem-3 adversary run")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--rounds", type=int, default=300)
    p.add_argument("--strong", action="store_true",
                   help="include reader-side noop writes (ADV+N)")
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("baselines", help="read-ratio sweep vs static baselines")
    add_common(p)
    p.add_argument("--length", type=int, default=500)
    p.set_defaults(fn=cmd_baselines)

    p = sub.add_parser("chaos", help="fault sweep under reliable delivery")
    add_common(p)
    p.add_argument("--length", type=int, default=40)
    p.add_argument("--read-ratio", type=float, default=0.5)
    p.add_argument("--gap", type=float, default=600.0,
                   help="virtual-time gap between requests (also the combine deadline)")
    p.add_argument("--max-rate-pct", type=int, default=20,
                   help="sweep drop/reorder rates from 0%% to this (dup at half)")
    p.add_argument("--step-pct", type=int, default=5)
    p.add_argument("--max-retries", type=int, default=25)
    p.add_argument("--trace-out",
                   help="export the highest-rate run's telemetry trace as JSONL "
                        "(lemma monitors attached; violations warn and fail)")
    p.add_argument("--churn", action="store_true",
                   help="scheduled crash/recover/partition faults + drops, "
                        "healed by checkpoints and lease TTLs "
                        "(recovery subsystem end-to-end)")
    p.add_argument("--churn-cycles", type=int, default=4,
                   help="churn mode: crash/recover cycles on distinct nodes")
    p.add_argument("--drop-pct", type=float, default=5.0,
                   help="churn mode: message drop rate in percent")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output incl. the seed and the "
                        "full fault plan(s) for exact reproduction")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("exact-grid", help="exact ratios for the (a, b) grid")
    p.add_argument("--max-a", type=int, default=3)
    p.add_argument("--max-b", type=int, default=4)
    p.set_defaults(fn=cmd_exact_grid)

    p = sub.add_parser("gap", help="per-edge relaxation vs exact global OPT")
    add_common(p)
    p.add_argument("--length", type=int, default=25)
    p.add_argument("--read-ratio", type=float, default=0.5)
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("trace", help="record / inspect JSONL telemetry traces")
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser("record",
                         help="run a seeded workload, export its trace")
    add_common(tp)
    tp.add_argument("--length", type=int, default=60)
    tp.add_argument("--read-ratio", type=float, default=0.5)
    tp.add_argument("--mode", default="seq", choices=["seq", "chaos"],
                    help="sequential engine or concurrent+lossy with the "
                         "reliable-delivery layer")
    tp.add_argument("--fault-pct", type=float, default=10.0,
                    help="chaos mode: drop/reorder rate in percent (dup at half)")
    tp.add_argument("--gap", type=float, default=600.0,
                    help="chaos mode: virtual-time gap between requests")
    tp.add_argument("--out", required=True, help="JSONL output path")
    tp.add_argument("--summary-json",
                    help="also write the machine-readable run summary here")
    tp.set_defaults(fn=cmd_trace_record)

    tp = tsub.add_parser("summarize", help="digest a JSONL trace")
    tp.add_argument("trace_file")
    tp.add_argument("--json", action="store_true")
    tp.set_defaults(fn=cmd_trace_summarize)

    tp = tsub.add_parser("diff", help="compare two JSONL traces event by event")
    tp.add_argument("trace_a")
    tp.add_argument("trace_b")
    tp.add_argument("--limit", type=int, default=20,
                    help="max difference lines to print")
    tp.set_defaults(fn=cmd_trace_diff)

    tp = tsub.add_parser("top-edges", help="busiest undirected edges in a trace")
    tp.add_argument("trace_file")
    tp.add_argument("--top", type=int, default=5)
    tp.set_defaults(fn=cmd_trace_top_edges)

    p = sub.add_parser("perf",
                       help="wall-clock profiling and online cost accounting")
    psub = p.add_subparsers(dest="perf_command", required=True)

    pp = psub.add_parser("record",
                         help="run a seeded workload under the profiler + "
                              "cost meter; write profile JSON + collapsed stacks")
    add_common(pp)
    pp.add_argument("--length", type=int, default=200)
    pp.add_argument("--read-ratio", type=float, default=0.5)
    pp.add_argument("--mode", default="seq", choices=["seq", "chaos"],
                    help="sequential engine or concurrent+lossy with the "
                         "reliable-delivery layer (profiles retransmits too)")
    pp.add_argument("--fault-pct", type=float, default=10.0,
                    help="chaos mode: drop/reorder rate in percent (dup at half)")
    pp.add_argument("--gap", type=float, default=600.0,
                    help="chaos mode: virtual-time gap between requests")
    pp.add_argument("--out", required=True, help="profile JSON output path")
    pp.add_argument("--collapsed",
                    help="collapsed-stack output path (default: <out>.collapsed)")
    pp.set_defaults(fn=cmd_perf_record)

    pp = psub.add_parser("report", help="pretty-print a recorded profile")
    pp.add_argument("profile")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(fn=cmd_perf_report)

    pp = psub.add_parser("flame",
                         help="emit collapsed stacks (flamegraph input) "
                              "from a recorded profile")
    pp.add_argument("profile")
    pp.add_argument("--out", help="write to a file instead of stdout")
    pp.set_defaults(fn=cmd_perf_flame)

    pp = psub.add_parser("compare",
                         help="per-phase deltas between two profiles; "
                              "nonzero exit on regression")
    pp.add_argument("baseline")
    pp.add_argument("candidate")
    pp.add_argument("--threshold", type=float, default=0.25,
                    help="fail when a phase's self time grows by more than "
                         "this fraction (default 0.25)")
    pp.add_argument("--min-seconds", type=float, default=1e-4,
                    help="ignore phases below this baseline self time")
    pp.set_defaults(fn=cmd_perf_compare)

    p = sub.add_parser("verify",
                       help="protocol verification toolkit (see DESIGN.md)")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    vp = vsub.add_parser("lint",
                         help="AST lint: dispatch completeness, trace schemas, "
                              "layering, deprecated shims")
    vp.add_argument("--json", action="store_true",
                    help="machine-readable findings (JSON array)")
    vp.set_defaults(fn=cmd_verify_lint)

    vp = vsub.add_parser("explore",
                         help="exhaustive small-scope model checking of "
                              "delivery interleavings")
    vp.add_argument("--topology", default="path",
                    choices=["path", "star", "binary", "random"])
    vp.add_argument("--nodes", type=int, default=3)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--max-ops", type=int, default=4,
                    help="length of the generated request script")
    vp.add_argument("--script",
                    help="explicit script, e.g. 'w0=1,c2,k1,r1,c0' "
                         "(wN=X write, cN combine, kN crash, rN recover; "
                         "overrides --max-ops)")
    vp.add_argument("--policy", default="rww",
                    help="rww | always | never | ab:a,b")
    vp.add_argument("--max-states", type=int, default=500_000)
    vp.add_argument("--independence", default="derived",
                    choices=["derived", "hand"],
                    help="POR independence relation: derived from the "
                         "static effect analysis (default) or the "
                         "original hand-coded one")
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(fn=cmd_verify_explore)

    vp = vsub.add_parser("effects",
                         help="extracted protocol reaction graph, PL50x "
                              "spec check, and the derived POR "
                              "independence relation")
    vp.add_argument("--json", action="store_true",
                    help="full reaction-graph artifact "
                         "(reaction_graph.json for CI)")
    vp.set_defaults(fn=cmd_verify_effects)

    vp = vsub.add_parser("causal",
                         help="offline happens-before check of a recorded "
                              "JSONL trace")
    vp.add_argument("trace_file")
    vp.add_argument("--nodes", type=int,
                    help="tree size (default: inferred from the trace)")
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(fn=cmd_verify_causal)

    p = sub.add_parser("serve",
                       help="run the tree as real OS processes over TCP and "
                            "re-verify the merged traces offline")
    add_common(p)
    p.add_argument("--nodes-per-proc", type=int, default=1,
                   help="node automata hosted per OS process")
    p.add_argument("--policy", default="rww",
                   help="rww | always | never | ab:a,b")
    p.add_argument("--length", type=int, default=40,
                   help="number of write/combine requests to drive")
    p.add_argument("--write-ratio", type=float, default=0.6)
    p.add_argument("--lease-ttl", type=float, default=2.0,
                   help="wall-clock lease TTL seconds (expiry sweep)")
    p.add_argument("--checkpoint-interval", type=float, default=1.0,
                   help="wall-clock seconds between durable checkpoints")
    p.add_argument("--chaos", action="store_true",
                   help="SIGKILL two processes mid-run and restart them")
    p.add_argument("--run-dir", required=True,
                   help="directory for traces, checkpoints and the summary")
    p.add_argument("--req-timeout", type=float, default=30.0)
    p.add_argument("--chaos-timeout", type=float, default=6.0,
                   help="request timeout while processes are down")
    p.add_argument("--quiesce-timeout", type=float, default=30.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("serve-node",
                       help=argparse.SUPPRESS)
    p.add_argument("--config", required=True)
    p.add_argument("--proc", required=True)
    p.add_argument("--incarnation", type=int, default=0)
    p.set_defaults(fn=cmd_serve_node)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed early (``... | head``).  Point stdout at devnull
        # so the interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
