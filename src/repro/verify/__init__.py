"""Protocol verification toolkit: five cooperating static/dynamic analyzers.

The repo's tests check the paper's lemmas on *particular* executions; this
package checks them in complementary, stronger ways:

* :mod:`repro.verify.protolint` — a custom AST lint pass over the source
  itself: dispatch-table completeness, trace-schema conformance of every
  ``emit`` call site, layering rules, and deprecated-shim imports.  Runs
  without importing (most of) the code under analysis, so it also works on
  broken fixtures.
* :mod:`repro.verify.effects` — flow-sensitive static effect analysis of
  the protocol handlers: per received message kind, the sends (by neighbor
  role), trace emits, and node-state reads/writes, extracted from both the
  reference ``core`` implementation and the ``flat`` backend's kernel
  (projected onto flat's declared scope).  Checked against
  the golden reaction spec (:mod:`repro.verify.reaction_spec`, rules
  PL50x) and used to *derive* the explorer's partial-order-reduction
  independence relation from read/write sets instead of trusting a
  hand-coded one.
* :mod:`repro.verify.asynclint` — an async-safety pass over
  :mod:`repro.net` (rules PL60x): blocking calls reachable from
  coroutines, dropped task references, unbounded peer-I/O awaits, and
  fields mutated from multiple task roots without a declared
  single-writer/atomicity argument (``_ASYNC_SHARED``).
* :mod:`repro.verify.explore` — a small-scope stateless model checker that
  exhaustively enumerates message-delivery interleavings of a bounded
  request script on a small tree (sleep-set partial-order reduction +
  canonical state hashing), asserting the quiescent-state lemmas, causal
  consistency, strict consistency of serial schedules, and absence of
  deadlock at every reachable state.
* :mod:`repro.verify.causal` — an offline vector-clock happens-before
  checker over recorded JSONL traces (:mod:`repro.obs.export`), verifying
  exactly-once per-edge FIFO delivery and causal visibility of writes by
  completed combines.

All are wired into the CLI as ``python -m repro verify
{lint,effects,explore,causal}`` and into CI (see
``.github/workflows/ci.yml``).  DESIGN.md ("The verification toolkit" and
"Static effect analysis") records what each analyzer does and does not
prove.
"""

from repro.verify.asynclint import run_async_lint
from repro.verify.causal import CausalReport, TraceViolation, check_trace
from repro.verify.effects import (
    DerivedIndependence,
    EffectSet,
    ReactionGraph,
    check_reaction,
    derive_independence,
    derived_independence,
    extract_core_effects,
    extract_flat_effects,
    extract_reaction_graph,
    reaction_graph_json,
)
from repro.verify.explore import (
    ExploreResult,
    Explorer,
    OpSpec,
    Violation,
    default_script,
    parse_script,
)
from repro.verify.protolint import Finding, run_lint
from repro.verify.reaction_spec import REACTION_SPEC

__all__ = [
    "CausalReport",
    "TraceViolation",
    "check_trace",
    "DerivedIndependence",
    "EffectSet",
    "ReactionGraph",
    "check_reaction",
    "derive_independence",
    "derived_independence",
    "extract_core_effects",
    "extract_flat_effects",
    "extract_reaction_graph",
    "reaction_graph_json",
    "REACTION_SPEC",
    "run_async_lint",
    "ExploreResult",
    "Explorer",
    "OpSpec",
    "Violation",
    "default_script",
    "parse_script",
    "Finding",
    "run_lint",
]
