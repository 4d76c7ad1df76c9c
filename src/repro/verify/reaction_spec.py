"""The declared golden reaction spec for the lease automaton.

One entry per *received* message kind, declaring the complete static
effect set a handler is allowed (and required) to have — the reaction
graph of the Figure-1 automaton, written down once and enforced by the
PL50x rules in :mod:`repro.verify.effects` against **both** the reference
``LeaseNode`` handlers and the ``FlatRuntime`` kernel (for the kernel,
projected onto flat's scope: no revoke, no trace emits, no ``ghost``).

Reading guide (roles refer to the *destination* of a send relative to the
neighbor the triggering message arrived from):

``probe``     T3: forward probes down the subtree (``sendprobes`` → role
              ``other``) or answer immediately at a frontier node
              (``sendresponse`` → role ``src``, emitting
              ``lease_granted``/``probe_round``).
``response``  T4: absorb the child's aggregate, possibly complete a
              combine (``combine_done``/``scoped_combine_done``) or close
              another pending round (``sendresponse`` → role ``other``).
``update``    T5: granted leases elsewhere ⇒ forward renumbered updates
              (``forwardupdates`` → role ``other``); otherwise the lease
              just broke ⇒ ``forwardrelease`` (role ``other``,
              ``lease_released``).
``release``   T6: the upstream lease broke (``lease_broken``); trim the
              sent-updates window and cascade (``onrelease`` →
              ``forwardrelease``).
``revoke``    Crash-recovery extension: void the local lease
              (``lease_voided``), revoke downstream grants
              (``lease_revoked`` → role ``other``), renormalize, and
              re-probe the recovering neighbor (role ``src``) if a round
              is stuck on it.

Any drift — a dropped send, a new trace event, a state field touched that
is not declared here — fails ``python -m repro verify lint`` (PL501/
PL502) instead of waiting for an integration test to flake.  Deliberate
protocol changes update this file *in the same commit*, which is the
point: the reaction graph is reviewed, not rediscovered.
"""

from __future__ import annotations

from typing import Dict

from repro.verify.effects import EffectSet

__all__ = ["REACTION_SPEC"]


REACTION_SPEC: Dict[str, EffectSet] = {
    "probe": EffectSet.make(
        sends={"probe": {"other"}, "response": {"src"}},
        emits={"probe_round", "lease_granted"},
        reads={
            "aval",
            "ghost",
            "granted",
            "pndg",
            "policy",
            "snt",
            "taken",
            "uaw",
            "val",
        },
        writes={"granted", "pndg", "policy", "snt", "uaw"},
    ),
    "response": EffectSet.make(
        sends={"response": {"other"}},
        emits={
            "combine_done",
            "lease_acquired",
            "lease_granted",
            "scoped_combine_done",
        },
        reads={
            "aval",
            "completed_requests",
            "ghost",
            "granted",
            "pndg",
            "policy",
            "scoped_waiters",
            "snt",
            "taken",
            "val",
            "waiters",
        },
        writes={
            "aval",
            "completed_requests",
            "ghost",
            "granted",
            "pndg",
            "policy",
            "scoped_waiters",
            "snt",
            "taken",
            "waiters",
        },
    ),
    "update": EffectSet.make(
        sends={"update": {"other"}, "release": {"other"}},
        emits={"lease_released"},
        reads={
            "aval",
            "ghost",
            "granted",
            "policy",
            "sntupdates",
            "taken",
            "uaw",
            "upcntr",
            "val",
        },
        writes={
            "aval",
            "ghost",
            "policy",
            "sntupdates",
            "taken",
            "uaw",
            "upcntr",
        },
    ),
    "release": EffectSet.make(
        sends={"release": {"other"}},
        emits={"lease_broken", "lease_released"},
        reads={"granted", "policy", "sntupdates", "taken", "uaw"},
        writes={"granted", "policy", "taken", "uaw"},
    ),
    "revoke": EffectSet.make(
        sends={"revoke": {"other"}, "release": {"other"}, "probe": {"src"}},
        emits={"lease_voided", "lease_revoked", "lease_released"},
        reads={"granted", "policy", "scoped_waiters", "snt", "taken", "uaw"},
        writes={"granted", "policy", "taken", "uaw"},
    ),
}
