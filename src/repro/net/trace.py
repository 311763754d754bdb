"""Execution traces: everything that went over the air, with accounting.

The trace is the simulator's ground truth.  It drives:

* complexity accounting (rounds, transmissions, deliveries) for the
  Theorem 5.6 vs Algorithm 1 cost benchmarks;
* the impossibility experiments, which record an execution ``E`` on the
  covering network and *replay* faulty nodes' transmissions into the
  executions ``E1, E2, E3`` (Appendices A and D);
* the scheduler subsystem (:mod:`repro.net.sched`), whose delivery
  events carry virtual timestamps: every :class:`Transmission` records
  the virtual time it was sent (``sent_at``) and every per-recipient
  :class:`Delivery` the virtual time it landed (``delivered_at``).
  Under lockstep timing (the synchronous rounds of Section 3) virtual
  time coincides with the round number;
* debugging: a faithful log of who said what, when, to whom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

# Both record types are constructed once per message on the engine's
# hot path; plain slots with a generated hash keep eq/hash/repr identical
# to the frozen form at a third of the construction cost.  Nothing may
# mutate a record after it is appended to a trace.


#: The three ways a send (or decision) can be caused (happened-before
#: semantics): ``"delivery"`` — emitted while processing an inbox, the
#: primary parent being the last delivery that landed this activation;
#: ``"input"`` — spontaneous at the first activation (driven by the
#: node's initial state, i.e. its input value); ``"timer"`` — spontaneous
#: at a later activation (driven by the protocol's round schedule or a
#: local patience timer, not by any arrival).
CAUSE_DELIVERY = "delivery"
CAUSE_INPUT = "input"
CAUSE_TIMER = "timer"


@dataclass(slots=True, unsafe_hash=True)
class Transmission:
    """One send event.  ``target is None`` means local broadcast;
    ``recipients`` is the realized delivery set (the sender's neighbors
    for a broadcast, the single target otherwise).  ``sent_at`` is the
    virtual timestamp of the send — equal to ``round_no`` in the engine.
    Schedulers receive this record to time its deliveries.

    ``cause_kind``/``cause_index`` are the happened-before parent link:
    ``cause_kind`` classifies what provoked the activation that emitted
    this send (:data:`CAUSE_DELIVERY` / :data:`CAUSE_INPUT` /
    :data:`CAUSE_TIMER`) and, for ``"delivery"``, ``cause_index`` is the
    position in ``Trace.deliveries`` of the *primary* cause — the last
    delivery that landed in the emitting activation's inbox.  The full
    parent set of a send is every delivery to its sender with
    ``delivered_at == sent_at`` (the engine drains exactly those into
    the activation's inbox), so the trace is a happened-before DAG:
    delivery → its transmission via ``send_index``, transmission → the
    deliveries of its activation via timestamps, with ``cause_index``
    as the recorded primary edge."""

    round_no: int
    sender: Hashable
    message: object
    target: Optional[Hashable]
    recipients: Tuple[Hashable, ...]
    sent_at: Optional[int] = None
    cause_kind: Optional[str] = None
    cause_index: Optional[int] = None


@dataclass(slots=True, unsafe_hash=True)
class Delivery:
    """One (message, recipient) delivery with its virtual timing.

    ``send_index`` is the position of the originating
    :class:`Transmission` in ``Trace.transmissions``, so a delivery can
    always be joined back to its send.  Under synchronous/lockstep
    execution ``delivered_at == sent_at + 1``; asynchronous schedulers
    assign later timestamps (bounded by their ``max_delay``)."""

    send_index: int
    sender: Hashable
    recipient: Hashable
    message: object
    sent_at: int
    delivered_at: int

    @property
    def latency(self) -> int:
        """Virtual time the message spent in flight."""
        return self.delivered_at - self.sent_at


@dataclass(slots=True, unsafe_hash=True)
class Decision:
    """The instant a node's ``output()`` first became non-``None``.

    ``decided_at`` is the virtual tick of the activation that produced
    the output (0 for a protocol that was already decided at
    construction).  ``cause_kind``/``cause_index`` follow the same
    happened-before convention as :class:`Transmission`: the primary
    cause of a ``"delivery"``-caused decision is the last delivery in
    the deciding activation's inbox."""

    node: Hashable
    value: int
    decided_at: int
    cause_kind: Optional[str] = None
    cause_index: Optional[int] = None


@dataclass(slots=True)
class Trace:
    """An append-only log of transmissions plus run metadata.

    ``deliveries`` is the per-recipient view of the same traffic with
    virtual delivery timestamps; the engine appends a
    :class:`Delivery` per recipient at send time (in recipient order),
    so the two logs always line up.
    """

    transmissions: List[Transmission] = field(default_factory=list)
    deliveries: List[Delivery] = field(default_factory=list)
    rounds: int = 0
    decisions: List[Decision] = field(default_factory=list)

    def record(self, t: Transmission) -> None:
        self.transmissions.append(t)
        if t.round_no > self.rounds:
            self.rounds = t.round_no

    def record_decision(self, d: Decision) -> None:
        self.decisions.append(d)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def transmission_count(self) -> int:
        """Number of send events (a broadcast counts once)."""
        return len(self.transmissions)

    @property
    def delivery_count(self) -> int:
        """Number of (message, recipient) deliveries."""
        return sum(len(t.recipients) for t in self.transmissions)

    def sent_by(self, node: Hashable) -> list[Transmission]:
        """All transmissions made by ``node``, in order."""
        return [t for t in self.transmissions if t.sender == node]

    def received_by(self, node: Hashable) -> list[Transmission]:
        """All transmissions delivered to ``node``, in order."""
        return [t for t in self.transmissions if node in t.recipients]

    def per_round(self, round_no: int) -> list[Transmission]:
        return [t for t in self.transmissions if t.round_no == round_no]

    @property
    def max_latency(self) -> int:
        """The largest virtual in-flight time over all deliveries
        (0 for an empty trace — and always 1 under lockstep timing)."""
        return max((d.latency for d in self.deliveries), default=0)

    def replay_schedule(self, node: Hashable) -> dict[int, list[Transmission]]:
        """``node``'s transmissions grouped by round — the exact shape a
        :class:`~repro.net.adversary.ReplayAdversary` consumes."""
        schedule: dict[int, list[Transmission]] = {}
        for t in self.sent_by(node):
            schedule.setdefault(t.round_no, []).append(t)
        return schedule
