"""The pluggable :class:`Scheduler` API and the event-driven core.

The paper's synchronous model (Section 3) is one point in a space of
timing assumptions; the authors' follow-up work ("Asynchronous Byzantine
Consensus on Undirected Graphs under Local Broadcast Model",
arXiv:1909.02865) shows the local-broadcast story survives asynchrony.
This module makes message *timing* a first-class, pluggable axis:

* :class:`EventDrivenNetwork` runs the same per-node
  :class:`~repro.net.node.Protocol` state machines as
  :class:`~repro.net.simulator.SynchronousNetwork`, but every delivery
  is an event with a virtual timestamp drawn from a :class:`Scheduler`;
* a :class:`Scheduler` assigns each (transmission, recipient) pair a
  delivery instant.  Subclasses only choose *delays*; the base class
  enforces the physics every timing model shares:

  - **causality** — a message sent at tick ``t`` arrives no earlier
    than ``t + 1`` (delays are ≥ 1);
  - **FIFO per link** — deliveries over one directed link never
    overtake each other (late-assigned timestamps are clamped up to the
    link's high-water mark; equal timestamps preserve send order
    because each tick's bucket is appended in send order);
  - **local-broadcast atomicity** (when the scheduler declares it) —
    all recipients of one broadcast receive it at the same instant, the
    timing analogue of "received identically by each of its neighbors".

Determinism contract: the core activates nodes in repr-sorted order,
keeps pending deliveries in a calendar of per-tick buckets drained in
send order, and hands schedulers their recipients in canonical order —
so a run is a pure function of (graph, protocols, channel, scheduler),
independent of ``PYTHONHASHSEED`` and of any executor's process layout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ...graphs import Graph
from ...obs import NULL_METRICS, MetricsRegistry
from ..channels import ChannelModel
from ..node import Context, Inbox, Protocol
from ..simulator import NetworkEngine
from ..trace import (
    CAUSE_DELIVERY,
    CAUSE_INPUT,
    CAUSE_TIMER,
    Decision,
    Delivery,
    Transmission,
)
from .events import SendEvent


class SchedulingError(RuntimeError):
    """A scheduler produced a physically impossible delivery time."""


class Scheduler(ABC):
    """Assigns virtual delivery timestamps to transmissions.

    Subclasses implement :meth:`delay` — the raw per-recipient latency
    (≥ 1 ticks) of one send — and may set :attr:`atomic_broadcast` to
    force all recipients of a broadcast onto one shared instant.
    :meth:`schedule` (final) applies the FIFO-per-link clamp and the
    atomicity collapse, so no subclass can violate the model's physics.

    Schedulers are single-run objects with per-run state (link clocks,
    RNGs): the core calls :meth:`bind` once at network construction.
    Build a fresh instance per run — or use a
    :class:`~repro.net.sched.SchedulerSpec`, which does so for you.
    """

    name = "scheduler"
    #: When True, every recipient of one broadcast shares one delivery
    #: instant (the max of the per-link candidates, so FIFO still holds).
    atomic_broadcast = False
    #: The declared delay-bound contract.  A *bounded* scheduler promises
    #: every delay it ever produces is ≤ :attr:`worst_case_delay`; layers
    #: that reason about time budgets (the runner's delay-aware horizon,
    #: the α-synchronizer's round windows) query exactly this pair.
    #: Subclasses that cannot promise a bound leave ``bounded = False``
    #: and ``worst_case_delay = None``.
    bounded = False
    worst_case_delay: Optional[int] = None
    #: Observability sink.  The engine points this at its own registry
    #: when metrics are on; ``sched.delay`` is only observed then.
    metrics = NULL_METRICS

    def bind(self, graph: Graph, channel: ChannelModel) -> None:
        """Attach to one run: reset link clocks and any per-run state."""
        self.graph = graph
        self.channel = channel
        # Per sender: recipient -> the link's latest assigned delivery
        # instant (its FIFO high-water mark).
        self._link_clock: Dict[Hashable, Dict[Hashable, int]] = {}

    @abstractmethod
    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        """Raw latency (ticks ≥ 1) for delivering ``send`` to ``recipient``."""

    def schedule(self, send: SendEvent) -> List[int]:
        """Delivery instants aligned with ``send.recipients``, with all
        constraints applied.

        :meth:`delay` is drawn once per recipient in canonical order (so
        any randomness it consumes stays replayable); the ``≥ 1`` and
        declared-bound checks then run once per send, and only a failing
        send pays for locating the recipient it names.
        """
        recipients = send.recipients
        if not recipients:
            return []
        delay = self.delay
        delays = [delay(send, recipient) for recipient in recipients]
        if min(delays) < 1:
            i = next(i for i, d in enumerate(delays) if d < 1)
            raise SchedulingError(
                f"{self.name}: delay {delays[i]} < 1 for "
                f"{send.sender!r} -> {recipients[i]!r}"
            )
        if self.bounded:
            bound = self.worst_case_delay or 0
            if max(delays) > bound:
                i = next(i for i, d in enumerate(delays) if d > bound)
                raise SchedulingError(
                    f"{self.name}: delay {delays[i]} exceeds the declared "
                    f"worst-case bound {self.worst_case_delay} for "
                    f"{send.sender!r} -> {recipients[i]!r}"
                )
        metrics = self.metrics
        if metrics.enabled:
            for d in delays:
                metrics.observe("sched.delay", d)
        now = send.time
        clock = self._link_clock.get(send.sender)
        if clock is None:
            clock = self._link_clock[send.sender] = {}
        # FIFO per directed link: never undercut the link's latest
        # assigned delivery (ties keep send order in the tick bucket).
        high_water = clock.get
        times = []
        for recipient, d in zip(recipients, delays):
            when = now + d
            floor = high_water(recipient, 0)
            times.append(when if when >= floor else floor)
        if self.atomic_broadcast and send.is_broadcast:
            times = [max(times)] * len(times)
        clock.update(zip(recipients, times))
        return times

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class EventDrivenNetwork(NetworkEngine):
    """Run per-node protocols on a calendar of ticks with scheduled timing.

    Shares :class:`~repro.net.simulator.NetworkEngine`'s public surface
    (``step``/``run``/``run_until_decided``/``outputs``/``trace``) with
    :class:`~repro.net.simulator.SynchronousNetwork`, so every existing
    protocol, adversary and runner works unchanged.  Each tick of
    virtual time activates every node once (in sorted order) with the
    inbox of everything delivered at that tick; sends are timestamped by
    the scheduler and appended, in send order, to the bucket of the tick
    they land on.  A send whose recipients share one instant (lockstep,
    atomic broadcasts) is one bucket entry carrying its recipient tuple;
    otherwise each recipient gets its own entry.  Under the lockstep
    scheduler this is provably the synchronous simulator — byte-identical
    traces — while asynchronous schedulers stretch and reorder
    deliveries within the FIFO/atomicity envelope.
    """

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[Hashable, Protocol],
        scheduler: Scheduler,
        channel: Optional[ChannelModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(graph, protocols, channel, metrics)
        self.scheduler = scheduler
        scheduler.bind(graph, self.channel)
        scheduler.metrics = self.metrics
        # round_no doubles as the virtual tick of the latest activation.
        # Tick -> entries (sender, message, recipients, index of the
        # first recipient's Delivery record), in send order.
        self._calendar: Dict[
            int, List[Tuple[Hashable, object, Tuple[Hashable, ...], int]]
        ] = {}
        self._in_flight = 0
        self._send_seq = 0

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance virtual time one tick and activate every node.

        As in :meth:`SynchronousNetwork.step`, the per-message loops use
        hoisted locals, positional record construction and direct
        appends to the trace lists.
        """
        self.round_no += 1
        now = self.round_no
        order = self._order
        graph, channel, metrics = self.graph, self.channel, self.metrics
        protocols = self.protocols
        trace = self.trace
        transmissions = trace.transmissions
        deliveries = trace.deliveries
        # Drain tick `now`'s bucket into the recipients' inboxes in send
        # order — the arrival order protocols observe.  The last
        # delivery drained per recipient is that activation's primary
        # happened-before cause.
        inboxes: Dict[Hashable, Inbox] = {v: [] for v in order}
        cause_now: Dict[Hashable, int] = {}
        delivered = 0
        for sender, message, recipients, index in self._calendar.pop(now, ()):
            arrival = (sender, message)
            for recipient in recipients:
                inboxes[recipient].append(arrival)
                cause_now[recipient] = index
                index += 1
            delivered += len(recipients)
        self._in_flight -= delivered
        sent_before = len(transmissions)
        decisions = trace.decisions
        undecided = self._undecided
        outboxes: list[tuple[Hashable, list, Optional[str], Optional[int]]] = []
        for node in order:
            outbox: list = []
            ci = cause_now.get(node)
            ck = (
                CAUSE_DELIVERY
                if ci is not None
                else (CAUSE_INPUT if now == 1 else CAUSE_TIMER)
            )
            ctx = Context(
                node, graph, now, channel, inboxes[node], outbox,
                now, metrics, ck, ci,
            )
            protocols[node].on_round(ctx)
            if node in undecided:
                value = protocols[node].output()
                if value is not None:
                    undecided.discard(node)
                    decisions.append(Decision(node, value, now, ck, ci))
            outboxes.append((node, outbox, ck, ci))
        schedule = self.scheduler.schedule
        calendar = self._calendar
        sorted_neighbors = graph.sorted_neighbors
        send_seq = self._send_seq
        queued = 0
        for node, outbox, ck, ci in outboxes:
            if not outbox:
                continue
            nbrs = sorted_neighbors(node)
            for out in outbox:
                message = out.message
                target = out.target
                recipients = (
                    nbrs
                    if target is None
                    else self._resolve_recipients(node, target)
                )
                times = schedule(
                    SendEvent(send_seq, now, node, message, target, recipients)
                )
                send_seq += 1
                send_index = len(transmissions)
                transmissions.append(
                    Transmission(
                        now, node, message, target, recipients, now, ck, ci
                    )
                )
                if not recipients:
                    continue
                if min(times) <= now:
                    i = next(i for i, when in enumerate(times) if when <= now)
                    raise SchedulingError(
                        f"{self.scheduler.name}: delivery at {times[i]} not "
                        f"after send at {now} ({node!r} -> {recipients[i]!r})"
                    )
                index = len(deliveries)
                for recipient, when in zip(recipients, times):
                    deliveries.append(
                        Delivery(send_index, node, recipient, message, now, when)
                    )
                when = times[0]
                if times.count(when) == len(times):
                    calendar.setdefault(when, []).append(
                        (node, message, recipients, index)
                    )
                else:
                    for recipient, when in zip(recipients, times):
                        calendar.setdefault(when, []).append(
                            (node, message, (recipient,), index)
                        )
                        index += 1
                queued += len(recipients)
        self._send_seq = send_seq
        self._in_flight += queued
        if trace.rounds < now:
            trace.rounds = now
        self._observe_tick(delivered, len(transmissions) - sent_before)

    @property
    def in_flight(self) -> int:
        """Deliveries scheduled but not yet drained (maintained by
        :meth:`step`, so the runner's stall check costs no re-count)."""
        return self._in_flight
