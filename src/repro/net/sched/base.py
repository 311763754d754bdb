"""The network engine and the pluggable :class:`Scheduler` API.

The paper's synchronous model (Section 3) is one point in a space of
timing assumptions; the authors' follow-up work ("Asynchronous Byzantine
Consensus on Undirected Graphs under Local Broadcast Model",
arXiv:1909.02865) shows the local-broadcast story survives asynchrony.
This module makes message *timing* a first-class, pluggable axis of one
engine:

* :class:`EventDrivenNetwork` runs per-node
  :class:`~repro.net.node.Protocol` state machines on a calendar of
  virtual ticks; every delivery gets a timestamp drawn from a
  :class:`Scheduler`.  Under the
  :class:`~repro.net.sched.LockstepScheduler` (unit delays) it *is* the
  synchronous round simulator of Section 3;
* a :class:`Scheduler` assigns each recipient of a transmission a
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

Virtual time is integral.  Activations happen at ticks 1, 2, 3, …; the
synchronous model's "next round" rule is the ``delay = 1`` case.

Determinism contract: the engine activates nodes in repr-sorted order,
keeps pending deliveries in a calendar of per-tick buckets drained in
send order, and hands schedulers their recipients in canonical order —
so a run is a pure function of (graph, protocols, channel, scheduler),
independent of ``PYTHONHASHSEED`` and of any executor's process layout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ...graphs import Graph
from ...obs import NULL_METRICS, MetricsRegistry
from ..channels import ChannelModel, local_broadcast_model
from ..node import Context, Inbox, Protocol
from ..trace import (
    CAUSE_DELIVERY,
    CAUSE_INPUT,
    CAUSE_TIMER,
    Decision,
    Delivery,
    Trace,
    Transmission,
)


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (missing protocols, bad config)."""


class SchedulingError(RuntimeError):
    """A scheduler produced a physically impossible delivery time."""


class Scheduler(ABC):
    """Assigns virtual delivery timestamps to transmissions.

    Subclasses implement :meth:`delays` — the raw latencies (≥ 1 ticks)
    of one send, one per recipient — and may set
    :attr:`atomic_broadcast` to force all recipients of a broadcast onto
    one shared instant.  :meth:`schedule` (final) validates the delays
    and applies the FIFO-per-link clamp and the atomicity collapse, so
    no subclass can violate the model's physics.

    Schedulers are single-run objects with per-run state (link clocks,
    RNGs): the engine calls :meth:`bind` once at network construction.
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
        # A declared bound of one tick admits no delay but 1, so every
        # link clock stays at most one tick ahead of the current send.
        self._unit_bound = self.bounded and self.worst_case_delay == 1

    @abstractmethod
    def delays(self, send: Transmission) -> List[int]:
        """Raw latencies (ticks ≥ 1) of ``send``, aligned with
        ``send.recipients`` and drawn in that (canonical) order, so any
        randomness they consume stays replayable."""

    def schedule(self, send: Transmission) -> List[int]:
        """Delivery instants aligned with ``send.recipients``, with all
        constraints applied.

        The ``≥ 1`` and declared-bound checks run once per send, and
        only a failing send pays for locating the recipient it names.
        """
        recipients = send.recipients
        n = len(recipients)
        if not n:
            return []
        delays = self.delays(send)
        if len(delays) != n:
            raise SchedulingError(
                f"{self.name}: {len(delays)} delays for the {n} "
                f"recipients of a send by {send.sender!r}"
            )
        now = send.sent_at
        metrics = self.metrics
        if self._unit_bound and delays.count(1) == n:
            # Every delay this scheduler ever produced is exactly 1 (any
            # other value fails the bound check below), so every link
            # clock is at most ``now + 1``: the FIFO clamp and the
            # atomic collapse are identities, and the clocks are never
            # read.
            if metrics.enabled:
                metrics.observe("sched.delay", 1, n)
            return [now + 1] * n
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
        if metrics.enabled:
            for d in delays:
                metrics.observe("sched.delay", d)
        clock = self._link_clock.get(send.sender)
        if clock is None:
            clock = self._link_clock[send.sender] = {}
        # FIFO per directed link: never undercut the link's latest
        # assigned delivery (ties keep send order in the tick bucket).
        if self.atomic_broadcast and send.target is None:
            when = max(now + max(delays), max(map(clock.get, recipients, repeat(0))))
            clock.update(dict.fromkeys(recipients, when))
            return [when] * n
        high_water = clock.get
        times = []
        for recipient, d in zip(recipients, delays):
            when = now + d
            floor = high_water(recipient, 0)
            times.append(when if when >= floor else floor)
        clock.update(zip(recipients, times))
        return times

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class EventDrivenNetwork:
    """Run per-node protocols on a calendar of ticks with scheduled timing.

    Each tick of virtual time activates every node once (in sorted
    order) with the inbox of everything delivered at that tick; sends
    are timestamped by the scheduler and appended, in send order, to the
    bucket of the tick they land on.  A send whose recipients share one
    instant (lockstep, atomic broadcasts) is one bucket entry carrying
    its recipient tuple; otherwise each recipient gets its own entry.
    Under the lockstep scheduler this is the synchronous round simulator
    of Section 3, while asynchronous schedulers stretch and reorder
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
        missing = graph.nodes - set(protocols)
        if missing:
            raise SimulationError(
                f"no protocol for nodes {sorted(missing, key=repr)}"
            )
        extra = set(protocols) - graph.nodes
        if extra:
            raise SimulationError(
                f"protocols for unknown nodes {sorted(extra, key=repr)}"
            )
        self.graph = graph
        self.protocols: Dict[Hashable, Protocol] = dict(protocols)
        self.channel = channel if channel is not None else local_broadcast_model()
        self.trace = Trace()
        # round_no doubles as the virtual tick of the latest activation.
        self.round_no = 0
        self._order = sorted(graph.nodes, key=repr)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.scheduler = scheduler
        scheduler.bind(graph, self.channel)
        scheduler.metrics = self.metrics
        # Tick -> entries (sender, message, recipients, index of the
        # first recipient's Delivery record), in send order.
        self._calendar: Dict[
            int, List[Tuple[Hashable, object, Tuple[Hashable, ...], int]]
        ] = {}
        self._in_flight = 0
        # Per-tick metric cells, rendered once per engine (cells create
        # no keys until first fired, so binding is snapshot-neutral).
        m = self.metrics
        self._c_ticks = m.counter_cell("net.ticks")
        self._c_deliveries = m.counter_cell("net.deliveries")
        self._c_transmissions = m.counter_cell("net.transmissions")
        self._c_quiescent = m.counter_cell("net.quiescent_ticks")
        self._h_deliveries_per_tick = m.hist_cell("net.deliveries_per_tick")
        self._g_in_flight = m.gauge_cell("net.in_flight.max")
        # Decision instants are part of the trace (the flight recorder's
        # blame analysis anchors on them).  A protocol that is already
        # decided at construction decided on its input alone, before any
        # communication — virtual time 0.
        self._undecided = set(self._order)
        for node in self._order:
            value = self.protocols[node].output()
            if value is not None:
                self._undecided.discard(node)
                self.trace.record_decision(
                    Decision(node, value, 0, CAUSE_INPUT, None)
                )

    @property
    def in_flight(self) -> int:
        """Deliveries scheduled but not yet drained (maintained by
        :meth:`step`, so the runner's stall check costs no re-count)."""
        return self._in_flight

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance virtual time one tick and activate every node.

        The per-message loops use hoisted locals, positional record
        construction (field order is part of the record types' API) and
        direct appends to the trace lists.
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
                send = Transmission(
                    now, node, message, target, recipients, now, ck, ci
                )
                times = schedule(send)
                send_index = len(transmissions)
                transmissions.append(send)
                if not recipients:
                    continue
                index = len(deliveries)
                when = times[0]
                if times.count(when) == len(times):
                    if when <= now:
                        self._reject(now, node, recipients, times)
                    for recipient in recipients:
                        deliveries.append(
                            Delivery(send_index, node, recipient, message, now, when)
                        )
                    calendar.setdefault(when, []).append(
                        (node, message, recipients, index)
                    )
                else:
                    if min(times) <= now:
                        self._reject(now, node, recipients, times)
                    for recipient, when in zip(recipients, times):
                        deliveries.append(
                            Delivery(send_index, node, recipient, message, now, when)
                        )
                        calendar.setdefault(when, []).append(
                            (node, message, (recipient,), index)
                        )
                        index += 1
                queued += len(recipients)
        self._in_flight += queued
        if trace.rounds < now:
            trace.rounds = now
        self._observe_tick(delivered, len(transmissions) - sent_before)

    def _reject(
        self, now: int, node: Hashable, recipients: tuple, times: List[int]
    ) -> None:
        """Raise for the first recipient a send would reach in the past."""
        i = next(i for i, when in enumerate(times) if when <= now)
        raise SchedulingError(
            f"{self.scheduler.name}: delivery at {times[i]} not "
            f"after send at {now} ({node!r} -> {recipients[i]!r})"
        )

    def _observe_tick(self, delivered: int, sent: int) -> None:
        """Per-tick network metrics.

        ``delivered`` counts messages handed to inboxes this tick,
        ``sent`` the transmissions queued by it.
        """
        m = self.metrics
        if not m.enabled:
            return
        in_flight = self._in_flight
        self._c_ticks()
        if delivered:
            self._c_deliveries(delivered)
        if sent:
            self._c_transmissions(sent)
        self._h_deliveries_per_tick(delivered)
        self._g_in_flight(in_flight)
        if delivered == 0 and sent == 0 and in_flight == 0:
            self._c_quiescent()
        if m.events is not None:
            m.emit(
                "tick",
                tick=self.round_no,
                deliveries=delivered,
                sends=sent,
                in_flight=in_flight,
            )

    def _resolve_recipients(
        self, node: Hashable, target: Optional[Hashable]
    ) -> tuple:
        """The realized delivery set of one send, channel-enforced.

        Defense in depth: :meth:`Context.send` already rejects unicasts
        from broadcast-restricted nodes, but a protocol appending to the
        outbox directly must not bypass the channel model either.
        """
        if target is None:
            return self.graph.sorted_neighbors(node)
        if not self.channel.may_unicast(node):
            raise SimulationError(
                f"node {node!r} attempted unicast under "
                f"{self.channel.kind} channel"
            )
        return (target,)

    # ------------------------------------------------------------------
    def run(self, rounds: int) -> Trace:
        """Run exactly ``rounds`` ticks (protocols may finish earlier)."""
        for _ in range(rounds):
            self.step()
        return self.trace

    def run_until_decided(self, max_rounds: int, honest: Optional[set] = None) -> Trace:
        """Run until every (honest) protocol reports ``finished``.

        Raises :class:`SimulationError` if ``max_rounds`` ticks elapse
        first — termination violations surface as errors, not hangs.
        """
        watch = set(honest) if honest is not None else set(self.protocols)
        watched = [self.protocols[v] for v in sorted(watch, key=repr)]
        for _ in range(max_rounds):
            if all(p.finished for p in watched):
                return self.trace
            self.step()
        if all(p.finished for p in watched):
            return self.trace
        undecided = sorted(
            (v for v in watch if not self.protocols[v].finished), key=repr
        )
        raise SimulationError(
            f"nodes {undecided} undecided after {max_rounds} rounds"
        )

    # ------------------------------------------------------------------
    def outputs(self) -> Dict[Hashable, Optional[int]]:
        """Each node's current output (``None`` while undecided)."""
        return {v: self.protocols[v].output() for v in self._order}
