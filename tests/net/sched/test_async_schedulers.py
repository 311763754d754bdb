"""Asynchronous schedulers: determinism, physics constraints, adversary.

The seeded scheduler must be a pure function of its seed (identical
traces and decisions across repeated runs); every scheduler must respect
causality, the delay bound, and FIFO per link; the adversarial scheduler
must additionally keep broadcasts atomic in time and actually stretch
cut-straddling traffic.
"""

from collections import defaultdict

import pytest

from repro.consensus import algorithm1_factory, run_consensus
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a
from repro.net import (
    AdversarialScheduler,
    EventDrivenNetwork,
    LockstepScheduler,
    Protocol,
    SchedulerSpec,
    SchedulingError,
    SeededAsyncScheduler,
    TamperForwardAdversary,
    point_to_point_model,
)
from repro.net.sched import parse_scheduler


class Echo(Protocol):
    def __init__(self, tag):
        self.tag = tag
        self.heard = []

    def on_round(self, ctx):
        self.heard.append(list(ctx.inbox))
        if ctx.round_no <= 4:
            ctx.broadcast((self.tag, ctx.round_no))

    def output(self):
        return None


def run_network(graph, scheduler, rounds=10):
    net = EventDrivenNetwork(graph, {v: Echo(v) for v in graph.nodes}, scheduler)
    net.run(rounds)
    return net


def assert_physics(trace, max_delay):
    """Causality, bounded delay, FIFO per directed link."""
    for d in trace.deliveries:
        assert d.sent_at < d.delivered_at <= d.sent_at + max_delay
    per_link = defaultdict(list)
    for d in trace.deliveries:
        per_link[(d.sender, d.recipient)].append(d.delivered_at)
    for times in per_link.values():
        assert times == sorted(times)  # deliveries never overtake (FIFO)


class TestSeededAsync:
    def test_identical_traces_across_repeated_runs(self):
        g = cycle_graph(5)
        a = run_network(g, SeededAsyncScheduler(seed=11, max_delay=3))
        b = run_network(g, SeededAsyncScheduler(seed=11, max_delay=3))
        assert a.trace.transmissions == b.trace.transmissions
        assert a.trace.deliveries == b.trace.deliveries
        for v in g.nodes:
            assert a.protocols[v].heard == b.protocols[v].heard

    def test_different_seeds_differ(self):
        g = cycle_graph(5)
        a = run_network(g, SeededAsyncScheduler(seed=1, max_delay=4))
        b = run_network(g, SeededAsyncScheduler(seed=2, max_delay=4))
        assert a.trace.deliveries != b.trace.deliveries

    @pytest.mark.parametrize("max_delay", [1, 2, 4])
    def test_physics_constraints(self, max_delay):
        g = paper_figure_1a()
        net = run_network(g, SeededAsyncScheduler(seed=3, max_delay=max_delay))
        assert_physics(net.trace, max_delay)

    def test_max_delay_one_is_lockstep(self):
        g = cycle_graph(4)
        seeded = run_network(g, SeededAsyncScheduler(seed=9, max_delay=1))
        lock = run_network(g, LockstepScheduler())
        assert seeded.trace.deliveries == lock.trace.deliveries

    def test_scheduler_is_reusable_after_rebind(self):
        """bind() resets all per-run state, so one instance replays."""
        g = cycle_graph(4)
        scheduler = SeededAsyncScheduler(seed=5, max_delay=3)
        a = run_network(g, scheduler)
        b = run_network(g, scheduler)
        assert a.trace.deliveries == b.trace.deliveries

    def test_invalid_max_delay(self):
        with pytest.raises(ValueError):
            SeededAsyncScheduler(seed=0, max_delay=0)


class TestAdversarial:
    def test_broadcast_atomicity(self):
        g = paper_figure_1a()
        net = run_network(g, AdversarialScheduler(max_delay=4))
        instants = defaultdict(set)
        for d in net.trace.deliveries:
            instants[d.send_index].add(d.delivered_at)
        assert instants and all(len(s) == 1 for s in instants.values())

    def test_physics_constraints(self):
        g = paper_figure_1a()
        net = run_network(g, AdversarialScheduler(max_delay=5))
        assert_physics(net.trace, 5)

    def test_cut_straddling_traffic_is_stretched(self):
        g = paper_figure_1a()  # 5-cycle: every min cut is 2 non-adjacent nodes
        net = run_network(g, AdversarialScheduler(max_delay=4))
        assert net.trace.max_latency == 4

    def test_deterministic_across_runs(self):
        g = complete_graph(4)  # exercises the no-cut fallback split
        a = run_network(g, AdversarialScheduler(max_delay=3))
        b = run_network(g, AdversarialScheduler(max_delay=3))
        assert a.trace.deliveries == b.trace.deliveries

    def test_complete_graph_fallback_still_delays_something(self):
        g = complete_graph(5)
        net = run_network(g, AdversarialScheduler(max_delay=3))
        assert net.trace.max_latency == 3

    def test_disconnected_graph_partitions_by_component(self):
        """Two disjoint triangles: the old half-split of the global node
        order cut *through* a component based on phantom cross-component
        deliveries.  Each component must get its own bottleneck analysis
        — here each triangle is complete, so each is half-split within
        itself, and no component's labels collide with another's."""
        from repro.graphs import Graph

        g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        side = AdversarialScheduler._partition(g)
        left = {side[v] for v in (0, 1, 2)}
        right = {side[v] for v in (3, 4, 5)}
        assert left.isdisjoint(right)  # labels never leak across components
        # Each complete triangle is half-split internally (2 sides), so
        # the adversary still stretches something within every component.
        assert len(left) == 2 and len(right) == 2
        scheduler = AdversarialScheduler(max_delay=3)
        net = run_network(g, scheduler)
        delays = {d.delivered_at - d.sent_at for d in net.trace.deliveries}
        assert 3 in delays  # intra-component stretching survives the fix

    def test_connected_graph_partition_unchanged(self):
        """The component fix must not disturb connected-graph behavior."""
        g = paper_figure_1a()
        side = AdversarialScheduler._partition(g)
        assert set(side) == set(g.nodes)
        assert -1 in side.values()  # a real cut still labels boundaries

    def test_window_targeting_lands_on_alpha_boundaries(self):
        """With ``window=W``, every stretched delivery arrives exactly on
        an α-schedule activation tick ``(r − 1)·W + 1``."""
        g = paper_figure_1a()
        window = 3
        net = run_network(g, AdversarialScheduler(max_delay=3, window=window))
        stretched = [d for d in net.trace.deliveries
                     if d.delivered_at - d.sent_at > 1]
        assert stretched
        for d in stretched:
            assert (d.delivered_at - 1) % window == 0, d
        assert_physics(net.trace, 3)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AdversarialScheduler(max_delay=3, window=4)
        with pytest.raises(ValueError):
            AdversarialScheduler(max_delay=3, window=0)


class TestUnboundedDeclaration:
    def test_same_physics_without_the_promise(self):
        """declare_bound=False changes declarations, never delays."""
        g = cycle_graph(5)
        declared = run_network(g, SeededAsyncScheduler(seed=11, max_delay=3))
        undeclared = run_network(
            g, SeededAsyncScheduler(seed=11, max_delay=3, declare_bound=False)
        )
        assert undeclared.trace.deliveries == declared.trace.deliveries

    def test_scheduler_contract(self):
        s = SeededAsyncScheduler(seed=0, max_delay=3, declare_bound=False)
        assert not s.bounded
        assert s.worst_case_delay is None
        a = AdversarialScheduler(max_delay=3, declare_bound=False)
        assert not a.bounded and a.worst_case_delay is None

    def test_spec_round_trip(self):
        spec = SchedulerSpec("adversarial", max_delay=3, unbounded=True,
                             window=2)
        assert spec.name == "adversarial-unbounded"
        assert not spec.bounded
        built = spec.build(cycle_graph(4))
        assert not built.bounded
        assert built.window == 2
        parsed = parse_scheduler("seeded-async", seed=1, max_delay=3,
                                 unbounded=True, window=2)
        assert parsed.unbounded
        assert parsed.window == 0  # window only decorates the adversarial kind
        with pytest.raises(ValueError):
            SchedulerSpec("adversarial", max_delay=3, window=5)


class TestSchedulerErrors:
    def test_zero_delay_is_rejected(self):
        class Cheater(LockstepScheduler):
            def delays(self, send):
                return [0] * len(send.recipients)

        g = cycle_graph(4)
        with pytest.raises(SchedulingError):
            run_network(g, Cheater(), rounds=2)

    def test_delay_above_declared_bound_is_rejected(self):
        class Overshoot(SeededAsyncScheduler):
            def delays(self, send):
                return [self.max_delay + 1] * len(send.recipients)

        with pytest.raises(SchedulingError, match="worst-case bound 2"):
            run_network(cycle_graph(4), Overshoot(seed=0, max_delay=2), rounds=2)

    def test_undeclared_bound_admits_long_delays(self):
        class Slow(SeededAsyncScheduler):
            def delays(self, send):
                return [self.max_delay + 5] * len(send.recipients)

        net = run_network(
            cycle_graph(4), Slow(seed=0, max_delay=2, declare_bound=False)
        )
        assert net.trace.max_latency == 7

    def test_misaligned_delays_are_rejected(self):
        class Short(LockstepScheduler):
            def delays(self, send):
                return [1] * (len(send.recipients) - 1)

        with pytest.raises(SchedulingError, match="2 delays for the 3 recipients"):
            run_network(complete_graph(4), Short(), rounds=2)

    def test_zero_delay_on_last_recipient_is_rejected_and_named(self):
        """Validation is batched per send, so a bad delay anywhere in the
        recipient tuple — not just the first — must still be caught, and
        the error must name the recipient it belongs to."""

        class LastZero(LockstepScheduler):
            def delays(self, send):
                return [0 if r == send.recipients[-1] else 1 for r in send.recipients]

        class LastTwo(LockstepScheduler):
            # Not every delay is 1, so the unit-bound exit must fall
            # through to the bound check instead of returning.
            def delays(self, send):
                return [2 if r == send.recipients[-1] else 1 for r in send.recipients]

        g = complete_graph(4)  # node 0 broadcasts first, to (1, 2, 3)
        with pytest.raises(SchedulingError, match=r"delay 0 < 1 for 0 -> 3$"):
            run_network(g, LastZero(), rounds=2)
        with pytest.raises(
            SchedulingError,
            match=r"delay 2 exceeds the declared worst-case bound 1 for 0 -> 3$",
        ):
            run_network(g, LastTwo(), rounds=2)


class Chatter(Protocol):
    """Broadcasts on ticks 1-4, unicasts to its last neighbor on odd
    ones among them (under point-to-point channels), then falls silent."""

    def __init__(self, node, graph):
        self.peer = graph.sorted_neighbors(node)[-1]

    def on_round(self, ctx):
        if ctx.round_no <= 4:
            ctx.broadcast(("b", ctx.round_no))
            if ctx.round_no % 2:
                ctx.send(self.peer, ("u", ctx.round_no))

    def output(self):
        return None


ENGINES = {
    "lockstep": lambda g, p, c: EventDrivenNetwork(g, p, LockstepScheduler(), c),
    "seeded-async": lambda g, p, c: EventDrivenNetwork(
        g, p, SeededAsyncScheduler(seed=4, max_delay=3), c
    ),
    "adversarial": lambda g, p, c: EventDrivenNetwork(
        g, p, AdversarialScheduler(max_delay=3), c
    ),
}


class TestInFlight:
    """``in_flight`` is a maintained counter, not a re-count; the
    runner's stall detection (``net.in_flight == 0``) trusts it."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_counts_exactly_the_undelivered(self, engine):
        g = paper_figure_1a()
        protocols = {v: Chatter(v, g) for v in g.nodes}
        net = ENGINES[engine](g, protocols, point_to_point_model())
        assert net.in_flight == 0
        peak = 0
        for _ in range(10):
            net.step()
            pending = sum(
                1 for d in net.trace.deliveries if d.delivered_at > net.round_no
            )
            assert net.in_flight == pending
            peak = max(peak, pending)
        assert peak > 0
        assert net.in_flight == 0  # silent since tick 4, delays ≤ 3


class TestSchedulerSpec:
    def test_build_kinds(self):
        g = cycle_graph(4)
        assert isinstance(SchedulerSpec("lockstep").build(g), LockstepScheduler)
        seeded = SchedulerSpec("seeded-async", seed=7, max_delay=5).build(g)
        assert isinstance(seeded, SeededAsyncScheduler)
        assert (seeded.seed, seeded.max_delay) == (7, 5)
        adv = SchedulerSpec("adversarial", max_delay=2).build(g)
        assert isinstance(adv, AdversarialScheduler)
        assert adv.max_delay == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SchedulerSpec("chrono")

    def test_parse_scheduler(self):
        assert parse_scheduler("sync") is None
        assert parse_scheduler("") is None
        spec = parse_scheduler("seeded-async", seed=3, max_delay=2)
        assert spec == SchedulerSpec("seeded-async", seed=3, max_delay=2)

    def test_specs_are_picklable_and_hashable(self):
        import pickle

        spec = SchedulerSpec("adversarial", max_delay=4)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, SchedulerSpec("adversarial", max_delay=4)}) == 1


class TestRunnerIntegration:
    def test_seeded_run_consensus_is_deterministic(self):
        g = paper_figure_1a()
        spec = SchedulerSpec("seeded-async", seed=13, max_delay=3)
        inputs = {v: v % 2 for v in g.nodes}

        def once():
            return run_consensus(
                g,
                algorithm1_factory(g, 1),
                inputs,
                f=1,
                faulty=[2],
                adversary=TamperForwardAdversary(),
                scheduler=spec,
            )

        a, b = once(), once()
        assert a.trace.transmissions == b.trace.transmissions
        assert a.trace.deliveries == b.trace.deliveries
        assert a.outputs == b.outputs
        assert (a.consensus, a.agreement, a.validity, a.decision) == (
            b.consensus,
            b.agreement,
            b.validity,
            b.decision,
        )
