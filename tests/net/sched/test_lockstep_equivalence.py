"""Lockstep timing is the synchronous model, pinned by digest.

The repository once ran synchronous rounds on a separate, hand-written
engine, and the event engine under :class:`LockstepScheduler` was
property-tested to be byte-identical to it.  That engine is gone; its
runs survive as the SHA-256 digests below, recorded from it for every
protocol factory in the library — transmissions, deliveries, decisions,
outputs and the canonical metrics JSON.  Both ``scheduler=None`` (the
runner's synchronous default) and the explicit lockstep spec must keep
reproducing them.
"""

import hashlib
import json

import pytest

from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    dolev_eig_factory,
    eig_factory,
    run_consensus,
)
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a
from repro.net import (
    EventDrivenNetwork,
    LockstepScheduler,
    Protocol,
    SchedulerSpec,
    TamperForwardAdversary,
    hybrid_model,
    point_to_point_model,
)

LOCKSTEP = SchedulerSpec("lockstep")


def digest(*parts):
    """SHA-256 over the reprs of ``parts``, NUL-separated."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_digest(result):
    return digest(
        result.trace.transmissions,
        result.trace.deliveries,
        result.trace.decisions,
        result.outputs,
        json.dumps(result.metrics, sort_keys=True),
    )


#: ``"<case>/<honest|faulty>/<plain|metered>"`` -> :func:`run_digest` of
#: that run on the deleted synchronous engine.
DIGESTS = {
    "algorithm1/faulty/metered": (
        "75d67a0f8c96b0194f9cc8cc69329eca62bf1d47ce26ee715459e2e2b50c5eab"
    ),
    "algorithm1/faulty/plain": (
        "21f8f9531eb1ff4d9117a8a10a103af34f878c8ba6a420fabea927b0bc9c7a09"
    ),
    "algorithm1/honest/metered": (
        "b024ab522550f796da8b4608e6eb32f9732e20fc9e180dfefcff937e0edb2633"
    ),
    "algorithm1/honest/plain": (
        "777022d55a111d93608f9f96344e25e65aa79d4d2ab05510ae6d15ac8ddd80ee"
    ),
    "algorithm2/faulty/metered": (
        "190f361961249caa06c39b6f37d880a24438824b095c4f714786a6cc5b4fd6a1"
    ),
    "algorithm2/faulty/plain": (
        "f28dd189061ad0db483d5df7976ac3b3d9fc8ec78873722c92b748812f0deb67"
    ),
    "algorithm2/honest/metered": (
        "61d2a6ffec1414636b931d58c0192e8528a9ed5d21c4389c07723bddca2958b8"
    ),
    "algorithm2/honest/plain": (
        "da577747d0319ff55b8a3da3fa2edc66029bce6f293558a105d63dad780e6479"
    ),
    "algorithm3/faulty/metered": (
        "317cfd73b11bc32d3732346c9e949785283c05fe2117e5f135b1339cf5035995"
    ),
    "algorithm3/faulty/plain": (
        "7cefeeca7efa0c812b5e469eee971d283118e8ce36ef30e417d9a6e8cecd6d73"
    ),
    "algorithm3/honest/metered": (
        "e8c9c46921940b77f3f705e089a8c94bf903d96db065ab3a292326a5c4db4a8c"
    ),
    "algorithm3/honest/plain": (
        "65d03dd3ce2aa7d538cccccc65225e78a58bb8b9e4cec78d14f274407e674672"
    ),
    "dolev-eig/faulty/metered": (
        "28f322fcdc5c3465d349b7c828674dfec98d7c82d8843359a57914a06bce418e"
    ),
    "dolev-eig/faulty/plain": (
        "334dfbd5bd513ff22b951f4c2c7d90eb721058d3e7510e04c6381f3140bf5b1e"
    ),
    "dolev-eig/honest/metered": (
        "28f322fcdc5c3465d349b7c828674dfec98d7c82d8843359a57914a06bce418e"
    ),
    "dolev-eig/honest/plain": (
        "334dfbd5bd513ff22b951f4c2c7d90eb721058d3e7510e04c6381f3140bf5b1e"
    ),
    "eig/faulty/metered": (
        "34c1cc79ae1393a2f2329252ed78c7cfe5d447f323373505fe85a5bf33fa55fa"
    ),
    "eig/faulty/plain": (
        "10de6ae9210f04586edae81c9797feadd894b8fc0c5bf1f956db1a4ff81369f8"
    ),
    "eig/honest/metered": (
        "34c1cc79ae1393a2f2329252ed78c7cfe5d447f323373505fe85a5bf33fa55fa"
    ),
    "eig/honest/plain": (
        "10de6ae9210f04586edae81c9797feadd894b8fc0c5bf1f956db1a4ff81369f8"
    ),
}

#: :func:`run_digest` of the metered async-algorithm run on wheel:5.
ASYNC_SPANS_DIGEST = (
    "7aaef6939cd54189e7471820905b43f6959c2e7e5cb3d2e537acfa567e2af3d0"
)

#: :func:`digest` of the Chatty cycle:5 run: transmissions, deliveries
#: and every node's per-round inboxes.
CHATTY_DIGEST = (
    "8b72f9a073356f7a5bb59b994d4eb6b9b7c3cfe31e28c91c510db84b7ec589e3"
)


def case_id(case):
    return case[0]


# (name, graph builder, factory builder, channel builder, faulty, adversary)
# — one entry per protocol factory in the library; the paper's three
# algorithms under their native channel models plus both baselines.
CASES = [
    (
        "algorithm1",
        paper_figure_1a,
        lambda g: algorithm1_factory(g, 1),
        lambda g: None,
        [2],
        TamperForwardAdversary(),
    ),
    (
        "algorithm2",
        lambda: cycle_graph(4),
        lambda g: algorithm2_factory(g, 1),
        lambda g: None,
        [1],
        TamperForwardAdversary(),
    ),
    (
        "algorithm3",
        lambda: complete_graph(4),
        lambda g: algorithm3_factory(g, 1, 1),
        lambda g: hybrid_model({0}),
        [0],
        TamperForwardAdversary(),
    ),
    (
        "eig",
        lambda: complete_graph(4),
        lambda g: eig_factory(g, 1),
        lambda g: point_to_point_model(),
        [2],
        TamperForwardAdversary(),
    ),
    (
        "dolev-eig",
        lambda: complete_graph(5),
        lambda g: dolev_eig_factory(g, 1),
        lambda g: point_to_point_model(),
        [3],
        TamperForwardAdversary(),
    ),
]


def run_pair(case, with_fault, metered=False):
    """The same execution under ``None`` and lockstep; returns both."""
    _, graph_builder, factory_builder, channel_builder, faulty, adversary = case
    results = []
    for scheduler in (None, LOCKSTEP):
        graph = graph_builder()
        inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes, key=repr))}
        results.append(
            run_consensus(
                graph,
                factory_builder(graph),
                inputs,
                f=1,
                faulty=faulty if with_fault else [],
                adversary=adversary if with_fault else None,
                channel=channel_builder(graph),
                scheduler=scheduler,
                metrics=metered,
            )
        )
    return results


def recorded(case, with_fault, metered):
    fault = "faulty" if with_fault else "honest"
    return DIGESTS[f"{case[0]}/{fault}/{'metered' if metered else 'plain'}"]


class TestTraceEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=case_id)
    @pytest.mark.parametrize("with_fault", [False, True], ids=["honest", "faulty"])
    def test_byte_identical_traces_and_decisions(self, case, with_fault):
        sync, lockstep = run_pair(case, with_fault)
        expected = recorded(case, with_fault, metered=False)
        assert run_digest(sync) == expected
        assert run_digest(lockstep) == expected
        assert repr(lockstep.trace) == repr(sync.trace)
        assert lockstep.rounds == sync.rounds
        assert (lockstep.consensus, lockstep.agreement, lockstep.validity) == (
            sync.consensus,
            sync.agreement,
            sync.validity,
        )

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_lockstep_latency_is_always_one(self, case):
        _, lockstep = run_pair(case, with_fault=True)
        assert lockstep.trace.max_latency == 1
        assert all(
            d.delivered_at == d.sent_at + 1 for d in lockstep.trace.deliveries
        )


class TestMetricEquivalence:
    """The canonical metric snapshot — counters, gauges, histograms,
    spans — is part of each pinned digest, tick for tick.  (The deleted
    engine observed ``sched.delay = 1`` per delivery because it was the
    unit-delay scheduler, so even the delay histograms are pinned.)
    """

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    @pytest.mark.parametrize(
        "with_fault", [False, True], ids=["honest", "faulty"]
    )
    def test_metric_snapshots_identical(self, case, with_fault):
        sync, lockstep = run_pair(case, with_fault, metered=True)
        assert sync.metrics is not None
        assert sync.metrics["counters"]  # instrumentation actually fired
        expected = recorded(case, with_fault, metered=True)
        assert run_digest(sync) == expected
        assert run_digest(lockstep) == expected

    def test_async_spans_identical_across_engines(self):
        from repro.consensus import async_factory
        from repro.graphs import wheel_graph

        graph = wheel_graph(5)
        inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes))}
        results = []
        for scheduler in (None, LOCKSTEP):
            results.append(
                run_consensus(
                    graph,
                    async_factory(graph, 1),
                    inputs,
                    f=1,
                    scheduler=scheduler,
                    metrics=True,
                )
            )
        sync, lockstep = results
        assert sync.consensus and lockstep.consensus
        # The per-origin flood→vote→decide spans are virtual-time
        # content, anchored to the same ticks as on the deleted engine.
        names = {span["name"] for span in sync.metrics["spans"]}
        assert {"async.flood", "async.vote", "async.decide"} <= names
        expected = ASYNC_SPANS_DIGEST
        assert run_digest(sync) == expected
        assert run_digest(lockstep) == expected


class TestRawNetworkEquivalence:
    """Engine-level pins, independent of the consensus runner."""

    class Chatty(Protocol):
        def __init__(self, tag):
            self.tag = tag
            self.heard = []

        def on_round(self, ctx):
            self.heard.append(list(ctx.inbox))
            ctx.broadcast((self.tag, ctx.round_no))
            if ctx.round_no == 2:
                ctx.broadcast((self.tag, "extra"))

        def output(self):
            return None

    def test_multi_message_fifo_equality(self):
        g = cycle_graph(5)
        ev = EventDrivenNetwork(
            g, {v: self.Chatty(v) for v in g.nodes}, LockstepScheduler()
        )
        ev.run(4)
        heard = [ev.protocols[v].heard for v in sorted(g.nodes)]
        assert digest(ev.trace.transmissions, ev.trace.deliveries, heard) == (
            CHATTY_DIGEST
        )

    def test_context_carries_virtual_now(self):
        g = cycle_graph(4)

        class Probe(Protocol):
            def __init__(self):
                self.nows = []

            def on_round(self, ctx):
                self.nows.append((ctx.round_no, ctx.virtual_now))

            def output(self):
                return None

        probe = Probe()
        protocols = {v: (probe if v == 0 else Probe()) for v in g.nodes}
        EventDrivenNetwork(g, protocols, LockstepScheduler()).run(3)
        assert probe.nows == [(1, 1), (2, 2), (3, 3)]
