"""Re-execute flight recordings and verify byte-identity.

A :class:`~repro.obs.FlightRecord` header carries a *recipe*, not
pickled objects: the graph as an adjacency list, the honest factory as
its ``flight_spec()`` dict, the adversary by battery name, the scheduler
as its frozen spec fields, and the resolved round budget.  This module
owns the inverse direction — rebuilding live objects from that recipe
and running :func:`~repro.consensus.runner.run_consensus` again with
``flight=True``, so the replay produces a second recording that can be
byte-compared with the first.  Recipes instead of pickles keep flight
blobs worker-count-invariant (pickled oracles embed cache warmth) and
keep the file format inspectable and diffable.

Every library protocol runs under one
:class:`~repro.consensus.factory.ProtocolFactory`, whose spec is
``{"kind": ..., "f": ..., **params}``; one ``kind → protocol class``
table (:data:`PROTOCOLS`) rebuilds them all.  Only the synchronizer
wrapper carries its own recipe.

``replay_flight`` is the determinism audit in one call: *any* byte of
divergence between the original and the re-execution — one message, one
timestamp, one cause link — is a reproducibility bug, and the first
differing line localizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from ..consensus.ablation import AblatedExactConsensus
from ..consensus.algorithm1 import Algorithm1Protocol
from ..consensus.algorithm2 import Algorithm2Protocol
from ..consensus.algorithm3 import Algorithm3Protocol
from ..consensus.async_alg import AsyncConsensusProtocol
from ..consensus.baselines import DolevEIGProtocol, EIGProtocol
from ..consensus.factory import ProtocolFactory
from ..consensus.runner import ConsensusResult, run_consensus
from ..consensus.synchronizer import SynchronizedFactory
from ..graphs import Digraph, Graph
from ..net import EquivocatingAdversary
from ..net.adversary import Adversary, CrashAdversary, standard_adversaries
from ..net.channels import ChannelModel
from ..net.sched import SchedulerSpec
from ..obs import FlightRecord, FlightReplayError, decode_label


def graph_from_flight(header: dict) -> Graph:
    """Rebuild the run's graph from the header's node/edge lists.

    Headers carrying ``"directed": true`` reconstruct a :class:`Digraph`
    whose edge list is read as ordered arcs; legacy headers (no flag)
    reconstruct the symmetric :class:`Graph` exactly as before.
    """
    spec = header.get("graph") or {}
    nodes = [decode_label(enc) for enc in spec.get("nodes", [])]
    edges = [
        (decode_label(u), decode_label(v)) for u, v in spec.get("edges", [])
    ]
    if spec.get("directed"):
        return Digraph(nodes, edges)
    return Graph(nodes, edges)


#: ``flight_spec()["kind"]`` → the protocol class a
#: :class:`~repro.consensus.factory.ProtocolFactory` was built around.
PROTOCOLS = {
    cls.kind: cls
    for cls in (
        Algorithm1Protocol,
        Algorithm2Protocol,
        Algorithm3Protocol,
        AsyncConsensusProtocol,
        EIGProtocol,
        DolevEIGProtocol,
        AblatedExactConsensus,
    )
}


def factory_from_flight(graph: Graph, spec: dict):
    """Rebuild the honest-protocol factory from its ``flight_spec()``."""
    kind = spec.get("kind")
    if kind in PROTOCOLS:
        params = {k: spec[k] for k in sorted(spec) if k not in ("kind", "f")}
        return ProtocolFactory(PROTOCOLS[kind], graph, spec["f"], **params)
    if kind == "synchronized":
        return SynchronizedFactory(
            factory_from_flight(graph, spec["inner"]),
            window=spec["window"],
            mode=spec["mode"],
            f=spec["f"],
            ack_timeout=spec["ack_timeout"],
        )
    if kind == "opaque":
        raise FlightReplayError(
            f"factory {spec.get('name', '?')} was recorded without a "
            "flight_spec(); the flight is analyzable but not replayable"
        )
    raise FlightReplayError(f"unknown factory kind {kind!r}")


def adversary_from_flight(spec: Optional[dict]) -> Optional[Adversary]:
    """Rebuild the adversary by battery name (plus recorded knobs)."""
    if spec is None:
        return None
    name = spec["name"]
    if name == "crash" and spec.get("crash_round") is not None:
        return CrashAdversary(spec["crash_round"])
    seed = spec.get("seed")
    battery: List[Adversary] = standard_adversaries(
        seed if seed is not None else 7
    )
    battery.append(EquivocatingAdversary())
    for adversary in battery:
        if adversary.name == name:
            return adversary
    raise FlightReplayError(
        f"no adversary named {name!r} in the standard battery"
    )


def channel_from_flight(spec: dict) -> ChannelModel:
    return ChannelModel(
        spec["kind"],
        frozenset(decode_label(enc) for enc in spec.get("equivocators", [])),
    )


def scheduler_from_flight(spec: Optional[dict]) -> Optional[SchedulerSpec]:
    return None if spec is None else SchedulerSpec(**spec)


@dataclass
class ReplayOutcome:
    """The verdict of one replay: the re-run, its recording, and whether
    the recording matches the original byte for byte."""

    result: ConsensusResult
    record: FlightRecord
    identical: bool
    #: First divergence, as ``line N: <original> != <replayed>`` — the
    #: forensic entry point when ``identical`` is False.
    diff: Optional[str] = None


def replay_flight(record: FlightRecord) -> ReplayOutcome:
    """Re-execute a recording and byte-compare the new flight to it.

    Raises :class:`~repro.obs.FlightReplayError` when the recording is
    not replayable (opaque factory, display-only labels, unknown
    adversary).  Otherwise the run itself always completes; a
    non-identical outcome is reported, not raised — disagreement between
    record and replay is a *finding*.
    """
    header = record.header
    graph = graph_from_flight(header)
    factory = factory_from_flight(graph, header.get("factory") or {})
    inputs: Dict[Hashable, int] = {
        decode_label(enc): value for enc, value in header.get("inputs", [])
    }
    result = run_consensus(
        graph,
        factory,
        inputs,
        f=header["f"],
        faulty=[decode_label(enc) for enc in header.get("faulty", [])],
        adversary=adversary_from_flight(header.get("adversary")),
        channel=channel_from_flight(header.get("channel") or {}),
        scheduler=scheduler_from_flight(header.get("scheduler")),
        max_rounds=header["max_rounds"],
        metrics=bool(header.get("metered")),
        flight=True,
        run_spec=header.get("spec") or None,
    )
    assert result.flight is not None
    original = record.to_ndjson()
    replayed = result.flight.to_ndjson()
    diff = None
    if original != replayed:
        diff = _first_divergence(original, replayed)
    return ReplayOutcome(
        result=result,
        record=result.flight,
        identical=original == replayed,
        diff=diff,
    )


def _first_divergence(original: str, replayed: str) -> str:
    a_lines, b_lines = original.splitlines(), replayed.splitlines()
    for i, (a, b) in enumerate(zip(a_lines, b_lines)):
        if a != b:
            return f"line {i + 1}: {a[:120]!r} != {b[:120]!r}"
    return (
        f"line counts differ: {len(a_lines)} recorded vs "
        f"{len(b_lines)} replayed"
    )
