"""The one honest-protocol factory: ``(node, input) → protocol``.

Every protocol the runner drives is built from a graph, a fault bound
``f`` and a few keyword parameters.  The protocol class declares its
flight-recorder ``kind`` (the key replay looks up) and whether its
instances share one :class:`~repro.consensus.path_oracle.PathOracle`
(``shares_oracle``), so pruned graphs, BFS trees and disjoint-path
families are computed once per graph rather than once per node.

The factory is a plain module-level class, so the parallel sweep engine
can ship it to worker processes; default pickling carries the warm
oracle, whose ``__reduce__`` ships only its structural memos.
"""

from __future__ import annotations

from typing import Hashable, Optional, Type

from ..graphs import Graph
from ..net.node import Protocol
from .path_oracle import PathOracle


class ProtocolFactory:
    """Picklable ``(node, input) → protocol(graph, node, f, input, **params)``."""

    def __init__(self, protocol: Type[Protocol], graph: Graph, f: int, **params):
        self.protocol = protocol
        self.graph = graph
        self.f = f
        self.params = params
        self.oracle: Optional[PathOracle] = (
            PathOracle(graph) if protocol.shares_oracle else None
        )

    def __call__(self, node: Hashable, input_value: int) -> Protocol:
        shared = {"oracle": self.oracle} if self.oracle is not None else {}
        return self.protocol(
            self.graph, node, self.f, input_value=input_value,
            **shared, **self.params,
        )

    def flight_spec(self) -> dict:
        """JSON-ready recipe for the flight recorder; the graph travels
        separately in the flight header."""
        return {"kind": self.protocol.kind, "f": self.f, **self.params}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProtocolFactory({self.protocol.kind}, n={self.graph.n}, f={self.f})"
