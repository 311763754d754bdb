"""Charge a cProfile run's self time and calls to the library's layers.

A layer is a module of ``src/repro`` (or, for ``net.sched`` and ``obs``,
a package).  Self time spent in code that belongs to no layer —
builtins such as ``hash`` and ``dict.setdefault``, the ``<string>``
``__hash__``/``__eq__`` methods that frozen dataclasses generate, and
stdlib helpers — is charged to whatever called it, split in proportion
to the time each caller edge accounts for (pstats records per-caller
totals).  Time that no chain of callers leads back to a layer stays
``unattributed``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: The named layers, in report order.
LAYERS = (
    "net.sched",
    "net.simulator",
    "net.trace",
    "net.adversary",
    "consensus.flooding",
    "consensus.reliable",
    "consensus.path_oracle",
    "consensus.algorithm1",
    "consensus.algorithm2",
    "consensus.async_alg",
    "consensus.runner",
    "consensus.conditions",
    "graphs.connectivity",
    "graphs.graph",
    "obs",
)

#: Helper modules folded into the layer whose data structure they serve.
FOLDED = {
    "net.node": "net.simulator",  # Protocol/Context: the engine's node API
    "net.channels": "net.simulator",
    "net.messages": "net.simulator",
    "net.adversary2": "net.adversary",
    "consensus.path_engine": "consensus.flooding",
    "graphs.index": "graphs.graph",
    "graphs.families": "graphs.graph",
    "graphs.paths": "graphs.connectivity",
    "graphs.cuts": "graphs.connectivity",
}

UNATTRIBUTED = "unattributed"

FuncKey = Tuple[str, int, str]


def module_layer(filename: str, package_root: str) -> "str | None":
    """The layer a source file belongs to, or ``None`` outside the library."""
    if not filename.startswith(package_root + os.sep):
        return None
    rel = os.path.splitext(filename[len(package_root) + 1 :])[0]
    module = rel.replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    for prefix, layer in FOLDED.items():
        if module == prefix:
            return layer
    return None


def attribute(stats: dict, package_root: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from a ``pstats.Stats(...).stats`` dict.

    ``calls`` counts calls into a layer's functions from any caller that
    is not itself charged to that layer: the traffic across the layer's
    entry points.
    """
    own: Dict[FuncKey, "str | None"] = {
        key: module_layer(key[0], package_root) for key in stats
    }
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def resolve(key: FuncKey, active: frozenset) -> "Dict[str, float] | None":
        """Fractions of ``key``'s self time charged to each layer.

        ``None`` when every caller chain of ``key`` only leads back into
        ``active`` (the recursion of nested dataclass hashing, say): such
        an edge carries no information about where the time belongs.
        """
        if own[key] is not None:
            return {own[key]: 1.0}
        if key in shares:
            return shares[key]
        inner = active | {key}
        resolved = []
        for caller in sorted(stats[key][4]):
            if caller in active or caller not in stats:
                continue
            fractions = resolve(caller, inner)
            if fractions is not None:
                edge = stats[key][4][caller]
                resolved.append((edge[2], edge[1], fractions))
        # Weight callers by the self time their edges account for; when
        # no edge recorded any (too fast to register), by call counts.
        use = 0 if sum(r[0] for r in resolved) > 0 else 1
        total = sum(r[use] for r in resolved)
        if total <= 0:
            result = None if active else {UNATTRIBUTED: 1.0}
        else:
            result = {}
            for entry in resolved:
                for layer, frac in entry[2].items():
                    result[layer] = result.get(layer, 0.0) + entry[use] / total * frac
        if not active:
            # Only memoize results computed without a cycle cut-off.
            shares[key] = result
        return result

    def dominant(key: FuncKey) -> str:
        fractions = resolve(key, frozenset())
        return max(sorted(fractions), key=lambda layer: fractions[layer])

    report = {
        layer: {"self_s": 0.0, "calls": 0}
        for layer in LAYERS + (UNATTRIBUTED,)
    }
    for key in sorted(stats):
        tt = stats[key][2]
        if tt > 0:
            for layer, frac in resolve(key, frozenset()).items():
                report[layer]["self_s"] += tt * frac
        layer = own[key]
        if layer is None:
            continue
        for caller, edge in stats[key][4].items():
            if caller not in stats or dominant(caller) != layer:
                report[layer]["calls"] += edge[1]
    return report
