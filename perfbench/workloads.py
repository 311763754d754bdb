"""The four benchmark workloads, built only from the library's public API.

Each workload is one *pass*: a fixed, seed-derived list of operations.
``run(i)`` executes operation ``i`` and returns its output; ``failure(i,
out)`` returns ``None`` when that output is correct and a one-line reason
otherwise; ``stratum(i)`` names the cluster operation ``i``'s latency
belongs to (its adversary, or its graph family).  ``begin_pass()``
prepares a fresh pass outside the timed region (the verdict workload
rebuilds its graphs there so every pass measures cold connectivity).

No ``repro`` module is imported at module level: ``run.py`` times the
import as part of set-up.
"""

from __future__ import annotations

import random

#: Fault bound of the three sweeps (wheel:6 is feasible for f = 1 under
#: every algorithm swept here).
SWEEP_F = 1
SWEEP_GRAPH_SIZE = 6


class SweepWorkload:
    """One algorithm × timing model over the full wheel:6 sweep battery.

    An operation is one ``run_consensus`` call for one sweep task
    (fault placement × adversary × input pattern); a pass is the whole
    168-task work-list, executed serially in canonical order.
    """

    def __init__(self, algorithm: str, scheduler: str, seed: int):
        from repro.analysis import input_patterns, sweep_tasks
        from repro.consensus import (
            algorithm1_factory,
            algorithm2_factory,
            async_factory,
            run_consensus,
        )
        from repro.graphs import wheel_graph
        from repro.net import SchedulerSpec, standard_adversaries

        builders = {
            "1": algorithm1_factory,
            "2": algorithm2_factory,
            "async": async_factory,
        }
        self._run_consensus = run_consensus
        self.graph = wheel_graph(SWEEP_GRAPH_SIZE)
        self.factory = builders[algorithm](self.graph, SWEEP_F)
        if scheduler == "sync":
            self.scheduler = None
        elif scheduler == "lockstep":
            self.scheduler = SchedulerSpec("lockstep")
        else:
            self.scheduler = SchedulerSpec("seeded-async", seed=seed, max_delay=3)
        self.adversaries = standard_adversaries(seed)
        self.patterns = input_patterns(self.graph)
        self.tasks = sweep_tasks(
            self.graph,
            SWEEP_F,
            self.adversaries,
            self.patterns,
            seed=seed,
            schedulers=(self.scheduler,),
        )
        # One scheduler per task.  Seeded-async runs each draw their own
        # delays (a seed derived from ``seed``), so that a pass samples
        # 168 delay patterns rather than replaying one stream 168 times
        # and the pass cost does not hinge on a single draw.
        self.schedulers = [self.scheduler] * len(self.tasks)
        if scheduler == "seeded-async":
            rng = random.Random(f"async-seeded:{seed}")
            self.schedulers = [
                SchedulerSpec("seeded-async", seed=rng.randrange(2**31), max_delay=3)
                for _ in self.tasks
            ]

    def __len__(self) -> int:
        return len(self.tasks)

    def begin_pass(self) -> None:
        """Sweep passes share the factory (and its warm path oracle)."""

    def run(self, i: int, metrics: bool = False):
        task = self.tasks[i]
        return self._run_consensus(
            self.graph,
            self.factory,
            self.patterns[task.inputs_name],
            f=SWEEP_F,
            faulty=task.faulty,
            adversary=self.adversaries[task.adversary_index],
            scheduler=self.schedulers[i],
            metrics=metrics,
        )

    def stratum(self, i: int) -> str:
        """Operation ``i``'s latency cluster: its adversary."""
        return self.adversaries[self.tasks[i].adversary_index].name

    def failure(self, i: int, out) -> "str | None":
        if out.outcome == "decided":
            return None
        task = self.tasks[i]
        return (
            f"task {i} (faulty={task.faulty}, adversary="
            f"{self.adversaries[task.adversary_index].name}, "
            f"inputs={task.inputs_name}): {out.outcome}"
        )

    @staticmethod
    def summary(out) -> dict:
        """What the harness keeps of one run (not its trace).

        ``landed`` counts the deliveries handed to an inbox by the time
        the run ended — what the engines meter as ``net.deliveries``.
        ``deliveries`` also counts messages still in flight at the end.
        """
        return {
            "outcome": out.outcome,
            "decision": out.decision,
            "transmissions": out.transmissions,
            "deliveries": out.deliveries,
            "landed": sum(
                1 for d in out.trace.deliveries if d.delivered_at <= out.rounds
            ),
            "metrics": out.metrics,
        }

    def oracle_counts(self) -> "tuple[int, int]":
        """Cumulative (hits, misses) of the factory's shared path oracle."""
        oracle = self.factory.oracle
        return oracle.hits, oracle.misses


# ---------------------------------------------------------------------------
# Feasibility verdicts on ~100 distinct graphs
# ---------------------------------------------------------------------------

#: The pass's graph mix, one entry per operation: ``(family, n, param)``.
#: Sizes are fixed strata so that the seed changes which edges a graph
#: has, never how large it is — the per-pass cost stays comparable
#: across seeds.  gnp: ``c`` = expected degree, high enough that the
#: graphs are connected (an isolated node makes κ trivially 0 and would
#: split the latency distribution in two).  harary: ``k`` = the
#: connectivity the construction guarantees.  digraph: arc probability.
#: A Harary graph comes first because the first operation is timed as
#: part of set-up, and a Harary graph's edges do not depend on the seed.
CHECK_MIX = (
    [("harary", 70 + 3 * (j // 3), 3 + j % 3) for j in range(30)]
    + [("gnp", 60 + 2 * j, 8.0) for j in range(20)]
    + [("gnp", 61 + 2 * j, 8.0) for j in range(15)]
    + [("digraph", 12 + j % 5, 0.4) for j in range(35)]
)

#: ``f`` values at which every checker is asked for its verdict.
CHECK_FS = (1, 2)


class CheckWorkload:
    """Every checker and every ``max_f`` on each of ~100 distinct graphs.

    An operation is one full verdict on one graph.  Each operation uses
    its own freshly built graph object, and ``begin_pass`` also clears
    the κ memo (an LRU keyed on graph *equality*), so every pass
    measures cold connectivity: exactly one undirected κ cache miss per
    operation, which ``failure`` checks.
    """

    def __init__(self, seed: int):
        from repro import consensus, graphs

        self._c = consensus
        self._g = graphs
        rng = random.Random(f"check-n100:{seed}")
        # Per-operation generator seeds and harary size jitter.
        self.specs = [
            (family, n + (rng.randrange(3) if family == "harary" else 0), param,
             rng.randrange(2**31))
            for family, n, param in CHECK_MIX
        ]
        self.begin_pass()

    def __len__(self) -> int:
        return len(self.specs)

    def _build(self, spec):
        family, n, param, gseed = spec
        g = self._g
        if family == "gnp":
            return g.gnp_supercritical_graph(n, param, seed=gseed)
        if family == "harary":
            return g.harary_graph(param, n)
        return g.random_digraph(n, param, seed=gseed)

    def begin_pass(self) -> None:
        self.graphs = [self._build(spec) for spec in self.specs]
        self._g.vertex_connectivity.cache_clear()
        self._g.directed_vertex_connectivity.cache_clear()

    def kappa_misses(self) -> int:
        """Cumulative misses of the undirected κ memo."""
        return self._g.vertex_connectivity.cache_info().misses

    def run(self, i: int, metrics: bool = False):
        misses = self.kappa_misses()
        out = self._verdict(self.graphs[i])
        out["kappa_misses"] = self.kappa_misses() - misses
        return out

    def _verdict(self, graph) -> dict:
        c = self._c
        if graph.directed:
            closure = graph.to_undirected()
            return {
                "directed": True,
                "kappa": self._g.directed_vertex_connectivity(graph),
                "min_in_degree": graph.min_in_degree(),
                "feasible": [
                    c.check_directed_local_broadcast(graph, f).feasible
                    for f in CHECK_FS
                ],
                "decomposition": [
                    c.check_directed_decomposition(graph, f).feasible
                    for f in CHECK_FS
                ],
                "max_f": c.max_f_directed_local_broadcast(graph),
                "closure_max_f": c.max_f_local_broadcast(closure),
            }
        return {
            "directed": False,
            "kappa": self._g.vertex_connectivity(graph),
            "min_degree": graph.min_degree(),
            "feasible": [c.check_local_broadcast(graph, f).feasible for f in CHECK_FS],
            "async_feasible": [
                c.check_async_local_broadcast(graph, f).feasible for f in CHECK_FS
            ],
            "p2p_feasible": [
                c.check_point_to_point(graph, f).feasible for f in CHECK_FS
            ],
            "hybrid_feasible": [c.check_hybrid(graph, f, 1).feasible for f in CHECK_FS],
            "max_f": c.max_f_local_broadcast(graph),
            "async_max_f": c.max_f_async_local_broadcast(graph),
            "p2p_max_f": c.max_f_point_to_point(graph),
            "hybrid_max_f": c.max_f_hybrid(graph, 1),
        }

    def stratum(self, i: int) -> str:
        """Operation ``i``'s latency cluster: its graph family."""
        return self.specs[i][0]

    @staticmethod
    def summary(out: dict) -> dict:
        return out

    def failure(self, i: int, out: dict) -> "str | None":
        """Cross-check the verdict's clauses against each other."""
        family, n, param, _ = self.specs[i]
        where = f"op {i} ({family} n={n} param={param})"
        if out["kappa_misses"] != 1:
            return f"{where}: {out['kappa_misses']} κ cache misses, expected 1"
        if family == "harary" and out["kappa"] != param:
            return f"{where}: κ(harary:{param}:{n}) = {out['kappa']}"
        max_f = out["max_f"]
        # Feasible exactly when f <= max f (the checker and max_f agree).
        if out["feasible"] != [f <= max_f for f in CHECK_FS]:
            return f"{where}: feasibility {out['feasible']} vs max f {max_f}"
        if out["directed"]:
            if max_f > out["closure_max_f"]:
                return (
                    f"{where}: directed max f {max_f} exceeds the symmetric "
                    f"closure's {out['closure_max_f']}"
                )
            # The strong form is the decomposition's strongly connected case.
            if out["kappa"] > 0 and out["decomposition"] != out["feasible"]:
                return f"{where}: decomposition disagrees on a strong digraph"
            return None
        if out["kappa"] > out["min_degree"]:
            return f"{where}: κ {out['kappa']} exceeds min degree {out['min_degree']}"
        # The async regime is strictly stronger than the synchronous one.
        if any(a and not s for a, s in zip(out["async_feasible"], out["feasible"])):
            return f"{where}: async feasible where sync is not"
        if out["async_max_f"] > max_f:
            return f"{where}: async max f {out['async_max_f']} > sync {max_f}"
        for name in ("async", "p2p", "hybrid"):
            if out[f"{name}_feasible"] != [
                f <= out[f"{name}_max_f"] for f in CHECK_FS
            ]:
                return f"{where}: {name} feasibility disagrees with its max f"
        return None


#: name → builder(seed).
WORKLOADS = {
    "alg1-lockstep": lambda seed: SweepWorkload("1", "lockstep", seed),
    "alg2-sync": lambda seed: SweepWorkload("2", "sync", seed),
    "async-seeded": lambda seed: SweepWorkload("async", "seeded-async", seed),
    "check-n100": CheckWorkload,
}
