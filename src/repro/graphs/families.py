"""Graph families used by the experiments, examples, and benchmarks.

Includes the graphs the paper draws (Figure 1), the classical families
that hit the theorems' bounds tightly (complete graphs ``K_{2f+1}``,
circulants, Harary graphs), and deliberately *deficient* graphs that
violate exactly one condition — those drive the impossibility
reproductions (Figures 2–5).
"""

from __future__ import annotations

import random

from .graph import Digraph, Graph, GraphError

# ---------------------------------------------------------------------------
# Classical families
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    """P_n: nodes 0..n-1 in a line.  Degree 1 at the ends, κ = 1."""
    if n < 1:
        raise GraphError("path graph needs at least one node")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n: the n-cycle.  Degree 2 everywhere, κ = 2 (for n ≥ 3)."""
    if n < 3:
        raise GraphError("cycle graph needs at least three nodes")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """K_n.  Degree n-1, κ = n-1.  K_{2f+1} is the smallest graph
    satisfying the paper's local-broadcast conditions for a given f."""
    if n < 1:
        raise GraphError("complete graph needs at least one node")
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts 0..a-1 and a..a+b-1.  κ = min(a, b)."""
    if a < 1 or b < 1:
        raise GraphError("both parts must be non-empty")
    return Graph(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: hub 0 plus leaves.  Min degree 1, κ = 1."""
    return complete_bipartite(1, leaves)


def wheel_graph(n: int) -> Graph:
    """W_n: cycle C_{n-1} (nodes 1..n-1) plus hub 0.  κ = 3 for n ≥ 5."""
    if n < 4:
        raise GraphError("wheel graph needs at least four nodes")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph(range(n), rim + spokes)


def circulant_graph(n: int, offsets: list[int]) -> Graph:
    """C_n(offsets): node i adjacent to i ± d (mod n) for each offset d.

    Circulant graphs with offsets 1..k are 2k-regular and 2k-connected —
    they are the canonical tight examples for the paper's conditions
    (min degree 2f, κ ≥ ⌊3f/2⌋+1) with offsets 1..f.
    """
    if n < 3:
        raise GraphError("circulant graph needs at least three nodes")
    edges = []
    for d in offsets:
        if not 0 < d <= n // 2:
            raise GraphError(f"offset {d} out of range for n={n}")
        edges.extend((i, (i + d) % n) for i in range(n))
    return Graph(range(n), edges)


def harary_graph(k: int, n: int) -> Graph:
    """Harary graph H_{k,n}: the k-connected graph on n nodes with the
    fewest edges (⌈kn/2⌉).

    Standard construction: circulant with offsets 1..⌊k/2⌋; for odd k on
    even n add diameters i ↔ i + n/2; for odd k and odd n add the
    half-skip edges from the classical definition.
    """
    if k >= n:
        raise GraphError("Harary graph requires k < n")
    if k < 1:
        raise GraphError("Harary graph requires k >= 1")
    if k == 1:
        return path_graph(n)
    half = k // 2
    edges = [(i, (i + d) % n) for d in range(1, half + 1) for i in range(n)]
    if k % 2 == 1:
        if n % 2 == 0:
            edges.extend((i, i + n // 2) for i in range(n // 2))
        else:
            edges.extend((i, (i + (n - 1) // 2) % n) for i in range((n + 1) // 2))
    return Graph(range(n), edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows × cols grid.  Corner degree 2, κ = 2 for non-trivial grids."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
    return Graph(nodes, edges)


def petersen_graph() -> Graph:
    """The Petersen graph: 3-regular, κ = 3.  Satisfies the f = 1
    local-broadcast conditions (degree 3 ≥ 2, κ = 3 ≥ 2) with slack."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)


# ---------------------------------------------------------------------------
# Paper figures
# ---------------------------------------------------------------------------


def paper_figure_1a() -> Graph:
    """Figure 1(a): the 5-cycle, satisfying the f = 1 conditions
    (min degree 2 = 2f, κ = 2 = ⌊3f/2⌋ + 1)."""
    return cycle_graph(5)


def paper_figure_1b() -> Graph:
    """Figure 1(b): an f = 2 example.

    The paper shows a drawing without an explicit edge list; any graph
    with min degree ≥ 4 and κ ≥ 4 fits the claim.  We use the circulant
    C_8(1, 2): 8 nodes, 4-regular, 4-connected — exactly tight for
    f = 2 (min degree 4 = 2f, κ = 4 ≥ ⌊3f/2⌋ + 1 = 4).  The edge list is
    therefore our substitution, not the paper's drawing.
    """
    return circulant_graph(8, [1, 2])


def tight_local_broadcast_graph(f: int, n: int | None = None) -> Graph:
    """A graph meeting the Theorem 5.1 conditions for ``f`` as tightly as
    the circulant family allows: C_n(1..f) has min degree 2f and κ = 2f
    ≥ ⌊3f/2⌋ + 1 (for f ≥ 1, with equality of the theorem bound at
    f ∈ {1, 2}).
    """
    if f < 1:
        raise GraphError("f must be at least 1")
    if n is None:
        n = 2 * f + 2
    if n < 2 * f + 1:
        raise GraphError("need n ≥ 2f + 1 for degree 2f")
    return circulant_graph(n, list(range(1, f + 1)))


# ---------------------------------------------------------------------------
# Deliberately deficient graphs (drive the impossibility experiments)
# ---------------------------------------------------------------------------


def degree_deficient_graph(f: int) -> Graph:
    """Connected, well-connected except one node of degree 2f - 1.

    Take K_{4f+1} and attach node ``4f+1`` to only ``2f - 1`` clique
    nodes: the single low-degree vertex violates Theorem 4.1(i) while
    the rest of the graph is highly connected.
    """
    if f < 1:
        raise GraphError("f must be at least 1")
    base = complete_graph(4 * f + 1)
    z = 4 * f + 1
    extra = [(z, i) for i in range(2 * f - 1)]
    return base.add_nodes([z]).add_edges(extra)


def low_connectivity_graph(f: int, side: int | None = None) -> Graph:
    """Two cliques joined through a cut of exactly ⌊3f/2⌋ nodes.

    Violates Theorem 4.1(ii) (needs ⌊3f/2⌋ + 1) while keeping min degree
    ≥ 2f, so only the connectivity condition fails.  Node layout:
    clique A = 0..side-1, cut = side..side+c-1, clique B = the rest; every
    cut node is adjacent to all of A and all of B.
    """
    if f < 1:
        raise GraphError("f must be at least 1")
    cut_size = (3 * f) // 2
    if side is None:
        side = max(2 * f + 1 - cut_size, 2)
    a_nodes = list(range(side))
    c_nodes = list(range(side, side + cut_size))
    b_nodes = list(range(side + cut_size, 2 * side + cut_size))
    edges = []
    for group in (a_nodes + c_nodes, b_nodes + c_nodes):
        edges.extend(
            (group[i], group[j])
            for i in range(len(group))
            for j in range(i + 1, len(group))
        )
    return Graph(a_nodes + c_nodes + b_nodes, edges)


def hybrid_neighborhood_deficient_graph(f: int, t: int) -> Graph:
    """A graph where some set S, |S| ≤ t, has only 2f neighbors.

    Construction: a K_{4f+2} "world" plus a clique S of size t whose
    members all attach to the same 2f world nodes.  Violates Theorem
    6.1(iii) while the world itself stays richly connected.
    """
    if not 0 < t <= f:
        raise GraphError("need 0 < t <= f")
    world = complete_graph(4 * f + 2)
    s_nodes = [f"s{i}" for i in range(t)]
    edges = [(a, b) for i, a in enumerate(s_nodes) for b in s_nodes[i + 1 :]]
    edges += [(s, w) for s in s_nodes for w in range(2 * f)]
    return world.add_nodes(s_nodes).add_edges(edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """A connected random graph: a random spanning tree plus extra edges.

    Deterministic for a fixed ``seed`` — experiment sweeps stay
    reproducible.
    """
    if n < 1:
        raise GraphError("need at least one node")
    rng = random.Random(seed)
    nodes = list(range(n))
    edges: set[tuple[int, int]] = set()
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for i in range(1, n):
        j = rng.randrange(i)
        a, b = sorted((shuffled[i], shuffled[j]))
        edges.add((a, b))
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph(nodes, edges)


def random_regular_graph(n: int, d: int, seed: int = 0) -> Graph:
    """A uniform-ish random ``d``-regular graph on ``n`` nodes (seeded).

    Pairing/configuration model with rejection: shuffle ``n·d`` stubs,
    pair them up, and retry whenever a self-loop or parallel edge
    appears.  For the modest degrees the experiments use, rejection
    succeeds within a handful of attempts; the whole procedure is a pure
    function of ``(n, d, seed)`` so sweeps stay reproducible.

    Regular graphs are the natural random workload for the paper's
    conditions: ``d ≥ 2f`` gives every node the required degree, and
    random regular graphs are a.a.s. ``d``-connected, so they exercise
    the ``κ ≥ ⌊3f/2⌋ + 1`` condition with high probability.
    """
    if n < 1:
        raise GraphError("need at least one node")
    if not 0 <= d < n:
        raise GraphError("need 0 <= d < n for a simple d-regular graph")
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even for a d-regular graph")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(1000):
        rng.shuffle(stubs)
        pairs = [
            tuple(sorted((stubs[i], stubs[i + 1])))
            for i in range(0, len(stubs), 2)
        ]
        if any(a == b for a, b in pairs):
            continue
        if len(set(pairs)) != len(pairs):
            continue
        return Graph(range(n), pairs)
    raise GraphError(
        f"could not sample a simple {d}-regular graph on {n} nodes "
        f"(seed {seed}); try another seed"
    )


def gnp_supercritical_graph(n: int, c: float = 2.0, seed: int = 0) -> Graph:
    """Erdős–Rényi ``G(n, p)`` with ``p = c/n`` in the supercritical
    regime ``c > 1`` (a giant component exists a.a.s.).

    Deterministic for fixed ``(n, c, seed)``: edge slots are visited in
    lexicographic order, each kept with one seeded coin flip.  Isolated
    nodes and small components are retained — sweeps over this family
    deliberately include graphs that *fail* the paper's conditions, which
    is exactly what a universal-claim stress test wants.
    """
    if n < 1:
        raise GraphError("need at least one node")
    if c <= 1:
        raise GraphError("supercritical regime requires c > 1")
    p = min(1.0, c / n)
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


# ----------------------------------------------------------------------
# Directed families (arXiv:1911.07298 workload axis)
# ----------------------------------------------------------------------
def random_digraph(n: int, p: float, seed: int = 0) -> Digraph:
    """Seeded directed Erdős–Rényi ``D(n, p)``: every ordered pair
    ``(i, j)``, ``i ≠ j``, becomes an arc with one seeded coin flip.

    Arc slots are visited in lexicographic order, so the digraph is a
    pure function of ``(n, p, seed)`` and sweeps stay reproducible.
    Asymmetric links appear with probability ``2p(1 - p)`` per pair —
    the regime where the directed feasibility checkers genuinely differ
    from the symmetric-closure verdicts.
    """
    if n < 1:
        raise GraphError("need at least one node")
    if not 0.0 <= p <= 1.0:
        raise GraphError("arc probability must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < p
    ]
    return Digraph(range(n), arcs)


def oneway_ring(n: int, k: int = 1) -> Digraph:
    """Radio-style one-way circulant: station ``i`` reaches
    ``(i + 1) .. (i + k) mod n`` but is not heard back.

    Models directional radio links (a high-power transmitter heard by
    low-power stations that cannot answer).  Every node has in-degree
    and out-degree ``k`` and the digraph is strongly connected, yet its
    symmetric closure is the circulant ``C_n(1..k)`` with degree ``2k``
    — so the directed max-``f`` verdict drops below the undirected one
    (in-degree ``k`` supports at most ``f = k/2`` instead of ``k``),
    which is exactly the feasibility gap the directed sweep battery
    demonstrates.
    """
    if n < 3:
        raise GraphError("need at least three nodes for a one-way ring")
    if not 1 <= k < n:
        raise GraphError("need 1 <= k < n one-way offsets")
    arcs = [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)]
    return Digraph(range(n), arcs)


FAMILY_BUILDERS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "wheel": wheel_graph,
    "petersen": lambda: petersen_graph(),
    "figure_1a": lambda: paper_figure_1a(),
    "figure_1b": lambda: paper_figure_1b(),
    "random_regular": random_regular_graph,
    "gnp_supercritical": gnp_supercritical_graph,
    "random_digraph": random_digraph,
    "oneway": oneway_ring,
}
"""Registry used by sweeps and examples to name graphs in reports."""
