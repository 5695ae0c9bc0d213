"""Graphs attached to set partitions, Tutte evaluation, heaps and pyramids.

Three graphs on the blocks of a partition (canonical block order), all
read off `SetPartition.block_pairs`, which lists the hull-meeting block
pairs split into crossing and nested ones:

* crossing graph: an edge joins two blocks iff they cross;
* anti-interval graph: an edge iff the convex hulls of the blocks meet
  (equivalently, the pair is not an interval partition of its union);
* anti-interval digraph: hull-meeting pairs that cross keep an undirected
  edge, the remaining pairs (one block nested in the other) get a directed
  edge from the outer to the inner block.  A pair can both cross and nest
  (e.g. {1,3,5} and {2,4}); crossing takes precedence, which is what makes
  the digraph a complete invariant for the beta coefficients.

`tutte_eval` gives the one Tutte value the paper uses, T(1,0).  When the
vertex order is a perfect elimination order, i.e. the earlier neighbours
of each vertex form a clique, the graph is chordal, its chromatic
polynomial is prod_v (x - d_v) with d_v the number of earlier neighbours
of v, and T(1,0) = prod_{d_v > 0} d_v (T(1,0) is |[x] chi| on each
component: Stanley 1973, Greene and Zaslavsky 1983).  The anti-interval
graph always qualifies: it is the interval graph of the block hulls, and
with blocks ordered by their minima the earlier neighbours of block j are
the earlier blocks whose hull holds min(j), which meet pairwise there.
Most crossing graphs qualify too.  Any other graph goes through an integer
deletion-contraction on multigraphs (loop -> 0, bridge -> contract, else
delete + contract), memoized on a normalized labeled edge list.
T(1,0) of a connected graph counts acyclic orientations whose unique
source is any fixed vertex; specializing to the two graphs above it
counts the crossing/interval heaps that are pyramids, i.e. heap orders in
which the block containing 1 is the only maximal element.
`enumerate_pyramids` lists those orientations of the crossing or
anti-interval graph one by one, so `count_pyramids` is a second route to
T(1,0) on the graphs of a partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .partitions import SetPartition

__all__ = [
    "MixedGraph",
    "HeapOrder",
    "crossing_graph",
    "anti_interval_graph",
    "anti_interval_digraph",
    "tutte_eval",
    "enumerate_pyramids",
    "count_pyramids",
    "graph_to_json",
]


@dataclass(frozen=True)
class MixedGraph:
    """Finite multigraph with optional edge orientations.

    `undirected` holds (i, j) with i < j, `directed` holds (tail, head),
    `loops` holds vertex indices; all three are multisets stored sorted.
    """

    n: int
    undirected: tuple[tuple[int, int], ...] = ()
    directed: tuple[tuple[int, int], ...] = ()
    loops: tuple[int, ...] = ()

    def __post_init__(self):
        for i, j in self.undirected:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad undirected edge ({i},{j})")
        for i, j in self.directed:
            if not (0 <= i < self.n and 0 <= j < self.n and i != j):
                raise ValueError(f"bad directed edge ({i},{j})")
        for v in self.loops:
            if not 0 <= v < self.n:
                raise ValueError(f"bad loop at {v}")
        object.__setattr__(self, "undirected", tuple(sorted(self.undirected)))
        object.__setattr__(self, "directed", tuple(sorted(self.directed)))
        object.__setattr__(self, "loops", tuple(sorted(self.loops)))


def _reached(edges, start: int) -> set[int]:
    """The vertices joined to `start` by a path along `edges`."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# Partition-derived graphs
# ---------------------------------------------------------------------------


def crossing_graph(pi: SetPartition) -> MixedGraph:
    """Simple graph on blocks; edges join crossing pairs."""
    return MixedGraph(pi.num_blocks, tuple(pi.block_pairs()[0]))


def anti_interval_graph(pi: SetPartition) -> MixedGraph:
    """Simple graph on blocks; edges join pairs with intersecting hulls."""
    crossing, nesting = pi.block_pairs()
    return MixedGraph(pi.num_blocks, tuple(crossing + nesting))


def anti_interval_digraph(pi: SetPartition) -> MixedGraph:
    """Anti-interval graph with nesting edges directed outer -> inner."""
    crossing, nesting = pi.block_pairs()
    return MixedGraph(pi.num_blocks, tuple(crossing), tuple(nesting))


# ---------------------------------------------------------------------------
# Tutte value T(1, 0): a product on chordal graphs, else deletion-contraction
# ---------------------------------------------------------------------------


def _normalize_edges(edges) -> tuple[tuple[int, int], ...]:
    """Sort and relabel vertices by first appearance (drops isolated ones)."""
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    names: dict[int, int] = {}
    out = []
    for u, v in edges:
        for w in (u, v):
            if w not in names:
                names[w] = len(names)
        a, b = names[u], names[v]
        out.append((min(a, b), max(a, b)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _tutte_10(edges) -> int:
    """T(1, 0) of a normalized edge list, pivoting on edges[0]."""
    if not edges:
        return 1
    (u, v), rest = edges[0], edges[1:]
    if u == v:  # a loop: the factor y is 0
        return 0
    contracted = _tutte_10(_normalize_edges(
        ((u if a == v else a), (u if b == v else b)) for a, b in rest
    ))
    if v not in _reached(rest, u):  # a bridge: the factor x is 1
        return contracted
    return _tutte_10(_normalize_edges(rest)) + contracted


def tutte_eval(g: MixedGraph) -> int:
    """T_G(1, 0); orientations are ignored and a loop makes it 0.

    When the vertex order 0..n-1 is a perfect elimination order (the
    earlier neighbours N-(v) of each v form a clique), the graph is
    chordal with chromatic polynomial prod_v (x - d_v), d_v = |N-(v)|,
    and T(1, 0), the product over the components of |[x] chi|, is the
    product of the nonzero d_v.  The test: for each v with two or more
    earlier neighbours, all but the latest one, p, are neighbours of p.
    Anti-interval graphs always pass, since the earlier neighbours of a
    block are the earlier blocks whose hull holds its minimum, and those
    hulls meet pairwise there.  Any other graph goes to deletion-contraction.
    """
    if g.loops:
        return 0
    # every non-loop edge as (u, v), u < v, orientation dropped
    edges = g.undirected + tuple((min(e), max(e)) for e in g.directed)
    earlier: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in edges:
        earlier[v].add(u)  # a set drops parallel edges
    value = 1
    for before in earlier:
        if len(before) > 1:
            p = max(before)
            if not before.issubset(earlier[p] | {p}):
                return _tutte_10(_normalize_edges(edges))
        value *= len(before) or 1
    return value


# ---------------------------------------------------------------------------
# Acyclic orientations, heaps, pyramids
# ---------------------------------------------------------------------------


def _acyclic_with_unique_source(n, edges, source):
    """Yield the orientations (tuples of arcs) of a loopless graph that are
    acyclic with unique source."""
    m = len(edges)
    for mask in range(1 << m):
        arcs = tuple(
            (u, v) if mask >> k & 1 == 0 else (v, u)
            for k, (u, v) in enumerate(edges)
        )
        indeg = [0] * n
        adj = [[] for _ in range(n)]
        for u, v in arcs:
            indeg[v] += 1
            adj[u].append(v)
        if indeg[source] != 0:
            continue
        if any(indeg[v] == 0 for v in range(n) if v != source):
            continue
        # Kahn topological check for acyclicity.
        order = [source]
        deg = indeg[:]
        head = 0
        while head < len(order):
            for w in adj[order[head]]:
                deg[w] -= 1
                if deg[w] == 0:
                    order.append(w)
            head += 1
        if len(order) == n:
            yield arcs


@dataclass(frozen=True)
class HeapOrder:
    """A heap on the blocks of a partition, as a DAG of 'above' relations.

    `above` lists arcs (upper, lower) on canonical block indices; the
    induced partial order is the transitive closure.  Validity (every
    conflicting pair comparable, acyclicity) holds by construction for
    heaps produced here.
    """

    base: SetPartition
    above: tuple[tuple[int, int], ...] = field(default=())

    def maximal_blocks(self) -> tuple[int, ...]:
        has_in = {b for _, b in self.above}
        return tuple(
            i for i in range(self.base.num_blocks) if i not in has_in
        )

    def is_pyramid(self) -> bool:
        return self.maximal_blocks() == (0,)

    def __repr__(self):
        rel = ";".join(f"{u}>{v}" for u, v in self.above)
        return f"HeapOrder({self.base}; {rel})"


def enumerate_pyramids(pi: SetPartition, mode: str):
    """Stream the pyramids on pi: crossing heaps (mode "crossing", pi must
    be connected) or interval heaps (mode "interval", pi must be
    irreducible) whose only maximal block is the block containing 1.

    They are exactly the acyclic orientations of the crossing resp.
    anti-interval graph with unique source at the first block.
    """
    if mode == "crossing":
        if not pi.is_connected():
            raise ValueError(f"{pi} is not connected; crossing pyramids need connectivity")
        g = crossing_graph(pi)
    elif mode == "interval":
        if not pi.is_irreducible():
            raise ValueError(f"{pi} is reducible; interval pyramids need irreducibility")
        g = anti_interval_graph(pi)
    else:
        raise ValueError(f"unknown pyramid mode {mode!r}")
    for arcs in _acyclic_with_unique_source(g.n, list(g.undirected), 0):
        yield HeapOrder(pi, tuple(sorted(arcs)))


def count_pyramids(pi: SetPartition, mode: str) -> int:
    return sum(1 for _ in enumerate_pyramids(pi, mode))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def graph_to_json(g: MixedGraph) -> dict:
    return {
        "n": g.n,
        "undirected": [list(e) for e in g.undirected],
        "directed": [list(e) for e in g.directed],
        "loops": list(g.loops),
    }
