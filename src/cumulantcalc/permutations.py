"""Permutation statistics: runs, cycle runs, descents, Eulerian numbers,
the bijection between cyclic permutations and pyramidal interval heaps,
and the sign-cancelling involution on the last descent.

Conventions
-----------
Permutations are stored in one-line notation (sigma(1), ..., sigma(n)).
The cycle decomposition is standard: every cycle is written starting at
its minimum and cycles are sorted by their minima.  A *run* is a maximal
increasing segment of the one-line word; a *cycle run* is a maximal
increasing segment of one of the standard cycle words.  Cycle runs are
disjoint, so they define a set partition, as do the runs and the cycles.

A permutation is of *interval type* when all its cycles have the form
(k, k+1, ..., l); equivalently the concatenated standard cycle word has
no descent.  On the remaining permutations the involution `phi` operates
on the last descent of that word: a descent inside one cycle splits the
cycle there (the descent separates its last two runs), a descent between
two consecutive cycles joins them (the second cycle is a single run).
Both moves leave the word, hence the cycle-run partition and the descent
position, unchanged, and change the number of cycles by one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _itertools_permutations

from .algebra import Polynomial
from .graphs import HeapOrder, anti_interval_graph
from .partitions import SetPartition

__all__ = [
    "Permutation",
    "all_permutations",
    "cyclic_permutations",
    "runs",
    "cycles",
    "cycle_runs",
    "eulerian",
    "eulerian_polynomial",
    "psi",
    "psi_inverse",
    "phi",
]


class Permutation:
    """A bijection of [n] in one-line notation."""

    __slots__ = ("word", "_cycles")

    def __init__(self, word):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of [n]: {word}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_cycles", None)

    def __setattr__(self, *_):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def from_cycles(cls, n: int, cycles_list) -> "Permutation":
        word = list(range(1, n + 1))
        seen = set()
        for cyc in cycles_list:
            cyc = list(cyc)
            for x in cyc:
                if x in seen or not 1 <= x <= n:
                    raise ValueError(f"bad cycle element {x}")
                seen.add(x)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                word[a - 1] = b
        return cls(word)

    # -- structure ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return self.cycle_string()

    # -- cycles ---------------------------------------------------------------

    def standard_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle words, each starting at its minimum, sorted by minima."""
        cached = self._cycles
        if cached is None:
            seen = [False] * (self.n + 1)
            out = []
            for start in range(1, self.n + 1):
                if seen[start]:
                    continue
                cyc = [start]
                seen[start] = True
                x = self(start)
                while x != start:
                    cyc.append(x)
                    seen[x] = True
                    x = self(x)
                out.append(tuple(cyc))
            cached = tuple(out)
            object.__setattr__(self, "_cycles", cached)
        return cached

    def cycle_string(self) -> str:
        return "".join(
            "(" + ",".join(map(str, c)) + ")" for c in self.standard_cycles()
        )

    def is_cyclic(self) -> bool:
        return len(self.standard_cycles()) == 1 and self.n >= 1

    def concatenated_cycle_word(self) -> tuple[int, ...]:
        out = []
        for c in self.standard_cycles():
            out.extend(c)
        return tuple(out)

    def is_interval_type(self) -> bool:
        """True iff every cycle is of the form (k, k+1, ..., l)."""
        w = self.concatenated_cycle_word()
        return all(a < b for a, b in zip(w, w[1:]))


def all_permutations(n: int):
    for w in _itertools_permutations(range(1, n + 1)):
        yield Permutation(w)


def cyclic_permutations(n: int):
    """The (n-1)! full cycles of [n]."""
    for rest in _itertools_permutations(range(2, n + 1)):
        yield Permutation.from_cycles(n, [(1,) + rest])


def _increasing_segments(word) -> list[list[int]]:
    segs = [[word[0]]]
    for a, b in zip(word, word[1:]):
        if b > a:
            segs[-1].append(b)
        else:
            segs.append([b])
    return segs


def runs(sigma: Permutation) -> tuple[SetPartition, int]:
    """Partition of [n] by the runs of the one-line word, plus the descent
    count; the number of runs is always the descent count plus one."""
    segs = _increasing_segments(sigma.word)
    part = SetPartition.from_blocks(sigma.n, segs)
    return part, len(segs) - 1


def cycles(sigma: Permutation) -> SetPartition:
    return SetPartition.from_blocks(sigma.n, [list(c) for c in sigma.standard_cycles()])


def cycle_runs(sigma: Permutation) -> SetPartition:
    """Partition of [n] by maximal increasing segments of the cycle words."""
    blocks = []
    for cyc in sigma.standard_cycles():
        blocks.extend(_increasing_segments(list(cyc)))
    return SetPartition.from_blocks(sigma.n, blocks)


# ---------------------------------------------------------------------------
# Eulerian numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Number of permutations of [n] with k descents."""
    if n < 0 or k < 0 or k > max(n - 1, 0):
        return 0
    if n == 0 or k == 0:
        return 1 if k == 0 else 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


def eulerian_polynomial(n: int) -> Polynomial:
    return Polynomial([eulerian(n, k) for k in range(max(n, 1))])


# ---------------------------------------------------------------------------
# Psi: cyclic permutations <-> pyramidal interval heaps
# ---------------------------------------------------------------------------


def psi(sigma: Permutation) -> HeapOrder:
    """Heap of the cycle runs of a full cycle, earlier runs above later ones.

    The resulting DAG is an acyclic orientation of the anti-interval graph
    of cycle_runs(sigma) whose unique source is the block containing 1.
    """
    if not sigma.is_cyclic():
        raise ValueError(f"{sigma} is not a full cycle")
    word = sigma.standard_cycles()[0]
    segs = _increasing_segments(list(word))
    base = SetPartition.from_blocks(sigma.n, segs)
    position = {seg[0]: a for a, seg in enumerate(segs)}
    rank = [position[b[0]] for b in base.blocks]  # segment position of each block
    arcs = [
        (i, j) if rank[i] < rank[j] else (j, i)
        for i, j in anti_interval_graph(base).undirected
    ]
    heap = HeapOrder(base, tuple(sorted(arcs)))
    assert heap.is_pyramid()
    return heap


def psi_inverse(heap: HeapOrder) -> Permutation:
    """Rebuild the cycle by repeatedly writing the leftmost minimal block
    to the left of what has been written so far."""
    base = heap.base
    if not base.is_irreducible():
        raise ValueError("pyramidal interval heaps live on irreducible partitions")
    expected = anti_interval_graph(base).undirected
    if tuple(sorted((min(e), max(e)) for e in heap.above)) != expected:
        raise ValueError("heap does not orient the anti-interval graph")
    if not heap.is_pyramid():
        raise ValueError("heap is not a pyramid (block of 1 must be the only maximal)")
    out_arcs: dict[int, set[int]] = {i: set() for i in range(base.num_blocks)}
    for u, v in heap.above:
        out_arcs[u].add(v)
    remaining = set(range(base.num_blocks))
    word: list[int] = []
    while remaining:
        sinks = [b for b in remaining if not (out_arcs[b] & remaining)]
        if not sinks:
            raise ValueError("heap relations contain a cycle")
        leftmost = min(sinks, key=lambda b: base.blocks[b][0])
        word = list(base.blocks[leftmost]) + word
        remaining.discard(leftmost)
    assert word[0] == 1
    return Permutation.from_cycles(base.n, [word])


# ---------------------------------------------------------------------------
# Phi: the cancellation involution on the last descent
# ---------------------------------------------------------------------------


def phi(sigma: Permutation) -> Permutation:
    """Split or join cycles at the last descent of the standard cycle word.

    Defined exactly on permutations that are not of interval type.  The
    image has the same cycle-run partition, the same last-descent position,
    and one cycle more (type A: descent inside a cycle, which is split) or
    one cycle fewer (type B: descent between two cycles, which are joined).
    """
    if sigma.is_interval_type():
        raise ValueError(
            f"{sigma} is of interval type (all cycles consecutive); "
            "phi is undefined on the fixed points of the cancellation"
        )
    cyc = [list(c) for c in sigma.standard_cycles()]
    word = sigma.concatenated_cycle_word()
    last = max(p for p in range(len(word) - 1) if word[p] > word[p + 1])
    # Locate the cycle containing word position `last`.
    pos = 0
    for idx, c in enumerate(cyc):
        if pos <= last < pos + len(c):
            break
        pos += len(c)
    offset = last - pos
    if offset < len(cyc[idx]) - 1:
        # Type A: split the cycle between its last two runs.
        left, right = cyc[idx][: offset + 1], cyc[idx][offset + 1 :]
        new_cycles = cyc[:idx] + [left, right] + cyc[idx + 1 :]
    else:
        # Type B: the descent separates cycle idx from cycle idx+1.
        joined = cyc[idx] + cyc[idx + 1]
        new_cycles = cyc[:idx] + [joined] + cyc[idx + 2 :]
    return Permutation.from_cycles(sigma.n, new_cycles)
