"""Set partitions of [n] = {1,...,n}: classes, closures, lattice structure.

A partition is stored canonically as a *restricted growth string* (RGS): a
tuple (a_1,...,a_n) with a_1 = 0 and a_{i+1} <= max(a_1..a_i) + 1, where a_i
is the index of the block containing i and blocks are numbered by first
appearance.  Because blocks sorted by their minima appear in first-use
order, the RGS doubles as the canonical block order, equality is O(n), and
enumeration order is simply lexicographic order of the strings.

Partition classes
-----------------
* noncrossing: no i < j < k < l with i ~ k and j ~ l in different blocks;
* interval:    every block is a set of consecutive integers;
* connected:   the noncrossing closure is the one-block partition
               (equivalently the crossing graph on blocks is connected);
* irreducible: the interval closure is the one-block partition; for a
               noncrossing partition this is equivalent to 1 ~ n.

Closures are computed by merging offending block pairs to a fixpoint, which
yields the *smallest* dominating partition of the respective class (any
dominating noncrossing/interval partition must merge those pairs too).

Text form: blocks joined by "|", elements by ",", e.g. "1,3|2|4,5".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .limits import check_limit

__all__ = [
    "SetPartition",
    "OrderedPartition",
    "PartitionClass",
    "PartitionFlags",
    "enumerate_partitions",
    "enumerate_monotone",
    "lattice_leq",
    "lattice_join",
    "lattice_meet",
    "triangle_geq",
    "kreweras_complement",
    "mobius",
    "mobius_to_top",
    "catalan_number",
]


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Block-level predicates (blocks are sorted integer tuples)
# ---------------------------------------------------------------------------


def blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True if the pair partition {a, b} has a crossing (an abab pattern)."""
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    switches = 0
    last = None
    for _, who in merged:
        if who != last:
            switches += 1
            last = who
    return switches >= 4  # abab needs four runs of membership


def block_nests_inside(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """True if every element of `inner` lies strictly between two of `outer`."""
    return outer[0] < inner[0] and inner[-1] < outer[-1]


def hulls_intersect(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return max(a[0], b[0]) <= min(a[-1], b[-1])


# ---------------------------------------------------------------------------
# SetPartition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionFlags:
    noncrossing: bool
    interval: bool
    irreducible: bool
    connected: bool


class SetPartition:
    """A set partition of [n], canonical and immutable."""

    __slots__ = ("_rgs", "_blocks")

    def __init__(self, rgs):
        rgs = tuple(rgs)
        if not rgs:
            raise ValueError("partitions of the empty set are not used here")
        mx = -1
        for a in rgs:
            if a < 0 or a > mx + 1:
                raise ValueError(f"not a restricted growth string: {rgs}")
            mx = max(mx, a)
        object.__setattr__(self, "_rgs", rgs)
        object.__setattr__(self, "_blocks", None)

    def __setattr__(self, *_):
        raise AttributeError("SetPartition is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "SetPartition":
        seen = {}
        for b in blocks:
            b = sorted(b)
            if not b:
                raise ValueError("empty block")
            for x in b:
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen[x] = min(b)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition [{n}]")
        order = {}
        rgs = []
        for i in range(1, n + 1):
            m = seen[i]
            if m not in order:
                order[m] = len(order)
            rgs.append(order[m])
        return cls(rgs)

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls(range(n))

    @classmethod
    def one_block(cls, n: int) -> "SetPartition":
        return cls([0] * n)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        blocks = [
            [int(x) for x in part.split(",") if x.strip()]
            for part in text.split("|")
        ]
        n = max(max(b) for b in blocks if b)
        return cls.from_blocks(n, blocks)

    @classmethod
    def from_json(cls, data) -> "SetPartition":
        blocks = [list(map(int, b)) for b in data]
        n = max(max(b) for b in blocks)
        return cls.from_blocks(n, blocks)

    # -- structure ----------------------------------------------------------

    @property
    def rgs(self) -> tuple[int, ...]:
        return self._rgs

    @property
    def n(self) -> int:
        return len(self._rgs)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        cached = self._blocks
        if cached is None:
            k = max(self._rgs) + 1
            out = [[] for _ in range(k)]
            for i, a in enumerate(self._rgs, start=1):
                out[a].append(i)
            cached = tuple(tuple(b) for b in out)
            object.__setattr__(self, "_blocks", cached)
        return cached

    @property
    def num_blocks(self) -> int:
        return max(self._rgs) + 1

    def block_index_of(self, i: int) -> int:
        return self._rgs[i - 1]

    def same_block(self, i: int, j: int) -> bool:
        return self._rgs[i - 1] == self._rgs[j - 1]

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self._rgs == other._rgs

    def __hash__(self):
        return hash(self._rgs)

    def __repr__(self):
        return self.to_text()

    def to_text(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks)

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    # -- class predicates ----------------------------------------------------

    def is_noncrossing(self) -> bool:
        bs = self.blocks
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                if blocks_cross(bs[i], bs[j]):
                    return False
        return True

    def is_interval(self) -> bool:
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def is_irreducible(self) -> bool:
        # Irreducible iff every cut point c in 1..n-1 is spanned by some hull.
        n = self.n
        if n == 1:
            return True
        covered = [False] * n  # cut c lives between c and c+1
        for b in self.blocks:
            for c in range(b[0], b[-1]):
                covered[c] = True
        return all(covered[1:n])

    def is_connected(self) -> bool:
        bs = self.blocks
        k = len(bs)
        if k == 1:
            return True
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(k):
            for j in range(i + 1, k):
                if blocks_cross(bs[i], bs[j]):
                    parent[find(i)] = find(j)
        return len({find(i) for i in range(k)}) == 1

    def classify(self) -> PartitionFlags:
        return PartitionFlags(
            noncrossing=self.is_noncrossing(),
            interval=self.is_interval(),
            irreducible=self.is_irreducible(),
            connected=self.is_connected(),
        )

    # -- closures and components ---------------------------------------------

    def _closure(self, must_merge) -> "SetPartition":
        blocks = [list(b) for b in self.blocks]
        changed = True
        while changed:
            changed = False
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    if must_merge(tuple(blocks[i]), tuple(blocks[j])):
                        blocks[i] = sorted(blocks[i] + blocks[j])
                        del blocks[j]
                        changed = True
                        break
                if changed:
                    break
        return SetPartition.from_blocks(self.n, blocks)

    def noncrossing_closure(self) -> "SetPartition":
        """Smallest noncrossing partition dominating self."""
        return self._closure(blocks_cross)

    def interval_closure(self) -> "SetPartition":
        """Smallest interval partition dominating self."""
        return self._closure(hulls_intersect)

    def components(self, mode: str) -> list[tuple[tuple[int, ...], "SetPartition"]]:
        """Factors induced on the blocks of the relevant closure.

        mode "irreducible" uses the interval closure, mode "connected" the
        noncrossing closure.  Returns (support, relabeled factor) pairs.
        """
        if mode == "irreducible":
            closure = self.interval_closure()
        elif mode == "connected":
            closure = self.noncrossing_closure()
        else:
            raise ValueError(f"unknown component mode {mode!r}")
        return [(s, self.restrict(s)) for s in closure.blocks]

    def restrict(self, subset) -> "SetPartition":
        """Intersect blocks with `subset` and relabel to [|subset|]."""
        s = sorted(set(subset))
        if not s:
            raise ValueError("cannot restrict to the empty set")
        pos = {x: i + 1 for i, x in enumerate(s)}
        blocks = []
        for b in self.blocks:
            inter = [pos[x] for x in b if x in pos]
            if inter:
                blocks.append(inter)
        return SetPartition.from_blocks(len(s), blocks)


# ---------------------------------------------------------------------------
# Refinement lattice
# ---------------------------------------------------------------------------


def _require_same_n(pi: SetPartition, sigma: SetPartition) -> None:
    if pi.n != sigma.n:
        raise ValueError(f"partitions of different sets: n={pi.n} vs n={sigma.n}")


def lattice_leq(pi: SetPartition, sigma: SetPartition) -> bool:
    """Refinement order: every block of pi lies inside a block of sigma."""
    _require_same_n(pi, sigma)
    owner = {}
    for a, s in zip(pi.rgs, sigma.rgs):
        if owner.setdefault(a, s) != s:
            return False
    return True


def lattice_join(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    _require_same_n(pi, sigma)
    n = pi.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in (pi, sigma):
        for b in p.blocks:
            for x in b[1:]:
                parent[find(x)] = find(b[0])
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(find(i), []).append(i)
    return SetPartition.from_blocks(n, groups.values())


def lattice_meet(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    _require_same_n(pi, sigma)
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(1, pi.n + 1):
        groups.setdefault((pi.block_index_of(i), sigma.block_index_of(i)), []).append(i)
    return SetPartition.from_blocks(pi.n, groups.values())


def triangle_geq(sigma: SetPartition, pi: SetPartition) -> bool:
    """sigma >= pi with pi restricted to every sigma-block noncrossing."""
    _require_same_n(pi, sigma)
    if not lattice_leq(pi, sigma):
        return False
    return all(pi.restrict(w).is_noncrossing() for w in sigma.blocks)


# ---------------------------------------------------------------------------
# Kreweras complement and Moebius functions
# ---------------------------------------------------------------------------


def kreweras_complement(pi: SetPartition) -> SetPartition:
    """Kreweras complement of a noncrossing partition.

    Interleave 1,1',2,2',...,n,n'; the complement is the coarsest partition
    on the primed copies whose union with pi stays noncrossing.  Two primes
    i' < j' end up together exactly when no block of pi separates them,
    i.e. every block meets {i+1,...,j} in either nothing or all of itself.
    """
    if not pi.is_noncrossing():
        raise ValueError("Kreweras complement needs a noncrossing partition")
    n = pi.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    blocks = pi.blocks
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ok = True
            for b in blocks:
                inside = sum(1 for x in b if i < x <= j)
                if inside not in (0, len(b)):
                    ok = False
                    break
            if ok:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(find(i), []).append(i)
    return SetPartition.from_blocks(n, groups.values())


def _mu_full_p(k: int) -> int:
    return (-1) ** (k - 1) * factorial(k - 1)


def _mu_full_nc(k: int) -> int:
    return (-1) ** (k - 1) * catalan_number(k - 1)


def mobius_to_top(pi: SetPartition, lattice: str) -> int:
    """mu(pi, 1) in the chosen lattice ("P", "NC" or "I")."""
    lat = lattice.upper()
    k = pi.num_blocks
    if lat == "P":
        return _mu_full_p(k)
    if lat == "I":
        if not pi.is_interval():
            raise ValueError(f"{pi} is not an interval partition")
        return (-1) ** (k - 1)
    if lat == "NC":
        out = 1
        for b in kreweras_complement(pi).blocks:
            out *= _mu_full_nc(len(b))
        return out
    raise ValueError(f"unknown lattice {lattice!r}")


def mobius(pi: SetPartition, sigma: SetPartition, lattice: str) -> int:
    """Moebius value mu(pi, sigma) in P(n), NC(n) or I(n).

    Every interval factors over the blocks of sigma:
    [pi, sigma] = prod_W [pi|_W, 1_W], so the value is the product of the
    per-block to-the-top values, each given by a closed form.
    """
    _require_same_n(pi, sigma)
    lat = lattice.upper()
    if lat not in ("P", "NC", "I"):
        raise ValueError(f"unknown lattice {lattice!r}")
    if lat == "NC" and not (pi.is_noncrossing() and sigma.is_noncrossing()):
        raise ValueError("both partitions must be noncrossing for lattice NC")
    if lat == "I" and not (pi.is_interval() and sigma.is_interval()):
        raise ValueError("both partitions must be interval for lattice I")
    if not lattice_leq(pi, sigma):
        raise ValueError(f"{pi} is not a refinement of {sigma}")
    out = 1
    for w in sigma.blocks:
        out *= mobius_to_top(pi.restrict(w), lat)
    return out


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class PartitionClass(enum.Enum):
    ALL = "all"
    NONCROSSING = "noncrossing"
    INTERVAL = "interval"
    IRREDUCIBLE = "irreducible"
    CONNECTED = "connected"
    IRREDUCIBLE_NONCROSSING = "irreducible-noncrossing"
    CONNECTED_NONCROSSING = "connected-noncrossing"


_PRUNE_NONCROSSING = {
    PartitionClass.NONCROSSING,
    PartitionClass.IRREDUCIBLE_NONCROSSING,
    PartitionClass.CONNECTED_NONCROSSING,
}

_POST_FILTER = {
    PartitionClass.ALL: lambda p: True,
    PartitionClass.NONCROSSING: lambda p: True,  # enforced by pruning
    PartitionClass.INTERVAL: lambda p: True,  # enforced by pruning
    PartitionClass.IRREDUCIBLE: lambda p: p.is_irreducible(),
    PartitionClass.CONNECTED: lambda p: p.is_connected(),
    PartitionClass.IRREDUCIBLE_NONCROSSING: lambda p: p.is_irreducible(),
    PartitionClass.CONNECTED_NONCROSSING: lambda p: p.is_connected(),
}


def _rgs_partitions(n, prune=None):
    """All partitions of [n] in lexicographic RGS order, with optional
    prefix pruning (prune(blocks, target_index, element) -> bool keeps)."""
    rgs = [0] * n
    blocks = [[1]]

    def rec(i):
        if i == n:
            yield SetPartition(rgs)
            return
        x = i + 1
        for v in range(len(blocks) + 1):
            if prune is not None and not prune(blocks, v, x):
                continue
            rgs[i] = v
            if v == len(blocks):
                blocks.append([x])
            else:
                blocks[v].append(x)
            yield from rec(i + 1)
            if v == len(blocks) - 1 and len(blocks[v]) == 1:
                blocks.pop()
            else:
                blocks[v].pop()

    yield from rec(1)


def _prune_noncrossing(blocks, v, x):
    if v == len(blocks):
        return True
    cand = tuple(blocks[v]) + (x,)
    for w, other in enumerate(blocks):
        if w != v and blocks_cross(cand, tuple(other)):
            return False
    return True


def _prune_interval(blocks, v, x):
    # Joining any block other than the current last, or than a new one,
    # leaves a permanent gap.
    return v == len(blocks) or (blocks[v][-1] == x - 1)


def enumerate_partitions(n: int, cls: PartitionClass = PartitionClass.ALL,
                         limit: int | None = None):
    """Stream the members of the class, each exactly once, in RGS order."""
    if isinstance(cls, str):
        cls = PartitionClass(cls)
    if n < 1:
        raise ValueError("n must be positive")
    check_limit(cls.value, n, limit)
    if cls in _PRUNE_NONCROSSING:
        prune = _prune_noncrossing
    elif cls is PartitionClass.INTERVAL:
        prune = _prune_interval
    else:
        prune = None
    keep = _POST_FILTER[cls]
    for p in _rgs_partitions(n, prune):
        if keep(p):
            yield p


@lru_cache(maxsize=64)
def partitions_of(n: int, cls_value: str = "all") -> tuple[SetPartition, ...]:
    """Cached tuple of all partitions of [n] in a class (internal reuse)."""
    return tuple(enumerate_partitions(n, PartitionClass(cls_value)))


# ---------------------------------------------------------------------------
# Ordered and monotone partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedPartition:
    """A partition together with a linear order on its blocks.

    `order` lists canonical block indices in lambda-order, so the blocks in
    execution order are base.blocks[order[0]], base.blocks[order[1]], ...
    """

    base: SetPartition
    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(self.base.num_blocks)):
            raise ValueError("order must be a permutation of the block indices")

    @property
    def blocks_in_order(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.base.blocks[i] for i in self.order)

    def is_monotone(self) -> bool:
        """Noncrossing base with every outer block before its inner blocks."""
        if not self.base.is_noncrossing():
            return False
        pos = {b: i for i, b in enumerate(self.order)}
        bs = self.base.blocks
        for i in range(len(bs)):
            for j in range(len(bs)):
                if i != j and block_nests_inside(bs[i], bs[j]):
                    if pos[j] > pos[i]:  # outer j must come first
                        return False
        return True

    def is_irreducible(self) -> bool:
        return self.base.is_irreducible()

    def to_text(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks_in_order)

    def __repr__(self):
        return self.to_text()


def _nesting_children(blocks) -> list[list[int]]:
    """children[j] = block indices that must come after block j (inner)."""
    k = len(blocks)
    after = [[] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j and block_nests_inside(blocks[i], blocks[j]):
                after[j].append(i)
    return after


def enumerate_monotone(n: int, limit: int | None = None):
    """Stream every monotone partition of [n] exactly once.

    For each noncrossing base (RGS order), the orders are the linear
    extensions of the nesting order (outer before inner), generated in
    lexicographic order of the block-index sequence.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_limit("monotone", n, limit)
    for base in enumerate_partitions(n, PartitionClass.NONCROSSING, limit=max(n, 12)):
        blocks = base.blocks
        k = len(blocks)
        preds = [0] * k  # number of outer blocks not yet placed
        outer_of = [[] for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if i != j and block_nests_inside(blocks[i], blocks[j]):
                    preds[i] += 1
                    outer_of[j].append(i)
        seq: list[int] = []
        remaining = preds[:]
        used = [False] * k

        def rec():
            if len(seq) == k:
                yield OrderedPartition(base, tuple(seq))
                return
            for b in range(k):
                if not used[b] and remaining[b] == 0:
                    used[b] = True
                    for inner in outer_of[b]:
                        remaining[inner] -= 1
                    seq.append(b)
                    yield from rec()
                    seq.pop()
                    for inner in outer_of[b]:
                        remaining[inner] += 1
                    used[b] = False

        yield from rec()
