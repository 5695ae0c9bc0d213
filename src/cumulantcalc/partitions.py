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

The class predicates skip the pairwise block tests and read the RGS once,
left to right: `is_noncrossing` and `is_connected` with a stack of open
blocks (or of groups of crossing blocks), `is_irreducible` with the last
position reached so far, `is_interval` by checking that it never steps
down.

Each class is enumerated by one of three walks over RGS prefixes, all of
P(n), NC(n) or I(n), narrowed for the irreducible and connected classes
(`_CLASS_WALK`, keyed by the class's name).  Each walk draws the choices
at a position from state it carries, never from a test per block: the
noncrossing walk follows the chain of blocks that enclose the new element,
the interval walk offers the last block or a new one.  The irreducible
classes carry the smallest cut not yet spanned, so they end only on the
blocks that span it and read no string outside the class.  The connected
classes are irreducible too, and also drop a prefix with more singleton
blocks than elements left to fill them, since a singleton crosses nothing;
their predicate then reads 15,747 of the 115,975 strings of P(10) and
2,188 of the 208,012 of NC(12).  That is only a necessary condition, so
the predicate stays as their exact filter.  A class is bounded by what its
unnarrowed walk costs, so the walk's name is also the limit key the class
is checked against.  The three unnarrowed, unfiltered classes are the
lattices, and a lattice is named by its class: `lower_interval` and
`mobius_to_top` take "all", "noncrossing" or "interval".
The walks yield bare RGS tuples and the connected filter is the
module-level predicate over a tuple that `is_connected` also calls, so a
`SetPartition` is built only for each member of the class, never for a
string the filter drops.

Block relations
---------------
`block_pairs` is the one pairwise block scan: it lists the pairs of blocks
whose hulls meet, split into crossing pairs and nested pairs.  One pass
over the RGS gives each block's first and last position.  Blocks are
ordered by their minima, so the hulls of blocks i < j meet iff block j
starts before block i ends.  Such a pair crosses iff block j ends after
block i, or block i comes back between the first and last element of
block j; otherwise all of block j lies in one gap of block i, nested
inside it.  No block tuple is built.  The graphs, nesting forests and
monotone orders read their relations from it.  The closures are its
components: the noncrossing (interval) closure merges the connected
components of the crossing (hull-meeting) pairs.  That is the *smallest*
dominating partition of the class: any dominating noncrossing/interval
partition must merge those pairs too, and the unions of the components
are noncrossing (intervals).

Refinement lattice
------------------
sigma <= pi when every block of sigma lies inside a block of pi.  The
lower interval [0, pi] is the product over the blocks W of pi of the
lattices on W, in P(n), NC(n) and I(n) alike: a refinement of a
noncrossing (interval) pi is noncrossing (interval) exactly when each of
its restrictions to a block of pi is.  So `lower_interval` walks [0, pi]
block by block, one member of `partitions_of(|W|)` per block relabelled
onto W, and carries mu(sigma, pi) = prod_W mu(sigma|_W, 1_W) as a product
of to-the-top values; no pair of lattice members is compared.  It is the
library's one route to mu(sigma, pi); `lattice_leq` stays as the direct
definition of the order.

Kreweras complement
-------------------
For noncrossing pi, K(pi) has the cycles of the permutation P_pi^-1 gamma
as blocks, where P_pi runs through each block of pi in increasing cyclic
order and gamma = (1 2 ... n): i -> prev_pi(i + 1 mod n).  One pass over
the RGS gives prev_pi, one walk along the cycles labels them, so K is
O(n).  mu(pi, 1) in NC(n) is the product of signed Catalan numbers over
the blocks of K(pi).

Text form: blocks joined by "|", elements by ",", e.g. "1,3|2|4,5".
`to_text` writes it from the RGS without building the blocks: it takes
the block texts of the string without its last element from a one-entry
cache and adds n to block a_n, or as a block of its own.  The walks are
lexicographic, so the strings that share that parent prefix arrive one
after another; a miss makes one pass over the decimal labels of the
prefix.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

from .limits import check_limit

__all__ = [
    "SetPartition",
    "OrderedPartition",
    "enumerate_partitions",
    "enumerate_monotone",
    "lattice_leq",
    "kreweras_complement",
    "lower_interval",
    "mobius_to_top",
    "catalan_number",
]


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# SetPartition
# ---------------------------------------------------------------------------


class SetPartition:
    """A set partition of [n], canonical and immutable."""

    __slots__ = ("_rgs", "_blocks")

    def __init__(self, rgs):
        rgs = tuple(rgs)
        if not rgs:
            raise ValueError("partitions of the empty set are not used here")
        fresh = 0  # the index the next new block gets
        for a in rgs:
            if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a <= fresh:
                raise ValueError(f"not a restricted growth string: {rgs}")
            if a == fresh:
                fresh += 1
        _set_rgs(self, rgs)
        _set_blocks(self, None)

    @classmethod
    def _unchecked(cls, rgs: tuple[int, ...]) -> "SetPartition":
        """A partition from a tuple known to be a restricted growth string.

        The slots are set through their descriptors (`_set_rgs`,
        `_set_blocks`), a direct store where `object.__setattr__` would
        look each name up first.
        """
        self = _new_object(cls)
        _set_rgs(self, rgs)
        _set_blocks(self, None)
        return self

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
        # the length test first: the scan of [n] then costs what the blocks list
        if n < 1 or len(seen) != n or any(i not in seen for i in range(1, n + 1)):
            raise ValueError(f"blocks do not partition [{n}]")
        order = {}
        rgs = []
        for i in range(1, n + 1):
            m = seen[i]
            if m not in order:
                order[m] = len(order)
            rgs.append(order[m])
        return cls._unchecked(tuple(rgs))

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls(range(n))

    @classmethod
    def one_block(cls, n: int) -> "SetPartition":
        return cls([0] * n)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        blocks = []
        for part in text.split("|"):
            block = []
            for x in part.split(","):
                x = x.strip()
                if not x:
                    continue
                # int() would also take "+1", "1_0" and non-ASCII digits
                if not (x.isascii() and x.isdigit()):
                    raise ValueError(f"{x!r} is not an element label (a decimal integer)")
                block.append(int(x))
            blocks.append(block)
        return cls._from_listed_blocks(blocks)

    @classmethod
    def from_json(cls, data) -> "SetPartition":
        if not isinstance(data, list) or not all(
            isinstance(b, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in b)
            for b in data
        ):
            raise ValueError("a partition in JSON is a list of lists of integers")
        return cls._from_listed_blocks(data)

    @classmethod
    def _from_listed_blocks(cls, blocks) -> "SetPartition":
        """from_blocks on [n], n the largest element listed."""
        n = max((x for b in blocks for x in b), default=None)
        if n is None:
            raise ValueError("empty partition")
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
            cached = tuple(map(tuple, out))
            _set_blocks(self, cached)
        return cached

    @property
    def num_blocks(self) -> int:
        return max(self._rgs) + 1

    def block_index_of(self, i: int) -> int:
        return self._rgs[i - 1]

    def block_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (max(self._rgs) + 1)
        for a in self._rgs:
            sizes[a] += 1
        return tuple(sizes)

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self._rgs == other._rgs

    def __hash__(self):
        return hash(self._rgs)

    def __repr__(self):
        return self.to_text()

    def to_text(self) -> str:
        # the parent prefix's block texts, extended by element n
        rgs = self._rgs
        texts = _parent_block_texts(rgs[:-1])[:]
        a = rgs[-1]
        label = str(len(rgs))
        if a == len(texts):
            texts.append(label)
        else:
            texts[a] += "," + label
        return "|".join(texts)

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    # -- class predicates ----------------------------------------------------

    def is_noncrossing(self) -> bool:
        # One scan with a stack of the open blocks: a block may come back
        # only when it is on top, else the open block above it crosses it.
        left = list(self.block_sizes())
        stack = []
        fresh = 0  # the index the next new block gets
        for a in self._rgs:
            if a == fresh:
                fresh += 1
                stack.append(a)
            elif stack[-1] != a:
                return False
            left[a] -= 1
            if not left[a]:
                stack.pop()
        return True

    def is_interval(self) -> bool:
        # blocks are numbered by first use, so each is a run of consecutive
        # elements iff the RGS never steps down to an earlier block
        rgs = self._rgs
        return all(a <= b for a, b in zip(rgs, rgs[1:]))

    def is_irreducible(self) -> bool:
        return _rgs_irreducible(self._rgs)

    def is_connected(self) -> bool:
        return _rgs_connected(self._rgs)

    # -- block relations and closures ----------------------------------------

    def block_pairs(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(crossing, nesting): the pairs (i, j), i < j, of blocks whose
        hulls meet, split into crossing pairs and pairs with block j nested
        inside block i (every element of j between two elements of i).

        Blocks are ordered by their minima, so the hulls of i < j meet iff
        block j starts before block i ends; past the first j that starts
        after it, no later block meets block i.  A meeting pair crosses iff
        block j ends after block i or block i comes back inside the hull of
        block j; else block j sits in one gap of block i.
        """
        rgs = self._rgs
        first: list[int] = []  # the first position of each block
        last: list[int] = []  # the last position of each block
        for pos, a in enumerate(rgs):
            if a == len(first):
                first.append(pos)
                last.append(pos)
            else:
                last[a] = pos
        crossing = []
        nesting = []
        for i, end in enumerate(last):
            for j in range(i + 1, len(first)):
                start = first[j]
                if start > end:
                    break
                crosses = last[j] > end or i in rgs[start + 1:last[j]]
                (crossing if crosses else nesting).append((i, j))
        return crossing, nesting

    def _merge_components(self, pairs) -> "SetPartition":
        """Merge the blocks of each connected component of the graph `pairs`."""
        root = list(range(self.num_blocks))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for i, j in pairs:
            root[find(j)] = find(i)
        label: dict[int, int] = {}
        return SetPartition._unchecked(
            tuple([label.setdefault(find(a), len(label)) for a in self._rgs])
        )

    def noncrossing_closure(self) -> "SetPartition":
        """Smallest noncrossing partition dominating self."""
        return self._merge_components(self.block_pairs()[0])


_new_object = object.__new__
_set_rgs = SetPartition._rgs.__set__
_set_blocks = SetPartition._blocks.__set__


# ---------------------------------------------------------------------------
# Predicates and text over a bare RGS tuple
# ---------------------------------------------------------------------------


def _rgs_irreducible(rgs: tuple[int, ...]) -> bool:
    """Irreducible iff every cut between i and i+1 (i < n) is spanned by
    some hull, i.e. a block met by 1..i reaches past i."""
    last = {a: i for i, a in enumerate(rgs)}  # last position per block
    reach = 0  # the last position of the blocks met so far
    for i in range(len(rgs) - 1):
        end = last[rgs[i]]
        if end > reach:
            reach = end
        if reach == i:
            return False
    return True


def _rgs_connected(rgs: tuple[int, ...]) -> bool:
    """Connected iff the noncrossing closure is one block.

    One scan with a stack of open groups, each a set of blocks joined by
    crossings.  A block that comes back below the top group is crossed by
    every group above it, so they merge into its group.  A group whose
    last element is read is a block of the noncrossing closure, so the
    partition is connected iff no group closes before the last element.
    """
    left = [0] * (max(rgs) + 1)  # elements of each block not read yet
    for a in rgs:
        left[a] += 1
    last = len(rgs) - 1
    if 1 in left and last:
        return False  # a singleton crosses nothing
    first = []  # position of the first element of each block seen
    starts = []  # position of the first element of each open group
    unread = []  # elements of each open group not read yet
    for i, a in enumerate(rgs):
        if a == len(first):
            first.append(i)
            starts.append(i)
            unread.append(left[a])
        else:
            # the group of a is the topmost one that started by first[a]
            while starts[-1] > first[a]:
                starts.pop()
                merged = unread.pop()
                unread[-1] += merged
        unread[-1] -= 1
        if not unread[-1] and i < last:
            return False
    return True


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple[str, ...]:
    """The decimal labels "1", ..., "n" of the elements of [n]."""
    return tuple(map(str, range(1, n + 1)))


def _block_texts(rgs: tuple[int, ...]) -> list[str]:
    """The text of each block, its labels joined by ",", in block order
    (none for the empty string)."""
    out = [[] for _ in range(max(rgs, default=-1) + 1)]
    for a, label in zip(rgs, _labels(len(rgs))):
        out[a].append(label)
    return [",".join(b) for b in out]


#: `_block_texts` of the last RGS asked for: `enumerate_monotone` yields
#: the orders of one base one after another, so their texts share it
_last_block_texts = lru_cache(maxsize=1)(_block_texts)

#: `_block_texts` of the last parent prefix `SetPartition.to_text` asked
#: for: the walks are lexicographic, so siblings arrive one after another
_parent_block_texts = lru_cache(maxsize=1)(_block_texts)


# ---------------------------------------------------------------------------
# Refinement lattice
# ---------------------------------------------------------------------------


def lattice_leq(pi: SetPartition, sigma: SetPartition) -> bool:
    """Refinement order: every block of pi lies inside a block of sigma."""
    if pi.n != sigma.n:
        raise ValueError(f"partitions of different sets: n={pi.n} vs n={sigma.n}")
    owner = {}
    for a, s in zip(pi.rgs, sigma.rgs):
        if owner.setdefault(a, s) != s:
            return False
    return True


# ---------------------------------------------------------------------------
# Kreweras complement and Moebius functions
# ---------------------------------------------------------------------------


def kreweras_complement(pi: SetPartition) -> SetPartition:
    """Kreweras complement of a noncrossing partition.

    Interleave 1,1',2,2',...,n,n'; the complement is the coarsest partition
    on the primed copies whose union with pi stays noncrossing.  Its blocks
    are the cycles of the permutation P_pi^-1 gamma, i -> prev(i + 1 mod n),
    where prev is the cyclic predecessor within a block of pi and gamma the
    long cycle (Nica-Speicher, Lecture 18): one pass over the RGS finds
    prev, one walk along the cycles labels them in first-use order.
    """
    if not pi.is_noncrossing():
        raise ValueError(f"{pi} is not a noncrossing partition")
    rgs = pi.rgs
    n = len(rgs)
    prev = [0] * n  # 0-based cyclic predecessor of each position in its block
    first = {}
    last = {}
    for i, a in enumerate(rgs):
        if a in last:
            prev[i] = last[a]
        else:
            first[a] = i
        last[a] = i
    for a, i in first.items():
        prev[i] = last[a]
    out = [-1] * n
    fresh = 0  # the label the next cycle gets
    for start in range(n):
        if out[start] < 0:
            i = start
            while out[i] < 0:
                out[i] = fresh
                i = prev[(i + 1) % n]
            fresh += 1
    return SetPartition._unchecked(tuple(out))


def _mu_full_p(k: int) -> int:
    return (-1) ** (k - 1) * factorial(k - 1)


def _mu_full_nc(k: int) -> int:
    return (-1) ** (k - 1) * catalan_number(k - 1)


def mobius_to_top(pi: SetPartition, lattice: str) -> int:
    """mu(pi, 1) in the lattice "all", "noncrossing" or "interval"."""
    k = pi.num_blocks
    if lattice == "all":
        return _mu_full_p(k)
    if lattice == "interval":
        if not pi.is_interval():
            raise ValueError(f"{pi} is not an interval partition")
        return (-1) ** (k - 1)
    if lattice == "noncrossing":
        out = 1
        for b in kreweras_complement(pi).blocks:
            out *= _mu_full_nc(len(b))
        return out
    raise _unknown_lattice(lattice)


def _unknown_lattice(lattice) -> ValueError:
    """The error for a name that is not a lattice, one of the walks."""
    return ValueError(f"unknown lattice {lattice!r}; lattices: {', '.join(_WALKS)}")


def lower_interval(pi: SetPartition, lattice: str):
    """Yield (sigma, mu(sigma, pi)) for every sigma <= pi in the lattice
    "all", "noncrossing" or "interval".

    [0, pi] is the product over the blocks W of pi of the lattices on W, so
    sigma runs over the products of one member of `partitions_of(|W|)` per
    block, relabelled onto W, and mu is the product of their to-the-top
    values.  For NC and I this is exact because a refinement of pi is
    noncrossing (interval) iff each of its restrictions to a block is.
    Order: the last block of pi varies fastest.  The lattice's limit is
    checked on every call, hit or miss, at the largest block.
    """
    if lattice not in _WALKS:
        raise _unknown_lattice(lattice)
    if lattice == "noncrossing" and not pi.is_noncrossing():
        raise ValueError(f"{pi} is not a noncrossing partition")
    if lattice == "interval" and not pi.is_interval():
        raise ValueError(f"{pi} is not an interval partition")
    n = pi.n
    blocks = pi.blocks
    check_limit(lattice, max(pi.block_sizes()))
    factors = [_block_lattice_cached(len(w), lattice) for w in blocks]
    positions = [[x - 1 for x in w] for w in blocks]
    # sigma's block with local label a in pi's j-th block gets the raw
    # label j*n + a; renumbering raw labels in first-use order gives the RGS
    raw = [0] * n
    for combo in product(*factors):
        mu = 1
        for off, pos, (local, m) in zip(range(0, n * len(blocks), n), positions, combo):
            for x, a in zip(pos, local):
                raw[x] = off + a
            mu *= m
        label = {}
        yield (
            SetPartition._unchecked(tuple([label.setdefault(a, len(label)) for a in raw])),
            mu,
        )


@lru_cache(maxsize=64)
def _block_lattice_cached(k: int, lattice: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(RGS, mu(sigma, 1)) for every sigma of the lattice on k elements."""
    return tuple((s.rgs, mobius_to_top(s, lattice)) for s in _partitions_of(k, lattice))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _rgs_partitions(n: int, walk: str, restriction: str | None):
    """The RGS tuples of the walk's partitions of [n] ("all", "noncrossing"
    or "interval") in lexicographic order, narrowed by the restriction
    (None, "irreducible" or "connected").

    A depth-first walk over positions with an explicit stack of choices,
    so each tuple is yielded from this frame; the last position yields its
    choices in a direct loop.  The choices at a position, ascending, come
    from state the walk carries:

    * all: every block, then a new one;
    * noncrossing: the chain of enclosing blocks, that is the block of the
      element before and then, from each block on the chain, `below`: the
      block of the element just before its first, fixed when it opens;
      then a new block.  A block off the chain ends inside the hull of a
      block on it, so joining it would cross;
    * interval: the top of that chain, the last block, then a new one.

    "irreducible": with u the smallest cut (between i and i + 1) that no
    block spans yet, the blocks with minimum at or before u are a prefix
    0..m-1 of the block indices.  An element joining one of them spans
    every cut below it, so u passes it and m covers every block so far;
    other choices keep u and m.  Every prefix extends to a member, so only
    the last element is restricted, to the blocks below m.
    "connected" is "irreducible" plus a count of singleton blocks: a
    singleton crosses nothing and each element still to place fills at
    most one, so a prefix keeps at most as many as there are elements left.
    """
    if n == 1:
        yield (0,)
        return
    noncrossing = walk == "noncrossing"
    interval = walk == "interval"
    cut = restriction is not None
    counted = restriction == "connected"
    last = n - 1
    rgs = [0] * n
    below = [-1] * n  # per block: the block of the element just before its first
    blocks = [1] * n  # the number of blocks after each position
    reach = [1] * n  # m, the blocks at or before the smallest unspanned cut
    sizes = [1] + [0] * last  # per block, counted walks only
    singles = [1] * n  # the number of singleton blocks after each position
    choices = [()] * n  # the choices at each position
    tried = [0] * n  # how many of them were taken

    def options(i):
        """The choices at position i, ascending."""
        k = blocks[i - 1]
        if noncrossing:
            opts = []
            v = rgs[i - 1]
            while v >= 0:
                opts.append(v)
                v = below[v]
            opts.reverse()
            opts.append(k)
        elif interval:
            opts = (k - 1, k)
        else:
            opts = range(k + 1)
        if counted:
            s = singles[i - 1]
            left = last - i  # elements still to place after this one
            if s > left:  # only joining a singleton leaves few enough
                opts = [v for v in opts if v < k and sizes[v] == 1]
            elif s == left:  # a new singleton would be one too many
                opts = opts[:-1]
        if cut and i == last:
            opts = opts[:bisect_left(opts, reach[i - 1])]
        return opts

    i = 0  # the position placed last
    while True:
        if i + 1 == last:
            for v in options(last):
                rgs[last] = v
                yield tuple(rgs)
        else:
            i += 1
            choices[i] = options(i)
            tried[i] = 0
        # back up to the deepest position with a choice left
        while i:
            j = tried[i]
            if counted and j:  # take back the element placed there
                sizes[rgs[i]] -= 1
            if j < len(choices[i]):
                break
            i -= 1
        else:
            return
        v = choices[i][j]
        tried[i] = j + 1
        rgs[i] = v
        k = blocks[i - 1]
        if v == k:
            below[k] = rgs[i - 1]
            blocks[i] = k + 1
            reach[i] = reach[i - 1]
        else:
            blocks[i] = k
            reach[i] = k if v < reach[i - 1] else reach[i - 1]
        if counted:
            s = singles[i - 1]
            size = sizes[v]
            sizes[v] = size + 1
            singles[i] = s + 1 if not size else s - 1 if size == 1 else s


#: the partition classes, by name: class -> (walk, restriction, filter).
#: The walk is the RGS walk that runs and the limit key checked; the
#: restriction (`_rgs_partitions`) narrows its choices and drops only
#: strings outside the class.  The filter keeps the RGS tuples of the
#: class's members (None: all).
_CLASS_WALK = {
    "all": ("all", None, None),
    "noncrossing": ("noncrossing", None, None),
    "interval": ("interval", None, None),
    "irreducible": ("all", "irreducible", None),
    "connected": ("all", "connected", _rgs_connected),
    "irreducible-noncrossing": ("noncrossing", "irreducible", None),
    "connected-noncrossing": ("noncrossing", "connected", _rgs_connected),
}

#: the walks; each is also the class of its unrestricted, unfiltered
#: members, and these are the lattices
_WALKS = ("all", "noncrossing", "interval")


def _enumerate_unchecked(n: int, cls: str):
    """The members of the class in RGS order, with no limit check."""
    walk, restriction, keep = _CLASS_WALK[cls]
    members = _rgs_partitions(n, walk, restriction)
    if keep is not None:
        members = filter(keep, members)
    return map(SetPartition._unchecked, members)


def _check_class(n: int, cls: str) -> None:
    """Raise unless cls names a class and n is within its walk's limit."""
    if cls not in _CLASS_WALK:
        raise ValueError(
            f"unknown partition class {cls!r}; classes: {', '.join(_CLASS_WALK)}"
        )
    if n < 1:
        raise ValueError("n must be positive")
    check_limit(_CLASS_WALK[cls][0], n)


def enumerate_partitions(n: int, cls: str = "all"):
    """Stream the members of the class, each exactly once, in RGS order.

    The limit checked is that of the class's walk (`_CLASS_WALK`).
    """
    _check_class(n, cls)
    yield from _enumerate_unchecked(n, cls)


def partitions_of(n: int, cls: str = "all") -> tuple[SetPartition, ...]:
    """Cached tuple of all partitions of [n] in a class (internal reuse).

    The walk's limit is checked on every call, hit or miss, so a limit
    lowered after the first call is never bypassed by the cache.
    """
    _check_class(n, cls)
    return _partitions_of(n, cls)


@lru_cache(maxsize=64)
def _partitions_of(n: int, cls: str) -> tuple[SetPartition, ...]:
    return tuple(_enumerate_unchecked(n, cls))  # checked by the caller


partitions_of.cache_info = _partitions_of.cache_info
partitions_of.cache_clear = _partitions_of.cache_clear


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

    @classmethod
    def _unchecked(cls, base: SetPartition, order: tuple[int, ...]) -> "OrderedPartition":
        """An ordered partition whose order is known to be a permutation of
        the block indices, built without the `__post_init__` check."""
        self = _new_object(cls)
        self.__dict__.update(base=base, order=order)
        return self

    @property
    def blocks_in_order(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.base.blocks[i] for i in self.order)

    def to_text(self) -> str:
        texts = _last_block_texts(self.base.rgs)
        return "|".join([texts[i] for i in self.order])

    def __repr__(self):
        return self.to_text()


def enumerate_monotone(n: int):
    """Stream every monotone partition of [n] exactly once.

    For each noncrossing base (RGS order), the orders are the permutations
    of the block indices in lexicographic order, kept when every block
    comes after each block it is nested in.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_limit("monotone", n)
    for base in _enumerate_unchecked(n, "noncrossing"):
        nested = base.block_pairs()[1]  # (i, j): block j nested inside block i
        for order in permutations(range(base.num_blocks)):
            if all(order.index(i) < order.index(j) for i, j in nested):
                yield OrderedPartition._unchecked(base, order)
