"""Independent brute-force oracles used by the test suite.

Everything here recomputes a quantity by a route different from the one
the library takes: exhaustive search instead of closed forms, direct
summation instead of recurrences, termwise series instead of Newton
iteration, Fraction-dict moment polynomials and Fraction-coefficient series
instead of the integer kernels, Gaussian elimination of each leading
minor instead of the one-pass cofactor recurrence,
the subset expansion instead of deletion-contraction, vertex orders
instead of orientation masks, the recursion over coarsenings instead
of the closed sum for beta, and one lower-interval sum per partition
instead of one per block size.  Oracles intentionally stay naive and slow.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

from cumulantcalc.algebra import TruncatedSeries, linear_combination, moment_monomial
from cumulantcalc.cumulants import CumulantKind, partitioned_cumulant
from cumulantcalc.forests import labelling_polynomial_of, partition_tree_factorial
from cumulantcalc.partitions import (
    SetPartition,
    enumerate_partitions,
    lattice_leq,
    lower_interval,
    mobius_to_top,
    partitions_of,
)
from cumulantcalc.permutations import Permutation, all_permutations, cycle_runs, cycles, runs

# --- counting -----------------------------------------------------------


def bell_number(n: int) -> int:
    """Bell triangle, no enumeration involved."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def catalan_direct(n: int) -> int:
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def partitions_by_growth(n: int) -> list[SetPartition]:
    """P(n) in RGS order, each restricted growth string extended by every
    entry it can take next, level by level, with no prefix walk."""
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [s + (a,) for s in strings for a in range(max(s) + 2)]
    return [SetPartition(s) for s in strings]


def rgs_by_prune(n: int, prune):
    """The RGS tuples of P(n) in lexicographic order, each choice of block
    tested by prune(blocks, target_index, element) -> bool (keep), where
    blocks lists the blocks of the prefix."""
    rgs = [0] * n
    blocks = [[1]]

    def extend(i):
        if i == n:
            yield tuple(rgs)
            return
        x = i + 1
        for v in range(len(blocks) + 1):
            if not prune(blocks, v, x):
                continue
            rgs[i] = v
            if v == len(blocks):
                blocks.append([x])
            else:
                blocks[v].append(x)
            yield from extend(i + 1)
            if len(blocks[v]) == 1:
                blocks.pop()
            else:
                blocks[v].pop()

    return extend(1)


def prune_noncrossing(blocks, v, x):
    # The prefix is noncrossing and x exceeds every placed element, so x
    # joining block v crosses exactly the blocks with elements on both
    # sides of the current last element of v (block v itself ends there).
    if v == len(blocks):
        return True
    last = blocks[v][-1]
    return not any(b[0] < last < b[-1] for b in blocks)


def prune_interval(blocks, v, x):
    # Joining any block other than the current last, or than a new one,
    # leaves a permanent gap.
    return v == len(blocks) or blocks[v][-1] == x - 1


# --- closures by exhaustive minimum --------------------------------------


def closure_brute(pi: SetPartition, predicate) -> SetPartition:
    """Smallest dominating partition satisfying `predicate`, by search."""
    best = None
    for sigma in partitions_of(pi.n, "all"):
        if predicate(sigma) and lattice_leq(pi, sigma):
            if best is None or lattice_leq(sigma, best):
                best = sigma
    return best


# --- block relations by sorting, union-find and from_blocks -----------------


def blocks_cross_by_runs(a, b) -> bool:
    """abab test: merge the two blocks, count the runs of membership."""
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    switches = 0
    last = None
    for _, who in merged:
        if who != last:
            switches += 1
            last = who
    return switches >= 4  # abab needs four runs of membership


def _crossing_pairs(pi: SetPartition):
    bs = pi.blocks
    return [
        (i, j)
        for i in range(len(bs))
        for j in range(i + 1, len(bs))
        if blocks_cross_by_runs(bs[i], bs[j])
    ]


def noncrossing_by_pairs(pi: SetPartition) -> bool:
    return not _crossing_pairs(pi)


def hulls_intersect(a, b) -> bool:
    return max(a[0], b[0]) <= min(a[-1], b[-1])


def block_nests_inside(inner, outer) -> bool:
    """True if every element of `inner` lies strictly between two of `outer`."""
    return outer[0] < inner[0] and inner[-1] < outer[-1]


def block_pairs_by_predicates(pi: SetPartition):
    """(crossing, nesting) of `SetPartition.block_pairs` by the pairwise
    predicates on every pair of blocks: hull-meeting pairs that do not
    cross are nested, listed outer block first."""
    bs = pi.blocks
    crossing, nesting = [], []
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            if not hulls_intersect(bs[i], bs[j]):
                continue
            if blocks_cross_by_runs(bs[i], bs[j]):
                crossing.append((i, j))
            elif block_nests_inside(bs[j], bs[i]):
                nesting.append((i, j))
            else:
                nesting.append((j, i))
    return crossing, nesting


def closure_by_fixpoint(pi: SetPartition, must_merge) -> SetPartition:
    """Merge the first pair of blocks that `must_merge` and rescan, until
    no pair is left."""
    blocks = [list(b) for b in pi.blocks]
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
    return SetPartition.from_blocks(pi.n, blocks)


def noncrossing_closure_by_fixpoint(pi: SetPartition) -> SetPartition:
    return closure_by_fixpoint(pi, blocks_cross_by_runs)


def interval_closure_by_fixpoint(pi: SetPartition) -> SetPartition:
    return closure_by_fixpoint(pi, hulls_intersect)


def connected_by_union_find(pi: SetPartition) -> bool:
    """The crossing graph on the blocks is connected (union-find)."""
    parent = list(range(pi.num_blocks))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in _crossing_pairs(pi):
        parent[find(i)] = find(j)
    return len({find(i) for i in range(pi.num_blocks)}) == 1


def interval_by_blocks(pi: SetPartition) -> bool:
    """Every block is a run of consecutive integers."""
    return all(b[-1] - b[0] + 1 == len(b) for b in pi.blocks)


def restrict_by_blocks(pi: SetPartition, subset) -> SetPartition:
    """Intersect the blocks with `subset`, relabel, rebuild by from_blocks."""
    s = sorted(set(subset))
    pos = {x: i + 1 for i, x in enumerate(s)}
    blocks = [[pos[x] for x in b if x in pos] for b in pi.blocks]
    return SetPartition.from_blocks(len(s), [b for b in blocks if b])


# --- lattice operations ----------------------------------------------------


def lattice_join(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """The finest partition above pi and sigma: merge two blocks while some
    block of sigma meets both."""
    return closure_by_fixpoint(
        pi, lambda a, b: any(sigma.block_index_of(x) == sigma.block_index_of(y)
                             for x in a for y in b)
    )


def lattice_meet(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """The coarsest partition below pi and sigma: group the elements by
    their (pi-block, sigma-block) pair."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(1, pi.n + 1):
        groups.setdefault((pi.block_index_of(i), sigma.block_index_of(i)), []).append(i)
    return SetPartition.from_blocks(pi.n, groups.values())


def triangle_geq(sigma: SetPartition, pi: SetPartition) -> bool:
    """sigma >= pi with pi restricted to every sigma-block noncrossing."""
    return lattice_leq(pi, sigma) and all(
        restrict_by_blocks(pi, w).is_noncrossing() for w in sigma.blocks
    )


# --- Moebius by the defining recursion ------------------------------------


def mobius_brute(members, pi: SetPartition, sigma: SetPartition) -> int:
    """mu(pi, sigma) via mu(pi,pi)=1, mu(pi,rho) = -sum_{pi<=nu<rho} mu(pi,nu)."""
    interval = [
        rho
        for rho in members
        if lattice_leq(pi, rho) and lattice_leq(rho, sigma)
    ]
    interval.sort(key=lambda r: -r.num_blocks)  # refinement-compatible order
    mu = {}
    for rho in interval:
        if rho == pi:
            mu[rho] = 1
        else:
            mu[rho] = -sum(
                mu[nu] for nu in interval if nu in mu and lattice_leq(nu, rho) and nu != rho
            )
    return mu[sigma]


def mobius_by_blocks(sigma: SetPartition, pi: SetPartition, lattice: str) -> int:
    """mu(sigma, pi) for sigma <= pi as the product over the blocks W of pi
    of mu(sigma|_W, top), each restriction rebuilt by `restrict_by_blocks`."""
    out = 1
    for w in pi.blocks:
        out *= mobius_to_top(restrict_by_blocks(sigma, w), lattice)
    return out


# --- beta by peeling the top of the partition lattice -------------------------


@lru_cache(maxsize=None)
def beta_by_coarsenings(pi: SetPartition) -> Fraction:
    """beta(pi) = [pi noncrossing] / tau(pi)! minus the sum over the
    coarsenings sigma of pi other than the top of the product over the
    blocks W of sigma of beta(pi|_W), each restriction rebuilt by
    `restrict_by_blocks`; memoized on the partition."""
    blocks = pi.blocks
    total = Fraction(0)
    for grouping in partitions_of(len(blocks), "all"):
        if grouping.num_blocks == 1:
            continue  # sigma = top is excluded
        term = Fraction(1)
        for cls in grouping.blocks:
            union = [x for idx in cls for x in blocks[idx - 1]]
            term *= beta_by_coarsenings(restrict_by_blocks(pi, union))
            if not term:
                break
        total += term
    if noncrossing_by_pairs(pi):
        return Fraction(1, partition_tree_factorial(pi)) - total
    return -total


def kreweras_by_separation(pi: SetPartition) -> SetPartition:
    """Kreweras complement by its defining separation test.

    Interleave 1,1',2,2',...,n,n'; the complement is the coarsest partition
    on the primed copies whose union with pi stays noncrossing.  Two primes
    i' < j' end up together exactly when no block of pi separates them,
    i.e. every block meets {i+1,...,j} in either nothing or all of itself.
    For each i the blocks met only in part by {i+1,...,j} are counted as j
    grows; the pairs with none are merged by union-find.
    """
    n = pi.n
    rgs = pi.rgs
    sizes = [len(b) for b in pi.blocks]
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, n + 1):
        met = [0] * len(sizes)  # elements of each block in {i+1,...,j}
        partial = 0  # blocks met in part
        for j in range(i + 1, n + 1):
            a = rgs[j - 1]
            met[a] += 1
            partial += (met[a] == 1) - (met[a] == sizes[a])
            if not partial:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(find(i), []).append(i)
    return SetPartition.from_blocks(n, groups.values())


# --- moment-cumulant sums, one term per set partition -----------------------


_LATTICE = {
    CumulantKind.CLASSICAL: "all",
    CumulantKind.FREE: "noncrossing",
    CumulantKind.BOOLEAN: "interval",
    CumulantKind.MONOTONE: "noncrossing",
}


def _lattice_terms(kind, n: int):
    """(block sizes, weight) for every member of the kind's lattice."""
    for pi in enumerate_partitions(n, _LATTICE[kind]):
        if kind is CumulantKind.MONOTONE:
            weight = Fraction(1, partition_tree_factorial(pi))
        else:
            weight = Fraction(1)
        yield pi.block_sizes(), weight


def _block_product(sizes, values) -> Fraction:
    out = Fraction(1)
    for s in sizes:
        out *= values[s - 1]
    return out


def moments_per_partition(kind, cumulants) -> list:
    """m_n = sum over the lattice of weight(pi) * prod of cumulants per block."""
    return [
        sum(
            (w * _block_product(sizes, cumulants) for sizes, w in _lattice_terms(kind, n)),
            Fraction(0),
        )
        for n in range(1, len(cumulants) + 1)
    ]


def cumulants_per_partition(kind, moments) -> list:
    """Triangular solve of the same sum, one set partition at a time."""
    out: list = []
    for n in range(1, len(moments) + 1):
        acc = Fraction(moments[n - 1])
        for sizes, w in _lattice_terms(kind, n):
            if len(sizes) > 1:
                acc -= w * _block_product(sizes, out)
        out.append(acc)
    return out


def lattice_formula_by_intervals(kind, inverted: bool, n: int):
    """(pi, holds) for every pi of the kind's lattice on [n], in its order,
    each by a literal sum over the lower interval of pi:
    m_pi = sum kind_sigma or, inverted, kind_pi = sum mu(sigma, pi) m_sigma."""
    lattice = _LATTICE[kind]
    for pi in partitions_of(n, lattice):
        interval = lower_interval(pi, lattice)
        if inverted:
            rhs = linear_combination((mu, moment_monomial(s)) for s, mu in interval)
            yield pi, partitioned_cumulant(kind, pi) == rhs
        else:
            rhs = linear_combination((1, partitioned_cumulant(kind, s)) for s, _ in interval)
            yield pi, moment_monomial(pi) == rhs


def univariate_sum_per_partition(kind, weighted):
    """Sum of w * kind_pi over (w, pi) pairs, one multivariate partitioned
    cumulant per set partition, with the variables identified afterwards."""
    return linear_combination(
        (w, partitioned_cumulant(kind, pi).univariate()) for w, pi in weighted if w
    )


def _sign(pi: SetPartition) -> int:
    return (-1) ** (pi.num_blocks - 1)


def runs_sum_per_word(n: int):
    """Sum of (-1)^(#runs - 1) B_runs, one term per word 1 a_2 ... a_n."""
    parts = (runs(Permutation((1,) + rest))[0] for rest in permutations(range(2, n + 1)))
    return linear_combination(
        (_sign(part), partitioned_cumulant(CumulantKind.BOOLEAN, part)) for part in parts
    )


def cycle_runs_sum_per_permutation(n: int):
    """Sum of (-1)^(#cycleruns - #cycles) B_cycleruns, one term per sigma in S_n."""
    return linear_combination(
        (_sign(cycle_runs(s)) * _sign(cycles(s)),
         partitioned_cumulant(CumulantKind.BOOLEAN, cycle_runs(s)))
        for s in all_permutations(n)
    )


def lenczewski_sides_per_partition(n: int):
    """(N, free side, monotone side) of the Lenczewski sum for N = 1..5, one
    term per pi in NC(n): each weight read from pi's own forest, each
    cumulant product multivariate, with the variables identified afterwards."""
    members = partitions_of(n, "noncrossing")
    for colors in range(1, 6):
        lhs = univariate_sum_per_partition(CumulantKind.FREE, (
            (labelling_polynomial_of(pi).evaluate(colors), pi) for pi in members
        ))
        rhs = univariate_sum_per_partition(CumulantKind.MONOTONE, (
            (Fraction(colors) ** pi.num_blocks / partition_tree_factorial(pi), pi)
            for pi in members
        ))
        yield colors, lhs, rhs


# --- moment polynomials as Fraction dicts ------------------------------------
#
# The reference kernel: a polynomial is a dict mapping monomials (tuples of
# increasing element tuples, sorted by (size, subset)) to nonzero Fractions,
# so `sorted(poly.items())` has the shape of `MomentPolynomial.sorted_terms()`.


def _canonical(symbols) -> tuple:
    return tuple(sorted(symbols, key=lambda s: (len(s), s)))


def fd_add(*weighted) -> dict:
    """Sum of weight * poly over (weight, Fraction-dict poly) pairs."""
    out: dict = {}
    for weight, poly in weighted:
        for mono, c in poly.items():
            v = out.get(mono, Fraction(0)) + Fraction(weight) * c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def fd_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _canonical(m1 + m2)
            v = out.get(mono, Fraction(0)) + c1 * c2
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def fd_relabel(poly: dict, mapping) -> dict:
    return {
        _canonical(tuple(mapping[i] for i in s) for s in mono): c
        for mono, c in poly.items()
    }


def fd_univariate(poly: dict) -> dict:
    """Each symbol S becomes (1, ..., |S|): the variables identified."""
    return fd_add(*(
        (c, {_canonical(tuple(range(1, len(s) + 1)) for s in mono): Fraction(1)})
        for mono, c in poly.items()
    ))


def fd_from_sorted_terms(terms) -> dict:
    return {mono: Fraction(c) for mono, c in terms}


def evaluate_moment_polynomial(p, value_of_symbol) -> Fraction:
    """The value of a `MomentPolynomial` with each symbol (an element
    tuple) replaced by `value_of_symbol(symbol)`, summed over its
    `sorted_terms()`."""
    total = Fraction(0)
    for mono, c in p.sorted_terms():
        for sym in mono:
            c *= Fraction(value_of_symbol(sym))
        total += c
    return total


def _fd_monomial(pi: SetPartition) -> dict:
    return {_canonical(pi.blocks): Fraction(1)}


_FD_CUMULANTS: dict = {}


def fd_cumulant(kind, n: int) -> dict:
    """The n-th multivariate cumulant: a Moebius sum for K, R, B and the
    triangular solve m_[n] = sum over NC(n) of H_pi / tau(pi)! for H."""
    key = (kind, n)
    if key in _FD_CUMULANTS:
        return _FD_CUMULANTS[key]
    if kind is CumulantKind.MONOTONE:
        weighted = []
        for pi in enumerate_partitions(n, "noncrossing"):
            if pi.num_blocks == 1:
                weighted.append((1, _fd_monomial(pi)))
            else:
                weighted.append(
                    (Fraction(-1, partition_tree_factorial(pi)),
                     fd_partitioned_cumulant(kind, pi))
                )
    else:
        lattice = {
            CumulantKind.CLASSICAL: "all",
            CumulantKind.FREE: "noncrossing",
            CumulantKind.BOOLEAN: "interval",
        }[kind]
        weighted = [
            (mobius_to_top(pi, lattice), _fd_monomial(pi))
            for pi in enumerate_partitions(n, lattice)
        ]
    out = _FD_CUMULANTS[key] = fd_add(*weighted)
    return out


def fd_partitioned_cumulant(kind, pi: SetPartition) -> dict:
    out = {(): Fraction(1)}
    for block in pi.blocks:
        mapping = {j + 1: v for j, v in enumerate(block)}
        out = fd_mul(out, fd_relabel(fd_cumulant(kind, len(block)), mapping))
    return out


# --- Tutte with randomized pivot order ---------------------------------------


def tutte_random_order(edges, x, y, rng) -> Fraction:
    """Deletion-contraction picking a random edge each step, no memo."""
    edges = list(edges)
    if not edges:
        return Fraction(1)
    e = edges[rng.randrange(len(edges))]
    rest = list(edges)
    rest.remove(e)
    u, v = e
    if u == v:
        return y * tutte_random_order(rest, x, y, rng)
    # bridge test: u and v stay connected through the remaining edges?
    adj = {}
    for a, b in rest:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {u}
    stack = [u]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    contracted = [
        ((u if a == v else a), (u if b == v else b)) for a, b in rest
    ]
    if v not in seen:
        return x * tutte_random_order(contracted, x, y, rng)
    return tutte_random_order(rest, x, y, rng) + tutte_random_order(
        contracted, x, y, rng
    )


def _graph_edges(g) -> list[tuple[int, int]]:
    """Every edge of a `MixedGraph`, orientations dropped, loops as (v, v)."""
    dropped = sorted(list(g.undirected) + [(min(e), max(e)) for e in g.directed])
    return dropped + [(v, v) for v in g.loops]


def _rank(n: int, edges) -> int:
    """n minus the number of components of the graph on range(n), by
    union-find."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    rank = 0
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            rank += 1
    return rank


def graph_is_connected(g) -> bool:
    return g.n == 0 or _rank(g.n, _graph_edges(g)) == g.n - 1


def tutte_polynomial(g) -> dict[tuple[int, int], int]:
    """The coefficients {(i, j): c} of T_G = sum c x^i y^j by the subset
    expansion T = sum over edge subsets A of
    (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)), each power expanded binomially;
    a loop or a parallel edge is one more element of E."""
    edges = _graph_edges(g)
    full = _rank(g.n, edges)
    table: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if mask >> k & 1]
        r = _rank(g.n, chosen)
        a, b = full - r, len(chosen) - r
        for i in range(a + 1):
            for j in range(b + 1):
                c = (-1) ** (a - i + b - j) * comb(a, i) * comb(b, j)
                table[i, j] = table.get((i, j), 0) + c
    return {ij: c for ij, c in table.items() if c}


def acyclic_orientations_by_orders(g, source: int) -> int:
    """Acyclic orientations of g whose unique source is `source`: the
    distinct orientations (each edge from its earlier end to its later one)
    induced by the vertex orders that start at `source` and in which every
    other vertex has an earlier neighbour.  A loop allows none."""
    edges = _graph_edges(g)
    if any(u == v for u, v in edges):
        return 0
    neighbours = {v: set() for v in range(g.n)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    found = set()
    for order in permutations([v for v in range(g.n) if v != source]):
        place = {v: k for k, v in enumerate((source, *order))}
        if all(any(place[w] < place[v] for w in neighbours[v]) for v in order):
            found.add(tuple(place[u] < place[v] for u, v in edges))
    return len(found)


def partition_sum_identity_check(g, q) -> Fraction:
    """(q-1)^(1-|V|) * sum over vertex partitions of q^(internal edges) * mu.

    Here mu(pi, 1) = (-1)^(|pi|-1) (|pi|-1)! on the full partition lattice
    of the vertex set, with the convention q^0 = 1 even for q = 0.  The
    value equals T_G(1, q) for connected G and 0 otherwise.
    """
    q = Fraction(q)
    if q == 1:
        raise ValueError("q = 1 is excluded")
    if g.n < 1:
        raise ValueError("the graph needs at least one vertex")
    edges = _graph_edges(g)
    total = Fraction(0)
    for pi in enumerate_partitions(g.n):
        rgs = pi.rgs  # vertex v of the graph is element v+1 of [n]
        internal = sum(1 for u, v in edges if rgs[u] == rgs[v])
        if q == 0:
            power = Fraction(1) if internal == 0 else Fraction(0)
        else:
            power = q**internal
        k = pi.num_blocks
        total += power * ((-1) ** (k - 1) * factorial(k - 1))
    return total * (q - 1) ** (1 - g.n)


# --- series oracles --------------------------------------------------------
#
# The Fraction-coefficient routes the integer series kernel replaced.  A
# series is its coefficient list c_0 .. c_N (order N = len - 1); binary
# operations truncate to the smaller order.


def fs_add(a, b) -> list:
    return [Fraction(x) + y for x, y in zip(a, b)]


def fs_mul(a, b) -> list:
    order = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += Fraction(a[i]) * b[j]
    return out


def fs_compose(f, g) -> list:
    """f(g) by Horner's rule; g must have zero constant term."""
    assert g[0] == 0
    order = min(len(f), len(g)) - 1
    acc = [Fraction(0)] * (order + 1)
    for c in reversed(f[: order + 1]):
        acc = fs_mul(acc, g[: order + 1])
        acc[0] += c
    return acc


def fs_reciprocal(f) -> list:
    """b_0 = 1/f_0, b_k = -(1/f_0) sum_{j=1..k} f_j b_{k-j}."""
    inv0 = 1 / Fraction(f[0])
    out = [inv0]
    for k in range(1, len(f)):
        out.append(-inv0 * sum((f[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)))
    return out


def fs_log(f) -> list:
    """f = exp(l), f' = l' f: l_k = f_k - (1/k) sum_{j<k} j l_j f_{k-j}."""
    assert f[0] == 1
    out = [Fraction(0)] * len(f)
    for k in range(1, len(f)):
        s = sum((j * out[j] * f[k - j] for j in range(1, k)), Fraction(0))
        out[k] = f[k] - s / k
    return out


def det_by_elimination(matrix) -> Fraction:
    """Gaussian elimination over Fractions with row pivoting."""
    m = [[Fraction(v) for v in row] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            for c in range(col, size):
                m[r][c] -= f * m[col][c]
    return det


def determinant_moments(kind: str, cumulants) -> list[Fraction]:
    """Moments from classical or Boolean cumulants: the leading principal
    minors of a lower Hessenberg matrix, each by Gaussian elimination.

    On and below the diagonal (1-based) the entry is c_{i-j+1}/(i-j)!
    (classical) or c_{i-j+1} (Boolean); the superdiagonal holds -i
    (classical) or -1 (Boolean), and zeros lie above it.
    """
    if kind not in ("classical", "boolean"):
        raise ValueError(f"unknown determinant kind {kind!r}")
    classical = kind == "classical"
    c = [Fraction(v) for v in cumulants]
    n = len(c)
    matrix = [
        [(c[i - j] / factorial(i - j) if classical else c[i - j]) if j <= i
         else (-i if classical else -1) if j == i + 1 else 0
         for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return [det_by_elimination([row[:k] for row in matrix[:k]]) for k in range(1, n + 1)]


def exp_termwise(g: TruncatedSeries) -> TruncatedSeries:
    """exp by the plain sum of g^k / k!."""
    assert g.coefficient(0) == 0
    out = TruncatedSeries.one(g.order)
    power = TruncatedSeries.one(g.order)
    for k in range(1, g.order + 1):
        power = power * g
        out = out + power * Fraction(1, factorial(k))
    return out


# --- labellings -------------------------------------------------------------


def nondecreasing_labellings_brute(forest, colors: int) -> int:
    """Count maps vertices -> [colors] weakly increasing down every tree of
    a forest of nested tuples (a tree is the tuple of its children)."""
    parents = []  # parents[v]: the parent of vertex v, numbered as walked

    def walk(t, parent):
        v = len(parents)
        parents.append(parent)
        for c in t:
            walk(c, v)

    for t in forest:
        walk(t, None)
    count = 0
    for value in product(range(1, colors + 1), repeat=len(parents)):
        if all(p is None or value[p] <= x for p, x in zip(parents, value)):
            count += 1
    return count


def all_planar_forests(total: int):
    """Every planar rooted forest with `total` vertices, as nested tuples:
    a forest is the tuple of its trees, a tree the tuple of its children."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):  # the vertices of the first tree
        for tree in all_planar_forests(first - 1):
            for rest in all_planar_forests(total - first):
                yield (tree,) + rest


# --- text forms from the blocks ---------------------------------------------


def text_by_blocks(pi: SetPartition) -> str:
    """The text form joined from the built blocks, each element by str."""
    return "|".join(",".join(map(str, b)) for b in pi.blocks)


def ordered_text_by_blocks(op) -> str:
    """An ordered partition's text form joined from its blocks in order."""
    return "|".join(",".join(map(str, b)) for b in op.blocks_in_order)


# --- permutations -----------------------------------------------------------


def identity_permutation(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


# --- monotone orders by brute force -----------------------------------------


def monotone_by_predicates(op) -> bool:
    """Noncrossing base, and every block placed after all blocks it nests in."""
    bs = op.base.blocks
    pos = {b: i for i, b in enumerate(op.order)}
    return noncrossing_by_pairs(op.base) and all(
        pos[j] < pos[i]
        for i in range(len(bs))
        for j in range(len(bs))
        if i != j and block_nests_inside(bs[i], bs[j])
    )


def monotone_orders_brute(pi: SetPartition) -> int:
    """Count block orders satisfying the outer-before-inner condition."""
    from itertools import permutations

    from cumulantcalc.partitions import OrderedPartition

    k = pi.num_blocks
    return sum(
        1
        for perm in permutations(range(k))
        if monotone_by_predicates(OrderedPartition(pi, perm))
    )


def parents_by_enclosure(pi: SetPartition) -> list:
    """The parent block index of each block of a noncrossing pi (None for a
    root), by a search over all blocks: the enclosing block with the
    largest minimum."""
    bs = pi.blocks
    k = len(bs)
    parent = [None] * k
    for i in range(k):
        for j in range(k):
            if i != j and block_nests_inside(bs[i], bs[j]):
                if parent[i] is None or bs[j][0] > bs[parent[i]][0]:
                    parent[i] = j
    return parent


def nesting_forest_by_enclosure(pi: SetPartition) -> tuple:
    """The nesting forest as nested tuples, trees and children in block
    order, with the parents of `parents_by_enclosure`."""
    parent = parents_by_enclosure(pi)

    def build(i):
        return tuple(build(c) for c in range(len(parent)) if parent[c] == i)

    return build(None)


# --- nesting-forest invariants by recursion over planar trees ---------------


def tree_poly_by_recursion(t):
    """Labelling polynomial of a tree of nested tuples, recursing over the
    tree itself: the indefinite sum, through Faulhaber polynomials, of the
    product of the branch polynomials (no memo, no shapes)."""
    from cumulantcalc.algebra import Polynomial, faulhaber_polynomial

    q = Polynomial.constant(1)
    for c in t:
        q = q * tree_poly_by_recursion(c)
    out = Polynomial.zero()
    for d, c in enumerate(q.coeffs):
        if c:
            out = out + c * faulhaber_polynomial(d)
    return out


def forest_invariants_by_trees(pi: SetPartition):
    """(alpha, labelling polynomial, tree factorial, depth) of a
    noncrossing pi, read off its enclosure-search nesting forest."""
    from cumulantcalc.algebra import Polynomial

    forest = nesting_forest_by_enclosure(pi)
    poly = Polynomial.constant(1)
    tree_fact = 1
    for t in forest:
        poly = poly * tree_poly_by_recursion(t)
        tree_fact *= tree_factorial_by_sizes(t)
    a = poly.coefficient(1) if len(forest) == 1 else Fraction(0)
    return a, poly, tree_fact, 1 + max(map(tree_height, forest), default=0)


def tree_size(t) -> int:
    """Number of vertices of a tree of nested tuples."""
    return 1 + sum(map(tree_size, t))


def tree_height(t) -> int:
    """Edges on the longest root-to-leaf path of a tree of nested tuples."""
    return 1 + max(map(tree_height, t), default=-1)


def tree_factorial_by_sizes(t) -> int:
    """Product of the subtree sizes over the vertices of a tree of nested
    tuples."""
    out = tree_size(t)
    for c in t:
        out *= tree_factorial_by_sizes(c)
    return out


def tree_shapes_by_recursion(t, into: set) -> tuple:
    """Canonical shape of a tree of nested tuples (sorted tuple of the
    child shapes), adding it and the shape of every subtree to `into`."""
    shape = tuple(sorted(tree_shapes_by_recursion(c, into) for c in t))
    into.add(shape)
    return shape
