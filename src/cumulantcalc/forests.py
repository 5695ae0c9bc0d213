"""Nesting forests of noncrossing partitions and their invariants.

The nesting forest of a noncrossing partition has one vertex per block;
the parent of a block is its nearest enclosing block, read off the nested
pairs of `SetPartition.block_pairs` (the enclosing block with the largest
minimum), so each irreducible component contributes one tree rooted at its
outer block.  Child order
follows left-to-right block order, which keeps drawings reproducible but
never affects any number computed here.

Derived quantities:

* tree factorial t! (product over vertices of subtree sizes): a forest
  with k vertices admits exactly k!/t! monotone (increasing) labellings;
* the labelling polynomial P(N), counting nondecreasing labellings of the
  forest with labels from [N]: a polynomial of degree <= #vertices with
  zero constant term, assembled from Faulhaber summation polynomials;
* alpha = P'(0), the linear coefficient; it vanishes whenever the forest
  has more than one tree;
* the depth of a noncrossing partition (1 + forest height).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import Polynomial, faulhaber_polynomial
from .partitions import SetPartition

__all__ = [
    "RootedTree",
    "RootedForest",
    "nesting_forest",
    "tree_factorial",
    "monotone_labelling_count",
    "labelling_polynomial",
    "alpha",
    "depth",
    "forest_to_json",
]


@dataclass(frozen=True)
class RootedTree:
    label: int
    children: tuple["RootedTree", ...] = ()

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def height(self) -> int:
        return 0 if not self.children else 1 + max(c.height() for c in self.children)


@dataclass(frozen=True)
class RootedForest:
    """Planar rooted forest; labels index blocks of the source partition."""

    trees: tuple[RootedTree, ...]
    blocks: tuple[tuple[int, ...], ...] = ()

    def size(self) -> int:
        return sum(t.size() for t in self.trees)

    def height(self) -> int:
        return max((t.height() for t in self.trees), default=0)


@lru_cache(maxsize=None)
def nesting_forest(pi: SetPartition) -> RootedForest:
    """Nesting forest of a noncrossing partition (one tree per component)."""
    if not pi.is_noncrossing():
        raise ValueError(f"{pi} is crossing; nesting forests need noncrossing input")
    k = pi.num_blocks
    parent = [None] * k
    for i, j in pi.block_pairs()[1]:
        parent[j] = i  # pairs come in order of i: the last is the nearest
    children = [[] for _ in range(k)]
    roots = []
    for i in range(k):
        if parent[i] is None:
            roots.append(i)
        else:
            children[parent[i]].append(i)

    def build(i: int) -> RootedTree:
        return RootedTree(i, tuple(build(c) for c in children[i]))

    return RootedForest(tuple(build(r) for r in roots), pi.blocks)


def _tree_factorial(t: RootedTree) -> int:
    out = t.size()
    for c in t.children:
        out *= _tree_factorial(c)
    return out


def tree_factorial(f: RootedForest | RootedTree) -> int:
    """t! = n * t_1! ... t_r!, multiplied over the trees of a forest."""
    if isinstance(f, RootedTree):
        return _tree_factorial(f)
    out = 1
    for t in f.trees:
        out *= _tree_factorial(t)
    return out


@lru_cache(maxsize=None)
def partition_tree_factorial(pi: SetPartition) -> int:
    return tree_factorial(nesting_forest(pi))


def monotone_labelling_count(pi: SetPartition) -> int:
    """Number of orders making the partition monotone: |pi|! / tau(pi)!."""
    f = nesting_forest(pi)
    q, r = divmod(factorial(pi.num_blocks), tree_factorial(f))
    assert r == 0
    return q


def _indefinite_sum(q: Polynomial) -> Polynomial:
    """The polynomial N -> sum_{j=1..N} q(j), via Faulhaber polynomials."""
    out = Polynomial.zero("N")
    for d, c in enumerate(q.coeffs):
        if c:
            out = out + c * faulhaber_polynomial(d)
    return out


def _tree_poly(t: RootedTree) -> Polynomial:
    q = Polynomial.constant(1, "N")
    for c in t.children:
        q = q * _tree_poly(c)
    return _indefinite_sum(q)


def labelling_polynomial(f: RootedForest) -> Polynomial:
    """Polynomial in N counting nondecreasing N-labellings of the forest.

    For a tree with branches t_1..t_m, conditioning on the root label k
    gives P(N) = sum_{k=1..N} prod_i P_{t_i}(N-k+1), i.e. the indefinite
    sum of the product of the branch polynomials.  The constant term is
    always zero and the degree is at most the vertex count.
    """
    out = Polynomial.constant(1, "N")
    for t in f.trees:
        out = out * _tree_poly(t)
    if not f.trees:
        return out
    assert out.coefficient(0) == 0
    return out


@lru_cache(maxsize=None)
def labelling_polynomial_of(pi: SetPartition) -> Polynomial:
    return labelling_polynomial(nesting_forest(pi))


def alpha(pi: SetPartition) -> Fraction:
    """Linear coefficient P'(0) of the labelling polynomial of pi.

    Zero whenever the nesting forest is not a single tree, i.e. whenever
    pi is reducible.
    """
    if len(nesting_forest(pi).trees) != 1:
        return Fraction(0)
    return labelling_polynomial_of(pi).coefficient(1)


def depth(pi: SetPartition) -> int:
    """Maximal number of blocks covering a block (the block included)."""
    return 1 + nesting_forest(pi).height()


def _tree_json(t: RootedTree, blocks):
    label = list(blocks[t.label]) if blocks else t.label
    return [label, [_tree_json(c, blocks) for c in t.children]]


def forest_to_json(f: RootedForest):
    """Nested arrays [block, [subtrees...]] per tree."""
    return [_tree_json(t, f.blocks) for t in f.trees]
