"""Nesting forests of noncrossing partitions and their invariants.

The nesting forest of a noncrossing partition has one vertex per block;
the parent of a block is its nearest enclosing block, read off the nested
pairs of `SetPartition.block_pairs` (the enclosing block with the largest
minimum), so each irreducible component contributes one tree rooted at its
outer block.

The invariants:

* tree factorial t! (product over vertices of subtree sizes): a forest
  with k vertices admits exactly k!/t! monotone (increasing) labellings.
  A subtree size is 1 + the number of blocks nested inside the block, so
  t! is read off the nesting pairs, which join each block to every block
  it encloses (`cumulants._beta_closed_sum` uses the same product);
* the labelling polynomial P(N), counting nondecreasing labellings of the
  forest with labels from [N]: a polynomial of degree <= #vertices with
  zero constant term, assembled from Faulhaber summation polynomials;
* alpha = P'(0), the linear coefficient; it vanishes whenever the forest
  has more than one tree, i.e. whenever 1 and n lie in different blocks,
  and `alpha` returns 0 there without building the shape;
* the depth of a noncrossing partition (1 + forest height): 1 + the
  largest number of blocks that enclose one block, again a count of
  nesting pairs.

Shapes.  A tree shape is the sorted tuple of the shapes of its children
(a leaf is `()`), and a forest shape is the sorted tuple of the shapes of
its trees.  Sorting forgets the block labels and the left-to-right order
of siblings, and nothing else: the labelling polynomial is defined by a
recursion over the children that neither reads a label nor depends on
the order of the children (an indefinite sum of a product), so it is a
function of the shape, and so is alpha.  A tree shape is the forest shape
of its children, so a tree's polynomial is the indefinite sum of a
forest polynomial.
`_shape(pi)` builds the forest shape of a partition in one reverse pass
over its nesting pairs: a nested block has a larger index than every
block enclosing it, so a block's children are complete before the pair
that attaches it to its parent is reached.

Caches.  `_shape` and `partition_tree_factorial` are keyed by the
partition, `_tree_poly` by a tree shape and `_forest_poly` by a forest
shape.  There are at most as many shapes as unlabelled rooted trees or
forests with n vertices (486 trees with at most 9), so a sweep over NC(n)
does the polynomial work once per shape, not once per partition.

No invariant of a partition builds a labelled forest, and t! and the
depth build no shape.
`labelling_polynomial` takes a planar `RootedForest` of `RootedTree`s,
for forests given as such, and reads its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .algebra import Polynomial, faulhaber_polynomial
from .partitions import SetPartition

__all__ = [
    "RootedTree",
    "RootedForest",
    "labelling_polynomial",
    "alpha",
    "depth",
]


@dataclass(frozen=True)
class RootedTree:
    label: int
    children: tuple["RootedTree", ...] = ()


@dataclass(frozen=True)
class RootedForest:
    """Planar rooted forest."""

    trees: tuple[RootedTree, ...]


def _nesting_pairs(pi: SetPartition) -> list[tuple[int, int]]:
    """The nesting pairs of `block_pairs`, after checking pi is noncrossing."""
    crossing, nesting = pi.block_pairs()
    if crossing:
        raise ValueError(f"{pi} is crossing; nesting forests need noncrossing input")
    return nesting


@lru_cache(maxsize=None)
def _shape(pi: SetPartition) -> tuple:
    """The forest shape of a noncrossing partition."""
    nesting = _nesting_pairs(pi)
    k = pi.num_blocks
    children = [[] for _ in range(k)]  # their shapes, sorted when complete
    root = [True] * k
    for i, j in reversed(nesting):
        if root[j]:  # the first pair met for j names its nearest parent
            root[j] = False
            children[j].sort()
            children[i].append(tuple(children[j]))
    trees = []
    for kids, is_root in zip(children, root):
        if is_root:
            kids.sort()
            trees.append(tuple(kids))
    trees.sort()
    return tuple(trees)


def _tree_shape(t: RootedTree) -> tuple:
    return tuple(sorted(_tree_shape(c) for c in t.children))


def _forest_shape(f: RootedForest) -> tuple:
    return tuple(sorted(_tree_shape(t) for t in f.trees))


@lru_cache(maxsize=None)
def partition_tree_factorial(pi: SetPartition) -> int:
    """tau(pi)!: the product over the blocks of 1 + #blocks nested inside."""
    inside = [1] * pi.num_blocks
    for i, _ in _nesting_pairs(pi):
        inside[i] += 1
    return prod(inside)


def _indefinite_sum(q: Polynomial) -> Polynomial:
    """The polynomial N -> sum_{j=1..N} q(j), via Faulhaber polynomials."""
    out = Polynomial.zero()
    for d, c in enumerate(q.coeffs):
        if c:
            out = out + c * faulhaber_polynomial(d)
    return out


@lru_cache(maxsize=None)
def _tree_poly(shape: tuple) -> Polynomial:
    """Labelling polynomial of a tree shape.

    Conditioning on the root label k gives
    P(N) = sum_{k=1..N} prod_i P_{t_i}(N-k+1) for the branches t_i, i.e.
    the indefinite sum of the polynomial of the forest of branches.
    """
    return _indefinite_sum(_forest_poly(shape))


@lru_cache(maxsize=None)
def _forest_poly(shape: tuple) -> Polynomial:
    out = Polynomial.constant(1)
    for t in shape:
        out = out * _tree_poly(t)
    return out


def labelling_polynomial(f: RootedForest) -> Polynomial:
    """Polynomial in N counting nondecreasing N-labellings of the forest:
    the product of the polynomials of its trees.  The constant term is
    zero unless the forest is empty, and the degree is at most the vertex
    count."""
    return _forest_poly(_forest_shape(f))


def labelling_polynomial_of(pi: SetPartition) -> Polynomial:
    return _forest_poly(_shape(pi))


def alpha(pi: SetPartition) -> Fraction:
    """Linear coefficient P'(0) of the labelling polynomial of pi.

    Zero whenever the nesting forest is not a single tree, i.e. whenever
    pi is reducible: for a noncrossing pi, whenever 1 and n lie in
    different blocks.
    """
    if pi.block_index_of(pi.n) and pi.is_noncrossing():
        return Fraction(0)
    (tree,) = _shape(pi)  # the block of 1 and n encloses every other block
    return _tree_poly(tree).coefficient(1)


def depth(pi: SetPartition) -> int:
    """Maximal number of blocks covering a block (the block included): 1 +
    the largest number of nesting pairs that share their inner block."""
    enclosing = [0] * pi.num_blocks
    for _, j in _nesting_pairs(pi):
        enclosing[j] += 1
    return 1 + max(enclosing, default=0)
