"""Parenthesizations as expression trees (paper Section III-B).

A chain of ``n`` matrices admits ``C_{n-1}`` parenthesizations (``C`` the
Catalan numbers), each a full binary tree whose leaves are the matrices in
order.  A parenthesization only *partially* orders the ``n - 1``
associations; the code generator extends it to a total order by always
issuing the leftmost available association first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class ParenTree:
    """A parenthesization subtree spanning matrices ``lo .. hi`` (0-based).

    A leaf has ``lo == hi`` and no children.  An internal node splits its
    span into ``left = [lo .. split]`` and ``right = [split + 1 .. hi]``.
    """

    lo: int
    hi: int
    left: Optional["ParenTree"] = None
    right: Optional["ParenTree"] = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"invalid span [{self.lo}, {self.hi}]")
        if (self.left is None) != (self.right is None):
            raise ValueError("internal nodes need both children")
        if self.left is not None and self.right is not None:
            if self.left.lo != self.lo or self.right.hi != self.hi:
                raise ValueError("children must tile the parent span")
            if self.left.hi + 1 != self.right.lo:
                raise ValueError("children must be adjacent")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def triplet(self) -> tuple[int, int, int]:
        """The association triplet ``(a, b, c)`` of this internal node.

        The node combines an operand of size ``q_a x q_b`` with one of size
        ``q_b x q_c`` where ``a = lo``, ``b = left.hi + 1``, ``c = hi + 1``.
        """
        if self.is_leaf:
            raise ValueError("leaves have no association triplet")
        assert self.left is not None
        return (self.lo, self.left.hi + 1, self.hi + 1)

    def internal_nodes(self) -> Iterator["ParenTree"]:
        """All internal nodes (associations), in post-order."""
        if self.is_leaf:
            return
        assert self.left is not None and self.right is not None
        yield from self.left.internal_nodes()
        yield from self.right.internal_nodes()
        yield self

    def render(self, labels: Optional[list[str]] = None) -> str:
        """Pretty parenthesized string, e.g. ``((M1 M2) M3)``."""
        if self.is_leaf:
            return labels[self.lo] if labels else f"M{self.lo + 1}"
        assert self.left is not None and self.right is not None
        return f"({self.left.render(labels)} {self.right.render(labels)})"

    def __str__(self) -> str:
        return self.render()


def leaf(i: int) -> ParenTree:
    return ParenTree(i, i)


def join(left: ParenTree, right: ParenTree) -> ParenTree:
    return ParenTree(left.lo, right.hi, left, right)


@functools.lru_cache(maxsize=None)
def _enumerate_span(lo: int, hi: int) -> tuple[ParenTree, ...]:
    if lo == hi:
        return (leaf(lo),)
    trees = []
    for split in range(lo, hi):
        for left in _enumerate_span(lo, split):
            for right in _enumerate_span(split + 1, hi):
                trees.append(join(left, right))
    return tuple(trees)


def enumerate_trees(n: int) -> tuple[ParenTree, ...]:
    """All ``C_{n-1}`` parenthesizations of a chain of ``n`` matrices."""
    if n < 1:
        raise ValueError("a chain needs at least one matrix")
    return _enumerate_span(0, n - 1)


def _iter_span(lo: int, hi: int) -> Iterator[ParenTree]:
    if lo == hi:
        yield leaf(lo)
        return
    for split in range(lo, hi):
        for left in _iter_span(lo, split):
            for right in _iter_span(split + 1, hi):
                yield join(left, right)


def iter_trees(n: int) -> Iterator[ParenTree]:
    """Lazily yield the ``C_{n-1}`` parenthesizations, one at a time.

    Unlike :func:`enumerate_trees`, nothing is memoized or materialized, so
    taking the first ``k`` trees of a long chain costs ``O(k n)`` rather
    than Catalan-many allocations — the enabler for bounded enumeration in
    :class:`repro.compiler.variant_space.ExhaustiveSpace`.  The yield order
    matches :func:`enumerate_trees` (splits in increasing order).
    """
    if n < 1:
        raise ValueError("a chain needs at least one matrix")
    yield from _iter_span(0, n - 1)


def rotations(tree: ParenTree) -> Iterator[ParenTree]:
    """All trees one rotation away from ``tree`` (its split neighborhood).

    A rotation at an internal node moves that node's split point to the
    split of one of its internal children — the minimal structural
    perturbation under which the set of parenthesizations is connected (any
    tree reaches any other through rotations).  A tree over ``n`` leaves has
    at most ``2 (n - 2)`` rotation neighbors; duplicates are not filtered
    (callers deduplicate by tree key).
    """
    if tree.is_leaf:
        return
    assert tree.left is not None and tree.right is not None
    # Rotate at the root: (A B) C -> A (B C)  and  A (B C) -> (A B) C.
    if not tree.left.is_leaf:
        yield join(tree.left.left, join(tree.left.right, tree.right))
    if not tree.right.is_leaf:
        yield join(join(tree.left, tree.right.left), tree.right.right)
    # Recurse: a rotation anywhere in a subtree, other subtree unchanged.
    for rotated in rotations(tree.left):
        yield join(rotated, tree.right)
    for rotated in rotations(tree.right):
        yield join(tree.left, rotated)


def catalan(k: int) -> int:
    """The k-th Catalan number ``(2k)! / (k! (k+1)!)``."""
    result = 1
    for i in range(k):
        result = result * 2 * (2 * i + 1) // (i + 2)
    return result


def left_to_right_tree(n: int) -> ParenTree:
    """``((M1 M2) M3) ... Mn`` — the order MATLAB and friends use."""
    tree = leaf(0)
    for i in range(1, n):
        tree = join(tree, leaf(i))
    return tree


def right_to_left_tree(n: int) -> ParenTree:
    """``M1 (M2 (... (M_{n-1} Mn)))``."""
    tree = leaf(n - 1)
    for i in range(n - 2, -1, -1):
        tree = join(leaf(i), tree)
    return tree


def _right_to_left_span(lo: int, hi: int) -> ParenTree:
    tree = leaf(hi)
    for i in range(hi - 1, lo - 1, -1):
        tree = join(leaf(i), tree)
    return tree


def _left_to_right_span(lo: int, hi: int) -> ParenTree:
    tree = leaf(lo)
    for i in range(lo + 1, hi + 1):
        tree = join(tree, leaf(i))
    return tree


def fanning_out_tree(n: int, h: int) -> ParenTree:
    """The fanning-out parenthesization ``E_h`` (paper eq. (4)).

    The prefix ``M1 .. Mh`` is computed right-to-left, the suffix
    ``M_{h+1} .. Mn`` left-to-right, and finally the two partial results are
    associated.  For ``h in {0, n}`` the whole chain is a single suffix or
    prefix.
    """
    if not 0 <= h <= n:
        raise ValueError(f"h must be in 0..{n}, got {h}")
    if h == 0:
        return _left_to_right_span(0, n - 1)
    if h == n:
        return _right_to_left_span(0, n - 1)
    prefix = _right_to_left_span(0, h - 1)
    suffix = _left_to_right_span(h, n - 1)
    return join(prefix, suffix)


def linearize(tree: ParenTree) -> list[ParenTree]:
    """Total order of associations: leftmost available first (Section IV).

    That order is the tree's post-order.  Every node of a left subtree has
    a smaller ``lo`` than any node of its right sibling, and while the left
    subtree is unfinished, its lowest unfinished node is available (the
    parent is not).  So the left subtree is issued first, then the right,
    then the parent; by induction, post-order (checked for every tree with
    n <= 10 in ``tests/test_variant_builder.py``).
    """
    return list(tree.internal_nodes())
