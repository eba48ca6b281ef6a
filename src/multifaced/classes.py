"""The twelve two-faced partition classes and their membership predicates.

Each class is a set of two-faced partitions given by a quantified condition
on legs and blocks (crossings, inner legs, leg faces).  The faces are
``w`` and ``b``, as in the weight and classification layers; only the
partition layer works over other alphabets.
"""

from __future__ import annotations

import enum
from bisect import bisect
from typing import Callable

from .partitions import DEFAULT_ALPHABET, Block, Partition, partitions_upto

W, B = DEFAULT_ALPHABET


class ClassId(enum.Enum):
    """Identifiers of the twelve two-faced partition classes."""

    I = "I"
    NC = "NC"
    biNC = "biNC"
    IwNCb = "IwNCb"
    NCwIb = "NCwIb"
    IwAb = "IwAb"
    AwIb = "AwIb"
    NCwAb = "NCwAb"
    AwNCb = "AwNCb"
    pNC = "pNC"
    pC = "pC"
    A = "A"

    def __str__(self) -> str:
        return self.value


ALL_CLASSES: tuple[ClassId, ...] = tuple(ClassId)

_SWAP = {
    ClassId.IwNCb: ClassId.NCwIb,
    ClassId.NCwIb: ClassId.IwNCb,
    ClassId.IwAb: ClassId.AwIb,
    ClassId.AwIb: ClassId.IwAb,
    ClassId.NCwAb: ClassId.AwNCb,
    ClassId.AwNCb: ClassId.NCwAb,
}


def swap_class(c: ClassId) -> ClassId:
    """The class obtained by swapping the two faces; fixes the symmetric six."""
    return _SWAP.get(c, c)


# -- predicate building blocks -------------------------------------------------


def _is_noncrossing(p: Partition) -> bool:
    # One scan over the legs with a stack of the blocks opened and not yet
    # closed: a leg whose block opened earlier must be in the innermost one.
    idx, blocks = p._block_index, p.blocks
    stack: list[int] = []
    for leg in range(1, p.n + 1):
        i = idx[leg]
        b = blocks[i]
        if leg == b[0]:
            if len(b) > 1:
                stack.append(i)
        elif stack[-1] != i:
            return False
        elif leg == b[-1]:
            stack.pop()
    return True


def _inner_legs(p: Partition) -> set[int]:
    """The legs strictly inside the span of another block."""
    idx = p._block_index
    return {leg for i, c in enumerate(p.blocks) for leg in range(c[0] + 1, c[-1]) if idx[leg] != i}


def _cross(b: Block, c: Block) -> bool:
    # For b[0] < c[0]: the blocks cross iff the legs of c fall into more
    # than one gap between consecutive legs of b, that is, iff c ends past
    # the first leg of b after c[0].
    if c[0] < b[0]:
        b, c = c, b
    g = bisect(b, c[0])
    return g < len(b) and c[-1] > b[g]


def _all_face_outer(p: Partition, face: str) -> bool:
    return all(p.word[leg - 1] != face for leg in _inner_legs(p))


def _is_binoncrossing(p: Partition) -> bool:
    # For i < j < k < l and distinct blocks:
    #   i,k in one block and j,l in the other  =>  f(j) != f(k)
    #   i,l in one block and j,k in the other  =>  f(j)  = f(k)
    blocks = p.blocks
    for bi in range(len(blocks)):
        for bj in range(len(blocks)):
            if bi == bj:
                continue
            beta, gamma = blocks[bi], blocks[bj]
            for i_leg in beta:
                for k_leg in beta:
                    if k_leg <= i_leg:
                        continue
                    for j_leg in gamma:
                        if not i_leg < j_leg < k_leg:
                            continue
                        for l_leg in gamma:
                            if l_leg > k_leg and p.word[j_leg - 1] == p.word[k_leg - 1]:
                                return False  # crossing with equal inner faces
                            if j_leg < l_leg < k_leg and p.word[j_leg - 1] != p.word[l_leg - 1]:
                                # i < j < l < k with j,l nested inside i..k
                                return False
    return True


def _is_noncrossing_arbitrary(p: Partition, face: str) -> bool:
    # Every block containing an inner `face`-leg must be monochrome and must
    # not cross any other block.
    inner = _inner_legs(p)
    for b in p.blocks:
        if not any(leg in inner and p.word[leg - 1] == face for leg in b):
            continue
        if len({p.word[leg - 1] for leg in b}) > 1:
            return False
        if any(_cross(b, c) for c in p.blocks if c is not b):
            return False
    return True


def _is_pure_noncrossing(p: Partition) -> bool:
    # Noncrossing, and every block containing an inner leg is monochrome.
    if not _is_noncrossing(p):
        return False
    inner = _inner_legs(p)
    for b in p.blocks:
        if any(leg in inner for leg in b) and len({p.word[leg - 1] for leg in b}) > 1:
            return False
    return True


def _is_pure_crossing(p: Partition) -> bool:
    # For every pair of blocks, the inner legs of the pair's restricted
    # diagram share one face.  (In a two-block diagram all inner legs are
    # mutually connected, so this is the two-block reading of "connected
    # inner legs have the same color".  Propagating the color constraint
    # through chains of crossings instead would violate closure under the
    # block-replacement rewrite, e.g. on wwwbbb/13|25|46.)  The inner legs
    # of the pair b, c are the legs of b strictly inside c's span and the
    # legs of c strictly inside b's span.
    blocks, word = p.blocks, p.word
    for i, b in enumerate(blocks):
        hi = b[-1]
        for c in blocks[i + 1 :]:
            if c[0] > hi:
                break  # blocks ascend by minimum: c and the rest start after b ends
            faces = {word[leg - 1] for leg in c if leg < hi}
            faces.update(word[leg - 1] for leg in b if c[0] < leg < c[-1])
            if len(faces) > 1:
                return False
    return True


_PREDICATES: dict[ClassId, Callable[[Partition], bool]] = {
    ClassId.I: lambda p: p.is_interval(),
    ClassId.NC: _is_noncrossing,
    ClassId.biNC: _is_binoncrossing,
    ClassId.IwNCb: lambda p: _is_noncrossing(p) and _all_face_outer(p, W),
    ClassId.NCwIb: lambda p: _is_noncrossing(p) and _all_face_outer(p, B),
    ClassId.IwAb: lambda p: _all_face_outer(p, W),
    ClassId.AwIb: lambda p: _all_face_outer(p, B),
    ClassId.NCwAb: lambda p: _is_noncrossing_arbitrary(p, W),
    ClassId.AwNCb: lambda p: _is_noncrossing_arbitrary(p, B),
    ClassId.pNC: _is_pure_noncrossing,
    ClassId.pC: _is_pure_crossing,
    ClassId.A: lambda p: True,
}


def member(c: ClassId, p: Partition) -> bool:
    """Membership of a two-faced partition in one of the twelve classes."""
    bad = set(p.word) - {W, B}
    if bad:
        raise ValueError(f"two-faced classes need faces {{'w','b'}}, got {sorted(bad)}")
    return _PREDICATES[c](p)


def class_member_set(c: ClassId, max_legs: int) -> frozenset[Partition]:
    """All members of class c with at most max_legs legs (all colorings)."""
    return frozenset(p for p in partitions_upto(max_legs) if member(c, p))
