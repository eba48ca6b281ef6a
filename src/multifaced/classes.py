"""The twelve two-faced partition classes and their membership predicates.

Each class is a set of two-faced partitions given by a quantified condition
on legs and blocks (crossings, inner legs, leg faces).  The faces are
``w`` and ``b``, as in the weight and classification layers; only the
partition layer works over other alphabets.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable

from .partitions import DEFAULT_ALPHABET, Partition, _analysis, partitions_upto

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
    return not _analysis(p).crossings


def _all_face_outer(p: Partition, face: str) -> bool:
    inner = _analysis(p).inner
    return all(p.word[leg - 1] != face for leg in inner)


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
    a = _analysis(p)
    for idx, b in enumerate(p.blocks):
        if not any(leg in a.inner and p.word[leg - 1] == face for leg in b):
            continue
        if len({p.word[leg - 1] for leg in b}) > 1:
            return False
        if any(idx in pair for pair in a.crossings):
            return False
    return True


def _is_pure_noncrossing(p: Partition) -> bool:
    # Noncrossing, and every block containing an inner leg is monochrome.
    a = _analysis(p)
    if a.crossings:
        return False
    for b in p.blocks:
        if any(leg in a.inner for leg in b) and len({p.word[leg - 1] for leg in b}) > 1:
            return False
    return True


def _is_pure_crossing(p: Partition) -> bool:
    # For every pair of blocks, the inner legs of the pair's restricted
    # diagram share one face.  (In a two-block diagram all inner legs are
    # mutually connected, so this is the two-block reading of "connected
    # inner legs have the same color".  Propagating the color constraint
    # through chains of crossings instead would violate closure under the
    # block-replacement rewrite, e.g. on wwwbbb/13|25|46.)
    blocks = p.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            r = p.restrict(blocks[i] + blocks[j])
            faces = {r.word[leg - 1] for leg in _analysis(r).inner}
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


@lru_cache(maxsize=None)
def member(c: ClassId, p: Partition) -> bool:
    """Membership of a two-faced partition in one of the twelve classes."""
    bad = set(p.word) - {W, B}
    if bad:
        raise ValueError(f"two-faced classes need faces {{'w','b'}}, got {sorted(bad)}")
    return _PREDICATES[c](p)


def class_member_set(c: ClassId, max_legs: int) -> frozenset[Partition]:
    """All members of class c with at most max_legs legs (all colorings)."""
    return frozenset(p for p in partitions_upto(max_legs) if member(c, p))
