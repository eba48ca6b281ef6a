"""The twelve two-faced partition classes and their membership predicates.

Each class is a set of two-faced partitions given by a quantified condition
on legs and blocks (crossings, inner legs, leg faces).  The faces are
``w`` and ``b``, as in the weight and classification layers; only the
partition layer works over other alphabets.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect
from typing import Callable, NamedTuple

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


# -- per-shape facts ------------------------------------------------------------
#
# Crossings and inner legs depend on the blocks alone, so they are computed
# once per shape (keyed by its block index) as leg masks, leg i being bit
# n - i; a predicate then tests only the faces, through the mask of b-legs.


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


class _Shape(NamedTuple):
    """The face-independent facts of one set partition, as leg masks."""

    inner: int  # the inner legs
    # the inner legs of blocks that cross another block; 0 iff noncrossing,
    # since two blocks that cross each have a leg inside the other's span
    crossing_inner: int
    # (its inner legs, its legs) per block of 2+ legs with an inner leg that crosses no other block
    nested: tuple[tuple[int, int], ...]
    pairs: tuple[int, ...]  # pC: the inner legs of each pair of blocks, 2+ legs
    agree: tuple[int, ...]  # biNC: two legs that must share a face
    differ: tuple[int, ...]  # biNC: two legs that must not


_SHAPE_FACTS: dict[tuple[int, ...], _Shape] = {}


def _shape_facts(p: Partition) -> _Shape:
    facts = _SHAPE_FACTS.get(p._block_index)
    if facts is None:
        facts = _SHAPE_FACTS[p._block_index] = _facts_of(p)
    return facts


def _facts_of(p: Partition) -> _Shape:
    n, blocks = p.n, p.blocks

    def mask(legs) -> int:
        return sum(1 << (n - leg) for leg in legs)

    inner = _inner_legs(p)
    crossing_inner, nested = 0, []
    for b in blocks:
        ib = mask(leg for leg in b if leg in inner)
        if ib and any(_cross(b, c) for c in blocks if c is not b):
            crossing_inner |= ib
        elif ib and len(b) > 1:
            nested.append((ib, mask(b)))
    # The inner legs of the pair b, c are the legs of b strictly inside c's
    # span and the legs of c strictly inside b's span.  (In a two-block
    # diagram all inner legs are mutually connected, so this is the
    # two-block reading of "connected inner legs have the same color".
    # Propagating the color constraint through chains of crossings instead
    # would violate closure under the block-replacement rewrite, e.g. on
    # wwwbbb/13|25|46.)
    pairs = set()
    for i, b in enumerate(blocks):
        for c in blocks[i + 1 :]:
            if c[0] > b[-1]:
                break  # blocks ascend by minimum: c and the rest start after b ends
            g = mask([leg for leg in c if leg < b[-1]] + [leg for leg in b if c[0] < leg < c[-1]])
            if g & (g - 1):
                pairs.add(g)
    # For i < j < k < l, i, k in one block and j, l in another, the faces
    # of j and k differ; for i < j < l < k, i, k in one block and j, l in
    # another, the faces of j and l agree.
    agree, differ = set(), set()
    for beta in blocks:
        for gamma in blocks:
            if gamma is beta:
                continue
            for i, k in itertools.combinations(beta, 2):
                for j in gamma:
                    if i < j < k:
                        differ.update(mask((j, k)) for l in gamma if l > k)
                        agree.update(mask((j, l)) for l in gamma if j < l < k)
    return _Shape(mask(inner), crossing_inner, tuple(nested), tuple(pairs), tuple(agree), tuple(differ))


_FACE_BITS = {W: str.maketrans(W + B, "10"), B: str.maketrans(W + B, "01")}


def _face_legs(p: Partition, face: str = B) -> int:
    """The mask of p's legs of the given face."""
    return int(p.word.translate(_FACE_BITS[face]) or "0", 2)


def _monochrome(m: int, g: int) -> bool:
    # the legs g all have one face, given the legs m of either face
    return m & g in (0, g)


def _all_face_outer(p: Partition, face: str) -> bool:
    return not _shape_facts(p).inner & _face_legs(p, face)


def _is_binoncrossing(p: Partition) -> bool:
    s, m = _shape_facts(p), _face_legs(p)
    return all(_monochrome(m, g) for g in s.agree) and not any(_monochrome(m, g) for g in s.differ)


def _is_noncrossing_arbitrary(p: Partition, face: str) -> bool:
    # Every block containing an inner `face`-leg must be monochrome, so all
    # `face`, and must not cross any other block.
    s, f = _shape_facts(p), _face_legs(p, face)
    return not s.crossing_inner & f and all(not ib & f or bm & f == bm for ib, bm in s.nested)


def _is_pure_noncrossing(p: Partition) -> bool:
    # Noncrossing, and every block containing an inner leg is monochrome.
    s = _shape_facts(p)
    if s.crossing_inner:
        return False
    m = _face_legs(p)
    return all(_monochrome(m, bm) for _, bm in s.nested)


def _is_pure_crossing(p: Partition) -> bool:
    # For every pair of blocks, the inner legs of the pair's restricted
    # diagram share one face.
    m = _face_legs(p)
    return all(_monochrome(m, g) for g in _shape_facts(p).pairs)


_PREDICATES: dict[ClassId, Callable[[Partition], bool]] = {
    ClassId.I: lambda p: not _shape_facts(p).inner,
    ClassId.NC: lambda p: not _shape_facts(p).crossing_inner,
    ClassId.biNC: _is_binoncrossing,
    ClassId.IwNCb: lambda p: not _shape_facts(p).crossing_inner and _all_face_outer(p, W),
    ClassId.NCwIb: lambda p: not _shape_facts(p).crossing_inner and _all_face_outer(p, B),
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
    if p.word.strip(W + B):
        bad = set(p.word) - {W, B}
        raise ValueError(f"two-faced classes need faces {{'w','b'}}, got {sorted(bad)}")
    return _PREDICATES[c](p)


def class_member_set(c: ClassId, max_legs: int) -> frozenset[Partition]:
    """All members of class c with at most max_legs legs (all colorings)."""
    return frozenset(p for p in partitions_upto(max_legs) if member(c, p))
