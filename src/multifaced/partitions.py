"""Multi-faced set partitions of totally ordered finite sets.

A multi-faced partition is a set partition of [n] = {1, ..., n} together with
a word over a finite face alphabet assigning each point (a "leg") a face.
Legs are 1-based throughout.  Partitions are immutable and kept in canonical
form: legs inside a block ascending, blocks sorted by their minimum.

The package works with two faces, written ``w`` and ``b``
(``DEFAULT_ALPHABET``).  The operations here work over any alphabet, and
the sweep and text helpers (``all_words``, ``partitions_upto``,
``parse_diagram``) take one as a parameter; the weight and classification
layers are two-faced.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

DEFAULT_ALPHABET = ("w", "b")

Block = tuple[int, ...]
Blocks = tuple[Block, ...]


class PartitionError(ValueError):
    """Raised for malformed partitions or diagram text."""


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


class Partition:
    """A set partition of [n] with a face word of length n."""

    __slots__ = ("word", "blocks", "_block_index", "_hash")

    def __init__(self, word: str, blocks: Iterable[Iterable[int]]):
        blocks = _canonical_blocks(blocks)
        n = len(word)
        seen: list[int] = []
        for b in blocks:
            if not b:
                raise PartitionError("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(1, n + 1)):
            raise PartitionError(f"blocks {blocks!r} do not partition [1..{n}]")
        self._init(word, blocks)

    def _init(self, word: str, blocks: Blocks) -> None:
        self.word = word
        self.blocks = blocks
        idx = [0] * (len(word) + 1)
        for i, b in enumerate(blocks):
            for leg in b:
                idx[leg] = i
        self._block_index = tuple(idx)
        self._hash = hash((word, blocks))

    @classmethod
    def _unsafe(cls, word: str, blocks: Blocks) -> "Partition":
        """Construct from already-canonical, already-valid data (no checks)."""
        self = object.__new__(cls)
        self._init(word, blocks)
        return self

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def face(self, leg: int) -> str:
        return self.word[leg - 1]

    def block_index_of(self, leg: int) -> int:
        if not 1 <= leg <= self.n:
            raise PartitionError(f"leg {leg} out of range 1..{self.n}")
        return self._block_index[leg]

    def block_of(self, leg: int) -> Block:
        return self.blocks[self.block_index_of(leg)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self._hash == other._hash
            and self.word == other.word
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition({format_diagram(self)!r})"

    def __str__(self) -> str:
        return format_diagram(self)

    # -- structure predicates -----------------------------------------------

    def is_interval(self) -> bool:
        """True iff every block is a set of consecutive legs."""
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def is_inner(self, leg: int) -> bool:
        """True iff some other block has legs on both sides of ``leg``."""
        self.block_index_of(leg)
        return leg in _analysis(self).inner

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self is contained in a block of other."""
        if self.word != other.word:
            return False
        idx = other._block_index
        return all(idx[leg] == idx[b[0]] for b in self.blocks for leg in b[1:])

    # -- rewriting operations -----------------------------------------------

    def reduce(self) -> "Partition":
        """Merge maximal runs of adjacent legs sharing face and block.

        The result has no two adjacent legs with equal face and equal block;
        the block count is preserved and the map is idempotent.
        """
        n = self.n
        if n == 0:
            return self
        reps: list[int] = [1]
        for leg in range(2, n + 1):
            prev = reps[-1]
            if self.word[leg - 1] == self.word[prev - 1] and self._block_index[leg] == self._block_index[prev]:
                continue
            reps.append(leg)
        if len(reps) == n:
            return self
        return self.restrict(reps)

    def mirror(self) -> "Partition":
        """Reverse the leg order: leg k goes to n - k + 1, the word reverses."""
        n = self.n
        blocks = _canonical_blocks(tuple(n - leg + 1 for leg in b) for b in self.blocks)
        return Partition._unsafe(self.word[::-1], blocks)

    def unite_blocks(self, b1: Iterable[int], b2: Iterable[int]) -> "Partition":
        """Replace the two given blocks by their union."""
        b1 = tuple(sorted(b1))
        b2 = tuple(sorted(b2))
        if b1 == b2:
            raise PartitionError("cannot unite a block with itself")
        if b1 not in self.blocks or b2 not in self.blocks:
            raise PartitionError(f"{b1} and {b2} must both be blocks of {self}")
        rest = [b for b in self.blocks if b != b1 and b != b2]
        rest.append(tuple(sorted(b1 + b2)))
        return Partition._unsafe(self.word, _canonical_blocks(rest))

    def split_sites(self) -> list[int]:
        """Legs i such that legs i and i + 1 share a face but not a block.

        These are the positions where the split relation applies; see
        :meth:`split_at`.
        """
        idx, word = self._block_index, self.word
        return [i for i in range(1, self.n) if idx[i] != idx[i + 1] and word[i - 1] == word[i]]

    def split_at(self, i: int) -> tuple["Partition", "Partition"]:
        """Both sides of the split relation at the site between legs i, i + 1.

        Returns ``(united, remembered)``: self with the blocks of legs i and
        i + 1 united, and the two-block partition those blocks form.  An
        admissible weight satisfies ``a(self) = a(united) * a(remembered)``.
        """
        idx = self._block_index
        if not 1 <= i < self.n or idx[i] == idx[i + 1] or self.word[i - 1] != self.word[i]:
            raise PartitionError(f"legs {i}, {i + 1} of {self} are not a same-face block boundary")
        b1, b2 = self.blocks[idx[i]], self.blocks[idx[i + 1]]
        return self.unite_blocks(b1, b2), self.restrict(b1 + b2)

    def split_block_at_leg(self, leg: int) -> "Partition":
        """Duplicate ``leg`` and split its block between the two copies.

        The first copy keeps the legs of the block up to ``leg``, the second
        copy takes the legs after it; both copies carry the leg's face, all
        later legs shift by one.
        """
        self.block_index_of(leg)
        word = self.word[:leg] + self.word[leg - 1] + self.word[leg:]
        bidx = self._block_index[leg]
        new_blocks: list[tuple[int, ...]] = []
        for i, b in enumerate(self.blocks):
            if i == bidx:
                new_blocks.append(tuple(x for x in b if x < leg) + (leg,))
                new_blocks.append((leg + 1,) + tuple(x + 1 for x in b if x > leg))
            else:
                new_blocks.append(tuple(x if x < leg else x + 1 for x in b))
        return Partition._unsafe(word, _canonical_blocks(new_blocks))

    def double_leg(self, leg: int) -> "Partition":
        """Duplicate ``leg`` (face included), both copies in the same block."""
        bidx = self.block_index_of(leg)
        word = self.word[:leg] + self.word[leg - 1] + self.word[leg:]
        new_blocks = []
        for i, b in enumerate(self.blocks):
            shifted = tuple(x if x <= leg else x + 1 for x in b)
            if i == bidx:
                shifted = tuple(sorted(shifted + (leg + 1,)))
            new_blocks.append(shifted)
        return Partition._unsafe(word, _canonical_blocks(new_blocks))

    def merge_legs(self, leg: int) -> "Partition":
        """Merge legs ``leg`` and ``leg + 1``; they must share block and face."""
        if leg + 1 > self.n:
            raise PartitionError(f"leg {leg + 1} out of range")
        if self._block_index[leg] != self._block_index[leg + 1]:
            raise PartitionError("legs to merge must lie in the same block")
        if self.word[leg - 1] != self.word[leg]:
            raise PartitionError("legs to merge must have the same face")
        return self.restrict([x for x in range(1, self.n + 1) if x != leg + 1])

    def change_extremal_face(self, end: str, face: str) -> "Partition":
        """Change the face of the first or last leg; ``end`` is 'first' or 'last'."""
        if self.n == 0:
            raise PartitionError("empty partition has no extremal legs")
        if end == "first":
            return Partition._unsafe(face + self.word[1:], self.blocks)
        if end == "last":
            return Partition._unsafe(self.word[:-1] + face, self.blocks)
        raise PartitionError(f"end must be 'first' or 'last', got {end!r}")

    def restrict(self, legs: Iterable[int]) -> "Partition":
        """The induced partition on a subset of legs, reindexed to [1..k]."""
        legs = sorted(legs)
        pos = {leg: i + 1 for i, leg in enumerate(legs)}
        word = "".join(self.word[leg - 1] for leg in legs)
        sub: dict[int, list[int]] = {}
        for leg in legs:
            sub.setdefault(self._block_index[leg], []).append(pos[leg])
        return Partition._unsafe(word, _canonical_blocks(sub.values()))

    def rotate(self) -> "Partition":
        """Cyclic rotation: leg i goes to i + 1 (and n to 1), word rotated along."""
        n = self.n
        if n == 0:
            return self
        word = self.word[-1] + self.word[:-1]
        blocks = (tuple(leg % n + 1 for leg in b) for b in self.blocks)
        return Partition._unsafe(word, _canonical_blocks(blocks))

    def swap_faces(self, mapping: dict[str, str]) -> "Partition":
        """Relabel faces through ``mapping`` (identity on unlisted faces)."""
        word = "".join(mapping.get(c, c) for c in self.word)
        return Partition._unsafe(word, self.blocks)


# -- structural analysis ------------------------------------------------------


class _Analysis:
    __slots__ = ("inner", "crossings")

    def __init__(self, inner: frozenset[int], crossings: frozenset[tuple[int, int]]):
        self.inner = inner
        self.crossings = crossings


def _blocks_cross(b1: Block, b2: Block) -> bool:
    # Two blocks cross iff their merged leg sequence alternates at least
    # B G B G, i.e. the origin label changes three or more times.
    merged = sorted(itertools.chain(((leg, 0) for leg in b1), ((leg, 1) for leg in b2)))
    changes = 0
    prev = merged[0][1]
    for _, o in merged[1:]:
        if o != prev:
            changes += 1
            prev = o
    return changes >= 3


@lru_cache(maxsize=None)
def _analysis(p: Partition) -> _Analysis:
    blocks = p.blocks
    k = len(blocks)
    inner: set[int] = set()
    for i, b in enumerate(blocks):
        for j, c in enumerate(blocks):
            if i == j:
                continue
            lo, hi = c[0], c[-1]
            for leg in b:
                if lo < leg < hi:
                    # c has a leg on each side of `leg` because lo, hi in c.
                    inner.add(leg)
    crossings = frozenset(
        (i, j) for i in range(k) for j in range(i + 1, k) if _blocks_cross(blocks[i], blocks[j])
    )
    return _Analysis(frozenset(inner), crossings)


# -- enumeration --------------------------------------------------------------


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[Blocks, ...]:
    """All set partitions of [1..n] as canonical block tuples.

    Enumerated through restricted growth strings in lexicographic order, so
    the result is deterministic and blocks come out sorted by minimum.
    """
    if n == 0:
        return ((),)
    out: list[Blocks] = []
    rgs = [0] * n

    def rec(i: int, m: int) -> None:
        if i == n:
            groups: list[list[int]] = [[] for _ in range(m + 1)]
            for pos, g in enumerate(rgs):
                groups[g].append(pos + 1)
            out.append(tuple(tuple(g) for g in groups))
            return
        for v in range(m + 2):
            rgs[i] = v
            rec(i + 1, max(m, v))

    rec(1, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def partition_index(n: int) -> dict[Blocks, int]:
    """The index j of each block tuple in ``set_partitions(n)``."""
    return {blocks: j for j, blocks in enumerate(set_partitions(n))}


@lru_cache(maxsize=None)
def pure_plan(b: tuple[int, ...]) -> tuple:
    """The summation plan of the factor pattern b (the factor of each leg).

    A partition is factor-pure if each of its blocks lies inside one
    factor.  ``subsets`` lists every block such a partition can have, as
    ``(factor - 1, 0-based positions)``.  ``terms`` lists the factor-pure
    partitions in enumeration order (factor by factor through
    ``set_partitions``, blocks sorted by first leg) as ``(j, ids)``: the
    partition is ``set_partitions(n)[j]`` and ``ids`` index its blocks in
    ``subsets``, in block order.

    For one factor, ``b = (1,) * n``, the terms are all of
    ``set_partitions(n)`` in order; ``terms[0]`` is the one-block partition
    and ``subsets[0]`` its block, the whole word.
    """
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(b, start=1):
        groups.setdefault(v, []).append(i)
    position_groups = list(groups.values())
    index = partition_index(len(b))
    subset_ids: dict[Block, int] = {}
    subsets = []
    terms = []
    for combo in itertools.product(*(set_partitions(len(g)) for g in position_groups)):
        blocks: list[Block] = []
        for legs, sub in zip(position_groups, combo):
            blocks.extend(tuple(legs[i - 1] for i in sb) for sb in sub)
        blocks.sort(key=lambda blk: blk[0])
        ids = []
        for block in blocks:
            s = subset_ids.get(block)
            if s is None:
                s = subset_ids[block] = len(subsets)
                subsets.append((b[block[0] - 1] - 1, tuple(leg - 1 for leg in block)))
            ids.append(s)
        terms.append((index[tuple(blocks)], tuple(ids)))
    return tuple(subsets), tuple(terms)


def enumerate_partitions(word: str) -> Iterator[Partition]:
    """Yield every partition of [1..len(word)] exactly once, canonically ordered."""
    for blocks in set_partitions(len(word)):
        yield Partition._unsafe(word, blocks)


def all_words(alphabet: Sequence[str], n: int) -> Iterator[str]:
    """All face words of length exactly n over the alphabet."""
    for letters in itertools.product(alphabet, repeat=n):
        yield "".join(letters)


def partitions_upto(max_legs: int, alphabet: Sequence[str] = DEFAULT_ALPHABET) -> Iterator[Partition]:
    """Every partition of 1 to max_legs legs over the alphabet, each once.

    Ordered by leg count, then face word (as :func:`all_words`), then
    restricted growth string (as :func:`enumerate_partitions`).
    """
    for n in range(1, max_legs + 1):
        for word in all_words(alphabet, n):
            yield from enumerate_partitions(word)


def one_block(word: str) -> Partition:
    """The one-block partition of the given word."""
    if not word:
        return Partition._unsafe("", ())
    return Partition._unsafe(word, (tuple(range(1, len(word) + 1)),))


def singletons(word: str) -> Partition:
    """The all-singletons partition of the given word."""
    return Partition._unsafe(word, tuple((i,) for i in range(1, len(word) + 1)))


# -- lattice and gluing operations --------------------------------------------


def concatenate(parts: Sequence[Partition]) -> Partition:
    """Concatenate partitions: words joined, blocks shifted by offsets."""
    word = "".join(p.word for p in parts)
    blocks: list[Block] = []
    offset = 0
    for p in parts:
        blocks.extend(tuple(leg + offset for leg in b) for b in p.blocks)
        offset += p.n
    return Partition._unsafe(word, _canonical_blocks(blocks))


def meet(parts: Sequence[Partition]) -> Partition:
    """The maximal common refinement (lattice meet) of the given partitions."""
    if not parts:
        raise PartitionError("meet of an empty family")
    word = parts[0].word
    for p in parts[1:]:
        if p.word != word:
            raise PartitionError("meet requires a common face word")
    keys: dict[tuple[int, ...], list[int]] = {}
    for leg in range(1, len(word) + 1):
        key = tuple(p._block_index[leg] for p in parts)
        keys.setdefault(key, []).append(leg)
    return Partition._unsafe(word, _canonical_blocks(keys.values()))


def refinements(p: Partition) -> Iterator[Partition]:
    """All partitions refining p (every block split independently)."""
    per_block = [set_partitions(len(b)) for b in p.blocks]
    for combo in itertools.product(*per_block):
        blocks: list[Block] = []
        for b, sub in zip(p.blocks, combo):
            blocks.extend(tuple(b[i - 1] for i in sb) for sb in sub)
        yield Partition._unsafe(p.word, _canonical_blocks(blocks))


# -- text and JSON ------------------------------------------------------------

_HEX = "123456789abcdef"


def format_diagram(p: Partition) -> str:
    """Render as ``<word>/<block>|<block>|...`` with hex legs for n <= 15."""
    if p.n <= 15:
        body = "|".join("".join(_HEX[leg - 1] for leg in b) for b in p.blocks)
    else:
        body = "|".join(",".join(str(leg) for leg in b) for b in p.blocks)
    return f"{p.word}/{body}"


def parse_diagram(text: str, alphabet: Sequence[str] | None = None) -> Partition:
    """Parse ``<word>/<block>|<block>|...``; inverse of :func:`format_diagram`."""
    if "/" not in text:
        raise PartitionError(f"missing '/' in diagram {text!r}")
    word, _, body = text.partition("/")
    word = word.strip()
    if alphabet is not None:
        bad = set(word) - set(alphabet)
        if bad:
            raise PartitionError(f"faces {sorted(bad)} not in alphabet {alphabet}")
    blocks: list[list[int]] = []
    body = body.strip()
    if body:
        for chunk in body.split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise PartitionError(f"empty block in {text!r}")
            if "," in chunk:
                legs = [int(s) for s in chunk.split(",")]
            else:
                try:
                    legs = [_HEX.index(c) + 1 for c in chunk]
                except ValueError:
                    raise PartitionError(f"bad leg character in block {chunk!r}") from None
            blocks.append(legs)
    return Partition(word, blocks)


def partition_to_json(p: Partition) -> dict:
    return {"word": p.word, "blocks": [list(b) for b in p.blocks]}


def partition_from_json(obj: dict) -> Partition:
    return Partition(obj["word"], obj["blocks"])
