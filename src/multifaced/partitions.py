"""Multi-faced set partitions of totally ordered finite sets.

A multi-faced partition is a set partition of [n] = {1, ..., n} together with
a word over a finite face alphabet assigning each point (a "leg") a face.
Legs are 1-based throughout.  Partitions are immutable and kept in canonical
form: legs inside a block ascending, blocks sorted by their minimum, which is
the order in which the blocks first appear along the legs.  Every rewrite
builds its result from one label per leg (``Partition._from_labels``), so
canonical form comes from numbering blocks by first appearance, without a
sort.  The numbering is the partition's restricted growth string, which
keys the shape table: every partition of one shape shares its ``blocks``
and block index tuples.

The package works with two faces, written ``w`` and ``b``
(``DEFAULT_ALPHABET``).  The operations here work over any alphabet, and
the sweep and text helpers (``all_words``, ``partitions_upto``,
``parse_diagram``) take one as a parameter; the weight and classification
layers are two-faced.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

DEFAULT_ALPHABET = ("w", "b")

Block = tuple[int, ...]
Blocks = tuple[Block, ...]


class PartitionError(ValueError):
    """Raised for malformed partitions or diagram text."""


# The shape table: each set partition's blocks without a face word, stored
# once.  The key is the restricted growth string (leg i's block number, 0-based,
# blocks numbered by first appearance); the entry is ``(blocks, block index)``,
# both tuples, shared by every partition of that shape.  Filled on first use,
# for any leg count.
_SHAPES: dict[tuple[int, ...], tuple[Blocks, tuple[int, ...]]] = {}


def _shape(rgs: tuple[int, ...]) -> tuple[Blocks, tuple[int, ...]]:
    """The table entry ``(blocks, block index)`` of a restricted growth string."""
    entry = _SHAPES.get(rgs)
    if entry is None:
        groups: list[list[int]] = [[] for _ in range(max(rgs, default=-1) + 1)]
        for leg, i in enumerate(rgs, 1):
            groups[i].append(leg)
        entry = _SHAPES[rgs] = (tuple(map(tuple, groups)), (0, *rgs))
    return entry


def _rgs_shape(labels: Iterable) -> tuple[Blocks, tuple[int, ...]]:
    """The table entry of the partition whose legs carry ``labels``: labels
    numbered by first appearance are its restricted growth string."""
    ids: dict = {}
    return _shape(tuple([ids.setdefault(label, len(ids)) for label in labels]))


class Partition:
    """A set partition of [n] with a face word of length n."""

    __slots__ = ("word", "n", "blocks", "_block_index", "_hash")

    def __init__(self, word: str, blocks: Iterable[Iterable[int]]):
        n = len(word)
        labels: list = [None] * n
        for i, b in enumerate(blocks):
            try:
                b = tuple(b)
            except TypeError:
                raise PartitionError(f"block {b!r} is not a collection of legs") from None
            if not b:
                raise PartitionError("empty block")
            for leg in b:
                if type(leg) is not int:
                    raise PartitionError(f"leg {leg!r} in block {b!r} is not an integer")
                if not 1 <= leg <= n or labels[leg - 1] is not None:
                    raise PartitionError(f"blocks do not partition [1..{n}]: leg {leg} repeated or out of range")
                labels[leg - 1] = i
        if None in labels:
            raise PartitionError(f"blocks do not partition [1..{n}]: leg {labels.index(None) + 1} missing")
        self._init(word, _rgs_shape(labels))

    def _init(self, word: str, shape: tuple[Blocks, tuple[int, ...]]) -> None:
        self.word = word
        self.n = len(word)
        self.blocks, self._block_index = shape
        self._hash = hash((word, self._block_index))

    @classmethod
    def _unsafe(cls, word: str, blocks: Blocks) -> "Partition":
        """Construct from already-canonical, already-valid blocks (no checks)."""
        rgs = [0] * len(word)
        for i, b in enumerate(blocks):
            for leg in b:
                rgs[leg - 1] = i
        self = object.__new__(cls)
        self._init(word, _shape(tuple(rgs)))
        return self

    @classmethod
    def _from_labels(cls, word: str, labels: Iterable) -> "Partition":
        """The partition whose leg i lies in the block named ``labels[i - 1]``.

        Labels are any hashables, one per leg of ``word``; legs with equal
        labels share a block.  The blocks and block index come from the
        shape table, shared with every partition of the same shape.
        """
        self = object.__new__(cls)
        self._init(word, _rgs_shape(labels))
        return self

    def _with_word(self, word: str) -> "Partition":
        """Self with another face word of the same length; blocks are shared."""
        other = object.__new__(Partition)
        other._init(word, (self.blocks, self._block_index))
        return other

    # -- basic accessors ----------------------------------------------------

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
        word, idx = self.word, self._block_index
        faces = word[:1]
        labels = list(idx[1:2])
        for leg in range(2, self.n + 1):
            if word[leg - 1] != word[leg - 2] or idx[leg] != idx[leg - 1]:
                faces += word[leg - 1]
                labels.append(idx[leg])
        if len(labels) == self.n:
            return self
        return Partition._from_labels(faces, labels)

    def mirror(self) -> "Partition":
        """Reverse the leg order: leg k goes to n - k + 1, the word reverses."""
        return Partition._from_labels(self.word[::-1], self._block_index[:0:-1])

    def unite_blocks(self, b1: Iterable[int], b2: Iterable[int]) -> "Partition":
        """Replace the two given blocks by their union."""
        b1 = tuple(sorted(b1))
        b2 = tuple(sorted(b2))
        if b1 == b2:
            raise PartitionError("cannot unite a block with itself")
        try:
            i1, i2 = self.blocks.index(b1), self.blocks.index(b2)
        except ValueError:
            raise PartitionError(f"{b1} and {b2} must both be blocks of {self}") from None
        return self._united(i1, i2)

    def _united(self, i1: int, i2: int) -> "Partition":
        # Self with block i2 relabelled as block i1.
        return Partition._from_labels(self.word, [i1 if i == i2 else i for i in self._block_index[1:]])

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
        i1, i2 = idx[i], idx[i + 1]
        return self._united(i1, i2), self.restrict(self.blocks[i1] + self.blocks[i2])

    def split_block_at_leg(self, leg: int) -> "Partition":
        """Duplicate ``leg`` and split its block between the two copies.

        The first copy keeps the legs of the block up to ``leg``, the second
        copy takes the legs after it; both copies carry the leg's face, all
        later legs shift by one.
        """
        bidx = self.block_index_of(leg)
        word = self.word[:leg] + self.word[leg - 1] + self.word[leg:]
        idx = self._block_index
        # The second copy and the legs of its block after it take a fresh label.
        fresh = len(self.blocks)
        after = [fresh if i == bidx else i for i in idx[leg + 1 :]]
        return Partition._from_labels(word, [*idx[1 : leg + 1], fresh, *after])

    def double_leg(self, leg: int) -> "Partition":
        """Duplicate ``leg`` (face included), both copies in the same block."""
        self.block_index_of(leg)
        word = self.word[:leg] + self.word[leg - 1] + self.word[leg:]
        idx = self._block_index
        return Partition._from_labels(word, idx[1 : leg + 1] + idx[leg:])

    def merge_legs(self, leg: int) -> "Partition":
        """Merge legs ``leg`` and ``leg + 1``; they must share block and face."""
        if leg + 1 > self.n:
            raise PartitionError(f"leg {leg + 1} out of range")
        if self._block_index[leg] != self._block_index[leg + 1]:
            raise PartitionError("legs to merge must lie in the same block")
        if self.word[leg - 1] != self.word[leg]:
            raise PartitionError("legs to merge must have the same face")
        idx = self._block_index
        return Partition._from_labels(self.word[:leg] + self.word[leg + 1 :], idx[1 : leg + 1] + idx[leg + 2 :])

    def change_extremal_face(self, end: str, face: str) -> "Partition":
        """Change the face of the first or last leg; ``end`` is 'first' or 'last'."""
        if self.n == 0:
            raise PartitionError("empty partition has no extremal legs")
        if end == "first":
            return self._with_word(face + self.word[1:])
        if end == "last":
            return self._with_word(self.word[:-1] + face)
        raise PartitionError(f"end must be 'first' or 'last', got {end!r}")

    def restrict(self, legs: Iterable[int]) -> "Partition":
        """The induced partition on a subset of legs, reindexed to [1..k]."""
        legs = sorted(legs)
        word, idx = self.word, self._block_index
        return Partition._from_labels("".join([word[leg - 1] for leg in legs]), [idx[leg] for leg in legs])

    def rotate(self) -> "Partition":
        """Cyclic rotation: leg i goes to i + 1 (and n to 1), word rotated along."""
        if self.n == 0:
            return self
        idx = self._block_index
        return Partition._from_labels(self.word[-1] + self.word[:-1], idx[-1:] + idx[1:-1])

    def swap_faces(self, mapping: dict[str, str]) -> "Partition":
        """Relabel faces through ``mapping`` (identity on unlisted faces)."""
        return self._with_word("".join(mapping.get(c, c) for c in self.word))


# -- enumeration --------------------------------------------------------------


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[Blocks, ...]:
    """All set partitions of [1..n] as canonical block tuples.

    Enumerated through restricted growth strings in lexicographic order, so
    the result is deterministic and blocks come out sorted by minimum.  The
    tuples are the shape table's.
    """
    out: list[Blocks] = []
    rgs = [0] * n

    def rec(i: int, m: int) -> None:
        if i >= n:
            out.append(_shape(tuple(rgs))[0])
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

    ``groups`` lists, for each factor present in order of first appearance,
    ``(factor - 1, 0-based positions)``.  A partition is factor-pure if each
    of its blocks lies inside one factor.  ``subsets`` lists every block such
    a partition can have, as ``(factor - 1, 0-based positions, mask)``: bit i
    of ``mask`` is set if the block holds the factor's i-th position in
    ``groups``.  ``terms`` lists the factor-pure partitions in enumeration
    order (factor by factor through ``set_partitions``, blocks sorted by
    first leg) as ``(j, ids)``: the partition is ``set_partitions(n)[j]``
    and ``ids`` index its blocks in ``subsets``, in block order.
    ``terms[0]`` is the factor partition, one block per factor, and the
    terms are exactly its refinements.

    For one factor, ``b = (1,) * n``, the terms are all of
    ``set_partitions(n)`` in order; ``terms[0]`` is the one-block partition
    and ``subsets[0]`` its block, the whole word.
    """
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(b, start=1):
        groups.setdefault(v, []).append(i)
    position_groups = list(groups.values())
    bit = {leg: 1 << i for legs in position_groups for i, leg in enumerate(legs)}
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
                subsets.append((b[block[0] - 1] - 1, tuple(leg - 1 for leg in block), sum(map(bit.__getitem__, block))))
            ids.append(s)
        terms.append((index[tuple(blocks)], tuple(ids)))
    factor_groups = tuple((v - 1, tuple(leg - 1 for leg in legs)) for v, legs in groups.items())
    return factor_groups, tuple(subsets), tuple(terms)


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
    labels: list[int] = []
    offset = 0
    for p in parts:
        labels.extend(i + offset for i in p._block_index[1:])
        offset += p.block_count
    return Partition._from_labels("".join(p.word for p in parts), labels)


def meet(parts: Sequence[Partition]) -> Partition:
    """The maximal common refinement (lattice meet) of the given partitions."""
    if not parts:
        raise PartitionError("meet of an empty family")
    word = parts[0].word
    for p in parts[1:]:
        if p.word != word:
            raise PartitionError("meet requires a common face word")
    # A leg's label is its block in every part.
    return Partition._from_labels(word, zip(*(p._block_index[1:] for p in parts)))


def refinements(p: Partition) -> Iterator[Partition]:
    """All partitions refining p (every block split independently).

    These are the factor-pure partitions of p's block pattern, so they come
    from ``pure_plan`` in its order: block by block of p through
    ``set_partitions``, p itself first.
    """
    parts = set_partitions(p.n)
    for j, _ in pure_plan(tuple(i + 1 for i in p._block_index[1:]))[2]:
        yield Partition._unsafe(p.word, parts[j])


# -- text and JSON ------------------------------------------------------------

_HEX = "123456789abcdef"


def format_diagram(p: Partition) -> str:
    """Render as ``<word>/<block>|<block>|...`` with hex legs for n <= 15."""
    if p.n <= 15:
        body = "|".join("".join(_HEX[leg - 1] for leg in b) for b in p.blocks)
    else:
        body = "|".join(",".join(str(leg) for leg in b) for b in p.blocks)
    return f"{p.word}/{body}"


def check_faces(faces: Iterable[str], alphabet: Sequence[str] = DEFAULT_ALPHABET) -> None:
    """Raise PartitionError naming the faces outside ``alphabet``, if any."""
    bad = set(faces) - set(alphabet)
    if bad:
        raise PartitionError(f"faces {sorted(bad)} not in alphabet {alphabet}")


def parse_diagram(text: str, alphabet: Sequence[str] | None = None) -> Partition:
    """Parse ``<word>/<block>|<block>|...``; inverse of :func:`format_diagram`."""
    if "/" not in text:
        raise PartitionError(f"missing '/' in diagram {text!r}")
    word, _, body = text.partition("/")
    word = word.strip()
    if alphabet is not None:
        check_faces(word, alphabet)
    blocks: list[list[int]] = []
    body = body.strip()
    # Above 15 legs every block is decimal, one-leg blocks included.
    decimal = len(word) > 15
    if body:
        for chunk in body.split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise PartitionError(f"empty block in {text!r}")
            if decimal or "," in chunk:
                try:
                    legs = [int(s) for s in chunk.split(",")]
                except ValueError:
                    raise PartitionError(f"bad leg number in block {chunk!r}") from None
            else:
                try:
                    legs = [_HEX.index(c) + 1 for c in chunk]
                except ValueError:
                    raise PartitionError(f"bad leg character in block {chunk!r}") from None
            blocks.append(legs)
    return Partition(word, blocks)


# -- JSON shape checks ---------------------------------------------------------

_JSON_KINDS = {
    "an object": dict,
    "a list": (list, tuple),
    "a string": str,
    "an integer": int,
    "a number": (int, float),
}


def json_expect(value, kind: str, what: str):
    """``value`` if it is of the JSON kind (a key of ``_JSON_KINDS``), else
    ValueError naming ``what`` and the value.  JSON ``true`` and ``false``
    load as Python bools, which are ints; no kind accepts them."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ValueError(f"{what} must be {kind}, got {json.dumps(value, default=repr)}")
    return value


def json_field(obj: dict, key: str, what: str):
    """``obj[key]``, else ValueError naming ``what`` and the missing key."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} has no key {key!r}") from None


def partition_to_json(p: Partition) -> dict:
    return {"word": p.word, "blocks": [list(b) for b in p.blocks]}


def partition_from_json(obj: dict) -> Partition:
    json_expect(obj, "an object", "partition")
    word = json_expect(json_field(obj, "word", "partition"), "a string", "partition word")
    return Partition(word, json_expect(json_field(obj, "blocks", "partition"), "a list", "partition blocks"))
