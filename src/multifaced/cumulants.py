"""Truncated linear functionals on free multi-faced algebras and their
moment-cumulant transforms.

A functional table assigns a scalar to every word over a finite generator
set, up to a degree bound.  For monic weights the weighted exponential

    exp(psi)(x_1 ... x_n) = sum over partitions  a(pi) * prod psi(word|block)

is a bijection on tables; its inverse (the cumulant transform) is computed
by the triangular recursion in the word length.

Both sums run on ``partitions.pure_plan((1,) * n)``, the plan the product
engine uses for a word of one factor: one value per nonempty subset of the
word's positions, read once, and each partition as ``(j, ids)``, its index
in ``set_partitions(n)`` and the ids of its blocks among the subsets.  The
weight of partition j is slot j of the family's row of the word's face
word (``WeightFamily.row``), filled from ``weight`` on its first read and
shared by every table, transform and ``Product`` of the family.  A term is
the weight times the block values, multiplied weight first and in block
order, as in ``Product.moment``.  ``exp_alpha``, ``cumulant`` and the
product thus share one plan type and one weight row per face word.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Callable, Iterable, Sequence

from .partitions import Partition, check_faces, json_expect, json_field, pure_plan, set_partitions
from .weights import WeightFamily, complex_json, json_complex

# A generator letter is (face, name); a word is a tuple of letters.
Letter = tuple[str, str]
Word = tuple[Letter, ...]


def faces_of(word: Word) -> str:
    return "".join(f for f, _ in word)


class MissingMomentError(KeyError):
    """A table was asked for a word outside its domain."""


class FunctionalTable:
    """A truncated linear functional: word of generators -> complex value.

    Backed either by a dense dict over all words up to the degree bound or
    by a value function (used for the tables built from proofs: delta
    functionals, direct sums, unit-extended, substituted).
    """

    def __init__(
        self,
        generators: Sequence[Letter],
        degree_bound: int,
        values: dict[Word, complex] | None = None,
        fn: Callable[[Word], complex] | None = None,
    ):
        if (values is None) == (fn is None):
            raise ValueError("exactly one of values/fn must be given")
        self.generators = tuple(generators)
        self.degree_bound = degree_bound
        self.values = values
        self.fn = fn

    def value(self, word: Word):
        if len(word) > self.degree_bound:
            raise MissingMomentError(f"word of length {len(word)} exceeds degree bound {self.degree_bound}")
        if self.values is not None:
            try:
                return self.values[word]
            except KeyError:
                raise MissingMomentError(f"no moment for word {word}") from None
        return self.fn(word)

    def words(self, max_len: int | None = None) -> Iterable[Word]:
        top = self.degree_bound if max_len is None else min(max_len, self.degree_bound)
        for n in range(1, top + 1):
            yield from itertools.product(self.generators, repeat=n)

    def restricted(self, word: Word, block: Sequence[int]) -> Word:
        return tuple(word[i - 1] for i in block)

    def __repr__(self) -> str:
        mode = "dense" if self.values is not None else "fn"
        return f"<FunctionalTable {mode} gens={len(self.generators)} deg={self.degree_bound}>"


def random_table(generators: Sequence[Letter], degree_bound: int, rng: random.Random) -> FunctionalTable:
    """Dense table with re and im drawn uniformly from [-1, 1]."""
    values: dict[Word, complex] = {}
    for n in range(1, degree_bound + 1):
        for word in itertools.product(generators, repeat=n):
            values[word] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FunctionalTable(generators, degree_bound, values=values)


def standard_generators(faces: Sequence[str] = ("w", "b"), per_face: int = 1, prefix: str = "x") -> tuple[Letter, ...]:
    """One or more named generators per face: x1w, x1b, x2w, ..."""
    return tuple((f, f"{prefix}{i + 1}{f}") for i in range(per_face) for f in faces)


# -- transforms -----------------------------------------------------------------


def exp_alpha(family: WeightFamily, psi: FunctionalTable) -> FunctionalTable:
    """The weighted exponential: moments from cumulants, densely."""
    values: dict[Word, complex] = {}
    weight = family.weight
    for word in psi.words():
        n = len(word)
        faces = faces_of(word)
        parts = set_partitions(n)
        _, subsets, terms = pure_plan((1,) * n)
        row = family.row(faces)
        leg = word.__getitem__
        cumulants = [psi.value(tuple(map(leg, positions))) for _, positions, _ in subsets]
        total = 0
        for j, ids in terms:
            a = row[j]
            if a is None:
                a = row[j] = weight(faces, parts[j])
            if a != 0:
                total += math.prod(map(cumulants.__getitem__, ids), start=a)
        values[word] = total
    return FunctionalTable(psi.generators, psi.degree_bound, values=values)


def cumulant(family: WeightFamily, table: FunctionalTable, word: Word, cache: dict[Word, complex]) -> complex:
    """The cumulant of one word, via the triangular recursion (memoized)."""
    got = cache.get(word)
    if got is not None:
        return got
    value = table.value(word)
    n = len(word)
    if n > 1:
        faces = faces_of(word)
        parts = set_partitions(n)
        _, subsets, terms = pure_plan((1,) * n)
        leg = word.__getitem__
        # subsets[0] is the whole word, a block of terms[0] only: the
        # one-block partition, whose cumulant is the unknown solved for.
        # The cache is read here, so only a missing subword costs a call.
        cumulants = [None]
        for _, positions, _ in subsets[1:]:
            sub = tuple(map(leg, positions))
            got = cache.get(sub)
            cumulants.append(cumulant(family, table, sub, cache) if got is None else got)
        row = family.row(faces)
        for j, ids in terms[1:]:
            a = row[j]
            if a is None:
                a = row[j] = family.weight(faces, parts[j])
            if a != 0:
                value = value - math.prod(map(cumulants.__getitem__, ids), start=a)
    cache[word] = value
    return value


def log_alpha(family: WeightFamily, phi: FunctionalTable) -> FunctionalTable:
    """The inverse of exp_alpha: cumulants from moments, densely."""
    cache: dict[Word, complex] = {}
    values = {word: cumulant(family, phi, word, cache) for word in phi.words()}
    return FunctionalTable(phi.generators, phi.degree_bound, values=values)


def moment_via_ordered_relation(family: WeightFamily, cumulants: FunctionalTable, word: Word) -> complex:
    """The ordered-partition form of the moment-cumulant relation.

    Sums over ordered set partitions with the 1/k! prefactor; for
    block-permutation-invariant weights this agrees with the unordered form.
    The ordered partitions are enumerated here, the first block being any
    nonempty subset of the remaining legs, and each weight is read through
    ``evaluate``: the route shares no enumeration with ``exp_alpha`` and
    ``log_alpha`` (neither ``set_partitions`` nor ``pure_plan``).
    """
    faces = faces_of(word)

    def ordered(rest: tuple[int, ...]) -> Iterable[tuple[tuple[int, ...], ...]]:
        if not rest:
            yield ()
        for r in range(1, len(rest) + 1):
            for first in itertools.combinations(rest, r):
                remaining = tuple(leg for leg in rest if leg not in first)
                for tail in ordered(remaining):
                    yield (first,) + tail

    total = 0
    for blocks in ordered(tuple(range(1, len(word) + 1))):
        a = family.evaluate(Partition(faces, blocks))
        cumulant_product = math.prod(cumulants.value(cumulants.restricted(word, b)) for b in blocks)
        total += a * cumulant_product / math.factorial(len(blocks))
    return total


def direct_sum(psi1: FunctionalTable, psi2: FunctionalTable) -> FunctionalTable:
    """psi1 on words of the first generator set, psi2 on the second, 0 mixed."""
    overlap = set(psi1.generators) & set(psi2.generators)
    if overlap:
        raise ValueError(f"generator sets overlap: {sorted(overlap)}")
    g1 = set(psi1.generators)
    degree = min(psi1.degree_bound, psi2.degree_bound)

    def fn(word: Word):
        ours = [g in g1 for g in word]
        if all(ours):
            return psi1.value(word)
        if not any(ours):
            return psi2.value(word)
        return complex(0)

    return FunctionalTable(psi1.generators + psi2.generators, degree, fn=fn)


# -- derived tables --------------------------------------------------------------


def substituted_table(table: FunctionalTable, mapping: dict[Letter, Word], degree_bound: int | None = None) -> FunctionalTable:
    """Table over fresh letters whose moments expand each letter to a word.

    Every image must be a nonempty word of same-face generators of the base
    table, so the fresh letter has a well-defined face.
    """
    for g, image in mapping.items():
        if not image:
            raise ValueError(f"empty expansion for {g}")
        if any(f != g[0] for f, _ in image):
            raise ValueError(f"expansion of {g} must stay in face {g[0]!r}")

    def fn(word: Word):
        expanded: list[Letter] = []
        for g in word:
            expanded.extend(mapping[g])
        return table.value(tuple(expanded))

    return FunctionalTable(tuple(mapping), degree_bound or table.degree_bound, fn=fn)


def unit_extended_table(table: FunctionalTable, units: dict[str, Letter]) -> FunctionalTable:
    """Extend a table by a unit letter per face: units drop out of words and
    a word of units alone has moment 1."""
    unit_set = set(units.values())
    for face, u in units.items():
        if u[0] != face:
            raise ValueError(f"unit {u} must carry face {face!r}")

    def fn(word: Word):
        core = tuple(g for g in word if g not in unit_set)
        if not core:
            return complex(1)
        return table.value(core)

    return FunctionalTable(table.generators + tuple(units.values()), table.degree_bound, fn=fn)


# -- product-of-letters cumulant identity ------------------------------------------


def product_letter_cumulant_check(
    family: WeightFamily,
    table: FunctionalTable,
    word: Word,
    i: int,
) -> dict:
    """Compare the cumulant of a word with letters i, i+1 merged against the
    cumulant of the original word plus the two-block correction sum.

    Positions are 1-based; the two letters must have one face.  Returns the
    two sides and their absolute difference.
    """
    n = len(word)
    if not 1 <= i < n:
        raise ValueError(f"position {i} out of range for word of length {n}")
    if word[i - 1][0] != word[i][0]:
        raise ValueError("the two letters to merge must have the same face")
    face = word[i - 1][0]
    merged: Letter = (face, f"({word[i - 1][1]}*{word[i][1]})")
    ext = substituted_table(table, {**{g: (g,) for g in table.generators}, merged: word[i - 1 : i + 1]})
    merged_word = word[: i - 1] + (merged,) + word[i + 1 :]

    cache: dict[Word, complex] = {}
    lhs = cumulant(family, ext, merged_word, cache)

    cache2: dict[Word, complex] = {}
    rhs = cumulant(family, table, word, cache2)
    faces = faces_of(word)
    legs = list(range(1, n + 1))
    others = [x for x in legs if x not in (i, i + 1)]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            b1 = tuple(sorted((i,) + extra))
            b2 = tuple(x for x in legs if x not in b1)
            a = family.weight(faces, tuple(sorted((b1, b2), key=lambda b: b[0])))
            if a == 0:
                continue
            c1 = cumulant(family, table, table.restricted(word, b1), cache2)
            c2 = cumulant(family, table, table.restricted(word, b2), cache2)
            rhs += a * c1 * c2
    return {"lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}


# -- JSON ------------------------------------------------------------------------


def table_to_json(t: FunctionalTable) -> dict:
    if t.values is None:
        raise ValueError("only dense tables serialize to JSON")
    return {
        "degree_bound": t.degree_bound,
        "generators": [{"face": f, "name": name} for f, name in t.generators],
        "values": [
            {"word": [[f, name] for f, name in word], "value": complex_json(v)}
            for word, v in sorted(t.values.items())
        ],
    }


def table_from_json(obj: dict) -> FunctionalTable:
    """A dense table from JSON; it must be total on its domain.

    Raises ValueError naming the generator faces outside the two faces
    ``w`` and ``b``, the first word that lies outside the declared
    generators up to the degree bound, or the first word of that domain
    without a value.
    """
    json_expect(obj, "an object", "table")
    generators = []
    for g in json_expect(json_field(obj, "generators", "table"), "a list", "generators"):
        json_expect(g, "an object", "generator")
        generators.append((
            json_expect(json_field(g, "face", "generator"), "a string", "generator face"),
            json_expect(json_field(g, "name", "generator"), "a string", "generator name"),
        ))
    check_faces(f for f, _ in generators)
    degree_bound = json_expect(json_field(obj, "degree_bound", "table"), "an integer", "degree_bound")
    declared = set(generators)
    values: dict[Word, complex] = {}
    for entry in json_expect(json_field(obj, "values", "table"), "a list", "table values"):
        json_expect(entry, "an object", "table value")
        word = tuple(_letter(g) for g in json_expect(json_field(entry, "word", "table value"), "a list", "table word"))
        if not 1 <= len(word) <= degree_bound or not declared.issuperset(word):
            raise ValueError(f"word {_word_json(word)} is not over the declared generators up to degree {degree_bound}")
        what = f"value of word {_word_json(word)}"
        values[word] = json_complex(json_field(entry, "value", f"table {what}"), what)
    table = FunctionalTable(generators, degree_bound, values=values)
    for word in table.words():
        if word not in values:
            raise ValueError(f"table has no value for word {_word_json(word)}")
    return table


def _letter(g) -> Letter:
    if not (isinstance(g, (list, tuple)) and len(g) == 2 and all(isinstance(x, str) for x in g)):
        raise ValueError(f"a word letter must be a [face, name] pair of strings, got {json.dumps(g, default=repr)}")
    return tuple(g)


def _word_json(word: Word) -> str:
    return json.dumps([list(g) for g in word])
