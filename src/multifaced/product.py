"""The symmetric universal product of functionals from a weight family.

The product of factor functionals is evaluated through the cumulant route:
the moment of a tagged word equals the weighted sum, over partitions whose
blocks stay inside one factor, of the family weight of the colored partition
times the product of the factor cumulants of the block subwords.  Blocks
mixing factors contribute zero (cumulants of a direct sum vanish on mixed
words), so only factor-pure partitions are enumerated.

The sum is driven by ``partitions.pure_plan(b)``, the plan of the factor
pattern b (the factor index of each letter), independent of the family and
the faces: each factor's positions, the nonempty subsets of them with
their position masks, and the factor-pure partitions as indices into
``set_partitions(n)`` with the subsets that are their blocks.
``exp_alpha`` and ``cumulant`` read the one-factor plan
``pure_plan((1,) * n)``, so the three transforms share one plan type.

The only input that depends on the word is the cumulant of each factor's
subsequences.  A ``Product`` keeps them as one vector per (factor, factor
subword), indexed by position mask and filled once from the factor's
cumulant memo.  Per word, ``Product.moment`` builds one subword tuple per
factor present and reads that factor's vector, picks each block's cumulant
by its mask, reads the weights from the family's row of the face word
(``WeightFamily.row``, shared with every other ``Product`` of the family and
with ``exp_alpha`` and ``cumulant``), and multiplies each term weight first,
blocks in order.  It is the one summation loop:
given an ``expansion`` list it also records each partition's weight and
contribution, which ``multifaced product --explain`` prints.

The inclusion-exclusion route for a 0/1 family (``combinatorial_moment``)
is driven by a plan per (class, face word, factor partition): the number of
coarsest refinements S of the factor partition inside the class, and one
(sign, meet) pair per nonempty subset of S, the meet as a shared tuple of
``set_partitions``.  Plans sit in a row per (class, face word), one slot per
set partition of the legs; a word's slot is the first term of its factor
pattern's ``pure_plan``, the factor partition.  Factor patterns that
relabel each other share a slot.  Per word only the factor moments of the
meets' blocks are read.

Coefficient extraction follows the delta-functional construction: factor
kappa's table is 1 on exactly the block subwords of one partition inside
factor kappa and 0 elsewhere, so the product moment is that partition's
coefficient.  The factors are given by a factor pattern, as for
``pure_plan``; on the partition's own pattern (factor kappa is block
kappa) the coefficient is the highest one, the weight.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

from .classes import ClassId, member
from .classify import BudgetExceeded
from .partitions import DEFAULT_ALPHABET, Partition, meet, partition_index, pure_plan, refinements, set_partitions
from .cumulants import (
    FunctionalTable,
    Letter,
    Word,
    cumulant,
    merged_letter_table,
    random_table,
    standard_generators,
    unit_extended_table,
)
from .weights import EPS, WeightFamily, is_singleton_inductive

# A tagged letter is (factor index, face, name); factor indices are 1-based.
TaggedLetter = tuple[int, str, str]
TaggedWord = tuple[TaggedLetter, ...]


# -- the product evaluator ------------------------------------------------------------


class Product:
    """Evaluator for the product of factor functionals under one family.

    Factor generator sets must be pairwise disjoint.  A moment is summed
    over ``pure_plan(b)``, the plan of its factor pattern b, shared with
    every other ``Product``.  Each instance keeps:

    * per factor, one cumulant memo dict keyed by untagged words, the store
      the ``cumulant`` recursion reads and fills;
    * per factor, one cumulant vector per factor subword (the tagged letters
      of a word at that factor's positions): slot ``mask`` holds the
      cumulant of the subsequence whose positions are the set bits of
      ``mask``, filled once from the memo, so a word reads each of its block
      cumulants by the block's mask in the plan.

    Weights are read from ``family.row(faces)``, the family's row of the
    face word, by the index j of each term; a slot still None is filled
    from ``family.weight``, so the family is asked only for factor-pure
    partitions.
    """

    def __init__(self, family: WeightFamily, factors: Sequence[FunctionalTable]):
        self.family = family
        self.factors = tuple(factors)
        seen: set[Letter] = set()
        for t in self.factors:
            dup = seen & set(t.generators)
            if dup:
                raise ValueError(f"factor generator sets overlap: {sorted(dup)}")
            seen.update(t.generators)
        self._tagged = {g: (i + 1, g[0], g[1]) for i, t in enumerate(self.factors) for g in t.generators}
        self._cum_cache: list[dict[Word, complex]] = [dict() for _ in self.factors]
        self._vectors: list[dict[TaggedWord, list]] = [dict() for _ in self.factors]

    def tag(self, word: Word) -> TaggedWord:
        return tuple(map(self._tagged.__getitem__, word))

    def _vector(self, f: int, sub: TaggedWord) -> list:
        """The cumulants of the subsequences of factor f's subword, by mask."""
        letters = tuple(t[1:] for t in sub)
        table, cache, m = self.factors[f], self._cum_cache[f], len(letters)
        vec = [None] * (1 << m)
        for mask in range(1, 1 << m):
            vec[mask] = cumulant(self.family, table, tuple(letters[i] for i in range(m) if mask >> i & 1), cache)
        return vec

    def moment(self, word: TaggedWord, expansion: list | None = None):
        """The product moment of a tagged word.

        The sum runs over the factor-pure partitions of the word: the family
        weight times the product of the factor cumulants of the blocks.
        Terms of weight 0 are skipped.  If ``expansion`` is a list, one row
        ``{"partition", "weight", "contribution"}`` per factor-pure partition
        is appended to it, in enumeration order; zero-weight rows have
        contribution 0.  The value is then always the sum over the
        partitions, also on words of one factor.
        """
        b, fs, _ = zip(*word) if word else ((), (), ())
        if expansion is None:
            if not word:
                return complex(1)
            if b.count(b[0]) == len(b):
                # Restriction property: single-factor words are factor moments.
                return self.factors[b[0] - 1].value(tuple(t[1:] for t in word))
        faces = "".join(fs)
        groups, subsets, terms = pure_plan(b)
        leg = word.__getitem__
        vectors = self._vectors
        vecs = [None] * len(vectors)
        for f, positions in groups:
            sub = tuple(map(leg, positions))
            vec = vectors[f].get(sub)
            if vec is None:
                vec = vectors[f][sub] = self._vector(f, sub)
            vecs[f] = vec
        cv = [vecs[f][mask] for f, _, mask in subsets]
        parts = set_partitions(len(word))
        row = self.family.row(faces)
        weight = self.family.weight
        cumulants = cv.__getitem__
        total = 0
        for j, ids in terms:
            a = row[j]
            if a is None:
                a = row[j] = weight(faces, parts[j])
            term = 0
            if a != 0:
                term = math.prod(map(cumulants, ids), start=a)
                total = term + total
            if expansion is not None:
                expansion.append({"partition": str(Partition._unsafe(faces, parts[j])), "weight": a, "contribution": term})
        return total


def product_moment(family: WeightFamily, factors: Sequence[FunctionalTable], word: TaggedWord):
    return Product(family, factors).moment(word)


def product_table(family: WeightFamily, factors: Sequence[FunctionalTable], degree_bound: int) -> FunctionalTable:
    """The product functional as a dense table over the union generator set."""
    prod = Product(family, factors)
    generators = tuple(g for t in factors for g in t.generators)
    values: dict[Word, complex] = {}
    for n in range(1, degree_bound + 1):
        for word in itertools.product(generators, repeat=n):
            values[word] = prod.moment(prod.tag(word))
    return FunctionalTable(generators, degree_bound, values=values)


# -- verification checks ---------------------------------------------------------------


def well_definedness_check(
    family: WeightFamily,
    factors: Sequence[FunctionalTable],
    word: TaggedWord,
    i: int,
) -> dict:
    """Merge adjacent same-factor same-face letters and compare moments.

    Positions i, i+1 (1-based) must carry one factor and one face; the merged
    letter's moments expand it back, so the two evaluations must agree for
    admissible families.
    """
    n = len(word)
    if not 1 <= i < n:
        raise ValueError(f"position {i} out of range")
    f1, f2 = word[i - 1], word[i]
    if f1[0] != f2[0]:
        raise ValueError("positions must carry the same factor")
    if f1[1] != f2[1]:
        raise ValueError("positions must carry the same face")
    kappa, face = f1[0], f1[1]
    merged: Letter = (face, f"({f1[2]}*{f2[2]})")
    ext = list(factors)
    ext[kappa - 1] = merged_letter_table(factors[kappa - 1], merged, ((f1[1], f1[2]), (f2[1], f2[2])))
    lhs = Product(family, factors).moment(word)
    merged_word = word[: i - 1] + ((kappa, face, merged[1]),) + word[i + 1 :]
    rhs = Product(family, ext).moment(merged_word)
    return {"lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs), "ok": abs(lhs - rhs) <= EPS}


def associativity_symmetry_check(
    family: WeightFamily,
    t1: FunctionalTable,
    t2: FunctionalTable,
    t3: FunctionalTable,
    max_len: int,
) -> dict:
    """Compare both binary bracketings with the flat three-factor formula and
    check invariance under factor swaps, on every tagged word up to max_len."""
    flat = Product(family, (t1, t2, t3))
    left = Product(family, (product_table(family, (t1, t2), max_len), t3))
    right = Product(family, (t1, product_table(family, (t2, t3), max_len)))
    swapped = Product(family, (t2, t1, t3))
    generators = tuple(t1.generators + t2.generators + t3.generators)
    worst_assoc = 0.0
    worst_sym = 0.0
    for n in range(1, max_len + 1):
        for word in itertools.product(generators, repeat=n):
            v = flat.moment(flat.tag(word))
            worst_assoc = max(
                worst_assoc,
                abs(v - left.moment(left.tag(word))),
                abs(v - right.moment(right.tag(word))),
            )
            worst_sym = max(worst_sym, abs(v - swapped.moment(swapped.tag(word))))
    return {
        "worst_associativity": worst_assoc,
        "worst_symmetry": worst_sym,
        "ok": worst_assoc <= EPS and worst_sym <= EPS,
    }


# -- coefficient extraction --------------------------------------------------------------


def extract_highest_coefficient(family: WeightFamily, p: Partition):
    """Recover the weight of a partition from the product engine alone.

    The full coefficient of p in its own factor pattern (factor kappa is
    block kappa, in canonical order): every factor cumulant but that of the
    whole block is 0, so the product moment is the weight.  The weights do
    not depend on an order of the blocks, so no other order can give
    another value.
    """
    return extract_full_coefficient(family, [i + 1 for i in p._block_index[1:]], p)


def extract_full_coefficient(family: WeightFamily, b: Sequence[int], p: Partition):
    """The coefficient of one adapted partition in the product expansion.

    ``b`` is the factor pattern, the factor index of each leg; the faces are
    p's word.  p is adapted to b if each block lies inside one factor and
    adjacent legs of one factor and one face share a block; otherwise
    ValueError.  Realizes the delta-functional construction: factor kappa's
    table is 1 on exactly the ordered block subwords of p inside factor
    kappa and 0 on every other word, so the product moment collapses to the
    coefficient.
    """
    b = tuple(b)
    idx = p._block_index
    if (
        len(b) != p.n
        or any(len({b[leg - 1] for leg in block}) != 1 for block in p.blocks)
        or any(b[i - 1] == b[i] and p.word[i - 1] == p.word[i] and idx[i] != idx[i + 1] for i in range(1, p.n))
    ):
        raise ValueError(f"{p} is not adapted to the factor pattern {b}")
    letters: list[Letter] = [(f, f"g{i}") for i, f in enumerate(p.word, start=1)]
    # Each letter names its leg, so a block subword is a word of its own
    # factor only: one set serves every factor's table.
    ok = frozenset(tuple(letters[leg - 1] for leg in block) for block in p.blocks)
    factors = [
        FunctionalTable(tuple(g for g, v in zip(letters, b) if v == kappa), p.n, fn=lambda word: complex(word in ok))
        for kappa in range(1, max(b, default=0) + 1)
    ]
    return Product(family, factors).moment(tuple((v, *g) for v, g in zip(b, letters)))


# -- the inclusion-exclusion moment formula ------------------------------------------------


def coarsest_refinements_in_class(c: ClassId, p: Partition) -> list[Partition]:
    """Maximal members of the class below p in the refinement order.

    A member p is its own only maximal member: every refinement refines it.
    """
    if member(c, p):
        return [p]
    # Coarsest first: a refinement of a member already kept is not maximal
    # whether or not it is a member, so membership is tested only on the rest.
    out: list[Partition] = []
    for q in sorted(refinements(p), key=lambda q: q.block_count):
        if not any(q.refines(r) for r in out) and member(c, q):
            out.append(q)
    return out


# (class, faces) -> inclusion-exclusion plan per slot j; see _ie_plan
_ie_rows: dict[tuple[ClassId, str], list] = {}


def _ie_plan(c: ClassId, faces: str, j: int, cap: int) -> tuple:
    """The inclusion-exclusion plan of the factor partition
    ``set_partitions(n)[j]`` on the face word, for class c.

    ``(len(S), terms)`` with S the coarsest refinements in the class and
    ``terms`` one ``(sign, blocks)`` per nonempty subset R of S, by size
    and then in ``itertools.combinations`` order: the sign (-1)^(|R|-1) and
    the meet of R as the shared tuple ``set_partitions(n)[k]``.  Raises
    ``BudgetExceeded`` before any meet is taken if S is longer than cap.
    """
    parts = set_partitions(len(faces))
    S = coarsest_refinements_in_class(c, Partition._unsafe(faces, parts[j]))
    if len(S) > cap:
        raise BudgetExceeded(f"{len(S)} coarsest refinements exceed the cap {cap}")
    index = partition_index(len(faces))
    terms = tuple(
        ((-1) ** (r - 1), parts[index[meet(subset).blocks]])
        for r in range(1, len(S) + 1)
        for subset in itertools.combinations(S, r)
    )
    return (len(S), terms)


def combinatorial_moment(
    c: ClassId,
    factors: Sequence[FunctionalTable],
    word: TaggedWord,
    cap: int = 64,
) -> complex:
    """The inclusion-exclusion form of the product moment for a 0/1 family.

    Sums, over nonempty subsets R of the coarsest refinements S of the factor
    partition inside the class, the sign (-1)^(|R|-1) times the product of
    factor moments over the blocks of the meet of R.  The signs and meets
    come from the plan of (class, face word, factor partition), built once.
    """
    faces = "".join(letter[1] for letter in word)
    j = pure_plan(tuple(letter[0] for letter in word))[2][0][0]  # the factor partition
    row = _ie_rows.get((c, faces))
    if row is None:
        row = _ie_rows[(c, faces)] = [None] * len(set_partitions(len(word)))
    plan = row[j]
    if plan is None or plan[0] > cap:
        # builds the plan, or raises BudgetExceeded for this call's cap
        plan = row[j] = _ie_plan(c, faces, j, cap)
    total = complex(0)
    for sign, blocks in plan[1]:
        term = complex(1)
        for block in blocks:
            # Every S member refines the factor partition, so each block
            # of the meet lies inside one factor: a factor moment.
            kappa = word[block[0] - 1][0]
            term *= factors[kappa - 1].value(tuple(word[i - 1][1:] for i in block))
        total += sign * term
    return total


# -- unit preservation ------------------------------------------------------------------


def unit_preservation_check(
    family: WeightFamily,
    max_len: int = 4,
    seed: int = 0,
    samples: int = 40,
) -> dict:
    """Compare the three unit-preservation verdicts.

    (1) inserting a per-face unit letter of either factor anywhere in a
    tagged word never changes the product moment; (2) the monochrome nesting
    coefficient is 1 for every face; (3) the weights are singleton
    inductive.  Returns the verdicts, their agreement, and a witness for a
    failing insertion, if any.
    """
    rng = random.Random(seed)
    faces = DEFAULT_ALPHABET
    base1 = random_table(standard_generators(faces, per_face=1, prefix="a"), max_len + 1, rng)
    base2 = random_table(standard_generators(faces, per_face=1, prefix="c"), max_len + 1, rng)
    units1 = {f: (f, f"u1{f}") for f in faces}
    units2 = {f: (f, f"u2{f}") for f in faces}
    t1 = unit_extended_table(base1, units1)
    t2 = unit_extended_table(base2, units2)
    prod = Product(family, (t1, t2))
    normal = [(1, g[0], g[1]) for g in base1.generators] + [(2, g[0], g[1]) for g in base2.generators]

    def failing_insertions():
        for _ in range(samples):
            n = rng.randint(1, max_len)
            word = tuple(rng.choice(normal) for _ in range(n))
            base_value = prod.moment(word)
            for pos, (kappa, units), f in itertools.product(range(n + 1), ((1, units1), (2, units2)), faces):
                u = units[f]
                got = prod.moment(word[:pos] + ((kappa, u[0], u[1]),) + word[pos:])
                if abs(got - base_value) > EPS:
                    yield {
                        "word": [list(t) for t in word],
                        "insert": [kappa, u[0], u[1]],
                        "position": pos,
                        "moment": base_value,
                        "with_unit": got,
                    }

    witness = next(failing_insertions(), None)
    insertion_invariant = witness is None
    singleton = is_singleton_inductive(family, 5)
    return {
        "insertion_invariant": insertion_invariant,
        "nu_all_one": singleton.nu_all_one,
        "singleton_inductive": singleton.inductive,
        "agree": insertion_invariant == singleton.nu_all_one == singleton.inductive,
        "witness": witness,
    }
