"""The symmetric universal product of functionals from a weight family.

The product of factor functionals is evaluated through the cumulant route:
the moment of a tagged word equals the weighted sum, over partitions whose
blocks stay inside one factor, of the family weight of the colored partition
times the product of the factor cumulants of the block subwords.  Blocks
mixing factors contribute zero (cumulants of a direct sum vanish on mixed
words), so only factor-pure partitions are enumerated.

The sum is driven by ``partitions.pure_plan(b)``, the plan of the factor
pattern b (the factor index of each letter), independent of the family and
the faces: the nonempty subsets of each factor's positions, and the
factor-pure partitions as indices into ``set_partitions(n)`` with the
subsets that are their blocks.  ``exp_alpha`` and ``cumulant`` read the
one-factor plan ``pure_plan((1,) * n)``, so the three transforms share one
plan type.  Per word, ``Product.moment`` looks up one cumulant per subset,
reads the weights from a row per face word, and multiplies each term
weight first, blocks in order.  It is the one summation loop: given an
``expansion`` list it also records each partition's weight and contribution,
which ``multifaced product --explain`` prints.

The inclusion-exclusion route for a 0/1 family (``combinatorial_moment``)
is driven by a plan per (class, face word, factor partition): the number of
coarsest refinements S of the factor partition inside the class, and one
(sign, meet) pair per nonempty subset of S, the meet as a shared tuple of
``set_partitions``.  Plans sit in a row per (class, face word), one slot per
set partition of the legs (``partitions.partition_index``).  Factor
patterns that relabel each other share a slot, and equal plans of other
slots, classes and face words are one object.  Per word only the factor
moments of the meets' blocks are read.

Coefficient extraction follows the linearization construction: factors carry
the all-ones functional scaled by a formal nilpotent marker, and the product
moment's coefficient on the product of all markers is the highest
coefficient of the block pattern.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

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


# -- formal nilpotent markers ------------------------------------------------------


class MultilinearPoly:
    """Polynomial in commuting markers t_1..t_k, truncated to multidegree <= 1.

    Terms are keyed by frozen marker sets; products with a repeated marker
    are dropped, which realizes the mixed partial derivative at zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[frozenset, complex] | None = None):
        self.terms = terms or {}

    @classmethod
    def marker(cls, k: int, scale: complex = 1.0) -> "MultilinearPoly":
        return cls({frozenset((k,)): complex(scale)})

    @classmethod
    def const(cls, c: complex) -> "MultilinearPoly":
        return cls({frozenset(): complex(c)} if c != 0 else {})

    def coefficient(self, markers: Iterable[int]) -> complex:
        return self.terms.get(frozenset(markers), complex(0))

    def _as_poly(self, other) -> "MultilinearPoly":
        if isinstance(other, MultilinearPoly):
            return other
        return MultilinearPoly.const(other)

    def __add__(self, other):
        other = self._as_poly(other)
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, 0) + v
        return MultilinearPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __rsub__(self, other):
        return self._as_poly(other) + (-self)

    def __neg__(self):
        return MultilinearPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._as_poly(other)
        out: dict[frozenset, complex] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                if k1 & k2:
                    continue  # repeated marker: truncated away
                key = k1 | k2
                out[key] = out.get(key, 0) + v1 * v2
        return MultilinearPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        return "Poly(" + " + ".join(f"{v:.3g}*t{sorted(k)}" for k, v in items) + ")"


# -- block structures ---------------------------------------------------------------


class BlockStructure:
    """Factor indices and faces per tensor position: b in [k]^n, f a word."""

    def __init__(self, b: Sequence[int], f: str):
        if len(b) != len(f):
            raise ValueError("factor tuple and face word must have equal length")
        self.b = tuple(b)
        self.f = f

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return max(self.b, default=0)

    def beta(self, kappa: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.b) if v == kappa)

    def factor_partition(self) -> Partition:
        """The maximal adapted partition: positions grouped by factor."""
        groups: dict[int, list[int]] = {}
        for i, v in enumerate(self.b, start=1):
            groups.setdefault(v, []).append(i)
        return Partition(self.f, list(groups.values()))

    def adapted(self, p: Partition) -> bool:
        """Blocks inside one factor, and equal adjacent (factor, face) pairs
        forced into one block."""
        if p.word != self.f:
            return False
        for block in p.blocks:
            if len({self.b[leg - 1] for leg in block}) != 1:
                return False
        idx = p._block_index
        for i in range(1, self.n):
            if self.b[i - 1] == self.b[i] and self.f[i - 1] == self.f[i] and idx[i] != idx[i + 1]:
                return False
        return True

    def __repr__(self) -> str:
        return f"BlockStructure({''.join(map(str, self.b))} x {self.f})"


def tagged_word_structure(word: TaggedWord) -> BlockStructure:
    return BlockStructure([t[0] for t in word], "".join(t[1] for t in word))


# -- the product evaluator ------------------------------------------------------------


class Product:
    """Evaluator for the product of factor functionals under one family.

    Factor generator sets must be pairwise disjoint.  A moment is summed
    over ``pure_plan(b)``, the plan of its factor pattern b, shared with
    every other ``Product``.  Each instance keeps the factor cumulants,
    one memo dict per factor, and one weight row per face word: slot j of
    the row holds ``family.weight`` of ``set_partitions(n)[j]``, read on
    first use, so the family is asked only for factor-pure partitions and
    its own memo stays the one weight store.
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
        self._owner = {g: i + 1 for i, t in enumerate(self.factors) for g in t.generators}
        self._cum_cache: list[dict[Word, complex]] = [dict() for _ in self.factors]
        self._weight_rows: dict[str, list] = {}

    def tag(self, word: Word) -> TaggedWord:
        return tuple((self._owner[g], g[0], g[1]) for g in word)

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
        b, fs, names = zip(*word) if word else ((), (), ())
        letters = tuple(zip(fs, names))
        if expansion is None:
            if not word:
                return complex(1)
            if b.count(b[0]) == len(b):
                # Restriction property: single-factor words are factor moments.
                return self.factors[b[0] - 1].value(letters)
        faces = "".join(fs)
        subsets, terms = pure_plan(b)
        caches = self._cum_cache
        leg = letters.__getitem__
        cv = [caches[f].get(tuple(map(leg, positions))) for f, positions in subsets]
        if None in cv:
            for s, (f, positions) in enumerate(subsets):
                if cv[s] is None:
                    cv[s] = cumulant(self.family, self.factors[f], tuple(map(leg, positions)), caches[f])
        parts = set_partitions(len(word))
        row = self._weight_rows.get(faces)
        if row is None:
            row = self._weight_rows[faces] = [None] * len(parts)
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


def _all_ones_marker_table(kappa: int, generators: Sequence[Letter], degree: int) -> FunctionalTable:
    scaled = MultilinearPoly.marker(kappa)
    return FunctionalTable(generators, degree, fn=lambda word: scaled)


def extract_highest_coefficient(family: WeightFamily, p: Partition):
    """Recover the weight of a partition from the product engine alone.

    Builds the block structure of the partition (factor kappa is its block
    kappa, in canonical order), gives every factor the all-ones functional
    scaled by a fresh nilpotent marker, and reads off the coefficient of the
    product of all markers in the product moment.  The weights do not depend
    on an order of the blocks, so no other order can give another value.
    """
    if p.block_count == 0:
        return complex(1)
    b = tuple(p._block_index[leg] + 1 for leg in range(1, p.n + 1))
    k = p.block_count
    generators = [[] for _ in range(k)]
    word: list[TaggedLetter] = []
    for leg in range(1, p.n + 1):
        g: Letter = (p.word[leg - 1], f"g{leg}")
        generators[b[leg - 1] - 1].append(g)
        word.append((b[leg - 1], g[0], g[1]))
    factors = [_all_ones_marker_table(kappa + 1, gens, p.n) for kappa, gens in enumerate(generators)]
    value = Product(family, factors).moment(tuple(word))
    if not isinstance(value, MultilinearPoly):
        value = MultilinearPoly.const(value)
    return value.coefficient(range(1, k + 1))


def extract_full_coefficient(family: WeightFamily, s: BlockStructure, p: Partition):
    """The coefficient of one adapted partition in the product expansion.

    Realizes the delta-functional construction: factor kappa's table is 1 on
    exactly the ordered block subwords of p inside factor kappa and 0 on
    every other word, so the product moment collapses to the coefficient.
    """
    if not s.adapted(p):
        raise ValueError(f"{p} is not adapted to {s}")
    k = s.k
    letters: list[Letter] = [(s.f[i], f"g{i + 1}") for i in range(s.n)]
    accepted: list[set[Word]] = [set() for _ in range(k)]
    for block in p.blocks:
        kappa = s.b[block[0] - 1]
        accepted[kappa - 1].add(tuple(letters[leg - 1] for leg in block))
    factors = []
    for kappa in range(1, k + 1):
        gens = tuple(letters[i] for i in range(s.n) if s.b[i] == kappa)
        ok = frozenset(accepted[kappa - 1])
        factors.append(
            FunctionalTable(gens, s.n, fn=lambda word, ok=ok: complex(word in ok))
        )
    word = tuple((s.b[i], letters[i][0], letters[i][1]) for i in range(s.n))
    return Product(family, factors).moment(word)


# -- the inclusion-exclusion moment formula ------------------------------------------------


def coarsest_refinements_in_class(c: ClassId, p: Partition) -> list[Partition]:
    """Maximal members of the class below p in the refinement order.

    A member p is its own only maximal member: every refinement refines it.
    """
    if member(c, p):
        return [p]
    candidates = [q for q in refinements(p) if member(c, q)]
    candidates.sort(key=lambda q: q.block_count)
    out: list[Partition] = []
    for q in candidates:
        if not any(q.refines(r) for r in out):
            out.append(q)
    return out


# (class, faces) -> inclusion-exclusion plan per slot j; see _ie_plan
_ie_rows: dict[tuple[ClassId, str], list] = {}
# every distinct inclusion-exclusion plan, mapped to itself
_ie_interned: dict[tuple, tuple] = {}


def _ie_plan(c: ClassId, faces: str, j: int, cap: int) -> tuple:
    """The inclusion-exclusion plan of the factor partition
    ``set_partitions(n)[j]`` on the face word, for class c.

    ``(len(S), terms)`` with S the coarsest refinements in the class and
    ``terms`` one ``(sign, blocks)`` per nonempty subset R of S, by size
    and then in ``itertools.combinations`` order: the sign (-1)^(|R|-1) and
    the meet of R as the shared tuple ``set_partitions(n)[k]``.  Raises
    ``BudgetExceeded`` before any meet is taken if S is longer than cap.
    Equal plans are returned as one object.
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
    plan = (len(S), terms)
    return _ie_interned.setdefault(plan, plan)


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
    groups: dict[int, list[int]] = {}
    for i, letter in enumerate(word, start=1):
        groups.setdefault(letter[0], []).append(i)
    faces = "".join(letter[1] for letter in word)
    index = partition_index(len(word))
    j = index[tuple(map(tuple, groups.values()))]
    row = _ie_rows.get((c, faces))
    if row is None:
        row = _ie_rows[(c, faces)] = [None] * len(index)
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
    witness = None
    for _ in range(samples):
        n = rng.randint(1, max_len)
        word = tuple(rng.choice(normal) for _ in range(n))
        base_value = prod.moment(word)
        for pos in range(n + 1):
            for kappa, units in ((1, units1), (2, units2)):
                for f in faces:
                    u = units[f]
                    inserted = word[:pos] + ((kappa, u[0], u[1]),) + word[pos:]
                    got = prod.moment(inserted)
                    if abs(got - base_value) > EPS:
                        witness = {
                            "word": [list(t) for t in word],
                            "insert": [kappa, u[0], u[1]],
                            "position": pos,
                            "moment": base_value,
                            "with_unit": got,
                        }
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    insertion_invariant = witness is None
    bc = family.basic_coefficients()
    nu_all_one = all(abs(bc.nu[(q, q)] - 1) <= EPS for q in faces)
    singleton = is_singleton_inductive(family, 5).inductive
    return {
        "insertion_invariant": insertion_invariant,
        "nu_all_one": nu_all_one,
        "singleton_inductive": singleton,
        "agree": insertion_invariant == nu_all_one == singleton,
        "witness": witness,
    }
