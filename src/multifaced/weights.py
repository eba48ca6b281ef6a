"""Weight families on multi-faced partitions and the admissibility checker.

A weight family assigns a complex scalar to every partition over the two
faces ``w`` and ``b``, is monic (value 1 on one-block partitions) and
block-permutation invariant.  Families
are given by a class indicator, by a unit-circle deformation of the tensor,
free or bifree pattern, by an explicit table, or by a 0/1 predicate.

Class-indicator and deformed families are evaluated through the canonical
reduction: reduce, peel the first two legs with the split relation
``a(p) = a(p with the two blocks united) * a(two-block subpartition)``, and
resolve two-block partitions down to the four basic coefficients
(monochrome/bicolor nesting ``nu`` and crossing ``xi``).  The path of the
reduction depends on the partition alone; the family enters only at the
``nu``/``xi`` leaves.  So one product-node store, shared by these families,
holds every weight once as a product of leaves, and each family holds one
list of values indexed by node id.

``weight(faces, blocks)`` is every family's one reader and ``evaluate(p)``
is ``weight`` of a ``Partition``'s word and blocks.  A reduction-backed
family builds a ``Partition`` only for a key new to the store; a table,
predicate or constant family computes each weight it is asked for and
keeps no memo.

The summation loops (``Product.moment``, ``exp_alpha``, ``cumulant``) read
weights by the index j of ``set_partitions(n)`` that their plan terms
carry.  Each family keeps one row per face word for them, ``row(faces)``:
slot j is None until a loop fills it from ``weight``, so a row holds only
the slots some loop has read.  ``weight`` and ``evaluate`` never create a
row.
"""

from __future__ import annotations

import cmath
import json
import random
from typing import Callable

from .classes import ClassId, member
from .partitions import (
    DEFAULT_ALPHABET,
    Blocks,
    Partition,
    json_expect,
    json_field,
    parse_diagram,
    partitions_upto,
    set_partitions,
)

EPS = 1e-9


def approx(a: complex, b: complex) -> bool:
    """Equality of complex scalars up to the absolute tolerance ``EPS``."""
    return abs(a - b) <= EPS


def json_complex(value, what: str) -> complex:
    """A complex number from a JSON number or an object with numeric ``re``
    and ``im`` (each 0 if absent) and no other key; anything else, a JSON
    boolean included, raises ValueError."""
    if isinstance(value, dict):
        parts = (value.get("re", 0.0), value.get("im", 0.0))
        if value.keys() <= {"re", "im"} and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            return complex(*parts)
    elif isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        return complex(value)
    raise ValueError(f"{what} must be a number or an object with numeric re and im only, got {json.dumps(value, default=repr)}")


def complex_json(z) -> dict:
    """The JSON object ``{"re": ..., "im": ...}`` of a number, both parts
    floats, so that ``json_complex`` reads it back."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# -- basic coefficients --------------------------------------------------------


def basic_diagrams(q: str, Q: str) -> tuple[Partition, Partition]:
    """The nesting and the crossing diagram with inner legs q, Q.

    Nesting is ``qqq/13|2`` for q == Q and ``qqQQ/14|23`` otherwise;
    crossing is ``qqQQ/13|24``.
    """
    if q == Q:
        nu_d = Partition(q * 3, [(1, 3), (2,)])
    else:
        nu_d = Partition(q + q + Q + Q, [(1, 4), (2, 3)])
    return nu_d, Partition(q + q + Q + Q, [(1, 3), (2, 4)])


class BasicCoefficients:
    """The four basic-diagram weights per ordered pair of the two faces.

    ``nu[(q, Q)]`` is the weight of the nesting diagram with inner legs q, Q
    (for q == Q the three-leg diagram with a single inner q-leg), and
    ``xi[(q, Q)]`` the weight of the crossing diagram with inner legs q, Q.
    The sixtuple lists the slots ``KEYS`` names, which are also the keys of
    the JSON object.
    """

    KEYS = ("nu_w", "nu_b", "nu_wb", "xi_w", "xi_b", "xi_wb")

    def __init__(self, nu: dict[tuple[str, str], complex], xi: dict[tuple[str, str], complex]):
        self.nu = dict(nu)
        self.xi = dict(xi)

    def sixtuple(self) -> tuple[complex, ...]:
        """(nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb)."""
        w, b = DEFAULT_ALPHABET
        return tuple(d[pair] for d in (self.nu, self.xi) for pair in ((w, w), (b, b), (w, b)))

    def to_json(self) -> dict:
        def enc(z: complex):
            return z.real if abs(z.imag) <= EPS else {"re": z.real, "im": z.imag}
        return {key: enc(z) for key, z in zip(self.KEYS, self.sixtuple())}

    @classmethod
    def from_diagrams(cls, value: Callable[[Partition], complex]) -> "BasicCoefficients":
        """The coefficients read off the basic diagrams by ``value``."""
        nu: dict[tuple[str, str], complex] = {}
        xi: dict[tuple[str, str], complex] = {}
        for q in DEFAULT_ALPHABET:
            for Q in DEFAULT_ALPHABET:
                nu_d, xi_d = basic_diagrams(q, Q)
                nu[(q, Q)], xi[(q, Q)] = value(nu_d), value(xi_d)
        return cls(nu, xi)

    @classmethod
    def from_sixtuple(cls, six) -> "BasicCoefficients":
        """The inverse of :meth:`sixtuple`: each (b, w) slot is the
        conjugate of its (w, b) slot, except that a zero is its own mirror
        image, so a +0j slot stays +0j in both orders."""
        w, b = DEFAULT_ALPHABET
        nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb = map(complex, six)
        nu = {(w, w): nu_w, (b, b): nu_b, (w, b): nu_wb, (b, w): nu_wb.conjugate() or nu_wb}
        xi = {(w, w): xi_w, (b, b): xi_b, (w, b): xi_wb, (b, w): xi_wb.conjugate() or xi_wb}
        return cls(nu, xi)

    @classmethod
    def from_json(cls, obj: dict) -> "BasicCoefficients":
        json_expect(obj, "an object", "basic coefficients")
        return cls.from_sixtuple(json_complex(json_field(obj, key, "basic coefficients"), key) for key in cls.KEYS)

    def __repr__(self) -> str:
        return f"BasicCoefficients({self.to_json()})"


def check_basic_relations(bc: BasicCoefficients):
    """Verify the five relations the basic coefficients always satisfy.

    (1) nu_q and xi_q are idempotent (hence 0 or 1);
    (2) t * nu_q = t for t in {nu_qQ, xi_q, xi_qQ};
    (3) |t|^2 t = t for the bicolor coefficients (values in {0} or the circle);
    (4) nu_qQ xi_q = xi_qQ xi_q;
    (5) nu_qQ xi_qQ = nu_qQ xi_qQ xi_q.
    Returns (ok, failures) where failures lists (relation, face pair).
    """
    failures: list[tuple[str, tuple[str, str]]] = []
    for q in DEFAULT_ALPHABET:
        nq, xq = bc.nu[(q, q)], bc.xi[(q, q)]
        if not approx(nq * nq, nq) or not approx(xq * xq, xq):
            failures.append(("1", (q, q)))
        for Q in DEFAULT_ALPHABET:
            nqQ, xqQ = bc.nu[(q, Q)], bc.xi[(q, Q)]
            for t in (nqQ, xq, xqQ):
                if not approx(t * nq, t):
                    failures.append(("2", (q, Q)))
                    break
            for t in (nqQ, xqQ):
                if not approx(abs(t) ** 2 * t, t):
                    failures.append(("3", (q, Q)))
                    break
            if not approx(nqQ * xq, xqQ * xq):
                failures.append(("4", (q, Q)))
            if not approx(nqQ * xqQ, nqQ * xqQ * xq):
                failures.append(("5", (q, Q)))
    return (not failures, failures)


# -- weight families ------------------------------------------------------------


class MissingEntryError(KeyError):
    """A table family was asked for a partition outside its table."""


class WeightFamily:
    """Base class: monic, block-permutation-invariant partition weights."""

    kind = "abstract"

    def __init__(self, name: str = ""):
        self.name = name or self.kind
        self._rows: dict[str, list] = {}

    def evaluate(self, p: Partition) -> complex:
        return self.weight(p.word, p.blocks)

    def weight(self, faces: str, blocks: Blocks) -> complex:
        """The weight of the partition with canonical ``blocks`` on ``faces``."""
        raise NotImplementedError

    def row(self, faces: str) -> list:
        """The weight row of a face word, shared by every summation loop:
        slot j is ``weight(faces, set_partitions(n)[j])`` once a loop has
        filled it, else None."""
        row = self._rows.get(faces)
        if row is None:
            row = self._rows[faces] = [None] * len(set_partitions(len(faces)))
        return row

    def basic_coefficients(self) -> BasicCoefficients:
        """Evaluate the four defining diagrams for every ordered face pair."""
        return BasicCoefficients.from_diagrams(self.evaluate)

    def descriptor(self) -> dict:
        raise NotImplementedError(f"{self.kind} family has no JSON descriptor")

    def __repr__(self) -> str:
        return f"<WeightFamily {self.name}>"


class ReductionFamily(WeightFamily):
    """Weights by canonical reduction to the basic coefficients ``bc``.

    No memo dict: ``_vals[i]`` is the family's value at node i of the
    shared store, appended in node order as far as a read needs.  The
    family's one dict is the row store that ``row`` reads.
    """

    def __init__(self, name: str, bc: BasicCoefficients):
        super().__init__(name)
        self._bc = bc
        self._vals = [complex(1)] + [getattr(bc, kind)[(q, Q)] for kind, q, Q in _LEAVES]

    def weight(self, faces: str, blocks: Blocks) -> complex:
        try:
            return self._vals[_ID[(faces, blocks)]]
        except KeyError:
            i = _node(Partition._unsafe(faces, blocks))
        except IndexError:
            i = _ID[(faces, blocks)]
        vals = self._vals
        for a, b in _NODES[len(vals):i + 1]:
            vals.append(vals[a] * vals[b])
        return vals[i]

    def basic_coefficients(self) -> BasicCoefficients:
        return self._bc


class ClassIndicatorFamily(ReductionFamily):
    """Indicator weights of one of the twelve two-faced classes."""

    kind = "class"

    def __init__(self, class_id: ClassId):
        super().__init__(f"class:{class_id.value}", BasicCoefficients.from_diagrams(lambda d: complex(member(class_id, d))))
        self.class_id = class_id

    def descriptor(self) -> dict:
        return {"kind": "class", "class": self.class_id.value}


class DeformedFamily(ReductionFamily):
    """One-parameter deformation of the tensor, free or bifree pattern.

    ``zeta`` is renormalized to the unit circle on input.  ``SHAPES[base]``
    is the sixtuple (nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb) as a function of
    z = conj(zeta), which the base puts in the (w, b) slots it deforms; the
    (b, w) slots carry zeta.  ``classify_pattern`` reads the same table.
    """

    kind = "deformed"
    SHAPES = {
        "tensor": lambda z: (1, 1, z, 1, 1, z),
        "free": lambda z: (1, 1, z, 0, 0, 0),
        "bifree": lambda z: (1, 1, 0, 0, 0, z),
    }
    BASES = tuple(SHAPES)

    def __init__(self, base: str, zeta: complex):
        if base not in self.BASES:
            raise ValueError(f"base must be one of {self.BASES}, got {base!r}")
        r = abs(zeta)
        if r <= EPS:
            raise ValueError("zeta must be nonzero")
        zeta = complex(zeta) / r
        super().__init__(f"deformed:{base}:{zeta:.4g}", BasicCoefficients.from_sixtuple(self.SHAPES[base](zeta.conjugate())))
        self.base = base
        self.zeta = zeta

    def descriptor(self) -> dict:
        return {
            "kind": "deformed",
            "base": self.base,
            "zeta": complex_json(self.zeta),
        }


class TableFamily(WeightFamily):
    """Explicit table of weights, total up to ``max_legs`` legs."""

    kind = "table"

    def __init__(self, entries: dict[Partition, complex], max_legs: int):
        super().__init__(name=f"table:{max_legs}")
        self.entries = dict(entries)
        self.max_legs = max_legs

    def weight(self, faces: str, blocks: Blocks) -> complex:
        if len(faces) > self.max_legs:
            raise MissingEntryError(f"partition has {len(faces)} legs, table stops at {self.max_legs}")
        p = Partition._unsafe(faces, blocks)
        try:
            return self.entries[p]
        except KeyError:
            raise MissingEntryError(f"no table entry for {p}") from None

    def descriptor(self) -> dict:
        return {
            "kind": "table",
            "max_legs": self.max_legs,
            "entries": [
                {"partition": str(p), "value": complex_json(v)}
                for p, v in sorted(self.entries.items(), key=lambda kv: str(kv[0]))
            ],
        }


class PredicateFamily(WeightFamily):
    """0/1 weights given by an arbitrary membership predicate."""

    kind = "predicate"

    def __init__(self, name: str, predicate: Callable[[Partition], bool]):
        super().__init__(name=name)
        self.predicate = predicate

    def weight(self, faces: str, blocks: Blocks) -> complex:
        return complex(bool(self.predicate(Partition._unsafe(faces, blocks))))


def family_from_json(obj: dict) -> WeightFamily:
    """Build a weight family from its JSON descriptor.

    A table descriptor must be total: one entry for every partition with at
    most ``max_legs`` legs, none with more and none twice.  Otherwise
    ValueError names the first offending partition: the first entry that is
    too long or repeated, else the first missing partition in sweep order.
    """
    kind = json_field(json_expect(obj, "an object", "weight family"), "kind", "weight family")
    what = f"{kind} weight family"
    if kind == "class":
        return ClassIndicatorFamily(ClassId(json_field(obj, "class", what)))
    if kind == "deformed":
        z = json_field(obj, "zeta", what)
        if isinstance(z, dict) and "angle" in z:
            zeta = cmath.exp(1j * json_expect(z["angle"], "a number", "zeta angle"))
        else:
            zeta = json_complex(z, "zeta")
        return DeformedFamily(json_field(obj, "base", what), zeta)
    if kind == "table":
        max_legs = json_expect(json_field(obj, "max_legs", what), "an integer", "max_legs")
        entries = {}
        for e in json_expect(json_field(obj, "entries", what), "a list", "table entries"):
            json_expect(e, "an object", "table entry")
            p = parse_diagram(json_expect(json_field(e, "partition", "table entry"), "a string", "table entry partition"), DEFAULT_ALPHABET)
            if p.n > max_legs:
                raise ValueError(f"table entry {p} has {p.n} legs, more than max_legs {max_legs}")
            if p in entries:
                raise ValueError(f"duplicate table entry for {p}")
            entries[p] = json_complex(json_field(e, "value", f"table entry {p}"), f"value of {p}")
        # Stops at the first gap, so it reads at most one partition more
        # than the table has entries.
        for p in partitions_upto(max_legs):
            if p not in entries:
                raise ValueError(f"table has no entry for {p}")
        return TableFamily(entries, max_legs)
    raise ValueError(f"unknown weight family kind {kind!r}")


# -- the canonical reduction ------------------------------------------------------
#
# The product-node store.  Node 0 is the unit, nodes 1-8 are the leaves
# ("nu" or "xi", q, Q), and every later node is an interned pair (a, b) of
# earlier ids, valued as node a times node b in that order.  ``_ID`` maps
# each (word, blocks) key to its node.  It holds no Partition.

_LEAVES = tuple((kind, q, Q) for kind in ("nu", "xi") for q in DEFAULT_ALPHABET for Q in DEFAULT_ALPHABET)
_NODES: list[tuple] = [("one",), *_LEAVES]
_NODE_ID: dict[tuple, int] = {node: i for i, node in enumerate(_NODES)}
_ID: dict[tuple[str, Blocks], int] = {}


def _node(p: Partition) -> int:
    i = _ID.get((p.word, p.blocks))
    if i is None:
        i = _ID[(p.word, p.blocks)] = _canonical_step(p)
    return i


def _product(united: Partition, remembered: Partition) -> int:
    node = (_node(united), _node(remembered))
    i = _NODE_ID.get(node)
    if i is None:
        i = _NODE_ID[node] = len(_NODES)
        _NODES.append(node)
    return i


def _canonical_step(p: Partition) -> int:
    """The node id of the canonical reduction at p.

    Deterministic tie-breaking: always reduce first, then operate at the left
    end (merge before face change before split).  Valid for families that
    satisfy the admissibility conditions; the confluence of differently
    ordered reductions is a tested property, not an assumption here.
    """
    p = p.reduce()
    if p.block_count <= 1 or p.is_interval():
        return 0
    if p.block_count == 2:
        return _two_block_step(p)
    q = p.change_extremal_face("first", p.word[1])
    if p._block_index[1] == p._block_index[2]:
        return _node(q.merge_legs(1))
    return _product(*q.split_at(1))


def _two_block_step(p: Partition) -> int:
    """The node id that resolves a reduced, non-interval two-block
    partition to basic coefficients.

    Normalizes both ends (face-change plus merge while the two extremal legs
    of an end share a block), which keeps two blocks and keeps the partition
    non-interval, and shrinks any partition of more than four legs into a
    position where one block can be split; four legs or fewer hit the basic
    diagrams directly.
    """
    while True:
        p = p.reduce()
        n = p.n
        if p._block_index[1] == p._block_index[2]:
            p = p.change_extremal_face("first", p.word[1]).merge_legs(1)
            continue
        if p._block_index[n] == p._block_index[n - 1]:
            p = p.change_extremal_face("last", p.word[n - 2]).merge_legs(n - 1)
            continue
        break
    n = p.n
    if n <= 4:
        # nesting {1,3},{2} or {1,4},{2,3}, or crossing {1,3},{2,4}
        kind = "nu" if n == 3 or p._block_index[1] == p._block_index[4] else "xi"
        return _NODE_ID[(kind, p.word[1], p.word[n - 2])]
    # n > 4: legs 1, 2 lie in distinct blocks; make their faces equal, split
    # the block of leg 3 at leg 3, and factor through the blocks of legs 1
    # and 2.  Both ends being normalized guarantees both factors have fewer
    # than n legs once their leading same-block runs merge away.
    p = p.change_extremal_face("first", p.word[1])
    return _product(*p.split_block_at_leg(3).split_at(1))


def evaluate_randomized(family: WeightFamily, p: Partition, rng: random.Random) -> complex:
    """Evaluate along a randomized reduction order (confluence probe).

    Chooses random applicable rewrites: random mirror (with conjugation),
    random eligible position for the split relation, random end for the
    extremal normalization.  Only meaningful for reduction-backed families.
    Two-block partitions are resolved here too: both ends are normalized,
    a partition of more than four legs is split as the two-block rule does,
    and one of three or four legs, with both extremal legs recolored, is
    looked up among the basic diagrams valued by
    ``family.basic_coefficients()``.  Neither the product-node store nor
    the step functions are read, so this route is independent of
    ``evaluate``.
    """
    bc = family.basic_coefficients()
    basic: dict[Partition, complex] = {}
    for q in DEFAULT_ALPHABET:
        for Q in DEFAULT_ALPHABET:
            nu_d, xi_d = basic_diagrams(q, Q)
            basic[nu_d], basic[xi_d] = bc.nu[(q, Q)], bc.xi[(q, Q)]

    def go(p: Partition) -> complex:
        p = p.reduce()
        if p.block_count <= 1 or p.is_interval():
            return complex(1)
        if rng.random() < 0.5:
            return go(p.mirror()).conjugate()
        if p.block_count >= 3:
            eligible = p.split_sites()
            if eligible:
                united, remembered = p.split_at(rng.choice(eligible))
                return go(united) * go(remembered)
            # No same-face boundary between blocks: recolor a random end.
            if rng.random() < 0.5:
                p = p.mirror()
                conj = True
            else:
                conj = False
            q = p.change_extremal_face("first", p.word[1])
            if q._block_index[1] == q._block_index[2]:
                v = go(q.merge_legs(1))
            else:
                united, remembered = q.split_at(1)
                v = go(united) * go(remembered)
            return v.conjugate() if conj else v
        # Two blocks: merge away an end whose two extremal legs share a
        # block (the random mirror above picks the end).
        n = p.n
        if p._block_index[1] == p._block_index[2]:
            return go(p.change_extremal_face("first", p.word[1]).merge_legs(1))
        if p._block_index[n] == p._block_index[n - 1]:
            return go(p.change_extremal_face("last", p.word[n - 2]).merge_legs(n - 1))
        if n > 4:
            # Give leg 1 the face of leg 2, split the block of leg 3 at
            # leg 3, and factor through the blocks of legs 1 and 2.
            q = p.change_extremal_face("first", p.word[1])
            united, remembered = q.split_block_at_leg(3).split_at(1)
            return go(united) * go(remembered)
        # Three legs {1,3},{2} or four legs {1,4},{2,3} / {1,3},{2,4}: a
        # basic diagram once the extremal legs take their neighbours' faces.
        return basic[p.change_extremal_face("first", p.word[1]).change_extremal_face("last", p.word[n - 2])]

    return go(p)


# -- admissibility --------------------------------------------------------------


class AdmissibilityReport:
    """Outcome of the six-condition admissibility check.

    ``conditions`` maps 'i'..'vi' to None (holds) or a witness description;
    ``first_violation`` is the first failing condition in order, if any.
    """

    ORDER = ("i", "ii", "iii", "iv", "v", "vi")

    def __init__(self, family_name: str, max_legs: int):
        self.family_name = family_name
        self.max_legs = max_legs
        self.conditions: dict[str, dict | None] = {c: None for c in self.ORDER}

    @property
    def ok(self) -> bool:
        return all(v is None for v in self.conditions.values())

    @property
    def first_violation(self):
        for c in self.ORDER:
            if self.conditions[c] is not None:
                return (c, self.conditions[c])
        return None

    def record(self, cond: str, witness: Partition, detail: str) -> None:
        if self.conditions[cond] is None:
            self.conditions[cond] = {"witness": str(witness), "detail": detail}

    def to_json(self) -> dict:
        return {
            "family": self.family_name,
            "max_legs": self.max_legs,
            "pass": self.ok,
            "conditions": {k: v for k, v in self.conditions.items()},
        }


def check_admissible(family: WeightFamily, max_legs: int) -> AdmissibilityReport:
    """Exhaustively verify the six admissibility conditions up to max_legs.

    (i) weight 1 on one-block partitions; (ii) weight 1 on the two-leg
    two-singleton partitions; (iii) invariance under reduction; (iv) the
    split relation at every same-face boundary between two blocks;
    (v) invariance under recoloring either extremal leg; (vi) mirror
    conjugation.  Violations are reported with witnesses, not raised.
    """
    report = AdmissibilityReport(family.name, max_legs)
    ev = family.evaluate
    for p in partitions_upto(max_legs):
        v = ev(p)
        if p.block_count == 1 and not approx(v, 1):
            report.record("i", p, f"value {v}")
        if p.n == 2 and p.block_count == 2 and not approx(v, 1):
            report.record("ii", p, f"value {v}")
        red = p.reduce()
        if red != p and not approx(v, ev(red)):
            report.record("iii", p, f"{v} != {ev(red)} after reduction")
        for i in p.split_sites():
            united, remembered = p.split_at(i)
            if not approx(v, ev(united) * ev(remembered)):
                report.record("iv", p, f"split at legs {i},{i + 1}")
        for end in ("first", "last"):
            for face in DEFAULT_ALPHABET:
                q = p.change_extremal_face(end, face)
                if not approx(v, ev(q)):
                    report.record("v", p, f"recolor {end} leg to {face}")
        if not approx(ev(p.mirror()), v.conjugate()):
            report.record("vi", p, f"mirror value {ev(p.mirror())} vs conj {v.conjugate()}")
    return report


# -- singleton inductivity --------------------------------------------------------


class SingletonReport:
    def __init__(self, inductive: bool, witness, nu_all_one: bool):
        self.inductive = inductive
        self.witness = witness
        self.nu_all_one = nu_all_one

    @property
    def agrees(self) -> bool:
        return self.inductive == self.nu_all_one


def is_singleton_inductive(family: WeightFamily, max_legs: int) -> SingletonReport:
    """Check that removing any singleton block leaves the weight unchanged.

    Exhaustive up to max_legs; also cross-checks the equivalent condition
    that the monochrome nesting coefficient is 1 for every face.
    """
    ev = family.evaluate
    witness = None
    for p in partitions_upto(max_legs):
        if p.n == 1:
            continue  # removing its singleton would leave no legs
        if any(
            len(b) == 1 and not approx(ev(p), ev(p.restrict([leg for leg in range(1, p.n + 1) if leg != b[0]])))
            for b in p.blocks
        ):
            witness = p
            break
    bc = family.basic_coefficients()
    nu_all_one = all(approx(bc.nu[(q, q)], 1) for q in DEFAULT_ALPHABET)
    return SingletonReport(witness is None, witness, nu_all_one)


# -- concrete stock families -------------------------------------------------------


def bi_interval_family() -> PredicateFamily:
    """Indicator of partitions that are interval in the zigzag leg order.

    The zigzag order lists the w-legs ascending, then the b-legs descending.
    This set is not mirror closed, so its indicator violates the mirror
    condition (vi); it serves as the mirror-asymmetric negative control.
    """

    def zigzag_interval(p: Partition) -> bool:
        order = [leg for leg in range(1, p.n + 1) if p.word[leg - 1] == "w"]
        order += [leg for leg in range(p.n, 0, -1) if p.word[leg - 1] == "b"]
        rank = {leg: i for i, leg in enumerate(order)}
        return all(
            sorted(rank[leg] for leg in b) == list(range(min(rank[leg] for leg in b), min(rank[leg] for leg in b) + len(b)))
            for b in p.blocks
        )

    return PredicateFamily("bi-interval", zigzag_interval)


class ConstantBlockFamily(WeightFamily):
    """Monic family with one constant weight on every multi-block partition.

    Deliberately violates the split relation (iv); serves as the
    non-admissible negative control for well-definedness checks.
    """

    kind = "broken-constant"

    def __init__(self, value: complex = 0.7):
        super().__init__(name=f"broken-constant:{value}")
        self.value = complex(value)

    def weight(self, faces: str, blocks: Blocks) -> complex:
        return complex(1) if len(blocks) <= 1 else self.value
