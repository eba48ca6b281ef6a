"""Weight families: evaluation, admissibility, basic coefficients."""

import cmath
import itertools
import json
import math
import random
import re

import pytest

from multifaced import weights
from multifaced.classes import ALL_CLASSES, ClassId, member
from multifaced.partitions import (
    Partition,
    all_words,
    concatenate,
    enumerate_partitions,
    parse_diagram,
    partition_index,
    partitions_upto,
)
from multifaced.weights import (
    EPS,
    BasicCoefficients,
    ClassIndicatorFamily,
    ConstantBlockFamily,
    DeformedFamily,
    TableFamily,
    MissingEntryError,
    approx,
    bi_interval_family,
    check_admissible,
    check_basic_relations,
    evaluate_randomized,
    family_from_json,
    is_singleton_inductive,
)
from multifaced.verify import ZETAS, stock_families

STOCK = [ClassIndicatorFamily(c) for c in ALL_CLASSES] + [
    DeformedFamily("tensor", 1j),
    DeformedFamily("free", cmath.exp(2j * math.pi / 3)),
    DeformedFamily("bifree", 1j),
]


class TestScalarHelpers:
    def test_approx(self):
        assert approx(1 + 0j, 1 + 1e-12j)
        assert not approx(1, 1 + 1e-6)


class TestEvaluate:
    def test_interval_is_one(self):
        p = parse_diagram("wbwbb/12|3|45")
        for fam in STOCK:
            assert approx(fam.evaluate(p), 1)

    def test_deformed_tensor_crossing(self):
        fam = DeformedFamily("tensor", 1j)
        assert approx(fam.evaluate(parse_diagram("wwbb/13|24")), -1j)

    def test_class_indicator_rejects_crossing(self):
        fam = ClassIndicatorFamily(ClassId.NC)
        assert fam.evaluate(parse_diagram("wwbb/13|24")) == 0

    def test_indicator_matches_membership(self):
        for c in (ClassId.biNC, ClassId.NCwAb, ClassId.pC):
            fam = ClassIndicatorFamily(c)
            for word in all_words("wb", 5):
                for p in enumerate_partitions(word):
                    assert (abs(fam.evaluate(p)) > 0.5) == member(c, p)

    def test_triple_nesting_value(self):
        fam = DeformedFamily("free", cmath.exp(0.9j))
        z = fam.zeta.conjugate()
        p = Partition("wwbwbb", [(1, 6), (2, 3, 4, 5)])
        assert approx(fam.evaluate(p), abs(z) ** 2 * z)

    def test_table_family_lookup(self):
        p = parse_diagram("wb/1|2")
        fam = TableFamily({p: 1.0, parse_diagram("wb/12"): 1.0}, max_legs=2)
        assert fam.evaluate(p) == 1.0
        with pytest.raises(MissingEntryError):
            fam.evaluate(parse_diagram("ww/1|2"))
        with pytest.raises(MissingEntryError):
            fam.evaluate(parse_diagram("www/123"))


class TestWeightStore:
    @pytest.mark.parametrize("idx", range(len(stock_families())), ids=[f.name for f in stock_families()])
    def test_weight_agrees_with_evaluate(self, idx):
        # two fresh instances, one filled through weight() first and one
        # through evaluate() first, read back identical values both ways
        by_weight, by_evaluate = stock_families()[idx], stock_families()[idx]
        parts = [p for n in range(1, 6) for w in all_words("wb", n) for p in enumerate_partitions(w)]
        for p in parts:
            assert by_weight.weight(p.word, p.blocks) == by_evaluate.evaluate(p)
        for p in parts:
            assert by_weight.evaluate(p) == by_weight.weight(p.word, p.blocks)
            assert by_evaluate.weight(p.word, p.blocks) == by_evaluate.evaluate(p)

    def test_no_family_keeps_a_memo(self):
        # after weights are read through weight, evaluate and a row, every
        # family's only dict attribute is its row store; a table family also
        # holds its entries, the data it was built from, which reads leave as
        # they were
        parts = list(partitions_upto(3))
        nc = ClassIndicatorFamily(ClassId.NC)
        table = TableFamily({p: nc.evaluate(p) for p in parts}, max_legs=3)
        entries = dict(table.entries)
        for fam in (table, bi_interval_family(), ConstantBlockFamily(0.7), nc, DeformedFamily("free", 1j)):
            for p in parts:
                row, j = fam.row(p.word), partition_index(p.n)[p.blocks]
                row[j] = fam.weight(p.word, p.blocks)
                assert fam.evaluate(p) == row[j]
            dicts = {k for k, v in vars(fam).items() if isinstance(v, dict)}
            assert dicts == ({"_rows", "entries"} if fam is table else {"_rows"}), fam.name
        assert table.entries == entries


def reference_value(p, bc, rec):
    """The recursive canonical reduction the shared product-node store
    replaced, frozen here as the reference: the value of p, with ``rec``
    valuing the partitions it reduces to."""
    p = p.reduce()
    if p.block_count <= 1 or p.is_interval():
        return complex(1)
    if p.block_count == 2:
        return reference_two_block_value(p, bc, rec)
    q = p.change_extremal_face("first", p.word[1])
    if p._block_index[1] == p._block_index[2]:
        return rec(q.merge_legs(1))
    united, remembered = q.split_at(1)
    return rec(united) * rec(remembered)


def reference_two_block_value(p, bc, rec):
    while True:
        p = p.reduce()
        if p.block_count <= 1 or p.is_interval():
            return complex(1)
        n = p.n
        if p._block_index[1] == p._block_index[2]:
            p = p.change_extremal_face("first", p.word[1]).merge_legs(1)
            continue
        if p._block_index[n] == p._block_index[n - 1]:
            p = p.change_extremal_face("last", p.word[n - 2]).merge_legs(n - 1)
            continue
        break
    n = p.n
    if n == 3:
        return bc.nu[(p.word[1], p.word[1])]
    if n == 4:
        if p._block_index[1] == p._block_index[4]:
            return bc.nu[(p.word[1], p.word[2])]
        return bc.xi[(p.word[1], p.word[2])]
    p = p.change_extremal_face("first", p.word[1])
    united, remembered = p.split_block_at_leg(3).split_at(1)
    return rec(united) * rec(remembered)


def reference_evaluator(fam):
    bc, memo = fam.basic_coefficients(), {}

    def rec(p):
        v = memo.get(p)
        if v is None:
            v = memo[p] = reference_value(p, bc, rec)
        return v

    return rec


def reduction_families():
    """The 15 stock families and the 9 deformations of criterion 2."""
    return stock_families() + [DeformedFamily(base, z) for base in DeformedFamily.BASES for z in ZETAS]


def empty_store(monkeypatch):
    """Give the test an empty product-node store, restored afterwards.  Node
    ids are reassigned, so only families built after the call may be read."""
    monkeypatch.setattr(weights, "_NODES", weights._NODES[:9])
    monkeypatch.setattr(weights, "_NODE_ID", {node: i for i, node in enumerate(weights._NODES)})
    monkeypatch.setattr(weights, "_ID", {})


class TestSharedSteps:
    @pytest.mark.slow
    def test_equals_recursive_reduction(self, monkeypatch):
        # every value under repr, so the last bit counts; then again in
        # reverse family order on an emptied store, so no family's values
        # depend on which family filled the store first
        parts = list(partitions_upto(6))
        expected = [[repr(reference_evaluator(f)(p)) for p in parts] for f in reduction_families()]
        assert [[repr(f.evaluate(p)) for p in parts] for f in reduction_families()] == expected
        empty_store(monkeypatch)
        got = [[repr(f.weight(p.word, p.blocks)) for p in parts] for f in reversed(reduction_families())]
        assert got[::-1] == expected

    def test_corrupted_step_is_caught_by_randomized_route(self, monkeypatch):
        # evaluate_randomized never reads the store, so one wrong id in it
        # (the bicolor nesting read as a crossing) shows as a disagreement
        def disagreements(fam):
            rng = random.Random(5)
            return [p for p in partitions_upto(5) if not approx(fam.evaluate(p), evaluate_randomized(fam, p, rng))]

        assert disagreements(ClassIndicatorFamily(ClassId.NC)) == []
        nest = parse_diagram("wwbb/14|23")
        key = (nest.word, nest.blocks)
        assert weights._ID[key] == weights._NODE_ID[("nu", "w", "b")]
        monkeypatch.setitem(weights._ID, key, weights._NODE_ID[("xi", "w", "b")])
        assert nest in disagreements(ClassIndicatorFamily(ClassId.NC))

    def test_table_holds_no_partitions(self):
        for fam in stock_families():
            for p in partitions_upto(5):
                fam.evaluate(p)
        atoms = set()

        def walk(x):
            if isinstance(x, tuple):
                for y in x:
                    walk(y)
            else:
                atoms.add(type(x))

        for key, i in weights._ID.items():
            walk(key)
            walk(i)
        for node in weights._NODES:
            walk(node)
        for node, i in weights._NODE_ID.items():
            walk(node)
            walk(i)
        assert atoms == {str, int}

    def test_step_hit_builds_no_partition(self, monkeypatch):
        # a fresh family reading ids another family put in the store
        # extends its value list without building a Partition
        parts = list(partitions_upto(4))
        for p in parts:
            ClassIndicatorFamily(ClassId.pC).evaluate(p)

        def refuse(cls, *args):
            raise AssertionError("built a Partition on an id hit")

        monkeypatch.setattr(Partition, "_unsafe", classmethod(refuse))
        fam = DeformedFamily("tensor", 1j)
        assert [fam.weight(p.word, p.blocks) for p in parts] == [DeformedFamily("tensor", 1j).evaluate(p) for p in parts]

    def test_store_is_shared_and_bounded(self, monkeypatch):
        # one family's sweep puts every key in the store; a second family
        # adds no key and holds exactly one value per node; a family's only
        # dict is its row store, which evaluate leaves empty
        empty_store(monkeypatch)
        parts = list(partitions_upto(6))
        first = ClassIndicatorFamily(ClassId.NCwAb)
        for p in parts:
            first.evaluate(p)
        keys = len(weights._ID)
        second = DeformedFamily("bifree", 1j)
        for p in parts:
            second.evaluate(p)
        assert len(weights._ID) == keys == 15018
        assert len(second._vals) == len(first._vals) == len(weights._NODES) == 469
        for fam in (first, second, *reduction_families()):
            dicts = [v for v in vars(fam).values() if isinstance(v, dict)]
            assert len(dicts) == 1 and dicts[0] is fam._rows and fam._rows == {}, fam.name


class TestBasicCoefficients:
    def test_binc(self):
        bc = ClassIndicatorFamily(ClassId.biNC).basic_coefficients()
        nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb = bc.sixtuple()
        assert (nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb) == (1, 1, 0, 0, 0, 1)

    def test_deformed_tensor(self):
        zeta = cmath.exp(0.7j)
        bc = DeformedFamily("tensor", zeta).basic_coefficients()
        assert approx(bc.nu[("w", "b")], zeta.conjugate())
        assert approx(bc.xi[("w", "b")], zeta.conjugate())
        assert approx(bc.nu[("w", "w")], 1) and approx(bc.xi[("b", "b")], 1)

    def test_interval_class_all_zero(self):
        bc = ClassIndicatorFamily(ClassId.I).basic_coefficients()
        assert bc.sixtuple() == (0, 0, 0, 0, 0, 0)

    def test_diagram_evaluation_agrees_with_stored(self):
        for fam in STOCK:
            stored = fam.basic_coefficients()
            generic = super(type(fam), fam).basic_coefficients()
            for key in stored.nu:
                assert approx(stored.nu[key], generic.nu[key])
                assert approx(stored.xi[key], generic.xi[key])

    def test_json_roundtrip(self):
        bc = DeformedFamily("bifree", 1j).basic_coefficients()
        back = BasicCoefficients.from_json(json.loads(json.dumps(bc.to_json())))
        for key in bc.nu:
            assert approx(back.nu[key], bc.nu[key])
            assert approx(back.xi[key], bc.xi[key])


class TestBasicRelations:
    def test_all_stock_pass(self):
        for fam in STOCK:
            ok, failures = check_basic_relations(fam.basic_coefficients())
            assert ok, (fam.name, failures)

    def test_half_fails_circle_relation(self):
        bc = BasicCoefficients.from_json(
            {"nu_w": 1, "nu_b": 1, "nu_wb": 0.5, "xi_w": 0, "xi_b": 0, "xi_wb": 0}
        )
        ok, failures = check_basic_relations(bc)
        assert not ok
        assert any(rel == "3" for rel, _ in failures)

    def test_deformed_free_exponential(self):
        bc = DeformedFamily("free", cmath.exp(1j * math.pi / 3)).basic_coefficients()
        ok, _ = check_basic_relations(bc)
        assert ok


class TestAdmissibility:
    @pytest.mark.parametrize("fam", STOCK, ids=lambda f: f.name)
    def test_stock_admissible_at_five(self, fam):
        assert check_admissible(fam, 5).ok

    def test_bi_interval_violates_mirror(self):
        report = check_admissible(bi_interval_family(), 4)
        assert not report.ok
        assert report.conditions["vi"] is not None
        # the witness reproduces the failure
        w = parse_diagram(report.conditions["vi"]["witness"])
        fam = bi_interval_family()
        assert not approx(fam.evaluate(w.mirror()), fam.evaluate(w).conjugate())

    def test_constant_family_violates_split(self):
        report = check_admissible(ConstantBlockFamily(0.7), 4)
        assert report.conditions["iv"] is not None
        assert report.first_violation[0] in ("iv", "i", "ii")

    def test_constant_family_witnesses(self):
        conds = check_admissible(ConstantBlockFamily(0.7), 4).conditions
        assert conds["ii"] == {"witness": "ww/1|2", "detail": "value (0.7+0j)"}
        assert conds["iv"] == {"witness": "www/1|2|3", "detail": "split at legs 1,2"}

    def test_bi_interval_witnesses(self):
        conds = check_admissible(bi_interval_family(), 4).conditions
        assert conds["v"] == {"witness": "www/12|3", "detail": "recolor first leg to b"}
        assert conds["vi"]["witness"] == "wwb/13|2"

    def test_tolerance_boundary(self):
        # EPS is the one numeric tolerance: one-leg weights 1 + d pass (i)
        # for d below it and fail it, first at w/1, for d above it
        assert EPS == 1e-9

        def report(d):
            entries = {parse_diagram("w/1"): 1 + d, parse_diagram("b/1"): 1 + d}
            return check_admissible(TableFamily(entries, max_legs=1), 1)

        assert report(5e-10).ok
        violation = report(2e-9).first_violation
        assert violation[0] == "i" and violation[1]["witness"] == "w/1"

    def test_report_json(self):
        rep = check_admissible(ClassIndicatorFamily(ClassId.I), 3)
        data = rep.to_json()
        assert data["pass"] and set(data["conditions"]) == {"i", "ii", "iii", "iv", "v", "vi"}


class TestConfluence:
    @pytest.mark.parametrize(
        "fam",
        [ClassIndicatorFamily(ClassId.pC), DeformedFamily("bifree", cmath.exp(0.7j))],
        ids=lambda f: f.name,
    )
    def test_randomized_paths_agree(self, fam):
        rng = random.Random(42)
        for n in range(1, 6):
            for word in all_words("wb", n):
                for p in enumerate_partitions(word):
                    v = fam.evaluate(p)
                    for _ in range(3):
                        assert approx(evaluate_randomized(fam, p, rng), v)

    def test_swapped_bicolor_leaves_are_caught(self, monkeypatch):
        # a resolver that reads every bicolor nesting as a crossing and back
        # changes evaluate but not the probe, which resolves two-block
        # partitions on its own
        real, ids = weights._two_block_step, weights._NODE_ID
        swap = {ids[(kind, q, Q)]: ids[(other, q, Q)] for kind, other in (("nu", "xi"), ("xi", "nu")) for q, Q in (("w", "b"), ("b", "w"))}

        def swapped(p):
            i = real(p)
            return swap.get(i, i)

        monkeypatch.setattr(weights, "_two_block_step", swapped)
        empty_store(monkeypatch)
        fam, rng = ClassIndicatorFamily(ClassId.NC), random.Random(5)
        assert any(not approx(fam.evaluate(p), evaluate_randomized(fam, p, rng)) for p in partitions_upto(5))


class TestStructuralProperties:
    def test_equal_basics_imply_equal_family(self):
        # an indicator family rebuilt as an explicit table from membership
        # agrees with the reduction-evaluated one everywhere
        for c in (ClassId.NCwAb, ClassId.pC):
            fam = ClassIndicatorFamily(c)
            for word in all_words("wb", 5):
                for p in enumerate_partitions(word):
                    assert approx(fam.evaluate(p), complex(member(c, p)))

    def test_multiplicative_under_concatenation(self):
        # every pair of partitions with at most three legs; the split
        # relation's negative control breaks the property
        pairs = list(itertools.product(partitions_upto(3), repeat=2))
        assert len(pairs) == 2500

        def breaks(fam):
            return sum(
                not approx(fam.evaluate(concatenate([p, q])), fam.evaluate(p) * fam.evaluate(q))
                for p, q in pairs
            )

        for fam in stock_families():
            assert breaks(fam) == 0, fam.name
        assert breaks(ConstantBlockFamily(0.7)) > 0

    def test_support_is_closed_under_operations(self):
        # spot checks of the closure rules on the support of a deformation
        fam = DeformedFamily("free", cmath.exp(0.3j))
        for word in all_words("wb", 4):
            for p in enumerate_partitions(word):
                if fam.evaluate(p) == 0:
                    continue
                assert fam.evaluate(p.mirror()) != 0
                for leg in range(1, p.n + 1):
                    assert fam.evaluate(p.double_leg(leg)) != 0


class TestSingletonInductive:
    def test_pnc_inductive(self):
        rep = is_singleton_inductive(ClassIndicatorFamily(ClassId.pNC), 5)
        assert rep.inductive and rep.nu_all_one and rep.agrees

    def test_interval_class_not_inductive(self):
        rep = is_singleton_inductive(ClassIndicatorFamily(ClassId.I), 5)
        assert not rep.inductive and str(rep.witness) == "www/13|2" and rep.agrees

    def test_equivalence_with_nu(self):
        rng = random.Random(3)
        fams = list(STOCK)
        for _ in range(8):
            base = rng.choice(("tensor", "free", "bifree"))
            fams.append(DeformedFamily(base, cmath.exp(2j * math.pi * rng.random())))
        for fam in fams:
            assert is_singleton_inductive(fam, 4).agrees


class TestFamilyJson:
    def test_class_descriptor(self):
        fam = family_from_json({"kind": "class", "class": "NCwAb"})
        assert isinstance(fam, ClassIndicatorFamily) and fam.class_id == ClassId.NCwAb
        assert fam.descriptor() == {"kind": "class", "class": "NCwAb"}

    def test_deformed_descriptor(self):
        fam = family_from_json({"kind": "deformed", "base": "free", "zeta": {"re": 0, "im": 1}})
        assert isinstance(fam, DeformedFamily) and approx(fam.zeta, 1j)
        back = family_from_json(fam.descriptor())
        assert approx(back.zeta, fam.zeta)

    def test_deformed_angle(self):
        fam = family_from_json({"kind": "deformed", "base": "tensor", "zeta": {"angle": math.pi}})
        assert approx(fam.zeta, -1)

    def test_zeta_renormalized(self):
        fam = DeformedFamily("tensor", 2 + 0j)
        assert approx(fam.zeta, 1)

    def test_table_descriptor(self):
        entries = {p: complex(k, -k) for k, p in enumerate(partitions_upto(2))}
        fam = TableFamily(entries, max_legs=2)
        back = family_from_json(json.loads(json.dumps(fam.descriptor())))
        assert back.max_legs == 2 and back.entries == entries
        assert back.evaluate(parse_diagram("wb/1|2")) == entries[parse_diagram("wb/1|2")]

    @pytest.mark.parametrize(
        "change,message",
        [
            # the first missing partition in sweep order is named
            (lambda e: [x for x in e if x["partition"] != "bw/12"], "table has no entry for bw/12"),
            (lambda e: e[2:], "table has no entry for w/1"),
            (lambda e: e + [{"partition": "www/1|23", "value": 1}], "table entry www/1|23 has 3 legs, more than max_legs 2"),
            (lambda e: e + [{"partition": "wb/21", "value": 1}], "duplicate table entry for wb/12"),
        ],
        ids=["missing", "missing-first", "too-long", "duplicate"],
    )
    def test_table_must_be_total(self, change, message):
        entries = [{"partition": str(p), "value": 1} for p in partitions_upto(2)]
        family_from_json({"kind": "table", "max_legs": 2, "entries": entries})
        with pytest.raises(ValueError, match=re.escape(message)):
            family_from_json({"kind": "table", "max_legs": 2, "entries": change(entries)})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            family_from_json({"kind": "mystery"})


class TestDeformationSupports:
    def test_supports_are_the_expected_classes(self):
        import cmath

        from multifaced.classes import ClassId, class_member_set

        cases = [
            (DeformedFamily("tensor", cmath.exp(0.9j)), ClassId.A),
            (DeformedFamily("free", cmath.exp(0.9j)), ClassId.NC),
            (DeformedFamily("bifree", cmath.exp(0.9j)), ClassId.biNC),
        ]
        for fam, c in cases:
            support = {
                p
                for n in range(1, 6)
                for word in all_words("wb", n)
                for p in enumerate_partitions(word)
                if abs(fam.evaluate(p)) > 1e-9
            }
            assert support == set(class_member_set(c, 5))
