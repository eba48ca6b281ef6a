"""Pattern classification, closure generation, Hasse verification."""

import cmath
import math

import pytest

from multifaced.classes import ALL_CLASSES, ClassId, class_member_set, member, swap_class
from multifaced.classify import (
    Deformed,
    HASSE_EDGES,
    PATTERNS,
    class_generators,
    classify_pattern,
    closure_generate,
    enumerate_admissible_patterns,
    hasse_verify,
    refinement_restriction_check,
    swap_pattern,
)
from multifaced.partitions import parse_diagram, singletons
from multifaced.weights import (
    BasicCoefficients,
    ClassIndicatorFamily,
    DeformedFamily,
    check_admissible,
)


class TestEnumeratePatterns:
    def test_exactly_twelve(self):
        pats = enumerate_admissible_patterns()
        assert len(pats) == 12

    def test_before_filtering_sixty_four(self):
        assert 2 ** 6 == 64

    def test_bijective_onto_classes(self):
        pats = enumerate_admissible_patterns()
        assert {c for _, c in pats} == set(ALL_CLASSES)

    def test_swap_orbits(self):
        pats = enumerate_admissible_patterns()
        fixed = [p for p, _ in pats if swap_pattern(p) == p]
        assert len(fixed) == 6
        for p, c in pats:
            assert PATTERNS[swap_pattern(p)] == swap_class(c)

    def test_table_matches_predicates(self):
        for pattern, c in enumerate_admissible_patterns():
            bc = ClassIndicatorFamily(c).basic_coefficients()
            assert tuple(int(v.real) for v in bc.sixtuple()) == pattern


class TestClassifyPattern:
    def test_all_ones_is_tensor_class(self):
        bc = BasicCoefficients.from_json(
            {"nu_w": 1, "nu_b": 1, "nu_wb": 1, "xi_w": 1, "xi_b": 1, "xi_wb": 1}
        )
        assert classify_pattern(bc) == ClassId.A

    def test_binc_pattern(self):
        bc = BasicCoefficients.from_json(
            {"nu_w": 1, "nu_b": 1, "nu_wb": 0, "xi_w": 0, "xi_b": 0, "xi_wb": 1}
        )
        assert classify_pattern(bc) == ClassId.biNC

    def test_deformed_bifree(self):
        theta = 0.8
        bc = BasicCoefficients.from_json(
            {
                "nu_w": 1,
                "nu_b": 1,
                "nu_wb": 0,
                "xi_w": 0,
                "xi_b": 0,
                "xi_wb": {"re": math.cos(theta), "im": math.sin(theta)},
            }
        )
        got = classify_pattern(bc)
        assert isinstance(got, Deformed) and got.base == "bifree"
        assert abs(got.zeta - cmath.exp(-1j * theta)) < 1e-9

    def test_each_deformation_recovers_its_parameters(self):
        for base in ("tensor", "free", "bifree"):
            zeta = cmath.exp(1.1j)
            got = classify_pattern(DeformedFamily(base, zeta).basic_coefficients())
            assert isinstance(got, Deformed) and got.base == base
            assert abs(got.zeta - zeta) < 1e-9

    def test_inconsistent_is_none(self):
        bc = BasicCoefficients.from_json(
            {"nu_w": 0, "nu_b": 1, "nu_wb": 1, "xi_w": 0, "xi_b": 0, "xi_wb": 0}
        )
        assert classify_pattern(bc) is None

    def test_mixed_deformation_is_none(self):
        bc = BasicCoefficients.from_json(
            {"nu_w": 1, "nu_b": 1, "nu_wb": 1, "xi_w": 0, "xi_b": 0,
             "xi_wb": {"re": 0, "im": 1}}
        )
        assert classify_pattern(bc) is None


class TestClosure:
    def test_empty_generators_give_intervals(self):
        assert closure_generate([], 5) == class_member_set(ClassId.I, 5)

    def test_binc_generators(self):
        got = closure_generate(class_generators(ClassId.biNC), 5)
        assert got == class_member_set(ClassId.biNC, 5)

    @pytest.mark.slow
    def test_binc_generators_six_legs(self):
        got = closure_generate(class_generators(ClassId.biNC), 6)
        assert got == class_member_set(ClassId.biNC, 6)

    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_all_classes_at_five_legs(self, c):
        assert closure_generate(class_generators(c), 5) == class_member_set(c, 5)

    def test_escalation_strictly_grows(self):
        for c in (ClassId.pNC, ClassId.IwNCb, ClassId.biNC):
            inside = class_member_set(c, 5)
            outside = next(
                p for p in sorted(class_member_set(ClassId.A, 4), key=str) if p not in inside
            )
            grown = closure_generate(class_generators(c) + [outside], 5)
            assert inside < grown

    def test_budget_cap(self):
        from multifaced.classify import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            closure_generate(class_generators(ClassId.A), 6, node_cap=100)


class TestHasse:
    def test_five_legs(self):
        rep = hasse_verify(5)
        assert rep.ok
        assert len(rep.edges) == len(HASSE_EDGES) == 17

    def test_extremes(self):
        rep = hasse_verify(4)
        assert rep.ok
        froms = {e["from"] for e in rep.edges}
        tos = {e["to"] for e in rep.edges}
        assert "I" in froms and "I" not in tos
        assert "A" in tos and "A" not in froms

    def test_pnc_below_binc_and_nc(self):
        rep = hasse_verify(5)
        edges = {(e["from"], e["to"]) for e in rep.edges}
        assert ("pNC", "biNC") in edges and ("pNC", "NC") in edges

    def test_incomparable_pair(self):
        rep = hasse_verify(5)
        pairs = {frozenset((d["a"], d["b"])) for d in rep.incomparable}
        assert frozenset(("NCwAb", "AwNCb")) in pairs

    def test_witnesses_check_out(self):
        rep = hasse_verify(5)
        for e in rep.edges:
            w = parse_diagram(e["witness"])
            assert member(ClassId(e["to"]), w)
            assert not member(ClassId(e["from"]), w)

    def test_dot_output(self):
        rep = hasse_verify(4)
        assert rep.dot.startswith("digraph hasse {")
        assert '"pNC" -> "biNC";' in rep.dot
        assert rep.dot.count("->") == 17


class TestRefinementRestriction:
    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_holds_for_every_class(self, c):
        assert refinement_restriction_check(c, 5)["ok"]

    def test_negative_control(self):
        bounded_nc = lambda p: member(ClassId.NC, p) and p.block_count <= 2
        got = refinement_restriction_check(bounded_nc, 4)
        assert not got["ok"]

    def test_all_singletons_trivial(self):
        p = singletons("wbw")
        from multifaced.partitions import refinements

        assert list(refinements(p)) == [p]


class TestIndicatorAdmissibility:
    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_indicator_admissible(self, c):
        assert check_admissible(ClassIndicatorFamily(c), 5).ok


@pytest.mark.slow
class TestSixLegInvariances:
    @pytest.mark.parametrize("c", [ClassId.biNC, ClassId.NCwAb, ClassId.pC], ids=lambda c: c.value)
    def test_indicator_matches_membership_at_six(self, c):
        # two admissible families with equal basic coefficients coincide: the
        # reduction-evaluated indicator against the predicate, exhaustively
        from multifaced.partitions import all_words, enumerate_partitions

        fam = ClassIndicatorFamily(c)
        for n in range(1, 7):
            for word in all_words("wb", n):
                for p in enumerate_partitions(word):
                    assert (abs(fam.evaluate(p)) > 0.5) == member(c, p)

    def test_confluence_at_six(self):
        import random

        from multifaced.partitions import all_words, enumerate_partitions
        from multifaced.weights import evaluate_randomized

        fam = DeformedFamily("bifree", cmath.exp(0.7j))
        rng = random.Random(17)
        for n in range(1, 7):
            for word in all_words("wb", n):
                for p in enumerate_partitions(word):
                    v = fam.evaluate(p)
                    for _ in range(3):
                        assert abs(evaluate_randomized(fam, p, rng) - v) < 1e-9
