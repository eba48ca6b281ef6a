"""Moment-cumulant transforms on truncated functional tables."""

import cmath
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from multifaced.classes import ClassId
from multifaced.cumulants import (
    FunctionalTable,
    MissingMomentError,
    cumulant,
    direct_sum,
    exp_alpha,
    faces_of,
    product_letter_cumulant_check,
    log_alpha,
    moment_via_ordered_relation,
    random_table,
    standard_generators,
    substituted_table,
    table_from_json,
    table_to_json,
    unit_extended_table,
)
from multifaced import cumulants, partitions
from multifaced.partitions import set_partitions
from multifaced.verify import stock_families
from multifaced.weights import EPS, ClassIndicatorFamily, DeformedFamily

FAMS = [
    ClassIndicatorFamily(ClassId.A),
    ClassIndicatorFamily(ClassId.I),
    ClassIndicatorFamily(ClassId.biNC),
    DeformedFamily("tensor", 1j),
    DeformedFamily("free", cmath.exp(2j * math.pi / 3)),
]
GENS = standard_generators(per_face=1)


def rng():
    return random.Random(20240917)


class TestTables:
    def test_random_table_dense(self):
        t = random_table(GENS, 3, rng())
        assert len(t.values) == 2 + 4 + 8
        assert all(abs(v.real) <= 1 and abs(v.imag) <= 1 for v in t.values.values())

    def test_degree_bound_enforced(self):
        t = random_table(GENS, 2, rng())
        with pytest.raises(MissingMomentError):
            t.value((GENS[0],) * 3)

    def test_json_roundtrip(self):
        t = random_table(GENS, 3, rng())
        back = table_from_json(json.loads(json.dumps(table_to_json(t))))
        assert back.generators == t.generators
        for w in t.words():
            assert back.value(w) == t.value(w)

    def test_json_table_must_be_total(self):
        obj = table_to_json(random_table(GENS, 3, rng()))
        missing = obj["values"].pop(5)["word"]
        with pytest.raises(ValueError, match=re.escape(json.dumps(missing))):
            table_from_json(obj)

    def test_json_table_rejects_undeclared_generator(self):
        obj = table_to_json(random_table(GENS, 2, rng()))
        obj["values"].append({"word": [["w", "zz"]], "value": {"re": 1, "im": 0}})
        with pytest.raises(ValueError, match="zz"):
            table_from_json(obj)

    def test_json_table_rejects_foreign_face(self):
        # the weight layer has the two faces w and b only
        obj = table_to_json(random_table(GENS, 2, rng()))
        obj["generators"][0]["face"] = "x"
        with pytest.raises(ValueError, match=re.escape("faces ['x'] not in alphabet ('w', 'b')")):
            table_from_json(obj)


class TestExpLog:
    def test_degree_one_identity(self):
        t = random_table(GENS, 3, rng())
        c = log_alpha(FAMS[0], t)
        for g in GENS:
            assert c.value((g,)) == t.value((g,))

    def test_degree_two_classical_shape(self):
        t = random_table(GENS, 2, rng())
        c = log_alpha(FAMS[0], t)
        g = GENS[0]
        assert abs(c.value((g, g)) - (t.value((g, g)) - t.value((g,)) ** 2)) < 1e-12

    def test_boolean_exp_sums_over_intervals(self):
        # the interval-class exponential of single-letter cumulants is the
        # interval-partition sum; check a three-letter word by hand
        fam = ClassIndicatorFamily(ClassId.I)
        t = random_table(GENS, 3, rng())
        m = exp_alpha(fam, t)
        g = GENS[0]
        w = (g, g, g)
        c1 = t.value((g,))
        c2 = t.value((g, g))
        c3 = t.value(w)
        # interval partitions of [3]: 123, 1|23, 12|3, 1|2|3
        assert abs(m.value(w) - (c3 + c1 * c2 + c2 * c1 + c1 ** 3)) < 1e-12

    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
    def test_roundtrip(self, fam):
        r = rng()
        for _ in range(6):
            t = random_table(GENS, 5, r)
            there = log_alpha(fam, exp_alpha(fam, t))
            back = exp_alpha(fam, log_alpha(fam, t))
            for w in t.words():
                assert abs(there.value(w) - t.value(w)) < 1e-9
                assert abs(back.value(w) - t.value(w)) < 1e-9

    @given(
        st.sampled_from(stock_families()),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_exp_log_inverse(self, fam, seed, degree):
        t = random_table(GENS, degree, random.Random(seed))
        there = exp_alpha(fam, log_alpha(fam, t))
        back = log_alpha(fam, exp_alpha(fam, t))
        for w in t.words():
            assert abs(there.value(w) - t.value(w)) <= 1e-9
            assert abs(back.value(w) - t.value(w)) <= 1e-9

    def test_single_face_word_moment(self):
        # one generator per face: m_w = c_w at degree one
        fam = FAMS[2]
        t = random_table(GENS, 1, rng())
        m = exp_alpha(fam, t)
        for g in GENS:
            assert m.value((g,)) == t.value((g,))

    def test_mixed_two_letter_tensor_class(self):
        fam = ClassIndicatorFamily(ClassId.A)
        t = random_table(GENS, 2, rng())
        m = exp_alpha(fam, t)
        gw = GENS[0]
        gb = GENS[1]
        assert abs(m.value((gw, gb)) - (t.value((gw, gb)) + t.value((gw,)) * t.value((gb,)))) < 1e-12


# The transforms as one loop over set_partitions(n) per word, with one
# subword per block of every partition: the reference the plan-driven
# exp_alpha and cumulant must match exactly.
def reference_exp(fam, psi):
    values = {}
    for word in psi.words():
        faces = faces_of(word)
        total = 0
        for blocks in set_partitions(len(word)):
            a = fam.weight(faces, blocks)
            if a == 0:
                continue
            term = a
            for b in blocks:
                term *= psi.value(tuple(word[i - 1] for i in b))
            total += term
        values[word] = total
    return values


def reference_cumulant(fam, table, word, cache):
    got = cache.get(word)
    if got is not None:
        return got
    value = table.value(word)
    faces = faces_of(word)
    for blocks in set_partitions(len(word)):
        if len(blocks) == 1:
            continue
        a = fam.weight(faces, blocks)
        if a == 0:
            continue
        term = a
        for b in blocks:
            term *= reference_cumulant(fam, table, tuple(word[i - 1] for i in b), cache)
        value = value - term
    cache[word] = value
    return value


class TestAgainstPartitionLoop:
    @pytest.mark.parametrize("fam", stock_families(), ids=lambda f: f.name)
    def test_exp_and_cumulant_equal_reference(self, fam):
        r = random.Random(fam.name)
        for per_face, degree in ((1, 5), (2, 4), (2, 3)):
            t = random_table(standard_generators(per_face=per_face), degree, r)
            assert exp_alpha(fam, t).values == reference_exp(fam, t)
            cache, ref_cache = {}, {}
            for w in t.words():
                assert cumulant(fam, t, w, cache) == reference_cumulant(fam, t, w, ref_cache)
            assert log_alpha(fam, t).values == ref_cache


class TestOrderedForm:
    def test_agrees_up_to_four_letters(self):
        fam = DeformedFamily("tensor", 1j)
        t = random_table(GENS, 4, rng())
        c = log_alpha(fam, t)
        for w in t.words(4):
            assert abs(moment_via_ordered_relation(fam, c, w) - t.value(w)) < 1e-9

    def test_fails_when_the_enumeration_drops_a_partition(self):
        # set_partitions(4) without its last partition, the four singletons:
        # log_alpha then gives wrong cumulants, and only a route that does
        # not enumerate through set_partitions can see it.
        real = partitions.set_partitions
        caches = (partitions.pure_plan, partitions.partition_index)

        def dropped(n):
            return real(n)[:-1] if n == 4 else real(n)

        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(partitions, "set_partitions", dropped)
                mp.setattr(cumulants, "set_partitions", dropped)
                fam = ClassIndicatorFamily(ClassId.I)
                t = random_table(GENS, 4, rng())
                c = log_alpha(fam, t)
                worst = max(abs(moment_via_ordered_relation(fam, c, w) - t.value(w)) for w in t.words(4))
        finally:
            for cache in caches:
                cache.cache_clear()
        assert worst > EPS


class TestDirectSum:
    def test_values(self):
        g1 = (("w", "a"), ("b", "ab"))
        g2 = (("w", "c"), ("b", "cb"))
        r = rng()
        t1, t2 = random_table(g1, 3, r), random_table(g2, 3, r)
        ds = direct_sum(t1, t2)
        assert ds.value((g1[0], g1[1])) == t1.value((g1[0], g1[1]))
        assert ds.value((g2[1],)) == t2.value((g2[1],))
        assert ds.value((g1[0], g2[0])) == 0

    def test_rejects_overlap(self):
        t = random_table(GENS, 2, rng())
        with pytest.raises(ValueError):
            direct_sum(t, t)

    def test_mixed_cumulants_vanish(self):
        g1 = (("w", "a"), ("b", "ab"))
        g2 = (("w", "c"), ("b", "cb"))
        r = rng()
        t1, t2 = random_table(g1, 4, r), random_table(g2, 4, r)
        ds = direct_sum(t1, t2)
        dense = FunctionalTable(g1 + g2, 4, values={w: ds.value(w) for w in ds.words()})
        for fam in FAMS[:3]:
            c = log_alpha(fam, exp_alpha(fam, dense))
            for w in c.words():
                owner = {g in set(g1) for g in w}
                if len(owner) == 2:
                    assert abs(c.value(w)) < 1e-9
                else:
                    assert abs(c.value(w) - dense.value(w)) < 1e-9


class TestDerivedTables:
    def test_substituted_expands(self):
        t = random_table(GENS, 4, rng())
        gw, gb = GENS
        fresh = {("w", "y"): (gw, gw), ("b", "z"): (gb,)}
        s = substituted_table(t, fresh)
        assert s.value((("w", "y"), ("b", "z"))) == t.value((gw, gw, gb))

    def test_substitution_must_stay_in_face(self):
        t = random_table(GENS, 4, rng())
        with pytest.raises(ValueError):
            substituted_table(t, {("w", "y"): (GENS[1],)})

    def test_substituted_cumulants_consistent(self):
        # the dense transform and the incremental recursion agree on the
        # substituted table, and a trivial substitution changes nothing
        fam = DeformedFamily("tensor", cmath.exp(0.9j))
        t = random_table(GENS, 4, rng())
        gw, gb = GENS
        s = substituted_table(t, {("w", "y"): (gw, gw), ("b", "z"): (gb,)}, degree_bound=2)
        cs = log_alpha(fam, s)
        from multifaced.cumulants import cumulant

        cache = {}
        for w in s.words():
            assert abs(cs.value(w) - cumulant(fam, s, w, cache)) < 1e-12
        trivial = substituted_table(t, {g: (g,) for g in GENS})
        ct = log_alpha(fam, trivial)
        cbase = log_alpha(fam, t)
        for w in t.words():
            assert abs(ct.value(w) - cbase.value(w)) < 1e-12

    def test_unit_extension(self):
        t = random_table(GENS, 3, rng())
        units = {"w": ("w", "uw"), "b": ("b", "ub")}
        u = unit_extended_table(t, units)
        gw = GENS[0]
        assert u.value((units["w"],)) == 1
        assert u.value((gw, units["b"], gw)) == t.value((gw, gw))

    def test_singleton_inductive_families_kill_units(self):
        # cumulants of unit-containing words vanish beyond length one
        units = {"w": ("w", "uw"), "b": ("b", "ub")}
        t = random_table(GENS, 3, rng())
        u = unit_extended_table(t, units)
        for fam in (ClassIndicatorFamily(ClassId.pNC), ClassIndicatorFamily(ClassId.A), DeformedFamily("bifree", 1j)):
            c = log_alpha(fam, u)
            for w in c.words():
                if len(w) > 1 and any(g in units.values() for g in w):
                    assert abs(c.value(w)) < 1e-9

    def test_boolean_family_does_not_kill_units(self):
        units = {"w": ("w", "uw"), "b": ("b", "ub")}
        t = random_table(GENS, 3, rng())
        u = unit_extended_table(t, units)
        c = log_alpha(ClassIndicatorFamily(ClassId.I), u)
        worst = max(
            abs(c.value(w))
            for w in c.words()
            if len(w) > 1 and any(g in units.values() for g in w)
        )
        assert worst > 1e-6


class TestProductCumulantIdentity:
    def test_two_letter_base_case(self):
        fam = ClassIndicatorFamily(ClassId.A)
        t = random_table(GENS, 4, rng())
        g = GENS[0]
        got = product_letter_cumulant_check(fam, t, (g, g), 1)
        assert got["diff"] < 1e-12

    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
    def test_random_words(self, fam):
        r = rng()
        t = random_table(GENS, 5, r)
        for _ in range(25):
            n = r.randint(2, 5)
            word = tuple(r.choice(GENS) for _ in range(n))
            positions = [i for i in range(1, n) if word[i - 1][0] == word[i][0]]
            if not positions:
                continue
            got = product_letter_cumulant_check(fam, t, word, r.choice(positions))
            assert got["diff"] < 1e-9

    def test_face_mismatch_rejected(self):
        t = random_table(GENS, 3, rng())
        with pytest.raises(ValueError):
            product_letter_cumulant_check(FAMS[0], t, (GENS[0], GENS[1]), 1)

    def test_empty_correction_for_interval_class(self):
        # the interval-class weight of every separating two-block partition
        # of a monochrome pair at the word boundary is nonzero only for the
        # split into {1},{2}; spot check the identity content
        fam = ClassIndicatorFamily(ClassId.I)
        t = random_table(GENS, 3, rng())
        g = GENS[0]
        got = product_letter_cumulant_check(fam, t, (g, g), 1)
        assert got["diff"] < 1e-12
