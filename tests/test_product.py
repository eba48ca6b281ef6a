"""The universal-product engine: moments, coefficients, inclusion-exclusion."""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from multifaced.classes import ALL_CLASSES, ClassId, class_member_set, member
from multifaced.cumulants import FunctionalTable, cumulant, exp_alpha, log_alpha, random_table
from multifaced.partitions import (
    Partition,
    all_words,
    enumerate_partitions,
    meet,
    parse_diagram,
    partitions_upto,
    pure_plan,
    refinements,
    set_partitions,
)
from multifaced.product import (
    BlockStructure,
    Product,
    associativity_symmetry_check,
    coarsest_refinements_in_class,
    combinatorial_moment,
    extract_full_coefficient,
    extract_highest_coefficient,
    product_moment,
    product_table,
    tagged_word_structure,
    unit_preservation_check,
    well_definedness_check,
)
from multifaced.verify import stock_families
from multifaced.weights import (
    ClassIndicatorFamily,
    ConstantBlockFamily,
    DeformedFamily,
    MissingEntryError,
    PredicateFamily,
    TableFamily,
)

G1 = (("w", "a1w"), ("b", "a1b"))
G2 = (("w", "a2w"), ("b", "a2b"))
G3 = (("w", "a3w"), ("b", "a3b"))
STOCK = stock_families()


def rng():
    return random.Random(421)


def rand_tagged_word(r, gens_by_factor, n):
    word = []
    for _ in range(n):
        kappa = r.randint(1, len(gens_by_factor))
        g = r.choice(gens_by_factor[kappa - 1])
        word.append((kappa, g[0], g[1]))
    return tuple(word)


class TestBlockStructure:
    def test_factor_partition(self):
        s = BlockStructure((1, 2, 1, 1, 2), "wbbwb")
        assert s.factor_partition() == parse_diagram("wbbwb/134|25")
        assert s.beta(2) == (2, 5)

    def test_adapted(self):
        s = BlockStructure((1, 2, 1, 2), "wwbb")
        assert s.adapted(parse_diagram("wwbb/13|24"))
        assert s.adapted(parse_diagram("wwbb/1|3|24"))
        assert not s.adapted(parse_diagram("wwbb/12|34"))
        # equal adjacent factor-face pairs must share a block
        s2 = BlockStructure((1, 1), "ww")
        assert s2.adapted(parse_diagram("ww/12"))
        assert not s2.adapted(parse_diagram("ww/1|2"))


class TestProductMoment:
    def test_restriction_exact(self):
        fam = DeformedFamily("tensor", 1j)
        t1, t2 = random_table(G1, 4, rng()), random_table(G2, 4, rng())
        word = ((1, "w", "a1w"), (1, "b", "a1b"), (1, "w", "a1w"))
        assert product_moment(fam, (t1, t2), word) == t1.value(
            (("w", "a1w"), ("b", "a1b"), ("w", "a1w"))
        )

    def test_deformed_tensor_closed_form(self):
        zeta = 1j
        fam = DeformedFamily("tensor", zeta)
        zc = zeta.conjugate()
        r = rng()
        word = ((1, "w", "a1w"), (2, "w", "a2w"), (1, "b", "a1b"), (2, "b", "a2b"))
        for _ in range(5):
            t1, t2 = random_table(G1, 4, r), random_table(G2, 4, r)
            got = product_moment(fam, (t1, t2), word)
            p = t1.value((("w", "a1w"),))
            q = t2.value((("w", "a2w"),))
            u = t1.value((("w", "a1w"), ("b", "a1b")))
            v = t2.value((("w", "a2w"), ("b", "a2b")))
            rr = t1.value((("b", "a1b"),))
            s = t2.value((("b", "a2b"),))
            closed = (
                zc * u * v
                + (1 - zc) * u * s * q
                + (1 - zc) * p * rr * v
                - (1 - zc) * p * rr * s * q
            )
            assert abs(got - closed) < 1e-9

    def test_boolean_alternating_word(self):
        fam = ClassIndicatorFamily(ClassId.I)
        r = rng()
        t1, t2 = random_table(G1, 4, r), random_table(G2, 4, r)
        word = ((1, "w", "a1w"), (2, "w", "a2w"), (1, "w", "a1w"))
        got = product_moment(fam, (t1, t2), word)
        a = t1.value((("w", "a1w"),))
        b = t2.value((("w", "a2w"),))
        assert abs(got - a * b * a) < 1e-9

    def test_mixed_blocks_contribute_zero(self):
        # summing over every partition with the direct-sum rule gives the
        # same value as the factor-pure enumeration
        fam = ClassIndicatorFamily(ClassId.A)
        r = rng()
        t1, t2 = random_table(G1, 4, r), random_table(G2, 4, r)
        prod = Product(fam, (t1, t2))
        word = rand_tagged_word(r, (G1, G2), 4)
        from multifaced.cumulants import direct_sum

        ds = direct_sum(t1, t2)
        dense = FunctionalTable(
            t1.generators + t2.generators, 4, values={w: ds.value(w) for w in ds.words()}
        )
        cache = {}
        total = 0
        letters = tuple((t[1], t[2]) for t in word)
        faces = "".join(t[1] for t in word)
        own = {g: 1 for g in G1} | {g: 2 for g in G2}
        for blocks in set_partitions(len(word)):
            a = fam.evaluate(Partition(faces, blocks))
            prod_term = a
            for blk in blocks:
                sub = tuple(letters[i - 1] for i in blk)
                if len({own[g] for g in sub}) > 1:
                    prod_term = 0
                    break
                prod_term *= cumulant(fam, dense, sub, cache)
            total += prod_term
        assert abs(total - prod.moment(word)) < 1e-9

    def test_symmetry_under_factor_swap(self):
        fam = DeformedFamily("bifree", cmath.exp(0.4j))
        r = rng()
        t1, t2 = random_table(G1, 5, r), random_table(G2, 5, r)
        forward = Product(fam, (t1, t2))
        backward = Product(fam, (t2, t1))
        for _ in range(25):
            word = rand_tagged_word(r, (G1, G2), r.randint(1, 5))
            flipped = tuple((3 - k, f, name) for k, f, name in word)
            assert abs(forward.moment(word) - backward.moment(flipped)) < 1e-9

    def test_universality_under_substitution(self):
        # replacing a generator by a same-face product of fresh generators
        # and pushing the tables forward leaves moments invariant
        fam = ClassIndicatorFamily(ClassId.NCwAb)
        r = rng()
        fine = (("w", "p"), ("w", "q"), ("b", "rb"))
        t_fine = random_table(fine, 8, r)
        from multifaced.cumulants import substituted_table

        coarse = substituted_table(
            t_fine,
            {("w", "x"): (("w", "p"), ("w", "q")), ("b", "yb"): (("b", "rb"),)},
            degree_bound=4,
        )
        t2 = random_table(G2, 8, r)
        coarse_word = ((1, "w", "x"), (2, "w", "a2w"), (1, "b", "yb"), (2, "b", "a2b"))
        fine_word = (
            (1, "w", "p"),
            (1, "w", "q"),
            (2, "w", "a2w"),
            (1, "b", "rb"),
            (2, "b", "a2b"),
        )
        got1 = product_moment(fam, (coarse, t2), coarse_word)
        got2 = product_moment(fam, (t_fine, t2), fine_word)
        assert abs(got1 - got2) < 1e-9

    def test_explained_expansion_sums(self):
        fam = ClassIndicatorFamily(ClassId.NC)
        r = rng()
        t1, t2 = random_table(G1, 4, r), random_table(G2, 4, r)
        prod = Product(fam, (t1, t2))
        word = rand_tagged_word(r, (G1, G2), 4)
        expansion = []
        value = prod.moment(word, expansion)
        assert abs(sum(e["contribution"] for e in expansion) - value) < 1e-12

    @pytest.mark.parametrize(
        "fam",
        [ClassIndicatorFamily(ClassId.NC), ClassIndicatorFamily(ClassId.I), DeformedFamily("bifree", cmath.exp(0.4j))],
        ids=lambda f: f.name,
    )
    def test_expansion_rows_against_reference(self, fam):
        # every word of at most 4 letters over three factors: one row per
        # factor-pure partition, in enumeration order, summing to the value;
        # the value equals the factor-pure sum written out here bit for bit,
        # and so does the plain moment on words of several factors
        r = rng()
        gens = (G1, G2, G3)
        tables = tuple(random_table(g, 4, r) for g in gens)
        prod = Product(fam, tables)
        caches = [{} for _ in tables]
        tagged_letters = [(kappa, f, name) for kappa, g in enumerate(gens, start=1) for f, name in g]
        multi = 0
        for n in range(1, 5):
            for word in itertools.product(tagged_letters, repeat=n):
                rows = []
                value = prod.moment(word, rows)
                faces = "".join(t[1] for t in word)
                letters = tuple((t[1], t[2]) for t in word)
                groups = {}
                for i, t in enumerate(word, start=1):
                    groups.setdefault(t[0], []).append(i)
                pure, want = [], 0
                for combo in itertools.product(*(set_partitions(len(g)) for g in groups.values())):
                    blocks = sorted(
                        (tuple(legs[i - 1] for i in sb) for legs, sub in zip(groups.values(), combo) for sb in sub),
                        key=lambda blk: blk[0],
                    )
                    p = Partition(faces, blocks)
                    pure.append(str(p))
                    term = fam.evaluate(p)
                    if term == 0:
                        continue
                    for blk in blocks:
                        kappa = word[blk[0] - 1][0]
                        term = term * cumulant(fam, tables[kappa - 1], tuple(letters[i - 1] for i in blk), caches[kappa - 1])
                    want = term + want
                assert [row["partition"] for row in rows] == pure
                assert all(row["contribution"] == 0 for row in rows if row["weight"] == 0)
                assert abs(sum(row["contribution"] for row in rows) - value) < 1e-12
                assert value == want
                if len(groups) > 1:
                    multi += 1
                    assert prod.moment(word) == want
        assert multi == 1554 - 3 * 30  # 6 + 36 + 216 + 1296 words, 30 of them per factor

    def test_explain_row_order(self):
        fam = ClassIndicatorFamily(ClassId.NC)
        r = rng()
        prod = Product(fam, tuple(random_table(g, 5, r) for g in (G1, G2, G3)))

        def word(spec):
            return tuple((int(k), f, f"a{k}{f}") for k, f in (s.split(":") for s in spec.split()))

        want = {
            "1:w 2:b 1:b 2:w": ["wbbw/13|24", "wbbw/13|2|4", "wbbw/1|24|3", "wbbw/1|2|3|4"],
            "2:w 1:w 1:b 2:b 1:w": [
                "wwbbw/14|235", "wwbbw/14|23|5", "wwbbw/14|25|3", "wwbbw/14|2|35", "wwbbw/14|2|3|5",
                "wwbbw/1|235|4", "wwbbw/1|23|4|5", "wwbbw/1|25|3|4", "wwbbw/1|2|35|4", "wwbbw/1|2|3|4|5",
            ],
            "1:w 3:b 2:w 1:b 3:w": ["wbwbw/14|25|3", "wbwbw/14|2|3|5", "wbwbw/1|25|3|4", "wbwbw/1|2|3|4|5"],
        }
        for spec, partitions in want.items():
            rows = []
            prod.moment(word(spec), rows)
            assert [row["partition"] for row in rows] == partitions

    def test_family_asked_only_for_factor_pure_weights(self):
        # a table family that lacks every partition of the word with a block
        # across both factors still evaluates the moment: besides the word's
        # factor-pure partitions it holds only the two-leg partitions that
        # the cumulants of the factor subwords wb and bw read
        stock = DeformedFamily("bifree", cmath.exp(0.4j))
        full = TableFamily({p: stock.evaluate(p) for p in partitions_upto(4)}, 4)
        word = ((1, "w", "a1w"), (2, "b", "a2b"), (1, "b", "a1b"), (2, "w", "a2w"))
        pure = ["wbbw/13|24", "wbbw/13|2|4", "wbbw/1|24|3", "wbbw/1|2|3|4", "wb/1|2", "bw/1|2"]
        sparse = TableFamily({parse_diagram(d): stock.evaluate(parse_diagram(d)) for d in pure}, 4)
        r = rng()
        tables = (random_table(G1, 4, r), random_table(G2, 4, r))
        got = Product(sparse, tables).moment(word)
        assert got == Product(full, tables).moment(word)
        with pytest.raises(MissingEntryError):
            sparse.evaluate(parse_diagram("wbbw/12|34"))

    @given(
        st.sampled_from(STOCK),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from((1, 2)),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_sum_restricts_to_one_factor(self, fam, seed, kappa, picks):
        # the full sum over the partitions of a one-factor word, not the
        # short cut, gives that factor's moment
        r = random.Random(seed)
        tables = (random_table(G1, 4, r), random_table(G2, 4, r))
        letters = tuple(tables[kappa - 1].generators[i] for i in picks)
        got = Product(fam, tables).moment(tuple((kappa, f, name) for f, name in letters), expansion=[])
        assert abs(got - tables[kappa - 1].value(letters)) < 1e-9


def per_subset_moment(prod, word, expansion=None):
    """Product.moment as it was summed before the cumulant vectors: one
    subword tuple and one cumulant read per subset of the plan."""
    b, fs, names = zip(*word) if word else ((), (), ())
    letters = tuple(zip(fs, names))
    if expansion is None:
        if not word:
            return complex(1)
        if b.count(b[0]) == len(b):
            return prod.factors[b[0] - 1].value(letters)
    faces = "".join(fs)
    _, subsets, terms = pure_plan(b)
    caches = [{} for _ in prod.factors]
    cv = [cumulant(prod.family, prod.factors[f], tuple(letters[i] for i in positions), caches[f]) for f, positions, _ in subsets]
    parts = set_partitions(len(word))
    total = 0
    for j, ids in terms:
        a = prod.family.weight(faces, parts[j])
        term = 0
        if a != 0:
            term = math.prod(map(cv.__getitem__, ids), start=a)
            total = term + total
        if expansion is not None:
            expansion.append({"partition": str(Partition._unsafe(faces, parts[j])), "weight": a, "contribution": term})
    return total


class TestCumulantVectors:
    @pytest.mark.parametrize("fam", STOCK + [ConstantBlockFamily(0.7)], ids=lambda f: f.name)
    def test_equals_per_subset_route(self, fam):
        # bit for bit, on the empty word and every word of at most four
        # letters over three factors, with and without the expansion rows
        r = rng()
        tables = tuple(random_table(g, 4, r) for g in (G1, G2, G3))
        prod = Product(fam, tables)
        tagged_letters = [(kappa, f, name) for kappa, g in enumerate((G1, G2, G3), start=1) for f, name in g]
        words = [w for n in range(5) for w in itertools.product(tagged_letters, repeat=n)]
        assert len(words) == 1 + 6 + 36 + 216 + 1296
        for word in words:
            assert repr(prod.moment(word)) == repr(per_subset_moment(prod, word))
            rows, want_rows = [], []
            assert repr(prod.moment(word, rows)) == repr(per_subset_moment(prod, word, want_rows))
            assert repr(rows) == repr(want_rows)

    def test_slots_are_subsequence_cumulants(self):
        # each slot of a vector is the cumulant of the subsequence at the
        # set bits of its mask; slot 0, the empty subsequence, is never read
        fam = DeformedFamily("bifree", cmath.exp(0.4j))
        r = rng()
        tables = tuple(random_table(g, 5, r) for g in (G1, G2, G3))
        prod = Product(fam, tables)
        for _ in range(200):
            prod.moment(rand_tagged_word(r, (G1, G2, G3), r.randint(2, 5)))
        seen = 0
        for f, vectors in enumerate(prod._vectors):
            cache = {}
            for sub, vec in vectors.items():
                assert all(t[0] == f + 1 for t in sub)
                letters = tuple(t[1:] for t in sub)
                assert len(vec) == 2 ** len(sub)
                for mask in range(1, len(vec)):
                    picked = tuple(letters[i] for i in range(len(sub)) if mask >> i & 1)
                    assert vec[mask] == cumulant(fam, tables[f], picked, cache)
                    seen += 1
        assert seen > 100


def counting_weight(monkeypatch, fam):
    """Record the face word of every ``fam.weight`` call in the list returned."""
    calls = []
    weight = fam.weight

    def counted(faces, blocks):
        calls.append(faces)
        return weight(faces, blocks)

    monkeypatch.setattr(fam, "weight", counted)
    return calls


class TestWeightRows:
    @pytest.mark.parametrize(
        "fam",
        [ClassIndicatorFamily(ClassId.NCwAb), DeformedFamily("free", 1j), ConstantBlockFamily(0.7), PredicateFamily("nc", lambda p: member(ClassId.NC, p))],
        ids=lambda f: f.name,
    )
    def test_slots_hold_weights_and_weight_makes_no_row(self, fam):
        for p in partitions_upto(5):
            fam.evaluate(p)
            fam.weight(p.word, p.blocks)
        assert fam._rows == {}
        r = rng()
        exp_alpha(fam, random_table(G1, 4, r))
        prod = Product(fam, tuple(random_table(g, 5, r) for g in (G1, G2, G3)))
        for _ in range(100):
            prod.moment(rand_tagged_word(r, (G1, G2, G3), r.randint(2, 5)))
        filled = 0
        for faces, row in fam._rows.items():
            parts = set_partitions(len(faces))
            assert len(row) == len(parts)
            for j, a in enumerate(row):
                if a is not None:
                    assert type(a) is complex and a == fam.weight(faces, parts[j])
                    filled += 1
        assert filled > 100

    def test_one_row_per_face_word_across_readers(self, monkeypatch):
        # exp_alpha fills the row of every face word it meets; a second
        # table, its cumulants and a Product of the family then read the
        # same rows and ask the family for no weight
        fam = DeformedFamily("tensor", cmath.exp(0.3j))
        r = rng()
        exp_alpha(fam, random_table(G1, 4, r))
        assert all(None not in row for row in fam._rows.values())
        rows = dict(fam._rows)
        calls = counting_weight(monkeypatch, fam)
        t = random_table(G2, 4, r)
        assert log_alpha(fam, exp_alpha(fam, t)).values.keys() == t.values.keys()
        prod = Product(fam, (random_table(G1, 4, r), t))
        for n in range(1, 5):
            for word in itertools.product([(1, *G1[0]), (2, *G2[1]), (1, *G1[1])], repeat=n):
                prod.moment(word)
        assert calls == []
        assert fam._rows.keys() == rows.keys() and all(fam._rows[k] is rows[k] for k in rows)

    def test_product_fills_only_factor_pure_slots(self, monkeypatch):
        # a cold moment of a two-factor word asks for each factor-pure
        # partition of its face word once, and for no other partition of it
        fam = ClassIndicatorFamily(ClassId.pC)
        r = rng()
        prod = Product(fam, (random_table(G1, 4, r), random_table(G2, 4, r)))
        word = ((1, "w", "a1w"), (2, "b", "a2b"), (1, "b", "a1b"), (2, "w", "a2w"), (1, "w", "a1w"), (2, "b", "a2b"), (1, "b", "a1b"))
        faces = "wbbwwbb"
        calls = counting_weight(monkeypatch, fam)
        prod.moment(word)
        terms = pure_plan((1, 2, 1, 2, 1, 2, 1))[2]
        assert calls.count(faces) == len(terms) == 15 * 5
        row = fam._rows[faces]
        assert {j for j, a in enumerate(row) if a is not None} == {j for j, _ in terms}
        Product(fam, prod.factors).moment(word)
        assert calls.count(faces) == len(terms)


class TestWellDefinedness:
    def test_two_letter_base(self):
        fam = ClassIndicatorFamily(ClassId.biNC)
        r = rng()
        t1, t2 = random_table(G1, 4, r), random_table(G2, 4, r)
        word = ((1, "w", "a1w"), (1, "w", "a1w"))
        got = well_definedness_check(fam, (t1, t2), word, 1)
        assert got["ok"] and got["lhs"] == t1.value((("w", "a1w"), ("w", "a1w")))

    @pytest.mark.parametrize(
        "fam",
        [ClassIndicatorFamily(ClassId.pC), DeformedFamily("free", cmath.exp(1.3j))],
        ids=lambda f: f.name,
    )
    def test_random_words(self, fam):
        r = rng()
        t1, t2 = random_table(G1, 6, r), random_table(G2, 6, r)
        checked = 0
        while checked < 20:
            word = rand_tagged_word(r, (G1, G2), r.randint(2, 5))
            positions = [
                i
                for i in range(1, len(word))
                if word[i - 1][0] == word[i][0] and word[i - 1][1] == word[i][1]
            ]
            if not positions:
                continue
            got = well_definedness_check(fam, (t1, t2), word, r.choice(positions))
            assert got["diff"] < 1e-9
            checked += 1

    def test_non_admissible_family_has_witness(self):
        fam = ConstantBlockFamily(0.7)
        r = rng()
        t1, t2 = random_table(G1, 6, r), random_table(G2, 6, r)
        worst = 0.0
        for _ in range(100):
            word = rand_tagged_word(r, (G1, G2), r.randint(2, 5))
            positions = [
                i
                for i in range(1, len(word))
                if word[i - 1][0] == word[i][0] and word[i - 1][1] == word[i][1]
            ]
            if not positions:
                continue
            worst = max(worst, well_definedness_check(fam, (t1, t2), word, r.choice(positions))["diff"])
        assert worst > 1e-6


class TestAssociativity:
    def test_small(self):
        fam = ClassIndicatorFamily(ClassId.AwNCb)
        r = rng()
        t1, t2, t3 = random_table(G1, 4, r), random_table(G2, 4, r), random_table(G3, 4, r)
        got = associativity_symmetry_check(fam, t1, t2, t3, 4)
        assert got["ok"]

    def test_single_factor_words_restrict(self):
        fam = DeformedFamily("tensor", 1j)
        r = rng()
        t1, t2 = random_table(G1, 3, r), random_table(G2, 3, r)
        merged = product_table(fam, (t1, t2), 3)
        for w in t1.words(3):
            assert merged.value(w) == t1.value(w)


class TestCoefficientExtraction:
    def test_one_block_is_one(self):
        fam = DeformedFamily("free", cmath.exp(0.3j))
        assert extract_highest_coefficient(fam, parse_diagram("wbw/123")) == 1

    def test_crossing_pattern(self):
        fam = DeformedFamily("tensor", 1j)
        got = extract_highest_coefficient(fam, parse_diagram("wwbb/13|24"))
        assert abs(got - (-1j)) < 1e-12

    @pytest.mark.parametrize(
        "fam",
        [
            ClassIndicatorFamily(ClassId.NCwAb),
            ClassIndicatorFamily(ClassId.pC),
            DeformedFamily("bifree", cmath.exp(0.5j)),
            # not admissible: extraction still returns the family's own
            # weight, so comparing it with evaluate cannot fail
            ConstantBlockFamily(0.7),
        ],
        ids=lambda f: f.name,
    )
    def test_agrees_with_evaluate(self, fam):
        for word in all_words("wb", 4):
            for p in enumerate_partitions(word):
                assert extract_highest_coefficient(fam, p) == fam.evaluate(p)


class TestFullCoefficients:
    def test_example_singleton_coefficient(self):
        zeta = 1j
        fam = DeformedFamily("tensor", zeta)
        s = BlockStructure((1, 2, 1, 2), "wwbb")
        got = extract_full_coefficient(fam, s, parse_diagram("wwbb/1|2|3|4"))
        assert abs(got - (-(1 - zeta.conjugate()))) < 1e-9

    def test_maximal_equals_highest(self):
        fam = DeformedFamily("tensor", 1j)
        s = BlockStructure((1, 2, 1, 2), "wwbb")
        sigma = parse_diagram("wwbb/13|24")
        full = extract_full_coefficient(fam, s, sigma)
        highest = extract_highest_coefficient(fam, sigma)
        assert abs(full - highest) < 1e-9

    def test_coefficients_sum_to_all_ones_product(self):
        fam = DeformedFamily("tensor", 1j)
        s = BlockStructure((1, 2, 1, 2), "wwbb")
        ones1 = FunctionalTable(G1, 4, fn=lambda w: complex(1))
        ones2 = FunctionalTable(G2, 4, fn=lambda w: complex(1))
        word = ((1, "w", "a1w"), (2, "w", "a2w"), (1, "b", "a1b"), (2, "b", "a2b"))
        total = product_moment(fam, (ones1, ones2), word)
        acc = sum(
            extract_full_coefficient(fam, s, Partition("wwbb", blocks))
            for blocks in (((1, 3), (2, 4)), ((1, 3), (2,), (4,)), ((1,), (3,), (2, 4)), ((1,), (2,), (3,), (4,)))
        )
        assert abs(acc - total) < 1e-9

    def test_rejects_non_adapted(self):
        fam = DeformedFamily("tensor", 1j)
        s = BlockStructure((1, 2, 1, 2), "wwbb")
        with pytest.raises(ValueError):
            extract_full_coefficient(fam, s, parse_diagram("wwbb/12|34"))


class TestCombinatorialMoment:
    def test_three_term_example(self):
        r = rng()
        ga = (("w", "x1"), ("b", "x2b"), ("w", "x3"))
        gb = (("b", "y1b"), ("b", "y2b"))
        phi, psi = random_table(ga, 5, r), random_table(gb, 5, r)
        word = (
            (1, "w", "x1"),
            (2, "b", "y1b"),
            (1, "b", "x2b"),
            (1, "w", "x3"),
            (2, "b", "y2b"),
        )
        got = combinatorial_moment(ClassId.NCwAb, (phi, psi), word)
        a12 = phi.value((("w", "x1"), ("b", "x2b")))
        a3 = phi.value((("w", "x3"),))
        a123 = phi.value((("w", "x1"), ("b", "x2b"), ("w", "x3")))
        b12 = psi.value((("b", "y1b"), ("b", "y2b")))
        b1 = psi.value((("b", "y1b"),))
        b2 = psi.value((("b", "y2b"),))
        want = a12 * a3 * b12 + a123 * b1 * b2 - a12 * a3 * b1 * b2
        assert abs(got - want) < 1e-12

    def test_example_coarsest_refinements_and_meet(self):
        word = (
            (1, "w", "x1"),
            (2, "b", "y1b"),
            (1, "b", "x2b"),
            (1, "w", "x3"),
            (2, "b", "y2b"),
        )
        s = tagged_word_structure(word)
        S = coarsest_refinements_in_class(ClassId.NCwAb, s.factor_partition())
        assert sorted(str(q) for q in S) == ["wbbwb/134|2|5", "wbbwb/13|25|4"]
        assert meet(S) == parse_diagram("wbbwb/13|2|4|5")

    def test_member_partition_single_term(self):
        # when the factor partition itself lies in the class, the sum has a
        # single term and the moment factorizes over the factor blocks
        r = rng()
        t1, t2 = random_table(G1, 4, r), random_table(G2, 4, r)
        word = ((1, "w", "a1w"), (1, "b", "a1b"), (2, "w", "a2w"))
        got = combinatorial_moment(ClassId.NC, (t1, t2), word)
        want = t1.value((("w", "a1w"), ("b", "a1b"))) * t2.value((("w", "a2w"),))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("c", [ClassId.I, ClassId.biNC, ClassId.NCwAb, ClassId.pC], ids=lambda c: c.value)
    def test_agrees_with_product(self, c):
        fam = ClassIndicatorFamily(c)
        r = rng()
        t1, t2, t3 = random_table(G1, 6, r), random_table(G2, 6, r), random_table(G3, 6, r)
        prod = Product(fam, (t1, t2, t3))
        for _ in range(40):
            word = rand_tagged_word(r, (G1, G2, G3), r.randint(1, 6))
            got = combinatorial_moment(c, (t1, t2, t3), word)
            assert abs(got - prod.moment(word)) < 1e-9

    def test_budget_cap(self):
        from multifaced.product import BudgetExceeded

        r = rng()
        t1, t2 = random_table(G1, 6, r), random_table(G2, 6, r)
        # the three-term example has two coarsest refinements
        word = (
            (1, "w", "a1w"),
            (2, "b", "a2b"),
            (1, "b", "a1b"),
            (1, "w", "a1w"),
            (2, "b", "a2b"),
        )
        # the default cap builds the plan; the cap of each later call still holds
        value = combinatorial_moment(ClassId.NCwAb, (t1, t2), word)
        with pytest.raises(BudgetExceeded, match="^2 coarsest refinements exceed the cap 1$"):
            combinatorial_moment(ClassId.NCwAb, (t1, t2), word, cap=1)
        assert combinatorial_moment(ClassId.NCwAb, (t1, t2), word) == value
        # a factor partition inside the class is its own only refinement
        inside = ((1, "w", "a1w"), (1, "b", "a1b"), (2, "w", "a2w"))
        want = t1.value((("w", "a1w"), ("b", "a1b"))) * t2.value((("w", "a2w"),))
        assert abs(combinatorial_moment(ClassId.NC, (t1, t2), inside, cap=1) - want) < 1e-12

    @staticmethod
    def _reference_coarsest(c, p):
        # maximal members below p, written out: refinements filtered by
        # membership, sorted by block count, each kept unless it refines
        # one already kept
        candidates = sorted((q for q in refinements(p) if member(c, q)), key=lambda q: q.block_count)
        out = []
        for q in candidates:
            if not any(q.refines(r) for r in out):
                out.append(q)
        return out

    @classmethod
    def _reference_moment(cls, c, factors, word):
        # the inclusion-exclusion sum with every refinement and meet rebuilt
        S = cls._reference_coarsest(c, tagged_word_structure(word).factor_partition())
        total = complex(0)
        for r in range(1, len(S) + 1):
            sign = (-1) ** (r - 1)
            for subset in itertools.combinations(S, r):
                term = complex(1)
                for block in meet(subset).blocks:
                    kappa = word[block[0] - 1][0]
                    term *= factors[kappa - 1].value(tuple(word[i - 1][1:] for i in block))
                total += sign * term
        return total

    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_equals_reference_route(self, c):
        r = rng()
        tables = (random_table(G1, 4, r), random_table(G2, 4, r), random_table(G3, 4, r))
        letters = [(kappa, f, name) for kappa, gens in enumerate((G1, G2, G3), start=1) for f, name in gens]
        words = [()] + [w for n in range(1, 5) for w in itertools.product(letters, repeat=n)]
        for word in words:
            assert combinatorial_moment(c, tables, word) == self._reference_moment(c, tables, word), word

    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_coarsest_refinements_are_the_maximal_members(self, c):
        # up to 4 legs the greedy pass gives these lists even unsorted;
        # 5 legs tells the two apart
        for p in partitions_upto(5):
            members = [q for q in refinements(p) if member(c, q)]
            maximal = [q for q in members if not any(q != m and q.refines(m) for m in members)]
            maximal.sort(key=lambda q: q.block_count)
            assert coarsest_refinements_in_class(c, p) == maximal, p


class TestUnitPreservation:
    def test_boolean_class_fails_with_witness(self):
        got = unit_preservation_check(ClassIndicatorFamily(ClassId.I), max_len=3, seed=2, samples=20)
        assert not got["insertion_invariant"]
        assert got["witness"] is not None
        assert got["agree"]

    def test_deformations_preserve_units(self):
        for base in ("tensor", "free", "bifree"):
            got = unit_preservation_check(DeformedFamily(base, 1j), max_len=3, seed=2, samples=15)
            assert got["insertion_invariant"] and got["agree"]

    def test_exceptional_classes_preserve_units(self):
        for c in (ClassId.NCwAb, ClassId.AwNCb, ClassId.pNC, ClassId.pC):
            got = unit_preservation_check(ClassIndicatorFamily(c), max_len=3, seed=2, samples=15)
            assert got["insertion_invariant"] and got["agree"]

    def test_verdicts_match_pnc_containment(self):
        pnc = class_member_set(ClassId.pNC, 4)
        for c in ALL_CLASSES:
            got = unit_preservation_check(ClassIndicatorFamily(c), max_len=3, seed=2, samples=12)
            assert got["agree"]
            assert got["insertion_invariant"] == (pnc <= class_member_set(c, 4))


class TestRemarkChecks:
    def test_cyclic_invariance_only_for_nc_and_a(self):
        from multifaced.verify import cyclic_invariance_classes

        got = cyclic_invariance_classes(5)
        assert {k for k, v in got.items() if v} == {"NC", "A"}

    def test_commuting_faces_only_tensor_and_bifree(self):
        from multifaced.verify import commuting_faces_classes

        assert set(commuting_faces_classes()) == {"A", "biNC"}
