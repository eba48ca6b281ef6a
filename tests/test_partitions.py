"""Core partition operations against worked examples and counted oracles."""

import itertools

import pytest

from multifaced import partitions as partitions_module
from hypothesis import given, settings, strategies as st

from multifaced.classes import ClassId, _cross, _inner_legs, member
from multifaced.partitions import (
    Partition,
    PartitionError,
    all_words,
    concatenate,
    enumerate_partitions,
    format_diagram,
    meet,
    one_block,
    parse_diagram,
    partition_from_json,
    partition_index,
    partition_to_json,
    partitions_upto,
    pure_plan,
    refinements,
    set_partitions,
    singletons,
)

# Independent oracle: count partitions by enumerating restricted growth
# strings without sharing code with the library enumeration.
def rgs_oracle_count(n):
    if n == 0:
        return 1
    strings = [[0]]
    for _ in range(n - 1):
        strings = [s + [v] for s in strings for v in range(max(s) + 2)]
    return len(strings)


@st.composite
def partitions(draw, max_legs=8, alphabet="wb"):
    n = draw(st.integers(min_value=1, max_value=max_legs))
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
    blocks = {}
    for leg, g in enumerate(rgs, start=1):
        blocks.setdefault(g, []).append(leg)
    word = "".join(draw(st.sampled_from(alphabet)) for _ in range(n))
    return Partition(word, list(blocks.values()))


class TestEnumeration:
    def test_bell_counts(self):
        for n, bell in enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]):
            assert len(set_partitions(n)) == bell == rgs_oracle_count(n)

    def test_single_leg(self):
        assert [str(p) for p in enumerate_partitions("w")] == ["w/1"]

    def test_four_legs_any_faces(self):
        assert sum(1 for _ in enumerate_partitions("wbwb")) == 15

    def test_six_legs(self):
        assert sum(1 for _ in enumerate_partitions("wwbbwb")) == 203

    def test_no_duplicates(self):
        parts = list(enumerate_partitions("wbbw"))
        assert len(parts) == len(set(parts))


class TestPurePlan:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_terms_are_the_factor_pure_partitions(self, n):
        parts = set_partitions(n)
        for b in itertools.product(range(1, 4), repeat=n):
            _, subsets, terms = pure_plan(b)
            pure = [j for j, blocks in enumerate(parts) if all(len({b[leg - 1] for leg in blk}) == 1 for blk in blocks)]
            assert sorted(j for j, _ in terms) == pure
            assert len(set(subsets)) == len(subsets)
            for j, ids in terms:
                assert tuple(tuple(i + 1 for i in subsets[s][1]) for s in ids) == parts[j]
                assert all(subsets[s][0] == b[subsets[s][1][0]] - 1 for s in ids)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_groups_and_masks(self, n):
        # groups: each factor's positions, factors by first appearance; a
        # subset's mask selects exactly its positions among its factor's,
        # and every nonempty subset of a factor's positions is a subset
        for b in itertools.product(range(1, 4), repeat=n):
            groups, subsets, _ = pure_plan(b)
            first = list(dict.fromkeys(b))
            assert groups == tuple((v - 1, tuple(i for i in range(n) if b[i] == v)) for v in first)
            positions = dict(groups)
            for f, subset, mask in subsets:
                legs = positions[f]
                assert subset == tuple(legs[i] for i in range(len(legs)) if mask >> i & 1)
            assert sorted((f, mask) for f, _, mask in subsets) == sorted(
                (f, mask) for f, legs in groups for mask in range(1, 1 << len(legs))
            )

    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_one_factor_plan_is_every_partition(self, n, bell):
        groups, subsets, terms = pure_plan((1,) * n)
        assert groups == ((0, tuple(range(n))),)
        assert len(subsets) == 2**n - 1
        assert [j for j, _ in terms] == list(range(bell))
        # cumulant skips terms[0]: the one-block partition, whose block is subsets[0]
        assert terms[0] == (0, (0,)) and subsets[0] == (0, tuple(range(n)), 2**n - 1)


class TestSweep:
    # 2^n face words times Bell(n) partitions, summed over 1..n legs.
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 10), (3, 50), (4, 290), (5, 1954)])
    def test_triple_loop_order(self, n, count):
        want = [p for m in range(1, n + 1) for w in all_words("wb", m) for p in enumerate_partitions(w)]
        got = list(partitions_upto(n))
        assert got == want and len(got) == count

    def test_alphabet_and_empty(self):
        assert list(partitions_upto(0)) == []
        assert [str(p) for p in partitions_upto(2, ("x",))] == ["x/1", "xx/12", "xx/1|2"]


class TestConstruction:
    def test_canonical_form(self):
        p = Partition("wbb", [(3, 1), (2,)])
        assert p.blocks == ((1, 3), (2,))

    def test_rejects_overlap(self):
        with pytest.raises(PartitionError):
            Partition("wb", [(1, 2), (2,)])

    def test_rejects_gap(self):
        with pytest.raises(PartitionError):
            Partition("wbb", [(1, 3)])

    def test_rejects_float_leg(self):
        with pytest.raises(PartitionError, match=r"^leg 1\.0 in block \(1\.0, 2\) is not an integer$"):
            partition_from_json({"word": "ww", "blocks": [[1.0, 2]]})

    def test_rejects_bool_leg(self):
        # True == 1, but a JSON boolean is not a leg number
        with pytest.raises(PartitionError, match=r"^leg True in block \(True, 2\) is not an integer$"):
            partition_from_json({"word": "ww", "blocks": [[True, 2]]})
        with pytest.raises(PartitionError, match="is not an integer"):
            Partition("ww", [(1,), (False,)])

    def test_rejects_empty_block_among_others(self):
        with pytest.raises(PartitionError, match="^empty block$"):
            partition_from_json({"word": "ww", "blocks": [[1, 2], []]})
        with pytest.raises(PartitionError, match="^empty block$"):
            Partition("ww", [(), (1, 2)])

    def test_rejects_non_list_shapes(self):
        with pytest.raises(PartitionError, match="is not a collection of legs"):
            Partition("ww", [1, 2])
        with pytest.raises(ValueError, match=r"^partition blocks must be a list, got 12$"):
            partition_from_json({"word": "ww", "blocks": 12})
        with pytest.raises(ValueError, match=r"^partition word must be a string, got 2$"):
            partition_from_json({"word": 2, "blocks": [[1, 2]]})


class TestReduce:
    def test_worked_example(self):
        # wbbwb with blocks {1,5},{2,3,4}: legs 2,3 share face b and block.
        p = parse_diagram("wbbwb/15|234")
        assert p.reduce() == parse_diagram("wbwb/14|23")

    def test_idempotent(self):
        p = parse_diagram("wbbwb/15|234")
        assert p.reduce().reduce() == p.reduce()

    def test_monochrome_block_collapses(self):
        assert parse_diagram("ww/12").reduce() == parse_diagram("w/1")

    def test_preserves_block_count(self):
        p = parse_diagram("wwbbww/126|345")
        assert p.reduce().block_count == p.block_count


class TestMirror:
    def test_word_reversal(self):
        p = parse_diagram("wbbwb/13|25|4")
        m = p.mirror()
        assert m.word == "bwbbw"
        assert m == parse_diagram("bwbbw/14|2|35")

    def test_interval_stays_interval(self):
        p = parse_diagram("wwbb/12|34")
        assert p.mirror().is_interval()

    @given(partitions())
    @settings(max_examples=60)
    def test_involution(self, p):
        assert p.mirror().mirror() == p

    @given(partitions())
    @settings(max_examples=60)
    def test_commutes_with_reduce(self, p):
        assert p.reduce().mirror() == p.mirror().reduce()


class TestConcatenate:
    def test_identity(self):
        p = parse_diagram("wbbwb/134|25")
        assert concatenate([p, Partition("", [])]) == p

    def test_worked_example(self):
        p1 = parse_diagram("wbbwb/1235|4")
        p2 = parse_diagram("bwbbw/2|14|35")
        got = concatenate([p1, p2])
        assert got == parse_diagram("wbbwbbwbbw/1235|4|7|69|8a")

    @given(partitions(max_legs=5), partitions(max_legs=5))
    @settings(max_examples=40)
    def test_block_counts_add(self, p, q):
        assert concatenate([p, q]).block_count == p.block_count + q.block_count

    def test_associative(self):
        p, q, r = (parse_diagram(t) for t in ("wb/12", "b/1", "ww/1|2"))
        assert concatenate([concatenate([p, q]), r]) == concatenate([p, concatenate([q, r])])


class TestUniteSplit:
    def test_unite_worked_example(self):
        p = parse_diagram("wbbwb/13|25|4")
        assert p.unite_blocks((1, 3), (2, 5)) == parse_diagram("wbbwb/1235|4")

    def test_unite_two_blocks(self):
        p = parse_diagram("wb/1|2")
        assert p.unite_blocks((1,), (2,)) == parse_diagram("wb/12")

    def test_unite_requires_blocks(self):
        with pytest.raises(PartitionError):
            parse_diagram("wb/1|2").unite_blocks((1,), (1, 2))

    @given(partitions())
    @settings(max_examples=40)
    def test_unite_is_set_union(self, p):
        if p.block_count < 2:
            return
        b1, b2 = p.blocks[0], p.blocks[1]
        got = p.unite_blocks(b1, b2)
        assert set(map(frozenset, got.blocks)) == {frozenset(b1) | frozenset(b2)} | {
            frozenset(b) for b in p.blocks[2:]
        }

    def test_split_two_leg_block(self):
        assert parse_diagram("wb/12").split_block_at_leg(1) == parse_diagram("wwb/1|23")
        assert parse_diagram("ww/12").split_block_at_leg(1) == parse_diagram("www/1|23")

    @given(partitions(max_legs=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_split_then_merge_recovers(self, p, leg):
        if leg > p.n:
            return
        s = p.split_block_at_leg(leg)
        b1 = s.block_of(leg)
        b2 = s.block_of(leg + 1)
        back = s.unite_blocks(b1, b2) if b1 != b2 else s
        assert back.merge_legs(leg) == p


class TestSplitRelation:
    def test_worked_example(self):
        p = parse_diagram("wwbb/13|24")
        assert p.split_sites() == [1, 3]
        assert p.split_at(1) == (parse_diagram("wwbb/1234"), parse_diagram("wwbb/13|24"))
        q = parse_diagram("wwwb/13|2|4")
        assert q.split_sites() == [1, 2]
        assert q.split_at(2) == (parse_diagram("wwwb/123|4"), parse_diagram("www/13|2"))

    def test_against_definition_up_to_five_legs(self):
        for p in partitions_upto(5):
            sites = [i for i in range(1, p.n) if p.face(i) == p.face(i + 1) and p.block_of(i) != p.block_of(i + 1)]
            assert p.split_sites() == sites
            for i in sites:
                b1, b2 = p.block_of(i), p.block_of(i + 1)
                assert p.split_at(i) == (p.unite_blocks(b1, b2), p.restrict(b1 + b2))

    @pytest.mark.parametrize("leg", [0, 1, 2, 3])
    def test_rejects_non_sites(self, leg):
        # legs 1, 2 share a block; legs 2, 3 differ in face; 3 and 0 are out of range
        with pytest.raises(PartitionError):
            parse_diagram("wwb/12|3").split_at(leg)


class TestInnerConnected:
    def test_nested_leg_inner(self):
        assert _inner_legs(parse_diagram("wbw/13|2")) == {2}

    def test_interval_all_outer(self):
        assert _inner_legs(parse_diagram("wwbbb/12|345")) == set()

    def test_exhaustive_inner_oracle(self):
        # brute-force scan over all (i, j, block) triples; the predicate
        # ignores faces, so one word per length is exhaustive at n <= 6
        for n in range(1, 7):
            for p in enumerate_partitions("w" * n):
                brute = {
                    leg
                    for leg in range(1, n + 1)
                    if any(i < leg < j and leg not in b for b in p.blocks for i in b for j in b)
                }
                assert _inner_legs(p) == brute


class TestCrossingOracle:
    def test_exhaustive_crossing_oracle(self):
        # blocks i < j cross iff some a < b < c < d has a, c in one block and
        # b, d in the other, and a partition is noncrossing iff no two blocks
        # cross; faces play no part, so one word per length
        for n in range(1, 7):
            for p in enumerate_partitions("w" * n):
                idx, blocks = p._block_index, p.blocks
                brute = {
                    tuple(sorted((idx[a], idx[b])))
                    for a, b, c, d in itertools.combinations(range(1, n + 1), 4)
                    if idx[a] == idx[c] != idx[b] == idx[d]
                }
                got = {(i, j) for i, j in itertools.combinations(range(len(blocks)), 2) if _cross(blocks[i], blocks[j])}
                assert got == brute
                assert member(ClassId.NC, p) == (not brute)


class TestLocalRewrites:
    def test_double_then_merge(self):
        p = parse_diagram("wbw/13|2")
        d = p.double_leg(2)
        assert d == parse_diagram("wbbw/14|23")
        assert d.merge_legs(2) == p

    @given(partitions(max_legs=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_double_grows_by_one(self, p, leg):
        if leg > p.n:
            return
        d = p.double_leg(leg)
        assert d.n == p.n + 1 and d.block_count == p.block_count

    def test_change_extremal_twice(self):
        p = parse_diagram("wbw/13|2")
        assert p.change_extremal_face("first", "b").change_extremal_face("first", "w") == p


class TestMeet:
    def test_meet_single(self):
        p = parse_diagram("wbwb/13|24")
        assert meet([p]) == p

    def test_meet_with_singletons(self):
        p = parse_diagram("wbwb/13|24")
        assert meet([p, singletons("wbwb")]) == singletons("wbwb")

    def test_meet_is_common_refinement(self):
        p = parse_diagram("wwww/123|4")
        q = parse_diagram("wwww/1|234")
        assert meet([p, q]) == parse_diagram("wwww/1|23|4")

    def test_word_mismatch(self):
        with pytest.raises(PartitionError):
            meet([parse_diagram("wb/12"), parse_diagram("bw/12")])


class TestTextAndJson:
    def test_parse_worked_example(self):
        p = parse_diagram("wbbwb/134|25")
        assert p.word == "wbbwb" and p.blocks == ((1, 3, 4), (2, 5))

    def test_singleton(self):
        assert parse_diagram("w/1") == one_block("w")

    def test_bad_text(self):
        for text in ("wb", "wb/1", "wb/13", "wb/1|1", "wb/1||2"):
            with pytest.raises(PartitionError):
                parse_diagram(text)

    @given(partitions())
    @settings(max_examples=80)
    def test_roundtrip(self, p):
        assert parse_diagram(format_diagram(p)) == p

    def test_sixteen_legs_commas(self):
        word = "w" * 16
        p = one_block(word)
        assert format_diagram(p) == word + "/" + ",".join(str(i) for i in range(1, 17))
        assert parse_diagram(format_diagram(p)) == p

    @pytest.mark.parametrize("n", [16, 17])
    def test_one_leg_blocks_above_fifteen_legs(self, n):
        word = "wb" * 8 + "w" * (n - 16)
        cases = [
            singletons(word),
            Partition(word, [range(1, n), (n,)]),
            Partition(word, [(1,), range(2, n + 1)]),
            Partition(word, [(1, n), (2,), range(3, n)]),
        ]
        for p in cases:
            assert parse_diagram(format_diagram(p)) == p
        assert format_diagram(cases[0]) == word + "/" + "|".join(str(i) for i in range(1, n + 1))
        assert format_diagram(cases[1]).endswith(f"{n - 1}|{n}")

    def test_decimal_blocks_above_fifteen_legs_are_checked(self):
        with pytest.raises(PartitionError):
            parse_diagram("w" * 16 + "/1,2,3,4,5,6,7,8,9,10,11,12,13,14,15|1g")
        with pytest.raises(PartitionError):
            parse_diagram("w" * 16 + "/1,2,3,4,5,6,7,8,9,10,11,12,13,14,15|17")

    def test_json_roundtrip(self):
        p = parse_diagram("wbbwb/134|25")
        assert partition_from_json(partition_to_json(p)) == p
        with pytest.raises(ValueError, match="^partition has no key 'blocks'$"):
            partition_from_json({"word": "wb"})
        with pytest.raises(ValueError, match=r"^partition must be an object, got \[1\]$"):
            partition_from_json([1])


# -- the sorting constructions the rewrites replaced, as == references ----------
#
# Each builds the rewritten blocks leg by leg and lets the validating
# constructor sort them into canonical form.


def ref_restrict(p, legs):
    legs = sorted(legs)
    pos = {leg: i + 1 for i, leg in enumerate(legs)}
    sub = {}
    for leg in legs:
        sub.setdefault(p.block_index_of(leg), []).append(pos[leg])
    return Partition("".join(p.face(leg) for leg in legs), sub.values())


def ref_reduce(p):
    reps = [1]
    for leg in range(2, p.n + 1):
        if p.face(leg) != p.face(reps[-1]) or p.block_of(leg) != p.block_of(reps[-1]):
            reps.append(leg)
    return p if len(reps) == p.n else ref_restrict(p, reps)


def ref_mirror(p):
    return Partition(p.word[::-1], [[p.n - leg + 1 for leg in b] for b in p.blocks])


def ref_unite(p, b1, b2):
    return Partition(p.word, [b for b in p.blocks if b not in (b1, b2)] + [b1 + b2])


def ref_split_block_at_leg(p, leg):
    word = p.word[:leg] + p.word[leg - 1] + p.word[leg:]
    blocks = []
    for b in p.blocks:
        if leg in b:
            blocks.append([x for x in b if x < leg] + [leg])
            blocks.append([leg + 1] + [x + 1 for x in b if x > leg])
        else:
            blocks.append([x if x < leg else x + 1 for x in b])
    return Partition(word, blocks)


def ref_double_leg(p, leg):
    word = p.word[:leg] + p.word[leg - 1] + p.word[leg:]
    blocks = [[x if x <= leg else x + 1 for x in b] + ([leg + 1] if leg in b else []) for b in p.blocks]
    return Partition(word, blocks)


def ref_rotate(p):
    return Partition(p.word[-1] + p.word[:-1], [[leg % p.n + 1 for leg in b] for b in p.blocks])


def ref_concatenate(parts):
    blocks, offset = [], 0
    for p in parts:
        blocks.extend([leg + offset for leg in b] for b in p.blocks)
        offset += p.n
    return Partition("".join(p.word for p in parts), blocks)


def ref_meet(parts):
    keys = {}
    for leg in range(1, parts[0].n + 1):
        keys.setdefault(tuple(p.block_index_of(leg) for p in parts), []).append(leg)
    return Partition(parts[0].word, keys.values())


def ref_refinements(p):
    for combo in itertools.product(*(set_partitions(len(b)) for b in p.blocks)):
        yield Partition(p.word, [[b[i - 1] for i in sb] for b, sub in zip(p.blocks, combo) for sb in sub])


def assert_identical(got, want):
    # __eq__ ignores _block_index, so every field is compared on its own
    assert got.word == want.word
    assert got.blocks == want.blocks
    assert got._block_index == want._block_index
    assert hash(got) == hash(want)


class TestRewritesAgainstSortingConstructions:
    def test_unary_rewrites_up_to_five_legs(self):
        for p in partitions_upto(5):
            n = p.n
            assert_identical(p.reduce(), ref_reduce(p))
            assert_identical(p.mirror(), ref_mirror(p))
            assert_identical(p.rotate(), ref_rotate(p))
            assert_identical(p.swap_faces({"w": "b", "b": "w"}), Partition(p.word.translate(str.maketrans("wb", "bw")), p.blocks))
            for end, face in itertools.product(("first", "last"), "wb"):
                word = face + p.word[1:] if end == "first" else p.word[:-1] + face
                assert_identical(p.change_extremal_face(end, face), Partition(word, p.blocks))
            for leg in range(1, n + 1):
                assert_identical(p.split_block_at_leg(leg), ref_split_block_at_leg(p, leg))
                assert_identical(p.double_leg(leg), ref_double_leg(p, leg))
            for leg in range(1, n):
                if p.block_of(leg) == p.block_of(leg + 1) and p.face(leg) == p.face(leg + 1):
                    want = ref_restrict(p, [x for x in range(1, n + 1) if x != leg + 1])
                    assert_identical(p.merge_legs(leg), want)
            for b1, b2 in itertools.permutations(p.blocks, 2):
                assert_identical(p.unite_blocks(b1, b2), ref_unite(p, b1, b2))
                assert_identical(p.restrict(b2 + b1), ref_restrict(p, b1 + b2))
            for i in p.split_sites():
                b1, b2 = p.block_of(i), p.block_of(i + 1)
                united, remembered = p.split_at(i)
                assert_identical(united, ref_unite(p, b1, b2))
                assert_identical(remembered, ref_restrict(p, b1 + b2))
            for k in range(1, n + 1):
                for legs in itertools.combinations(range(1, n + 1), k):
                    assert_identical(p.restrict(legs), ref_restrict(p, legs))

    def test_gluing_and_lattice_up_to_four_legs(self):
        parts = list(partitions_upto(4))
        for p in parts:
            got, want = list(refinements(p)), list(ref_refinements(p))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_identical(g, w)
            for q in parts:
                assert_identical(concatenate([p, q]), ref_concatenate([p, q]))
                if q.word == p.word:
                    assert_identical(meet([p, q]), ref_meet([p, q]))
        for triple in itertools.product([p for p in parts if p.n <= 3], repeat=3):
            if len({p.word for p in triple}) == 1:
                assert_identical(meet(triple), ref_meet(triple))
        assert_identical(concatenate([]), Partition("", []))


# -- the shape table: one blocks tuple per set partition --------------------------


def assert_shared(q):
    # q's blocks and block index are the table's: the same objects as the
    # entry of set_partitions(q.n)
    entry = set_partitions(q.n)[partition_index(q.n)[q.blocks]]
    assert q.blocks is entry, q
    assert q._block_index is partitions_module._SHAPES[q._block_index[1:]][1], q


class TestShapeTable:
    def test_rewrites_share_blocks_up_to_five_legs(self):
        from multifaced.classify import class_generators, closure_generate
        from multifaced.classes import ClassId

        for p in partitions_upto(5):
            n = p.n
            got = [
                p.reduce(),
                p.mirror(),
                p.rotate(),
                p.swap_faces({"w": "b", "b": "w"}),
                Partition(p.word, p.blocks),
                Partition(p.word, [list(reversed(b)) for b in reversed(p.blocks)]),
                parse_diagram(str(p)),
                partition_from_json(partition_to_json(p)),
                one_block(p.word),
                singletons(p.word),
                concatenate([p, p]),
                meet([p, one_block(p.word)]),
                *refinements(p),
            ]
            got += [p.change_extremal_face(end, face) for end in ("first", "last") for face in "wb"]
            for leg in range(1, n + 1):
                got += [p.split_block_at_leg(leg), p.double_leg(leg)]
            got += [p.merge_legs(leg) for leg in range(1, n) if p.block_of(leg) == p.block_of(leg + 1) and p.face(leg) == p.face(leg + 1)]
            for b1, b2 in itertools.combinations(p.blocks, 2):
                got += [p.unite_blocks(b1, b2), p.restrict(b1 + b2)]
            for i in p.split_sites():
                got += p.split_at(i)
            for q in got:
                assert_shared(q)
        for q in closure_generate(class_generators(ClassId.NC), 4):
            assert_shared(q)

    @pytest.mark.parametrize("n", [16, 17])
    def test_long_diagrams_round_trip_through_the_table(self, n):
        word = "wb" * 8 + "w" * (n - 16)
        p = Partition(word, [(1, n), range(2, n, 2), range(3, n, 2)])
        q = parse_diagram(format_diagram(p))
        assert q == p and q.blocks is p.blocks and q._block_index is p._block_index
        assert q.mirror().mirror().blocks is p.blocks

    def test_entries_hold_tuples_matching_their_key(self):
        list(partitions_upto(4))
        parse_diagram("w" * 17 + "/" + "|".join(str(i) for i in range(1, 18)))
        assert partitions_module._SHAPES
        for rgs, entry in partitions_module._SHAPES.items():
            assert type(rgs) is tuple and all(type(v) is int for v in rgs)
            # a restricted growth string: each block number at most one past the largest before it
            top = -1
            for v in rgs:
                assert v <= top + 1
                top = max(top, v)
            assert type(entry) is tuple and len(entry) == 2
            blocks, index = entry
            assert type(blocks) is tuple and all(type(b) is tuple and all(type(leg) is int for leg in b) for b in blocks)
            assert blocks == tuple(
                tuple(leg for leg in range(1, len(rgs) + 1) if rgs[leg - 1] == g) for g in range(len(set(rgs)))
            )
            assert type(index) is tuple and index == (0, *rgs)
