"""Core partition operations against worked examples and counted oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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
    partition_to_json,
    partitions_upto,
    pure_plan,
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
            subsets, terms = pure_plan(b)
            pure = [j for j, blocks in enumerate(parts) if all(len({b[leg - 1] for leg in blk}) == 1 for blk in blocks)]
            assert sorted(j for j, _ in terms) == pure
            assert len(set(subsets)) == len(subsets)
            for j, ids in terms:
                assert tuple(tuple(i + 1 for i in subsets[s][1]) for s in ids) == parts[j]
                assert all(subsets[s][0] == b[subsets[s][1][0]] - 1 for s in ids)

    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_one_factor_plan_is_every_partition(self, n, bell):
        subsets, terms = pure_plan((1,) * n)
        assert len(subsets) == 2**n - 1
        assert [j for j, _ in terms] == list(range(bell))
        # cumulant skips terms[0]: the one-block partition, whose block is subsets[0]
        assert terms[0] == (0, (0,)) and subsets[0] == (0, tuple(range(n)))


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
    def test_nested_leg_is_inner(self):
        p = parse_diagram("wbw/13|2")
        assert p.is_inner(2) and not p.is_inner(1) and not p.is_inner(3)

    def test_interval_all_outer(self):
        p = parse_diagram("wwbbb/12|345")
        assert not any(p.is_inner(leg) for leg in range(1, 6))

    def test_exhaustive_inner_oracle(self):
        # brute-force scan over all (i, j, block) triples; the predicate
        # ignores faces, so one word per length is exhaustive at n <= 6
        for n in range(1, 7):
            for p in enumerate_partitions("w" * n):
                for leg in range(1, n + 1):
                    brute = any(
                        i < leg < j and leg not in b
                        for b in p.blocks
                        for i in b
                        for j in b
                    )
                    assert p.is_inner(leg) == brute


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

    def test_json_roundtrip(self):
        p = parse_diagram("wbbwb/134|25")
        assert partition_from_json(partition_to_json(p)) == p
