"""Membership predicates for the twelve two-faced partition classes."""

import itertools

import pytest

from multifaced.classes import ALL_CLASSES, ClassId, class_member_set, member, swap_class
from multifaced.partitions import Partition, all_words, enumerate_partitions, parse_diagram, partitions_upto

SWAP = {"w": "b", "b": "w"}


# -- reference predicates --------------------------------------------------------
# Inner legs and crossing pairs computed over all pairs of blocks, the
# crossing test by sorting the two blocks' merged legs, and the classes
# built on them as in the definitions.  biNC and pC are frozen copies of
# the library's earlier predicates, which read the blocks and faces of
# each partition directly: the quadruple scan for biNC and the scan over
# pairs of overlapping blocks for pC.


def reference_inner(p):
    """Legs of a block b strictly between the first and last leg of another block c."""
    return {leg for b in p.blocks for c in p.blocks if c is not b for leg in b if c[0] < leg < c[-1]}


def sorting_cross(b1, b2):
    # Two blocks cross iff their merged leg sequence alternates at least
    # B G B G, i.e. the origin label changes three or more times.
    origins = [o for _, o in sorted([(leg, 0) for leg in b1] + [(leg, 1) for leg in b2])]
    return sum(x != y for x, y in zip(origins, origins[1:])) >= 3


def reference_crossings(p):
    blocks = p.blocks
    return {(i, j) for i, j in itertools.combinations(range(len(blocks)), 2) if sorting_cross(blocks[i], blocks[j])}


def reference_outer(p, face):
    return all(p.face(leg) != face for leg in reference_inner(p))


def reference_nc_arbitrary(p, face):
    inner, crossings = reference_inner(p), reference_crossings(p)
    for idx, b in enumerate(p.blocks):
        if not any(leg in inner and p.face(leg) == face for leg in b):
            continue
        if len({p.face(leg) for leg in b}) > 1 or any(idx in pair for pair in crossings):
            return False
    return True


def reference_pure_nc(p):
    inner = reference_inner(p)
    return not reference_crossings(p) and all(
        len({p.face(leg) for leg in b}) == 1 for b in p.blocks if any(leg in inner for leg in b)
    )


def reference_binoncrossing(p):
    # For i < j < k < l and distinct blocks:
    #   i,k in one block and j,l in the other  =>  f(j) != f(k)
    #   i,l in one block and j,k in the other  =>  f(j)  = f(k)
    blocks = p.blocks
    for bi in range(len(blocks)):
        for bj in range(len(blocks)):
            if bi == bj:
                continue
            beta, gamma = blocks[bi], blocks[bj]
            for i_leg in beta:
                for k_leg in beta:
                    if k_leg <= i_leg:
                        continue
                    for j_leg in gamma:
                        if not i_leg < j_leg < k_leg:
                            continue
                        for l_leg in gamma:
                            if l_leg > k_leg and p.word[j_leg - 1] == p.word[k_leg - 1]:
                                return False  # crossing with equal inner faces
                            if j_leg < l_leg < k_leg and p.word[j_leg - 1] != p.word[l_leg - 1]:
                                # i < j < l < k with j,l nested inside i..k
                                return False
    return True


def reference_pure_crossing(p):
    # For every pair of blocks, the inner legs of the pair's restricted
    # diagram share one face: the legs of b strictly inside c's span and
    # the legs of c strictly inside b's span.
    blocks, word = p.blocks, p.word
    for i, b in enumerate(blocks):
        hi = b[-1]
        for c in blocks[i + 1 :]:
            if c[0] > hi:
                break  # blocks ascend by minimum: c and the rest start after b ends
            faces = {word[leg - 1] for leg in c if leg < hi}
            faces.update(word[leg - 1] for leg in b if c[0] < leg < c[-1])
            if len(faces) > 1:
                return False
    return True


REFERENCE = {
    ClassId.I: lambda p: p.is_interval(),
    ClassId.NC: lambda p: not reference_crossings(p),
    ClassId.biNC: reference_binoncrossing,
    ClassId.IwNCb: lambda p: not reference_crossings(p) and reference_outer(p, "w"),
    ClassId.NCwIb: lambda p: not reference_crossings(p) and reference_outer(p, "b"),
    ClassId.IwAb: lambda p: reference_outer(p, "w"),
    ClassId.AwIb: lambda p: reference_outer(p, "b"),
    ClassId.NCwAb: lambda p: reference_nc_arbitrary(p, "w"),
    ClassId.AwNCb: lambda p: reference_nc_arbitrary(p, "b"),
    ClassId.pNC: reference_pure_nc,
    ClassId.pC: reference_pure_crossing,
    ClassId.A: lambda p: True,
}


def assert_reference_membership(max_legs):
    for p in partitions_upto(max_legs):
        assert [member(c, p) for c in ALL_CLASSES] == [REFERENCE[c](p) for c in ALL_CLASSES], p


def basic_diagrams(q, Q):
    """nesting mono, mono crossing, bicolor nesting, bicolor crossing"""
    return (
        Partition(q * 3, [(1, 3), (2,)]),
        Partition(q * 4, [(1, 3), (2, 4)]),
        Partition(q + q + Q + Q, [(1, 4), (2, 3)]),
        Partition(q + q + Q + Q, [(1, 3), (2, 4)]),
    )


# (nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb) per class, from the definitions.
EXPECTED_PATTERNS = {
    ClassId.I: (0, 0, 0, 0, 0, 0),
    ClassId.NC: (1, 1, 1, 0, 0, 0),
    ClassId.biNC: (1, 1, 0, 0, 0, 1),
    ClassId.IwNCb: (0, 1, 0, 0, 0, 0),
    ClassId.NCwIb: (1, 0, 0, 0, 0, 0),
    ClassId.IwAb: (0, 1, 0, 0, 1, 0),
    ClassId.AwIb: (1, 0, 0, 1, 0, 0),
    ClassId.NCwAb: (1, 1, 0, 0, 1, 0),
    ClassId.AwNCb: (1, 1, 0, 1, 0, 0),
    ClassId.pNC: (1, 1, 0, 0, 0, 0),
    ClassId.pC: (1, 1, 0, 1, 1, 0),
    ClassId.A: (1, 1, 1, 1, 1, 1),
}


class TestBasicDiagramPatterns:
    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_pattern(self, c):
        nw, xw, nwb, xwb = basic_diagrams("w", "b")
        nb, xb, _, _ = basic_diagrams("b", "w")
        got = tuple(int(member(c, d)) for d in (nw, nb, nwb, xw, xb, xwb))
        assert got == EXPECTED_PATTERNS[c]

    def test_patterns_distinct(self):
        assert len(set(EXPECTED_PATTERNS.values())) == 12


class TestMembershipExamples:
    def test_crossing_bicolor_in_binc_not_nc(self):
        p = parse_diagram("wbwb/13|24")
        assert member(ClassId.biNC, p)
        assert not member(ClassId.NC, p)

    def test_example_partition_memberships(self):
        # wbbwb/134|25 crosses with a bicolor block, so only the full class
        # keeps it; in particular it is not noncrossing-arbitrary.
        p = parse_diagram("wbbwb/134|25")
        assert [c.value for c in ALL_CLASSES if member(c, p)] == ["A"]

    def test_intervals_in_every_class(self):
        for word in all_words("wb", 4):
            for p in enumerate_partitions(word):
                if p.is_interval():
                    assert all(member(c, p) for c in ALL_CLASSES)

    def test_pure_crossing_against_restricted_pairs(self):
        # the definition read off each pair's restricted two-block diagram
        def by_restriction(p):
            for b, c in itertools.combinations(p.blocks, 2):
                r = p.restrict(b + c)
                inner = {leg for leg in range(1, r.n + 1) for d in r.blocks if leg not in d and d[0] < leg < d[-1]}
                if len({r.face(leg) for leg in inner}) > 1:
                    return False
            return True

        for p in partitions_upto(6):
            assert member(ClassId.pC, p) == by_restriction(p), p

    def test_pure_crossing_chain(self):
        # Crossing zones may carry different colors as long as each pair of
        # blocks stays monochrome on its own overlap.
        assert member(ClassId.pC, parse_diagram("wwwbbb/13|25|46"))
        assert not member(ClassId.pC, parse_diagram("wbwb/13|24"))

    def test_against_reference_predicates(self):
        assert_reference_membership(6)

    @pytest.mark.slow
    def test_against_reference_predicates_at_seven_legs(self):
        # the 127,202 partitions of at most 7 legs
        assert_reference_membership(7)

    @pytest.mark.slow
    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_membership_is_pairwise(self, c):
        # p is a member iff every two-block restriction of p is one: an
        # observed rule, checked here as a route that restates no predicate
        for p in partitions_upto(6):
            pairs = all(member(c, p.restrict(b + d)) for b, d in itertools.combinations(p.blocks, 2))
            assert member(c, p) == pairs, p

    def test_wrong_alphabet(self):
        with pytest.raises(ValueError):
            member(ClassId.NC, parse_diagram("xy/1|2"))

    @pytest.mark.parametrize("text", ["wx/1|2", "xw/12", "wxb/13|2", "bbx/1|2|3"])
    def test_foreign_face_is_named(self, text):
        # a foreign face at either end or inside the word, next to valid ones
        with pytest.raises(ValueError, match=r"faces \{'w','b'\}, got \['x'\]$"):
            member(ClassId.A, parse_diagram(text))


class TestInvariances:
    @pytest.mark.parametrize("c", ALL_CLASSES, ids=lambda c: c.value)
    def test_reduce_mirror_extremal(self, c):
        for word in all_words("wb", 5):
            for p in enumerate_partitions(word):
                v = member(c, p)
                assert member(c, p.reduce()) == v
                assert member(c, p.mirror()) == v
                for face in "wb":
                    assert member(c, p.change_extremal_face("first", face)) == v
                    assert member(c, p.change_extremal_face("last", face)) == v

    def test_swap_involution(self):
        for c in ALL_CLASSES:
            assert swap_class(swap_class(c)) == c
        assert sum(1 for c in ALL_CLASSES if swap_class(c) == c) == 6

    def test_swap_equivariance(self):
        for n in range(1, 7):
          for word in all_words("wb", n):
            for p in enumerate_partitions(word):
                sw = p.swap_faces(SWAP)
                for c in ALL_CLASSES:
                    assert member(swap_class(c), p) == member(c, sw)


class TestMemberSets:
    def test_cardinalities_at_four_legs(self):
        sizes = {c.value: len(class_member_set(c, 4)) for c in ALL_CLASSES}
        # |A| is every colored partition with <= 4 legs: 2+8+40+240
        assert sizes["A"] == 290
        assert sizes["I"] < sizes["pNC"] < sizes["A"]

    def test_cardinalities_at_six_legs(self):
        # the 14,946 two-faced partitions with at most 6 legs, per class
        sizes = {c.value: len(class_member_set(c, 6)) for c in ALL_CLASSES}
        assert sizes == {
            "I": 2730,
            "NC": 10066,
            "biNC": 10066,
            "IwNCb": 4810,
            "NCwIb": 4810,
            "IwAb": 5402,
            "AwIb": 5402,
            "NCwAb": 9210,
            "AwNCb": 9210,
            "pNC": 8362,
            "pC": 10066,
            "A": 14946,
        }

    def test_meet_stays_testable(self):
        # common refinements of members remain valid predicate inputs
        from multifaced.partitions import meet

        p = parse_diagram("wwww/123|4")
        q = parse_diagram("wwww/1|234")
        assert member(ClassId.NC, meet([p, q]))
