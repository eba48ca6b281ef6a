"""Classification of two-faced admissible weight patterns.

The basic-coefficient pattern of an admissible family determines it; for 0/1
patterns the surviving assignments are exactly the indicators of the twelve
partition classes, three one-parameter deformations cover the unit-circle
values.  This module enumerates the surviving patterns, classifies a given
pattern, generates admissible sets by closure under the rewriting operations,
and verifies the containment (Hasse) diagram of the twelve classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .classes import ALL_CLASSES, ClassId, class_member_set, member
from .partitions import (
    DEFAULT_ALPHABET,
    Partition,
    all_words,
    one_block,
    partitions_upto,
    refinements,
)
from .weights import EPS, BasicCoefficients, DeformedFamily, approx, basic_diagrams, check_basic_relations


class BudgetExceeded(RuntimeError):
    """A bounded search ran past its configured cap."""


# -- 0/1 pattern table -----------------------------------------------------------

# (nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb) per class, derived from the class
# definitions on the six basic diagrams and cross-checked against the
# membership predicates in the test suite.
PATTERNS: dict[tuple[int, ...], ClassId] = {
    (0, 0, 0, 0, 0, 0): ClassId.I,
    (1, 1, 1, 0, 0, 0): ClassId.NC,
    (1, 1, 0, 0, 0, 1): ClassId.biNC,
    (0, 1, 0, 0, 0, 0): ClassId.IwNCb,
    (1, 0, 0, 0, 0, 0): ClassId.NCwIb,
    (0, 1, 0, 0, 1, 0): ClassId.IwAb,
    (1, 0, 0, 1, 0, 0): ClassId.AwIb,
    (1, 1, 0, 0, 1, 0): ClassId.NCwAb,
    (1, 1, 0, 1, 0, 0): ClassId.AwNCb,
    (1, 1, 0, 0, 0, 0): ClassId.pNC,
    (1, 1, 0, 1, 1, 0): ClassId.pC,
    (1, 1, 1, 1, 1, 1): ClassId.A,
}


@dataclass(frozen=True)
class Deformed:
    """A unit-circle deformation of the tensor, free or bifree pattern."""

    base: str
    zeta: complex


def enumerate_admissible_patterns() -> list[tuple[tuple[int, ...], ClassId | None]]:
    """All 0/1 basic-coefficient patterns passing the five coefficient relations.

    Runs over the 64 assignments of (nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb),
    keeps those passing ``check_basic_relations`` and nothing else, and maps
    each survivor to its class in ``PATTERNS``, or to None if it has none.
    Exactly twelve survive and the map is a bijection onto the classes.
    """
    out: list[tuple[tuple[int, ...], ClassId | None]] = []
    for bits in range(64):
        pattern = tuple((bits >> i) & 1 for i in range(6))
        if check_basic_relations(BasicCoefficients.from_sixtuple(pattern))[0]:
            out.append((pattern, PATTERNS.get(pattern)))
    out.sort(key=lambda pc: pc[0])
    return out


def swap_pattern(pattern: Sequence[int]) -> tuple[int, ...]:
    nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb = pattern
    return (nu_b, nu_w, nu_wb, xi_b, xi_w, xi_wb)


def classify_pattern(bc: BasicCoefficients):
    """Map basic coefficients to a ClassId, a Deformed family, or None.

    Patterns violating the coefficient relations classify to None.  A
    pattern that is not 0/1 is the deformation whose
    ``DeformedFamily.SHAPES`` entry it matches at z, read from the first
    slot that base deforms, when z is on the unit circle and is not 1.
    """
    ok, _ = check_basic_relations(bc)
    if not ok:
        return None
    six = bc.sixtuple()
    if all(approx(v, 0) or approx(v, 1) for v in six):
        pattern = tuple(int(approx(v, 1)) for v in six)
        return PATTERNS.get(pattern)
    circle = lambda z: abs(abs(z) - 1.0) <= EPS and not approx(z, 1)
    for base, shape in DeformedFamily.SHAPES.items():
        z = six[shape(None).index(None)]  # the first slot the base deforms
        if circle(z) and all(approx(v, s) for v, s in zip(six, shape(z))):
            return Deformed(base, z.conjugate())
    return None


# -- closure under the rewriting operations ---------------------------------------


def class_generators(c: ClassId) -> list[Partition]:
    """The basic two-block diagrams belonging to class c (its generators)."""
    return [
        d
        for q in DEFAULT_ALPHABET
        for Q in DEFAULT_ALPHABET
        for d in basic_diagrams(q, Q)
        if member(c, d)
    ]


def closure_generate(
    generators: Iterable[Partition],
    max_legs: int,
    node_cap: int = 500_000,
) -> frozenset[Partition]:
    """Generate the admissible set spanned by the generators, up to max_legs.

    Seeds with every one-block partition, every two-leg two-singleton
    partition and the generators, then closes under: doubling a leg, merging
    neighboring same-face legs of one block, uniting or remembering two
    blocks with neighboring same-face legs, replacing a block by a matching
    two-block partition from the set, mirroring, and recoloring extremal
    legs.  The search explores intermediates up to ``max_legs + 1`` (one
    leg of headroom) and returns only partitions of at most max_legs, so the
    result is a lower bound of the true closure restricted to that size
    (tight for the twelve classes at max_legs 6).
    """
    alphabet = DEFAULT_ALPHABET
    explore = max_legs + 1
    seeds: list[Partition] = []
    for n in range(1, explore + 1):
        for word in all_words(alphabet, n):
            seeds.append(one_block(word))
    for word in all_words(alphabet, 2):
        seeds.append(Partition(word, [(1,), (2,)]))
    seeds.extend(generators)

    found: set[Partition] = set()
    # Index two-block members by their word, and blocks of members by the
    # word of the block, so the replace rule can pair them incrementally.
    two_blocks: dict[str, list[Partition]] = {}
    block_sites: dict[str, list[tuple[Partition, tuple[int, ...]]]] = {}
    queue: list[Partition] = []

    def add(p: Partition) -> None:
        if p.n == 0 or p.n > explore or p in found:
            return
        found.add(p)
        if len(found) > node_cap:
            raise BudgetExceeded(f"closure exceeded {node_cap} partitions")
        queue.append(p)

    def block_word(p: Partition, b: tuple[int, ...]) -> str:
        return "".join(p.word[leg - 1] for leg in b)

    def replace(host: Partition, b: tuple[int, ...], tb: Partition) -> None:
        # Substitute the two blocks of tb for block b of host (through the
        # order isomorphism) and keep the result if the two new blocks have
        # neighboring legs of one face.  The legs of b keep b's label on
        # tb's first block and take a fresh one on its second.
        word = host.word
        labels = list(host._block_index)
        old, fresh = labels[b[0]], host.block_count
        for leg, j in zip(b, tb._block_index[1:]):
            if j:
                labels[leg] = fresh
        for i in range(1, host.n):
            if word[i - 1] == word[i] and (labels[i], labels[i + 1]) in ((old, fresh), (fresh, old)):
                add(Partition._from_labels(word, labels[1:]))
                return

    for s in seeds:
        add(s)

    while queue:
        p = queue.pop()
        n = p.n
        add(p.mirror())
        for face in alphabet:
            if face != p.word[0]:
                add(p.change_extremal_face("first", face))
            if face != p.word[-1]:
                add(p.change_extremal_face("last", face))
        if n + 1 <= explore:
            for leg in range(1, n + 1):
                add(p.double_leg(leg))
        for leg in range(1, n):
            if p._block_index[leg] == p._block_index[leg + 1] and p.word[leg - 1] == p.word[leg]:
                add(p.merge_legs(leg))
        for i in p.split_sites():
            united, remembered = p.split_at(i)
            add(united)
            add(remembered)
        if p.block_count == 2:
            two_blocks.setdefault(p.word, []).append(p)
            for host, b in block_sites.get(p.word, ()):
                replace(host, b, p)
        for b in p.blocks:
            bw = block_word(p, b)
            block_sites.setdefault(bw, []).append((p, b))
            for tb in two_blocks.get(bw, ()):
                replace(p, b, tb)

    return frozenset(p for p in found if p.n <= max_legs)


# -- Hasse diagram -----------------------------------------------------------------

# Covering relations of the containment order of the twelve classes.
HASSE_EDGES: tuple[tuple[ClassId, ClassId], ...] = (
    (ClassId.I, ClassId.IwNCb),
    (ClassId.I, ClassId.NCwIb),
    (ClassId.IwNCb, ClassId.pNC),
    (ClassId.IwNCb, ClassId.IwAb),
    (ClassId.NCwIb, ClassId.pNC),
    (ClassId.NCwIb, ClassId.AwIb),
    (ClassId.pNC, ClassId.NC),
    (ClassId.pNC, ClassId.biNC),
    (ClassId.pNC, ClassId.NCwAb),
    (ClassId.pNC, ClassId.AwNCb),
    (ClassId.IwAb, ClassId.NCwAb),
    (ClassId.AwIb, ClassId.AwNCb),
    (ClassId.NCwAb, ClassId.pC),
    (ClassId.AwNCb, ClassId.pC),
    (ClassId.NC, ClassId.A),
    (ClassId.biNC, ClassId.A),
    (ClassId.pC, ClassId.A),
)


@dataclass
class HasseReport:
    max_legs: int
    edges: list[dict] = field(default_factory=list)
    incomparable: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    dot: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "max_legs": self.max_legs,
            "edges": self.edges,
            "incomparable": self.incomparable,
            "violations": self.violations,
        }


def hasse_verify(max_legs: int) -> HasseReport:
    """Verify the containment diagram of the twelve classes up to max_legs.

    Computes the full pairwise containment of the class member sets, checks
    that its covering relations are exactly the expected edges, attaches a
    strictness witness to every edge, and renders the diagram as DOT.
    """
    report = HasseReport(max_legs)
    members = {c: class_member_set(c, max_legs) for c in ALL_CLASSES}
    leq = {
        (c1, c2): members[c1] <= members[c2]
        for c1 in ALL_CLASSES
        for c2 in ALL_CLASSES
    }
    # Covering relations of the computed order.
    computed: set[tuple[ClassId, ClassId]] = set()
    for c1 in ALL_CLASSES:
        for c2 in ALL_CLASSES:
            if c1 == c2 or not leq[(c1, c2)]:
                continue
            if leq[(c2, c1)]:
                report.violations.append(f"{c1} and {c2} have equal member sets")
                continue
            if any(
                leq[(c1, mid)] and leq[(mid, c2)] and mid not in (c1, c2) and not leq[(mid, c1)] and not leq[(c2, mid)]
                for mid in ALL_CLASSES
            ):
                continue
            computed.add((c1, c2))
    expected = set(HASSE_EDGES)
    for missing in sorted(expected - computed, key=str):
        report.violations.append(f"expected edge {missing[0]} < {missing[1]} not found")
    for extra in sorted(computed - expected, key=str):
        report.violations.append(f"unexpected edge {extra[0]} < {extra[1]}")
    for c1, c2 in HASSE_EDGES:
        witness = min(members[c2] - members[c1], key=str, default=None)
        if witness is None:
            report.violations.append(f"no strictness witness for {c1} < {c2}")
        else:
            report.edges.append({"from": c1.value, "to": c2.value, "witness": str(witness)})
    # Pairwise incomparability witnesses for every pair not related at all.
    for i, c1 in enumerate(ALL_CLASSES):
        for c2 in ALL_CLASSES[i + 1 :]:
            if leq[(c1, c2)] or leq[(c2, c1)]:
                continue
            w12 = min(members[c1] - members[c2], key=str)
            w21 = min(members[c2] - members[c1], key=str)
            report.incomparable.append(
                {"a": c1.value, "b": c2.value, "only_a": str(w12), "only_b": str(w21)}
            )
    report.dot = _hasse_dot(members)
    return report


def _hasse_dot(members: dict[ClassId, frozenset[Partition]]) -> str:
    order = sorted(ALL_CLASSES, key=lambda c: (len(members[c]), c.value))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for c in order:
        lines.append(f'  "{c.value}" [label="{c.value}\\n{len(members[c])}"];')
    for c1, c2 in HASSE_EDGES:
        lines.append(f'  "{c1.value}" -> "{c2.value}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- refinement restriction ---------------------------------------------------------


def refinement_restriction_check(c, max_legs: int) -> dict:
    """Check, for every member rho and refinement sigma of rho, that sigma
    belongs to the set iff every blockwise restriction of sigma does.

    ``c`` is a ClassId or an arbitrary membership predicate.  Returns a dict
    with ``ok`` and the first counterexample, if any.
    """
    pred = (lambda p: member(c, p)) if isinstance(c, ClassId) else c
    checked = 0
    for rho in partitions_upto(max_legs):
        if not pred(rho):
            continue
        for sigma in refinements(rho):
            checked += 1
            whole = pred(sigma)
            blockwise = all(pred(sigma.restrict(b)) for b in rho.blocks)
            if whole != blockwise:
                return {
                    "ok": False,
                    "checked": checked,
                    "rho": str(rho),
                    "sigma": str(sigma),
                    "member": whole,
                    "blockwise": blockwise,
                }
    return {"ok": True, "checked": checked}
