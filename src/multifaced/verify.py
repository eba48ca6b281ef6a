"""End-to-end verification suites.

Each criterion function performs one exhaustive or seeded check and returns
a JSON-ready report with a boolean ``pass`` field.  The suites bundle the
criteria for the command line; the test suite asserts on the same reports.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from typing import Callable

from .classes import ALL_CLASSES, ClassId, class_member_set, member, swap_class
from .classify import (
    PATTERNS,
    enumerate_admissible_patterns,
    hasse_verify,
    swap_pattern,
)
from .cumulants import (
    exp_alpha,
    product_letter_cumulant_check,
    log_alpha,
    moment_via_ordered_relation,
    random_table,
    standard_generators,
)
from .partitions import Partition, all_words, enumerate_partitions, parse_diagram, partitions_upto
from .product import (
    Product,
    associativity_symmetry_check,
    combinatorial_moment,
    coarsest_refinements_in_class,
    extract_highest_coefficient,
    product_moment,
    unit_preservation_check,
    well_definedness_check,
)
from .weights import (
    EPS,
    ClassIndicatorFamily,
    DeformedFamily,
    WeightFamily,
    approx,
    bi_interval_family,
    check_admissible,
)

ZETAS = (complex(1), 1j, cmath.exp(2j * math.pi / 3))


def stock_families() -> list[WeightFamily]:
    """The twelve class indicators plus one deformation per base kind."""
    fams: list[WeightFamily] = [ClassIndicatorFamily(c) for c in ALL_CLASSES]
    fams.append(DeformedFamily("tensor", 1j))
    fams.append(DeformedFamily("free", cmath.exp(2j * math.pi / 3)))
    fams.append(DeformedFamily("bifree", 1j))
    return fams


def _report(name: str, ok: bool, t0: float, **details) -> dict:
    return {"criterion": name, "pass": bool(ok), "seconds": round(time.perf_counter() - t0, 2), **details}


# -- criteria ---------------------------------------------------------------------


def criterion_classification_count() -> dict:
    """Exactly twelve surviving basic-coefficient patterns, bijective onto
    the classes, six fixed under face swap (nine orbits)."""
    t0 = time.perf_counter()
    pats = enumerate_admissible_patterns()
    classes = [c for _, c in pats]
    fixed = [p for p, _ in pats if swap_pattern(p) == p]
    swap_consistent = all(PATTERNS[swap_pattern(p)] == swap_class(c) for p, c in pats)
    derived_match = all(
        tuple(int(v.real) for v in ClassIndicatorFamily(c).basic_coefficients().sixtuple()) == p
        for p, c in pats
    )
    orbits = len(fixed) + (len(pats) - len(fixed)) // 2
    ok = (
        len(pats) == 12
        and len(set(classes)) == 12
        and len(fixed) == 6
        and orbits == 9
        and swap_consistent
        and derived_match
    )
    return _report(
        "classification-count",
        ok,
        t0,
        patterns=len(pats),
        swap_fixed=len(fixed),
        orbits=orbits,
        bijective=len(set(classes)) == 12,
        patterns_match_predicates=derived_match,
    )


def criterion_admissibility() -> dict:
    """Every stock family passes the six conditions; the mirror-asymmetric
    control fails condition (vi) with a witness."""
    t0 = time.perf_counter()
    fams: list[WeightFamily] = [ClassIndicatorFamily(c) for c in ALL_CLASSES]
    for base in DeformedFamily.BASES:
        for z in ZETAS:
            fams.append(DeformedFamily(base, z))
    results = {}
    ok = True
    for fam in fams:
        rep = check_admissible(fam, 6)
        results[fam.name] = "pass" if rep.ok else f"violates ({rep.first_violation[0]})"
        ok = ok and rep.ok
    control = check_admissible(bi_interval_family(), max_legs=4)
    control_vi = control.conditions["vi"]
    ok = ok and control_vi is not None
    return _report(
        "admissibility",
        ok,
        t0,
        families=results,
        control_violates_vi=control_vi,
    )


def criterion_hasse() -> dict:
    """The containment diagram matches the expected seventeen covering edges
    with strictness witnesses; the known incomparable pairs show up."""
    t0 = time.perf_counter()
    rep = hasse_verify(6)
    pairs = {frozenset((d["a"], d["b"])) for d in rep.incomparable}
    need = [frozenset(("NCwAb", "AwNCb"))]
    parents = ("NC", "biNC", "NCwAb", "AwNCb")
    for i, a in enumerate(parents):
        for b in parents[i + 1 :]:
            need.append(frozenset((a, b)))
    missing = [sorted(fs) for fs in need if fs not in pairs]
    ok = rep.ok and not missing
    return _report(
        "hasse",
        ok,
        t0,
        edges=len(rep.edges),
        violations=rep.violations,
        incomparable_missing=missing,
    )


def criterion_example_moment(seed: int = 0) -> dict:
    """The four-term closed form of the deformed-tensor product moment on
    a1w a2w a1b a2b, and the crossing highest coefficient conj(zeta)."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    zeta = 1j
    fam = DeformedFamily("tensor", zeta)
    zc = zeta.conjugate()
    g1 = (("w", "a1w"), ("b", "a1b"))
    g2 = (("w", "a2w"), ("b", "a2b"))
    word = ((1, "w", "a1w"), (2, "w", "a2w"), (1, "b", "a1b"), (2, "b", "a2b"))
    worst = 0.0
    for _ in range(5):
        t1, t2 = random_table(g1, 4, rng), random_table(g2, 4, rng)
        got = product_moment(fam, (t1, t2), word)
        p = t1.value((("w", "a1w"),))
        r = t1.value((("b", "a1b"),))
        q = t2.value((("w", "a2w"),))
        s = t2.value((("b", "a2b"),))
        u = t1.value((("w", "a1w"), ("b", "a1b")))
        v = t2.value((("w", "a2w"), ("b", "a2b")))
        closed = zc * u * v + (1 - zc) * u * s * q + (1 - zc) * p * r * v - (1 - zc) * p * r * s * q
        worst = max(worst, abs(got - closed))
    coeff = extract_highest_coefficient(fam, Partition("wwbb", [(1, 3), (2, 4)]))
    coeff_err = abs(coeff - (-1j))
    ok = worst <= EPS and coeff_err <= EPS
    return _report(
        "example-moment",
        ok,
        t0,
        worst_closed_form=worst,
        crossing_coefficient_error=coeff_err,
    )


def criterion_reconstruction(seed: int = 0, trials: int = 20, max_len: int = 5) -> dict:
    """Well-definedness, associativity, symmetry, restriction, and
    coefficient extraction against direct evaluation, for every stock family.

    Restriction is checked twice on the same single-factor words: exactly
    through the short-circuit of ``Product.moment`` (``restriction_exact``),
    and through the full sum over the word's partitions
    (``worst_restriction_full_sum``), which a non-monic family fails."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    g1 = standard_generators(per_face=1, prefix="a")
    g2 = standard_generators(per_face=1, prefix="c")
    g3 = standard_generators(per_face=1, prefix="e")
    owner = {g: 1 for g in g1} | {g: 2 for g in g2}
    worst_wd = 0.0
    worst_assoc = 0.0
    worst_sym = 0.0
    restriction_exact = True
    worst_full_sum = 0.0
    worst_extract = 0.0
    for fam in stock_families():
        for trial in range(trials):
            t1 = random_table(g1, max_len + 1, rng)
            t2 = random_table(g2, max_len + 1, rng)
            t3 = random_table(g3, max_len, rng)
            # well-definedness on sampled words with an eligible position
            used = 0
            while used < 3:
                n = rng.randint(2, max_len)
                word = tuple(
                    (owner[g], g[0], g[1]) for g in (rng.choice(g1 + g2) for _ in range(n))
                )
                pos = [
                    i
                    for i in range(1, n)
                    if word[i - 1][0] == word[i][0] and word[i - 1][1] == word[i][1]
                ]
                if not pos:
                    continue
                r = well_definedness_check(fam, (t1, t2), word, rng.choice(pos))
                worst_wd = max(worst_wd, r["diff"])
                used += 1
            # restriction: single-factor words must hit the table, exactly
            # through the short-circuit and up to EPS through the full sum
            prod = Product(fam, (t1, t2))
            for _ in range(3):
                n = rng.randint(1, max_len)
                letters = tuple(rng.choice(g1) for _ in range(n))
                tagged = tuple((1, g[0], g[1]) for g in letters)
                want = t1.value(letters)
                if prod.moment(tagged) != want:
                    restriction_exact = False
                worst_full_sum = max(worst_full_sum, abs(prod.moment(tagged, expansion=[]) - want))
            r = associativity_symmetry_check(fam, t1, t2, t3, max_len)
            worst_assoc = max(worst_assoc, r["worst_associativity"])
            worst_sym = max(worst_sym, r["worst_symmetry"])
        for p in partitions_upto(max_len):
            got = extract_highest_coefficient(fam, p)
            worst_extract = max(worst_extract, abs(got - fam.evaluate(p)))
    ok = (
        worst_wd <= EPS
        and worst_assoc <= EPS
        and worst_sym <= EPS
        and restriction_exact
        and worst_full_sum <= EPS
        and worst_extract <= EPS
    )
    return _report(
        "reconstruction",
        ok,
        t0,
        worst_well_definedness=worst_wd,
        worst_associativity=worst_assoc,
        worst_symmetry=worst_sym,
        restriction_exact=restriction_exact,
        worst_restriction_full_sum=worst_full_sum,
        worst_extract_vs_evaluate=worst_extract,
    )


def criterion_combinatorial(seed: int = 0) -> dict:
    """The inclusion-exclusion formula equals the cumulant-route moment for
    every class and every block structure with at most three factors and six
    legs, plus the exact three-term example."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    worst = 0.0
    structures = 0
    for c in ALL_CLASSES:
        fam = ClassIndicatorFamily(c)
        tables = tuple(
            random_table(standard_generators(per_face=1, prefix=p), 6, rng)
            for p in ("a", "c", "e")
        )
        prod = Product(fam, tables)
        by_face = [
            {f: next(g for g in t.generators if g[0] == f) for f in ("w", "b")} for t in tables
        ]
        for n in range(1, 7):
            for bpat in itertools.product((1, 2, 3), repeat=n):
                for fpat in all_words("wb", n):
                    word = tuple(
                        (b, f, by_face[b - 1][f][1]) for b, f in zip(bpat, fpat)
                    )
                    structures += 1
                    cm = combinatorial_moment(c, tables, word)
                    pm = prod.moment(word)
                    worst = max(worst, abs(cm - pm))
    # the exact three-term display
    ga = (("w", "a1w"), ("b", "a2b"), ("w", "a3w"))
    gb = (("b", "b1b"), ("b", "b2b"))
    phi, psi = random_table(ga, 5, rng), random_table(gb, 5, rng)
    word = ((1, "w", "a1w"), (2, "b", "b1b"), (1, "b", "a2b"), (1, "w", "a3w"), (2, "b", "b2b"))
    got = combinatorial_moment(ClassId.NCwAb, (phi, psi), word)
    a12 = phi.value((("w", "a1w"), ("b", "a2b")))
    a3 = phi.value((("w", "a3w"),))
    a123 = phi.value((("w", "a1w"), ("b", "a2b"), ("w", "a3w")))
    b12 = psi.value((("b", "b1b"), ("b", "b2b")))
    b1 = psi.value((("b", "b1b"),))
    b2 = psi.value((("b", "b2b"),))
    closed = a12 * a3 * b12 + a123 * b1 * b2 - a12 * a3 * b1 * b2
    example_err = abs(got - closed)
    S = coarsest_refinements_in_class(ClassId.NCwAb, parse_diagram("wbbwb/134|25"))
    example_S = sorted(str(q) for q in S)
    ok = worst <= EPS and example_err <= EPS and example_S == ["wbbwb/134|2|5", "wbbwb/13|25|4"]
    return _report(
        "combinatorial",
        ok,
        t0,
        structures=structures,
        worst=worst,
        example_error=example_err,
        example_coarsest_refinements=example_S,
    )


def criterion_product_cumulants(seed: int = 0) -> dict:
    """The product-of-letters cumulant identity on seeded random tables,
    with the two-letter base case held to near machine precision."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    gens = standard_generators(per_face=1)
    worst = 0.0
    worst_base = 0.0
    for fam in stock_families():
        for _ in range(100):
            t = random_table(gens, 5, rng)
            face = rng.choice(("w", "b"))
            g = next(x for x in gens if x[0] == face)
            base = product_letter_cumulant_check(fam, t, (g, g), 1)
            worst_base = max(worst_base, base["diff"])
            while True:
                n = rng.randint(2, 5)
                word = tuple(rng.choice(gens) for _ in range(n))
                pos = [i for i in range(1, n) if word[i - 1][0] == word[i][0]]
                if pos:
                    break
            r = product_letter_cumulant_check(fam, t, word, rng.choice(pos))
            worst = max(worst, r["diff"])
    ok = worst <= EPS and worst_base <= 1e-12
    return _report(
        "product-cumulants",
        ok,
        t0,
        worst=worst,
        worst_base_case=worst_base,
    )


def criterion_units(seed: int = 0) -> dict:
    """The three unit-preservation verdicts agree everywhere, and the
    unit-preserving classes are exactly those containing the pure
    noncrossing class (plus the three deformations)."""
    t0 = time.perf_counter()
    pnc = class_member_set(ClassId.pNC, 5)
    expected = {c for c in ALL_CLASSES if pnc <= class_member_set(c, 5)}
    verdicts = {}
    agree = True
    preserving: set[str] = set()
    for fam in stock_families():
        r = unit_preservation_check(fam, seed=seed, samples=30)
        verdicts[fam.name] = {
            "insertion_invariant": r["insertion_invariant"],
            "nu_all_one": r["nu_all_one"],
            "singleton_inductive": r["singleton_inductive"],
        }
        agree = agree and r["agree"]
        if r["insertion_invariant"]:
            preserving.add(fam.name)
    want = {f"class:{c.value}" for c in expected} | {
        f.name for f in stock_families() if isinstance(f, DeformedFamily)
    }
    ok = agree and preserving == want
    return _report(
        "unit-preservation",
        ok,
        t0,
        verdicts_agree=agree,
        unit_preserving=sorted(preserving),
        expected=sorted(want),
    )


def criterion_roundtrip(seed: int = 0) -> dict:
    """exp/log round trips on seeded random tables, and the agreement of the
    ordered and unordered moment-cumulant relations up to four letters."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    gens = standard_generators(per_face=1)
    worst = 0.0
    worst_ordered = 0.0
    for fam in stock_families():
        for i in range(100):
            t = random_table(gens, 5, rng)
            back = exp_alpha(fam, log_alpha(fam, t))
            back2 = log_alpha(fam, exp_alpha(fam, t))
            for w in t.words():
                worst = max(worst, abs(back.value(w) - t.value(w)), abs(back2.value(w) - t.value(w)))
            if i == 0:
                c = log_alpha(fam, t)
                for w in t.words(4):
                    worst_ordered = max(
                        worst_ordered, abs(moment_via_ordered_relation(fam, c, w) - t.value(w))
                    )
    ok = worst <= EPS and worst_ordered <= EPS
    return _report("moment-cumulant-roundtrip", ok, t0, worst=worst, worst_ordered_form=worst_ordered)


def criterion_counting() -> dict:
    """Partition counts against an independent restricted-growth-string
    oracle, and noncrossing counts against the Catalan closed form."""
    t0 = time.perf_counter()
    bells = []
    ok = True
    for n in range(1, 9):
        got = sum(1 for _ in enumerate_partitions("w" * n))
        oracle = _rgs_count(n)
        bells.append(got)
        ok = ok and got == oracle
    ok = ok and bells == [1, 2, 5, 15, 52, 203, 877, 4140]
    catalans = []
    for n in range(1, 8):
        got = sum(1 for p in enumerate_partitions("w" * n) if member(ClassId.NC, p))
        want = math.comb(2 * n, n) // (n + 1)
        catalans.append(got)
        ok = ok and got == want
    return _report("counting", ok, t0, bell=bells, catalan=catalans)


def _rgs_count(n: int) -> int:
    # Independent oracle: count restricted growth strings directly.
    def rec(i: int, m: int) -> int:
        if i == n:
            return 1
        return sum(rec(i + 1, max(m, v)) for v in range(m + 2))

    return rec(1, 0) if n else 1


# -- extra cross-checks used by the test suite ---------------------------------------


def cyclic_invariance_classes(max_legs: int = 6) -> dict[str, bool]:
    """Which stock class indicators are invariant under cyclic leg rotation.

    Only the noncrossing and the full class survive; every other class has a
    witness whose weight changes under rotation, so no other symmetric
    two-faced independence can preserve traces.
    """
    return {
        c.value: all(member(c, p) == member(c, p.rotate()) for p in partitions_upto(max_legs))
        for c in ALL_CLASSES
    }


def commuting_faces_classes() -> list[str]:
    """Classes whose bicolor crossing coefficient is 1 (independent
    variables in different faces commute): the full and binoncrossing sets."""
    out = []
    for c in ALL_CLASSES:
        bc = ClassIndicatorFamily(c).basic_coefficients()
        if approx(bc.xi[("w", "b")], 1):
            out.append(c.value)
    return out


# -- suites ---------------------------------------------------------------------------


SUITES: dict[str, tuple[Callable[..., dict], ...]] = {
    "classification": (criterion_classification_count, criterion_admissibility, criterion_hasse, criterion_counting),
    "reconstruction": (criterion_example_moment, criterion_reconstruction, criterion_product_cumulants, criterion_roundtrip),
    "combinatorial": (criterion_combinatorial,),
    "units": (criterion_units,),
}
SUITES["all"] = tuple(fn for suite in ("classification", "reconstruction", "combinatorial", "units") for fn in SUITES[suite])
# The criteria that draw random inputs; run_suite passes them its seed.
SEEDED = frozenset(
    {
        criterion_example_moment,
        criterion_reconstruction,
        criterion_combinatorial,
        criterion_product_cumulants,
        criterion_units,
        criterion_roundtrip,
    }
)


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one suite and collect the reports; overall pass is their conjunction."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    reports = [fn(seed=seed) if fn in SEEDED else fn() for fn in SUITES[name]]
    return {
        "suite": name,
        "seed": seed,
        "pass": all(r["pass"] for r in reports),
        "criteria": reports,
    }
