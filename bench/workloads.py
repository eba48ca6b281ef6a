"""The four benchmark workloads, their inputs, checks and spans.

Each workload replays one acceptance check of ``multifaced.verify`` through
the public functions of the library, at a size that one fresh interpreter
finishes in a few seconds.  A workload is split in two:

* ``prepare_<name>(cfg, rng)`` draws every random input from the seeded
  generator.  It runs before the first timed call, so its cost is set-up.
* ``run_<name>(cfg, inputs, run)`` makes the timed calls, checks every output
  and records spans and work counts in ``run``.

``CONFIGS[name]["full"]`` is the size the benchmark measures and
``CONFIGS[name]["small"]`` the smallest size, used by the self-test.  Every
config carries the exact work counts its run must reproduce; a count that
drifts is a failed check, so a workload cannot shrink unnoticed.
"""

from __future__ import annotations

import itertools
import resource
import time
from contextlib import contextmanager

from multifaced import (
    ALL_CLASSES,
    EPS,
    PATTERNS,
    ClassId,
    ClassIndicatorFamily,
    DeformedFamily,
    Product,
    all_words,
    associativity_symmetry_check,
    bi_interval_family,
    check_admissible,
    class_generators,
    class_member_set,
    closure_generate,
    combinatorial_moment,
    enumerate_admissible_patterns,
    enumerate_partitions,
    exp_alpha,
    extract_highest_coefficient,
    hasse_verify,
    log_alpha,
    member,
    product_letter_cumulant_check,
    product_moment,
    random_table,
    standard_generators,
    swap_class,
    swap_pattern,
    well_definedness_check,
)
from multifaced.verify import ZETAS, stock_families

FACES = ("w", "b")
# |weight| of a deformed family is the indicator of its base class.
DEFORMED_SUPPORT = {"tensor": ClassId.A, "free": ClassId.NC, "bifree": ClassId.biNC}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def admissible_families() -> list:
    """The twenty-one families criterion 2 requires to be admissible."""
    fams = [ClassIndicatorFamily(c) for c in ALL_CLASSES]
    fams += [DeformedFamily(base, z) for base in ("tensor", "free", "bifree") for z in ZETAS]
    return fams


@contextmanager
def counting_tags(counts: dict):
    """Count ``Product.tag`` calls by the number of factors of the product.

    Every word a product evaluates is tagged first, so the counts are the
    words the library really evaluates, not the ones the config asks for.
    """
    real = Product.tag

    def tag(self, word):
        k = len(self.factors)
        counts[k] = counts.get(k, 0) + 1
        return real(self, word)

    Product.tag = tag
    try:
        yield counts
    finally:
        Product.tag = real


# -- run state: checks, work counts, spans ---------------------------------------


class Run:
    """Checks, work counts and spans of one workload run.

    ``check`` counts a check that can fail.  ``observe`` records a check that
    cannot fail on any input (see bench/README.md): it is evaluated and a
    violation still fails the run, but it is not counted in ``checks``.
    Spans are recorded only when tracing is on, around one call or one
    batch of calls into a layer, so the untraced run pays one ``if`` per
    batch.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.checks = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict[str, float] = {}
        self.observed_failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.work = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.check_many(name, 0 if ok else 1, 1, detail)

    def check_many(self, name: str, bad: int, total: int, detail: str = "") -> None:
        self.checks += total
        self.failed += bad
        if bad:
            self.failures.append(f"{name}: {bad} of {total} failed {detail}".rstrip())

    def observe(self, name: str, worst: float, tol: float = EPS) -> None:
        self.observed[name] = max(self.observed.get(name, 0.0), worst)
        if not worst <= tol:
            self.observed_failures.append(f"{name}: {worst!r} exceeds {tol}")

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        rec = {"name": name, "parent": self._open[-1] if self._open else None, "start": time.monotonic()}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            rec["rss_mb"] = peak_rss_mb()
            self._open.pop()


# -- sweep: partitions, classes, weights (cold), classify ------------------------------


def prepare_sweep(cfg: dict, rng) -> dict:
    order = list(range(cfg["partitions"]))
    rng.shuffle(order)
    classes = list(ALL_CLASSES)
    rng.shuffle(classes)
    return {
        "order": order,
        "classes": classes,
        "families": stock_families(),
        "admissible": admissible_families(),
        "closure_generators": class_generators(cfg["closure_class"]),
        "digest": order[:8],
    }


def _rewrite_pass(parts: list) -> tuple[int, str | None]:
    """reduce, mirror, the four extremal recolourings, and unite/restrict at
    every same-face block boundary of every partition, with their invariants."""
    calls = 0
    bad = None
    for p in parts:
        red = p.reduce()
        mir = p.mirror()
        calls += 4
        ok = red.reduce() == red and red.block_count == p.block_count and mir.mirror() == p
        for end in ("first", "last"):
            for face in FACES:
                q = p.change_extremal_face(end, face)
                ok = ok and q.blocks == p.blocks
        calls += 4
        for i in range(1, p.n):
            bi, bj = p.block_index_of(i), p.block_index_of(i + 1)
            if bi == bj or p.word[i - 1] != p.word[i]:
                continue
            united = p.unite_blocks(p.blocks[bi], p.blocks[bj])
            kept = p.restrict(p.blocks[bi] + p.blocks[bj])
            calls += 2
            ok = ok and united.block_count == p.block_count - 1 and kept.block_count == 2
        if not ok and bad is None:
            bad = str(p)
    return calls, bad


def run_sweep(cfg: dict, inp: dict, run: Run) -> None:
    with run.span("partitions.enumerate"):
        parts = [p for n in range(1, cfg["legs"] + 1) for w in all_words(FACES, n) for p in enumerate_partitions(w)]
    run.count("partitions.enumerated", len(parts))
    run.check("partitions.count", len(parts) == cfg["partitions"], f"got {len(parts)}")
    if len(parts) == len(inp["order"]):
        parts = [parts[i] for i in inp["order"]]

    with run.span("partitions.rewrite"):
        calls, bad = _rewrite_pass(parts)
    run.count("partitions.rewrites", calls)
    run.check("partitions.rewrite_invariants", bad is None, f"first at {bad}")
    run.work += len(parts)

    with run.span("classes.member"):
        sizes = {c: sum(1 for p in parts if member(c, p)) for c in inp["classes"]}
    run.count("classes.member_calls", len(parts) * len(sizes))
    run.count("classes.members", sum(sizes.values()))
    run.work += len(parts) * len(sizes)
    for c, got in sizes.items():
        want = cfg["members"][c.value]
        run.check(f"classes.count.{c.value}", got == want, f"got {got}, want {want}")

    sub = [p for p in parts if p.n <= cfg["evaluate_legs"]]
    fams = inp["families"]
    with run.span("weights.evaluate_cold"):
        cold = [[f.evaluate(p) for p in sub] for f in fams]
    with run.span("weights.evaluate_warm"):
        for f in fams:
            for p in sub:
                f.evaluate(p)
    run.count("weights.evaluations", 2 * len(sub) * len(fams))
    run.work += 2 * len(sub) * len(fams)
    for f, values in zip(fams, cold):
        support = f.class_id if isinstance(f, ClassIndicatorFamily) else DEFORMED_SUPPORT[f.base]
        bad = sum(
            1
            for p, v in zip(sub, values)
            if abs(abs(v) - member(support, p)) > EPS or (isinstance(f, ClassIndicatorFamily) and abs(v.imag) > EPS)
        )
        run.check(f"weights.support.{f.name}", bad == 0, f"wrong on {bad} partitions")

    adm_legs = cfg["admissible_legs"]
    with run.span("weights.admissible"):
        reports = [check_admissible(f, adm_legs) for f in inp["admissible"]]
        control = check_admissible(bi_interval_family(), adm_legs)
    run.count("weights.admissible_families", len(reports) + 1)
    run.work += (len(reports) + 1) * cfg["partitions_at"][adm_legs]
    for f, rep in zip(inp["admissible"], reports):
        run.check(f"weights.admissible.{f.name}", rep.ok, f"violates {rep.first_violation and rep.first_violation[0]}")
    run.check("weights.control_violates_vi", control.conditions["vi"] is not None)

    hasse_legs = cfg["hasse_legs"]
    with run.span("classify.hasse"):
        rep = hasse_verify(hasse_legs)
    pairs = {frozenset((d["a"], d["b"])) for d in rep.incomparable}
    parents = ("NC", "biNC", "NCwAb", "AwNCb")
    need = [frozenset(ab) for ab in itertools.combinations(parents, 2)]
    run.check("classify.hasse", rep.ok and all(fs in pairs for fs in need), "; ".join(rep.violations[:3]))
    run.work += len(ALL_CLASSES) * cfg["partitions_at"][hasse_legs]

    c, closure_legs = cfg["closure_class"], cfg["closure_legs"]
    with run.span("classify.closure"):
        closed = closure_generate(inp["closure_generators"], closure_legs)
    want = class_member_set(c, closure_legs)
    run.count("classify.closure_nodes", len(closed))
    run.check("classify.closure_equals_class", closed == want, f"{len(closed)} nodes vs {len(want)} members")
    run.work += len(closed)

    with run.span("classify.patterns"):
        pats = enumerate_admissible_patterns()
    fixed = [p for p, _ in pats if swap_pattern(p) == p]
    ok = (
        len(pats) == 12
        and len({cl for _, cl in pats}) == 12
        and len(fixed) == 6
        and len(fixed) + (len(pats) - len(fixed)) // 2 == 9
        and all(PATTERNS[swap_pattern(p)] == swap_class(cl) for p, cl in pats)
        and all(
            tuple(int(v.real) for v in ClassIndicatorFamily(cl).basic_coefficients().sixtuple()) == p
            for p, cl in pats
        )
    )
    run.check("classify.patterns", ok, f"{len(pats)} patterns, {len(fixed)} swap-fixed")


# -- reconstruct: the product engine's hot path (criterion 5) -----------------------


def prepare_reconstruct(cfg: dict, rng) -> dict:
    g1 = standard_generators(per_face=1, prefix="a")
    g2 = standard_generators(per_face=1, prefix="c")
    g3 = standard_generators(per_face=1, prefix="e")
    owner = {g: 1 for g in g1} | {g: 2 for g in g2}
    L = cfg["max_len"]
    families = []
    for fam in cfg["families"]():
        trials = []
        for _ in range(cfg["trials"]):
            t1 = random_table(g1, L + 1, rng)
            t2 = random_table(g2, L + 1, rng)
            t3 = random_table(g3, L, rng)
            wd = []
            while len(wd) < cfg["wd_samples"]:
                n = rng.randint(2, L)
                word = tuple((owner[g], g[0], g[1]) for g in (rng.choice(g1 + g2) for _ in range(n)))
                pos = [i for i in range(1, n) if word[i - 1][:2] == word[i][:2]]
                if pos:
                    wd.append((word, rng.choice(pos)))
            restrict = []
            for _ in range(cfg["restrict_samples"]):
                letters = tuple(rng.choice(g1) for _ in range(rng.randint(1, L)))
                restrict.append((letters, tuple((1, f, name) for f, name in letters)))
            trials.append({"tables": (t1, t2, t3), "wd": wd, "restrict": restrict})
        families.append((fam, trials))
    first = families[0][1][0]["tables"][0]
    return {
        "families": families,
        "digest": [first.value(w) for w in list(first.words())[:2]],
    }


def run_reconstruct(cfg: dict, inp: dict, run: Run) -> None:
    L = cfg["max_len"]
    for fam, trials in inp["families"]:
        for trial in trials:
            t1, t2, t3 = trial["tables"]
            with run.span("product.wd"):
                diffs = [well_definedness_check(fam, (t1, t2), w, i)["diff"] for w, i in trial["wd"]]
            run.count("product.wd_checks", len(diffs))
            run.check_many(
                f"product.well_definedness.{fam.name}",
                sum(1 for d in diffs if not d <= EPS),
                len(diffs),
                f"worst {max(diffs, default=0.0):.3g}",
            )
            with run.span("product.restrict"):
                misses = sum(
                    1 for letters, tagged in trial["restrict"] if product_moment(fam, (t1, t2), tagged) != t1.value(letters)
                )
            run.observe("restriction_misses", misses, 0)
            with run.span("product.assoc"), counting_tags({}) as tags:
                r = associativity_symmetry_check(fam, t1, t2, t3, L)
            run.observe("associativity", r["worst_associativity"])
            run.observe("symmetry", r["worst_symmetry"])
            # The flat and the swapped three-factor products tag every word once;
            # the two bracketings tag it once more each, after tagging the words
            # of the two-factor product tables they are built from.
            words = tags.get(3, 0) // 2
            want = {3: 2 * cfg["words_per_trial"], 2: 2 * (cfg["words_per_trial"] + cfg["table_words_per_trial"])}
            run.count("product.assoc_words", words)
            run.check("product.assoc_words", tags == want, f"tagged {tags}, want {want}")
            run.work += words
        with run.span("product.extract"):
            parts = [p for n in range(1, cfg["extract_legs"] + 1) for w in all_words(FACES, n) for p in enumerate_partitions(w)]
            worst = max((abs(extract_highest_coefficient(fam, p) - fam.evaluate(p)) for p in parts), default=0.0)
        run.count("product.extracted", len(parts))
        run.observe("extract_vs_evaluate", worst)


# -- transforms: cumulants as a dense writer ------------------------------------------


def prepare_transforms(cfg: dict, rng) -> dict:
    gens = standard_generators(per_face=1)
    work = []
    for fam in cfg["families"]():
        tables = []
        for _ in range(cfg["tables_per_family"]):
            t = random_table(gens, cfg["degree"], rng)
            face = rng.choice(FACES)
            g = next(x for x in gens if x[0] == face)
            letter_words = [((g, g), 1)]
            while len(letter_words) < cfg["letter_checks_per_table"]:
                n = rng.randint(2, cfg["degree"])
                word = tuple(rng.choice(gens) for _ in range(n))
                pos = [i for i in range(1, n) if word[i - 1][0] == word[i][0]]
                if pos:
                    letter_words.append((word, rng.choice(pos)))
            tables.append((t, letter_words))
        work.append((fam, tables))
    first = work[0][1][0][0]
    return {"work": work, "digest": [first.value(w) for w in list(first.words())[:2]]}


def run_transforms(cfg: dict, inp: dict, run: Run) -> None:
    for fam, tables in inp["work"]:
        for t, letter_words in tables:
            words = list(t.words())
            with run.span("cumulants.log"):
                cum = log_alpha(fam, t)
            with run.span("cumulants.exp"):
                mom = exp_alpha(fam, t)
                back = exp_alpha(fam, cum)
            with run.span("cumulants.log"):
                back2 = log_alpha(fam, mom)
            run.observe("exp_log_roundtrip", max(abs(back.value(w) - t.value(w)) for w in words))
            run.observe("log_exp_roundtrip", max(abs(back2.value(w) - t.value(w)) for w in words))
            run.count("cumulants.words", 4 * len(words))
            run.check("cumulants.words_per_table", len(words) == cfg["words_per_table"], f"got {len(words)}")
            run.work += 4 * len(words)
            with run.span("cumulants.letter"):
                diffs = [product_letter_cumulant_check(fam, t, w, i)["diff"] for w, i in letter_words]
            run.count("cumulants.letter_checks", len(diffs))
            run.check_many(
                f"cumulants.letter.{fam.name}",
                sum(1 for d in diffs if not d <= EPS),
                len(diffs),
                f"worst {max(diffs):.3g}",
            )


# -- inclusion-exclusion: criterion 6 -------------------------------------------------


def prepare_inclusion_exclusion(cfg: dict, rng) -> dict:
    L = cfg["max_legs"]
    work = []
    for name in cfg["classes"]:
        c = ClassId(name)
        tables = tuple(
            random_table(standard_generators(per_face=1, prefix=p), L, rng) for p in ("a", "c", "e")
        )
        by_face = [{g[0]: g[1] for g in t.generators} for t in tables]
        words = [
            tuple((b, f, by_face[b - 1][f]) for b, f in zip(bpat, fpat))
            for n in range(1, L + 1)
            for bpat in itertools.product((1, 2, 3), repeat=n)
            for fpat in all_words(FACES, n)
        ]
        work.append((c, ClassIndicatorFamily(c), tables, words))
    first = work[0][2][0]
    return {"work": work, "digest": [first.value(w) for w in list(first.words())[:2]]}


def run_inclusion_exclusion(cfg: dict, inp: dict, run: Run) -> None:
    for c, fam, tables, words in inp["work"]:
        with run.span("product.combinatorial"):
            cm = [combinatorial_moment(c, tables, w) for w in words]
        with run.span("product.moment"):
            prod = Product(fam, tables)
            pm = [prod.moment(w) for w in words]
        run.count("product.structures", len(words))
        run.check("product.structures_per_class", len(words) == cfg["structures_per_class"], f"got {len(words)}")
        diffs = [abs(a - b) for a, b in zip(cm, pm)]
        run.check_many(
            f"product.inclusion_exclusion.{c.value}",
            sum(1 for d in diffs if not d <= EPS),
            len(diffs),
            f"worst {max(diffs):.3g}",
        )
        run.work += len(words)


# -- configurations --------------------------------------------------------------------

# Two-faced partitions with at most n legs: sum over k <= n of 2^k Bell(k).
PARTITIONS_AT = {1: 2, 2: 10, 3: 50, 4: 290, 5: 1954, 6: 14946}
# Class sizes with at most n legs; I, NC and A match the closed forms
# sum 2^k 2^(k-1), sum 2^k Catalan(k) and PARTITIONS_AT.
MEMBERS_AT = {
    4: {"I": 170, "NC": 274, "biNC": 274, "IwNCb": 214, "NCwIb": 214, "IwAb": 218, "AwIb": 218,
        "NCwAb": 270, "AwNCb": 270, "pNC": 266, "pC": 274, "A": 290},
    6: {"I": 2730, "NC": 10066, "biNC": 10066, "IwNCb": 4810, "NCwIb": 4810, "IwAb": 5402, "AwIb": 5402,
        "NCwAb": 9210, "AwNCb": 9210, "pNC": 8362, "pC": 10066, "A": 14946},
}

CONFIGS = {
    "sweep": {
        "full": {
            "legs": 6, "partitions": PARTITIONS_AT[6], "members": MEMBERS_AT[6], "partitions_at": PARTITIONS_AT,
            "evaluate_legs": 5, "admissible_legs": 4, "hasse_legs": 5,
            "closure_class": ClassId.NC, "closure_legs": 5,
        },
        "small": {
            "legs": 4, "partitions": PARTITIONS_AT[4], "members": MEMBERS_AT[4], "partitions_at": PARTITIONS_AT,
            "evaluate_legs": 4, "admissible_legs": 3, "hasse_legs": 4,
            "closure_class": ClassId.NC, "closure_legs": 4,
        },
    },
    "reconstruct": {
        "full": {
            "families": lambda: [DeformedFamily("tensor", 1j)], "trials": 2, "max_len": 5,
            "wd_samples": 10, "restrict_samples": 3, "extract_legs": 5, "words_per_trial": 9330,
            "table_words_per_trial": 1364,
        },
        "small": {
            "families": lambda: [DeformedFamily("tensor", 1j)], "trials": 2, "max_len": 3,
            "wd_samples": 10, "restrict_samples": 3, "extract_legs": 3, "words_per_trial": 258,
            "table_words_per_trial": 84,
        },
    },
    "transforms": {
        "full": {
            "families": stock_families, "tables_per_family": 3,
            "degree": 5, "letter_checks_per_table": 3, "words_per_table": 62,
        },
        "small": {
            "families": stock_families, "tables_per_family": 1,
            "degree": 3, "letter_checks_per_table": 3, "words_per_table": 14,
        },
    },
    "inclusion-exclusion": {
        "full": {"classes": ("NC", "biNC", "NCwAb"), "max_legs": 5, "structures_per_class": 9330},
        "small": {"classes": ("NC", "biNC", "NCwAb"), "max_legs": 3, "structures_per_class": 258},
    },
}

WORKLOADS = {
    "sweep": (prepare_sweep, run_sweep),
    "reconstruct": (prepare_reconstruct, run_reconstruct),
    "transforms": (prepare_transforms, run_transforms),
    "inclusion-exclusion": (prepare_inclusion_exclusion, run_inclusion_exclusion),
}
