"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one criterion end to end and prints a PASS/FAIL line
(visible with ``pytest -s`` or in the captured output of a failure).
The same reports back the ``multifaced verify`` command.
"""

import pytest

from multifaced import classes, verify
from multifaced.classes import ClassId, member
from multifaced.partitions import Partition, parse_diagram, partition_index
from multifaced.weights import EPS, ClassIndicatorFamily, ConstantBlockFamily, DeformedFamily, WeightFamily


def _check(report):
    status = "PASS" if report["pass"] else "FAIL"
    detail = {k: v for k, v in report.items() if k not in ("criterion", "pass", "seconds")}
    print(f"{status} {report['criterion']} ({report['seconds']}s) {detail}")
    assert report["pass"], report


def test_criterion_1_classification_count():
    # twelve surviving patterns, bijective onto the classes, nine swap orbits
    _check(verify.criterion_classification_count())


@pytest.mark.slow
def test_criterion_2_admissibility():
    # all class indicators and deformations pass the six conditions at six
    # legs; the mirror-asymmetric control fails condition (vi)
    _check(verify.criterion_admissibility())


def test_criterion_3_hasse():
    # every containment edge with strictness witnesses; the known
    # incomparable pairs confirmed
    _check(verify.criterion_hasse())


def test_criterion_4_example_moment():
    # the deformed-tensor four-term closed form and the crossing coefficient
    _check(verify.criterion_example_moment(seed=0))


def test_criterion_4_fails_on_conjugated_zeta(monkeypatch):
    # a deformed tensor at conj(zeta) puts zeta where the closed form and
    # the crossing coefficient expect conj(zeta)
    monkeypatch.setattr(verify, "DeformedFamily", lambda base, zeta: DeformedFamily(base, zeta.conjugate()))
    report = verify.criterion_example_moment(seed=0)
    assert report["pass"] is False
    assert report["crossing_coefficient_error"] == 2.0
    assert round(report["worst_closed_form"], 2) == 3.69


@pytest.mark.slow
def test_criterion_5_reconstruction():
    # well-definedness, associativity, symmetry, exact restriction, and
    # coefficient extraction against evaluation, twenty table sets per family
    _check(verify.criterion_reconstruction(seed=0, trials=20, max_len=5))


class NonMonicFamily(WeightFamily):
    """NC indicator weights, except 1.5 on one-block partitions."""

    kind = "non-monic"

    def weight(self, faces, blocks):
        return complex(1.5) if len(blocks) == 1 else complex(member(ClassId.NC, Partition(faces, blocks)))


def test_criterion_5_restriction_full_sum(monkeypatch):
    # the full sum over a single-factor word's partitions restricts to the
    # factor for the stock families; a non-monic family passes the exact
    # short-circuit check and fails the full sum
    report = verify.criterion_reconstruction(seed=0, trials=1, max_len=3)
    assert report["pass"] and report["worst_restriction_full_sum"] <= EPS
    monkeypatch.setattr(verify, "stock_families", lambda: [NonMonicFamily()])
    report = verify.criterion_reconstruction(seed=0, trials=1, max_len=3)
    assert report["restriction_exact"] is True
    assert report["worst_restriction_full_sum"] > 0.1
    assert report["pass"] is False


@pytest.mark.slow
def test_criterion_6_combinatorial():
    # inclusion-exclusion equals the cumulant route on every block structure
    # with at most three factors and six legs, plus the three-term display
    _check(verify.criterion_combinatorial(seed=0))


def test_criterion_6_fails_on_wrong_family(monkeypatch):
    # restricted to NC the criterion passes; with the interval family in
    # the product engine, inclusion-exclusion over NC no longer matches
    monkeypatch.setattr(verify, "ALL_CLASSES", (ClassId.NC,))
    report = verify.criterion_combinatorial(seed=0)
    assert report["pass"] is True and report["worst"] <= EPS
    monkeypatch.setattr(verify, "ClassIndicatorFamily", lambda c: ClassIndicatorFamily(ClassId.I))
    report = verify.criterion_combinatorial(seed=0)
    assert report["pass"] is False and report["worst"] > 1


def test_criterion_7_product_cumulants():
    # the product-of-letters cumulant identity, one hundred tables per family
    _check(verify.criterion_product_cumulants(seed=0))


def test_criterion_7_fails_on_split_violation(monkeypatch):
    # the identity rests on the split relation, so the constant family that
    # violates it fails the criterion by far more than the tolerance
    monkeypatch.setattr(verify, "stock_families", lambda: [ConstantBlockFamily(0.7)])
    report = verify.criterion_product_cumulants(seed=0)
    assert report["pass"] is False and report["worst"] > 0.1


def test_criterion_8_units():
    # the three unit-preservation verdicts agree; the unit-preserving classes
    # are exactly those containing the pure noncrossing class
    _check(verify.criterion_units(seed=0))


@pytest.mark.slow
def test_criterion_9_roundtrip():
    # exp/log round trips on one hundred tables per family, and the ordered
    # form of the moment-cumulant relation up to four letters
    _check(verify.criterion_roundtrip(seed=0))


def test_criterion_9_ordered_form_reads_no_row(monkeypatch):
    # exp and log read one weight row per face word, so a wrong slot in it
    # cancels in both round trips; only the ordered form, which reads
    # through evaluate, sees it
    fam = ClassIndicatorFamily(ClassId.NC)
    p = parse_diagram("wwbb/14|23")
    j = partition_index(p.n)[p.blocks]
    row = fam.row

    def wrong_row(faces):
        r = row(faces)
        if faces == p.word:
            r[j] = 0
        return r

    monkeypatch.setattr(fam, "row", wrong_row)
    monkeypatch.setattr(verify, "stock_families", lambda: [fam])
    report = verify.criterion_roundtrip(seed=0)
    assert report["worst"] <= EPS
    assert report["worst_ordered_form"] > 0.1
    assert report["pass"] is False


def test_criterion_10_counting():
    # Bell and Catalan counts against independent oracles
    _check(verify.criterion_counting())


def test_criteria_3_and_10_fail_when_nc_is_everything(monkeypatch):
    # an NC predicate that accepts every partition counts the Bell numbers
    # as Catalan numbers, and makes NC and A one class in the diagram
    monkeypatch.setitem(classes._PREDICATES, ClassId.NC, lambda p: True)
    counting = verify.criterion_counting()
    assert counting["pass"] is False
    assert counting["catalan"] == counting["bell"][:7]
    hasse = verify.criterion_hasse()
    assert hasse["pass"] is False
    assert any("NC and A have equal member sets" in str(v) for v in hasse["violations"]), hasse["violations"]
