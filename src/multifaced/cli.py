"""Command-line interface.

Structured data travels as JSON on stdin/stdout; ``--pretty`` switches the
human-readable rendering on.  Exit codes: 0 success, 1 malformed input,
2 verification failure, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import verify as _verify
from .classes import ALL_CLASSES, ClassId, member
from .classify import BudgetExceeded, Deformed, classify_pattern, closure_generate, hasse_verify
from .cumulants import table_from_json
from .partitions import DEFAULT_ALPHABET, PartitionError, enumerate_partitions, json_expect, json_field, parse_diagram
from .product import Product, combinatorial_moment
from .weights import EPS, BasicCoefficients, check_admissible, family_from_json

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_FAILED = 2
EXIT_BUDGET = 3


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text}")
    return v


def _float_sized(text: str) -> int:
    # Integers stay ints (degree bounds, leg counts, factor indices), but
    # every number may end up in complex(), so it must fit in a float.
    v = int(text)
    if abs(v) > sys.float_info.max:
        raise ValueError(f"integer {text[:20]}... too large for a float")
    return v


def _load_json_arg(value: str) -> dict:
    """Accept inline JSON, a path to a JSON file, or '-' for stdin.

    Non-finite numbers (``NaN``, ``Infinity``, or a literal that overflows a
    float, integer or not) are rejected as malformed input.
    """
    text = value.strip()
    if text == "-":
        text = sys.stdin.read()
    elif not text.startswith("{") and not text.startswith("["):
        with open(text) as fh:
            text = fh.read()
    return json.loads(text, parse_float=_finite, parse_int=_float_sized, parse_constant=_finite)


def _check_legs(max_legs: int) -> None:
    if max_legs < 1:
        raise ValueError(f"--max-legs must be at least 1, got {max_legs}")


def _warn_legs(max_legs: int) -> None:
    if max_legs > 6:
        print(
            f"warning: max_legs={max_legs} sweeps {max_legs}-leg partitions "
            "exhaustively; expect a long run",
            file=sys.stderr,
        )


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True, default=str))
    else:
        print(json.dumps(obj, sort_keys=True, default=str))


def _class_id(name: str) -> ClassId:
    try:
        return ClassId(name)
    except ValueError:
        raise ValueError(f"unknown class {name!r}; choose from {[c.value for c in ALL_CLASSES]}") from None


def cmd_enumerate(args) -> int:
    parts = list(enumerate_partitions(args.word))
    if args.cls:
        c = _class_id(args.cls)
        parts = [p for p in parts if member(c, p)]
    _emit({"word": args.word, "count": len(parts), "partitions": [str(p) for p in parts]}, args.pretty)
    return EXIT_OK


def cmd_member(args) -> int:
    c = _class_id(args.cls)
    p = parse_diagram(args.partition)
    verdict = member(c, p)
    if args.pretty:
        print("true" if verdict else "false")
    else:
        _emit({"class": c.value, "partition": str(p), "member": verdict}, False)
    return EXIT_OK


def cmd_check_admissible(args) -> int:
    _check_legs(args.max_legs)
    _warn_legs(args.max_legs)
    family = family_from_json(_load_json_arg(args.family))
    report = check_admissible(family, args.max_legs)
    _emit(report.to_json(), args.pretty)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_closure(args) -> int:
    _check_legs(args.max_legs)
    _warn_legs(args.max_legs)
    obj = _load_json_arg(args.generators)
    diagrams = json_field(obj, "generators", "closure generators") if isinstance(obj, dict) else obj
    gens = [parse_diagram(json_expect(d, "a string", "generator"), DEFAULT_ALPHABET) for d in json_expect(diagrams, "a list", "generators")]
    result = sorted(closure_generate(gens, args.max_legs), key=lambda p: (p.n, str(p)))
    _emit({"max_legs": args.max_legs, "count": len(result), "partitions": [str(p) for p in result]}, args.pretty)
    return EXIT_OK


def cmd_classify(args) -> int:
    bc = BasicCoefficients.from_json(_load_json_arg(args.basic))
    got = classify_pattern(bc)
    if got is None:
        out = {"result": "none"}
    elif isinstance(got, Deformed):
        out = {"result": "deformed", "base": got.base, "zeta": {"re": got.zeta.real, "im": got.zeta.imag}}
    else:
        out = {"result": "class", "class": got.value}
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_hasse(args) -> int:
    _check_legs(args.max_legs)
    _warn_legs(args.max_legs)
    report = hasse_verify(args.max_legs)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(report.dot)
    _emit(report.to_json(), args.pretty)
    return EXIT_OK if report.ok else EXIT_FAILED


def _query_word(entries: list, factors: tuple) -> tuple:
    """The tagged word of a product query; every entry must name a factor
    by its 1-based index and one of that factor's generators."""
    word = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"word entry {json.dumps(entry)}: not an object")
        kappa, face, name = (json_field(entry, key, f"word entry {json.dumps(entry)}") for key in ("factor", "face", "name"))
        if type(kappa) is not int or not 1 <= kappa <= len(factors):
            raise ValueError(f"word entry {json.dumps(entry)}: factor must be an integer in 1..{len(factors)}")
        if (face, name) not in factors[kappa - 1].generators:
            raise ValueError(f"word entry {json.dumps(entry)}: not a generator of factor {kappa}")
        word.append((kappa, face, name))
    return tuple(word)


def cmd_product(args) -> int:
    query = json_expect(_load_json_arg(args.query), "an object", "product query")
    family = family_from_json(json_field(query, "family", "product query"))
    factors = tuple(table_from_json(t) for t in json_expect(json_field(query, "factors", "product query"), "a list", "factors"))
    word = _query_word(json_expect(json_field(query, "word", "product query"), "a list", "word"), factors)
    if args.combinatorial and family.kind != "class":
        raise ValueError("--combinatorial needs a class-indicator family")
    prod = Product(family, factors)
    if args.explain:
        expansion: list[dict] = []
        value = prod.moment(word, expansion)
        out = {
            "value": {"re": value.real, "im": value.imag},
            "expansion": [
                {
                    "partition": e["partition"],
                    "weight": {"re": complex(e["weight"]).real, "im": complex(e["weight"]).imag},
                    "contribution": {"re": complex(e["contribution"]).real, "im": complex(e["contribution"]).imag},
                }
                for e in expansion
            ],
        }
    else:
        value = prod.moment(word)
        out = {"value": {"re": value.real, "im": value.imag}}
    if args.combinatorial:
        cm = combinatorial_moment(family.class_id, factors, word)
        out["combinatorial"] = {"re": cm.real, "im": cm.imag}
        out["cross_check"] = abs(cm - value) <= EPS
        if not out["cross_check"]:
            _emit(out, args.pretty)
            return EXIT_FAILED
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _verify.run_suite(args.suite, seed=args.seed)
    for criterion in report["criteria"]:
        status = "PASS" if criterion["pass"] else "FAIL"
        print(f"{status} {criterion['criterion']} ({criterion['seconds']}s)", file=sys.stderr)
    _emit(report, args.pretty)
    return EXIT_OK if report["pass"] else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multifaced", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the partitions of a face word", parents=[common])
    p.add_argument("--word", required=True)
    p.add_argument("--class", dest="cls", default=None, help="restrict to one partition class")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("member", help="test class membership of one partition", parents=[common])
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--partition", required=True, help='diagram text, e.g. "wbwb/13|24"')
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("check-admissible", help="run the six-condition checker on a family", parents=[common])
    p.add_argument("--family", required=True, help="JSON descriptor (inline or a file path)")
    p.add_argument("--max-legs", type=int, default=6)
    p.set_defaults(fn=cmd_check_admissible)

    p = sub.add_parser("closure", help="generate the admissible set spanned by generators", parents=[common])
    p.add_argument("--generators", required=True, help='JSON: {"generators": ["www/13|2", ...]}')
    p.add_argument("--max-legs", type=int, default=6)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("classify", help="classify a basic-coefficient pattern", parents=[common])
    p.add_argument("--basic", required=True, help="JSON with nu_w, nu_b, nu_wb, xi_w, xi_b, xi_wb")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("hasse", help="verify the class containment diagram", parents=[common])
    p.add_argument("--max-legs", type=int, default=6)
    p.add_argument("--dot", default=None, help="write the diagram as DOT to this path")
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("product", help="evaluate a product moment from a JSON query", parents=[common])
    p.add_argument("--query", required=True)
    p.add_argument("--explain", action="store_true", help="include the partition expansion")
    p.add_argument("--combinatorial", action="store_true", help="cross-check the inclusion-exclusion route")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p.add_argument("--suite", default="all", choices=sorted(_verify.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (PartitionError, KeyError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
