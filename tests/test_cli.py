"""Command-line surface: flags, JSON I/O, exit codes, determinism."""

import json
import random

import pytest

from multifaced import cli
from multifaced.classify import BudgetExceeded
from multifaced.cli import main
from multifaced.cumulants import random_table, table_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--word", "wbb")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 5

    def test_class_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--word", "wbwb", "--class", "NC")
        data = json.loads(out)
        assert data["count"] == 14  # Catalan(4)

    def test_unknown_class(self, capsys):
        code, _, err = run(capsys, "enumerate", "--word", "wb", "--class", "XX")
        assert code == 1 and err.startswith("malformed input: unknown class 'XX'")


class TestMember:
    def test_true(self, capsys):
        code, out, _ = run(capsys, "member", "--class", "I", "--partition", "wb/1|2", "--pretty")
        assert code == 0 and out.strip() == "true"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "member", "--class", "biNC", "--partition", "wbwb/13|24")
        assert json.loads(out)["member"] is True

    def test_malformed_partition(self, capsys):
        code, _, err = run(capsys, "member", "--class", "I", "--partition", "wb/13")
        assert code == 1


class TestCheckAdmissible:
    def test_class_family_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check-admissible",
            "--family",
            '{"kind": "class", "class": "pNC"}',
            "--max-legs",
            "4",
        )
        assert code == 0 and json.loads(out)["pass"] is True

    def test_family_file(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"kind": "deformed", "base": "bifree", "zeta": {"re": 0, "im": 1}}))
        code, out, _ = run(capsys, "check-admissible", "--family", str(path), "--max-legs", "4")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_failing_family_exits_two(self, capsys):
        # a table family violating the two-leg condition
        from multifaced.partitions import all_words, enumerate_partitions

        entries = []
        for n in (1, 2):
            for word in all_words("wb", n):
                for p in enumerate_partitions(word):
                    value = 0.5 if (n == 2 and p.block_count == 2) else 1.0
                    entries.append({"partition": str(p), "value": {"re": value, "im": 0}})
        fam = {"kind": "table", "max_legs": 2, "entries": entries}
        code, out, _ = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "2")
        assert code == 2
        data = json.loads(out)
        assert data["pass"] is False and data["conditions"]["ii"] is not None

    def test_table_family_missing_entries(self, capsys):
        # an explicit table that stops at two legs cannot be checked at four
        from multifaced.partitions import partitions_upto

        entries = [{"partition": str(p), "value": 1} for p in partitions_upto(2)]
        fam = {"kind": "table", "max_legs": 2, "entries": entries}
        code, out, _ = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "2")
        assert code == 0 and json.loads(out)["pass"] is True
        code, out, err = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "4")
        assert code == 1 and out == "" and "table stops at 2" in err

    def test_partial_table_rejected(self, capsys):
        # a table that is not total up to its max_legs is malformed input
        fam = {"kind": "table", "max_legs": 2, "entries": [
            {"partition": "wb/12", "value": {"re": 1, "im": 0}},
        ]}
        code, out, err = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "2")
        assert code == 1 and out == "" and "malformed input: table has no entry for w/1" in err

    def test_readme_table_descriptor(self, capsys):
        fam = {"kind": "table", "max_legs": 1, "entries": [{"partition": "w/1", "value": 1}, {"partition": "b/1", "value": {"re": 1, "im": 0}}]}
        code, out, _ = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "1")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_wrong_shape_rejected(self, capsys):
        code, out, err = run(capsys, "check-admissible", "--family", "[1]")
        assert code == 1 and out == "" and "malformed input: weight family must be an object, got [1]" in err

    def test_foreign_face_rejected(self, capsys):
        # a table entry on a face other than w and b is malformed input
        fam = {"kind": "table", "max_legs": 1, "entries": [
            {"partition": "w/1", "value": 1}, {"partition": "b/1", "value": 1}, {"partition": "x/1", "value": 5},
        ]}
        code, out, err = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "1")
        assert code == 1 and out == "" and err.startswith("malformed input: faces ['x']")

    def test_pretty_is_the_same_object(self, capsys):
        argv = ("check-admissible", "--family", '{"kind": "deformed", "base": "free", "zeta": {"angle": 1}}', "--max-legs", "4")
        code, compact, _ = run(capsys, *argv)
        pretty_code, pretty, _ = run(capsys, *argv, "--pretty")
        assert code == pretty_code == 0 and pretty != compact
        assert json.loads(pretty) == json.loads(compact)

    def test_boolean_max_legs_rejected(self, capsys):
        # JSON true is no integer, though Python reads it as 1
        fam = {"kind": "table", "max_legs": True, "entries": [{"partition": "w/1", "value": 1}, {"partition": "b/1", "value": 1}]}
        code, out, err = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "1")
        assert code == 1 and out == "" and err == "malformed input: max_legs must be an integer, got true\n"

    def test_nan_zeta_rejected(self, capsys):
        fam = '{"kind": "deformed", "base": "tensor", "zeta": {"re": NaN, "im": 0}}'
        code, out, err = run(capsys, "check-admissible", "--family", fam, "--max-legs", "3")
        assert code == 1 and out == "" and "malformed input" in err

    @pytest.mark.parametrize(
        "fam, message",
        [
            ({"class": "NC"}, "weight family has no key 'kind'"),
            ({"kind": "class"}, "class weight family has no key 'class'"),
            ({"kind": "deformed", "base": "free"}, "deformed weight family has no key 'zeta'"),
            ({"kind": "deformed", "zeta": 1}, "deformed weight family has no key 'base'"),
            ({"kind": "table", "entries": []}, "table weight family has no key 'max_legs'"),
            ({"kind": "table", "max_legs": 1, "entries": [{"partition": "w/1"}]}, "table entry w/1 has no key 'value'"),
            ({"kind": "table", "max_legs": 1, "entries": [{"value": 1}]}, "table entry has no key 'partition'"),
        ],
        ids=["kind", "class", "zeta", "base", "max_legs", "value", "partition"],
    )
    def test_missing_key_rejected(self, capsys, fam, message):
        code, out, err = run(capsys, "check-admissible", "--family", json.dumps(fam), "--max-legs", "1")
        assert code == 1 and out == "" and err == f"malformed input: {message}\n"


class TestClosure:
    def test_interval_closure(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--generators", '{"generators": []}', "--max-legs", "3"
        )
        data = json.loads(out)
        assert code == 0
        # interval partitions with <= 3 legs over two faces: 2 + 8 + 32
        assert data["count"] == 42

    def test_wrong_shape_rejected(self, capsys):
        code, out, err = run(capsys, "closure", "--generators", '{"generators": [1]}')
        assert code == 1 and out == "" and "malformed input: generator must be a string, got 1" in err

    def test_foreign_face_rejected(self, capsys):
        gens = '{"generators": ["xx/12", "wxw/13|2"]}'
        code, out, err = run(capsys, "closure", "--generators", gens, "--max-legs", "3")
        assert code == 1 and out == "" and err.startswith("malformed input: faces ['x']")

    def test_budget_exceeded_exits_three(self, capsys, monkeypatch):
        def over_budget(*args, **kwargs):
            raise BudgetExceeded("closure exceeded 5 partitions")

        monkeypatch.setattr(cli, "closure_generate", over_budget)
        code, out, err = run(capsys, "closure", "--generators", '{"generators": []}', "--max-legs", "3")
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded: closure exceeded 5 partitions")


class TestClassify:
    def test_binc_pattern(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--basic",
            '{"nu_w":1,"nu_b":1,"nu_wb":0,"xi_w":0,"xi_b":0,"xi_wb":1}',
        )
        assert code == 0 and json.loads(out) == {"result": "class", "class": "biNC"}

    def test_deformed(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--basic",
            '{"nu_w":1,"nu_b":1,"nu_wb":{"re":0,"im":-1},"xi_w":1,"xi_b":1,"xi_wb":{"re":0,"im":-1}}',
        )
        data = json.loads(out)
        assert data["result"] == "deformed" and data["base"] == "tensor"
        assert abs(data["zeta"]["im"] - 1.0) < 1e-9

    def test_none(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--basic",
            '{"nu_w":0,"nu_b":1,"nu_wb":1,"xi_w":0,"xi_b":0,"xi_wb":0}',
        )
        assert json.loads(out) == {"result": "none"}

    def test_nan_rejected(self, capsys):
        code, out, err = run(
            capsys,
            "classify",
            "--basic",
            '{"nu_w":NaN,"nu_b":1,"nu_wb":0,"xi_w":0,"xi_b":0,"xi_wb":1}',
        )
        assert code == 1 and out == "" and "malformed input" in err

    def test_huge_integer_rejected(self, capsys):
        # an integer literal too large for a float cannot become a coefficient
        basic = '{"nu_w":1%s,"nu_b":1,"nu_wb":0,"xi_w":0,"xi_b":0,"xi_wb":1}' % ("0" * 400)
        code, out, err = run(capsys, "classify", "--basic", basic)
        assert code == 1 and out == "" and "malformed input" in err

    def test_pretty_is_the_same_object(self, capsys):
        basic = '{"nu_w":1,"nu_b":1,"nu_wb":{"re":0,"im":-1},"xi_w":0,"xi_b":0,"xi_wb":0}'
        code, compact, _ = run(capsys, "classify", "--basic", basic)
        pretty_code, pretty, _ = run(capsys, "classify", "--basic", basic, "--pretty")
        assert code == pretty_code == 0 and pretty != compact
        assert json.loads(pretty) == json.loads(compact) and json.loads(compact)["base"] == "free"

    def test_boolean_coefficients_rejected(self, capsys):
        # JSON true is no number, though Python reads it as 1
        basic = json.dumps({key: True for key in ("nu_w", "nu_b", "nu_wb", "xi_w", "xi_b", "xi_wb")})
        code, out, err = run(capsys, "classify", "--basic", basic)
        assert code == 1 and out == "" and err.startswith("malformed input: nu_w must be a number") and "got true" in err

    def test_unknown_complex_key_rejected(self, capsys):
        # a misspelled "im" is not read as an absent one, which would be 0
        basic = '{"nu_w":1,"nu_b":1,"nu_wb":{"re":0,"imag":1},"xi_w":0,"xi_b":0,"xi_wb":{"re":0,"imag":1}}'
        code, out, err = run(capsys, "classify", "--basic", basic)
        assert code == 1 and out == "" and err.startswith("malformed input: nu_wb must be a number") and '"imag": 1' in err

    def test_wrong_shape_rejected(self, capsys):
        code, out, err = run(capsys, "classify", "--basic", "[1]")
        assert code == 1 and out == "" and "malformed input: basic coefficients must be an object, got [1]" in err

    def test_missing_key_rejected(self, capsys):
        code, out, err = run(capsys, "classify", "--basic", '{"nu_w":1}')
        assert code == 1 and out == "" and err == "malformed input: basic coefficients has no key 'nu_b'\n"


class TestHasse:
    def test_writes_dot(self, capsys, tmp_path):
        dot = tmp_path / "h.dot"
        code, out, _ = run(capsys, "hasse", "--max-legs", "4", "--dot", str(dot))
        assert code == 0
        data = json.loads(out)
        assert len(data["edges"]) == 17 and data["violations"] == []
        assert dot.read_text().startswith("digraph hasse {")


class TestMaxLegs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check-admissible", "--family", '{"kind": "class", "class": "I"}'),
            ("closure", "--generators", '{"generators": []}'),
            ("hasse",),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("legs", ["0", "-3"])
    def test_below_one_rejected(self, capsys, argv, legs):
        code, out, err = run(capsys, *argv, "--max-legs", legs)
        assert code == 1 and out == ""
        assert f"malformed input: --max-legs must be at least 1, got {legs}" in err


def make_query(tmp_path):
    r = random.Random(5)
    ga = (("w", "a1w"), ("b", "a2b"), ("w", "a3w"))
    gb = (("b", "b1b"), ("b", "b2b"))
    phi, psi = random_table(ga, 5, r), random_table(gb, 5, r)
    query = {
        "family": {"kind": "class", "class": "NCwAb"},
        "factors": [table_to_json(phi), table_to_json(psi)],
        "word": [
            {"factor": 1, "face": "w", "name": "a1w"},
            {"factor": 2, "face": "b", "name": "b1b"},
            {"factor": 1, "face": "b", "name": "a2b"},
            {"factor": 1, "face": "w", "name": "a3w"},
            {"factor": 2, "face": "b", "name": "b2b"},
        ],
    }
    path = tmp_path / "query.json"
    path.write_text(json.dumps(query))
    return path, phi, psi


class TestProduct:
    def test_value_and_combinatorial(self, capsys, tmp_path):
        path, phi, psi = make_query(tmp_path)
        code, out, _ = run(capsys, "product", "--query", str(path), "--combinatorial")
        assert code == 0
        data = json.loads(out)
        assert data["cross_check"] is True
        a12 = phi.value((("w", "a1w"), ("b", "a2b")))
        a3 = phi.value((("w", "a3w"),))
        a123 = phi.value((("w", "a1w"), ("b", "a2b"), ("w", "a3w")))
        b12 = psi.value((("b", "b1b"), ("b", "b2b")))
        b1 = psi.value((("b", "b1b"),))
        b2 = psi.value((("b", "b2b"),))
        want = a12 * a3 * b12 + a123 * b1 * b2 - a12 * a3 * b1 * b2
        assert abs(complex(data["value"]["re"], data["value"]["im"]) - want) < 1e-9

    def test_combinatorial_needs_class_family(self, capsys, tmp_path, monkeypatch):
        # rejected before any moment is computed
        path, _, _ = make_query(tmp_path)
        query = json.loads(path.read_text())
        query["family"] = {"kind": "deformed", "base": "tensor", "zeta": {"re": 0, "im": 1}}
        path.write_text(json.dumps(query))

        def refuse(*args, **kwargs):
            raise AssertionError("computed a moment")

        monkeypatch.setattr(cli.Product, "moment", refuse)
        code, out, err = run(capsys, "product", "--query", str(path), "--combinatorial")
        assert code == 1 and out == ""
        assert err.startswith("malformed input: --combinatorial needs a class-indicator family")

    def test_failed_cross_check_exits_two(self, capsys, tmp_path, monkeypatch):
        path, _, _ = make_query(tmp_path)
        moment = cli.combinatorial_moment
        monkeypatch.setattr(cli, "combinatorial_moment", lambda *args: moment(*args) + 1)
        code, out, _ = run(capsys, "product", "--query", str(path), "--combinatorial")
        data = json.loads(out)
        assert code == 2 and data["cross_check"] is False
        combinatorial = complex(data["combinatorial"]["re"], data["combinatorial"]["im"])
        assert abs(combinatorial - complex(data["value"]["re"], data["value"]["im"]) - 1) < 1e-9

    @pytest.mark.parametrize("copies", [1, 2])
    def test_foreign_face_rejected(self, capsys, copies):
        # the word "x a, w c" repeated; both lengths are rejected before
        # any moment is computed
        x = {"degree_bound": 4, "generators": [{"face": "x", "name": "a"}],
             "values": [{"word": [["x", "a"]] * k, "value": 0.5} for k in range(1, 5)]}
        w = {"degree_bound": 4, "generators": [{"face": "w", "name": "c"}],
             "values": [{"word": [["w", "c"]] * k, "value": 0.5} for k in range(1, 5)]}
        word = [{"factor": 1, "face": "x", "name": "a"}, {"factor": 2, "face": "w", "name": "c"}] * copies
        query = {"family": {"kind": "class", "class": "NC"}, "factors": [x, w], "word": word}
        code, out, err = run(capsys, "product", "--query", json.dumps(query))
        assert code == 1 and out == ""
        assert err.startswith("malformed input: faces ['x'] not in alphabet ('w', 'b')")

    def test_explain(self, capsys, tmp_path):
        path, _, _ = make_query(tmp_path)
        code, out, _ = run(capsys, "product", "--query", str(path), "--explain")
        data = json.loads(out)
        assert code == 0 and len(data["expansion"]) == 10

    def test_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        code, _, err = run(capsys, "product", "--query", str(path))
        assert code == 1

    def test_wrong_shape_query_rejected(self, capsys):
        code, out, err = run(capsys, "product", "--query", "[1]")
        assert code == 1 and out == "" and "malformed input: product query must be an object, got [1]" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda q: q.pop("family"), "product query has no key 'family'"),
            (lambda q: q["factors"][0].pop("degree_bound"), "table has no key 'degree_bound'"),
            (lambda q: q["word"][0].pop("name"), """word entry {"factor": 1, "face": "w"} has no key 'name'"""),
        ],
        ids=["family", "degree_bound", "name"],
    )
    def test_missing_key_rejected(self, capsys, tmp_path, change, message):
        path, _, _ = make_query(tmp_path)
        query = json.loads(path.read_text())
        change(query)
        code, out, err = run(capsys, "product", "--query", json.dumps(query))
        assert code == 1 and out == "" and err == f"malformed input: {message}\n"

    def test_wrong_shape_factor_rejected(self, capsys, tmp_path):
        path, _, _ = make_query(tmp_path)
        query = json.loads(path.read_text())
        query["factors"] = [[1]]
        path.write_text(json.dumps(query))
        code, out, err = run(capsys, "product", "--query", str(path))
        assert code == 1 and out == "" and "malformed input: table must be an object, got [1]" in err

    def test_infinite_table_value_rejected(self, capsys, tmp_path):
        path, _, _ = make_query(tmp_path)
        query = json.loads(path.read_text())
        query["factors"][0]["values"][0]["value"]["re"] = "INF"
        path.write_text(json.dumps(query).replace('"INF"', "Infinity"))
        code, out, err = run(capsys, "product", "--query", str(path))
        assert code == 1 and out == "" and "malformed input" in err

    def test_missing_table_value_rejected(self, capsys, tmp_path):
        path, _, _ = make_query(tmp_path)
        query = json.loads(path.read_text())
        missing = query["factors"][1]["values"].pop(3)["word"]
        path.write_text(json.dumps(query))
        code, out, err = run(capsys, "product", "--query", str(path))
        assert code == 1 and out == "" and "malformed input" in err and json.dumps(missing) in err


    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"factor": 0, "face": "w", "name": "a1w"}, "factor must be an integer in 1..2"),
            ({"factor": 3, "face": "w", "name": "a1w"}, "factor must be an integer in 1..2"),
            ({"factor": 2, "face": "w", "name": "a1w"}, "not a generator of factor 2"),
            ([1, "b", "a2b"], "not an object"),
        ],
        ids=["factor-0", "factor-past-last", "foreign-generator", "not-an-object"],
    )
    def test_malformed_word_entry_rejected(self, capsys, tmp_path, entry, reason):
        path, _, _ = make_query(tmp_path)
        query = json.loads(path.read_text())
        query["word"][2] = entry
        path.write_text(json.dumps(query))
        code, out, err = run(capsys, "product", "--query", str(path))
        assert code == 1 and out == ""
        assert "malformed input" in err and json.dumps(entry) in err and reason in err


class TestVerifyCommand:
    @pytest.mark.slow
    def test_classification_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "classification", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert err.count("PASS") == len(data["criteria"]) == 4

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--word", "wbwb", "--class", "pNC")
        _, out2, _ = run(capsys, "enumerate", "--word", "wbwb", "--class", "pNC")
        assert out1 == out2


class TestStdinAndWarnings:
    def test_family_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"kind": "class", "class": "I"}'))
        code, out, _ = run(capsys, "check-admissible", "--family", "-", "--max-legs", "3")
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.slow
    def test_large_sweep_warns(self, capsys):
        code, _, err = run(
            capsys, "check-admissible", "--family", '{"kind": "class", "class": "I"}',
            "--max-legs", "7",
        )
        assert code == 0 and "warning" in err
