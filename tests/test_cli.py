import json
import random
import sys
from pathlib import Path

import pytest

from maxplus import cli, digraph, expand, matrix_power, tropical
from maxplus.cli import (
    MatrixFormatError,
    dump_expansion,
    load_expansion,
    matrix_digest,
    parse_matrix,
    parse_value_token,
    run_command,
    serialize_matrix,
)
from maxplus.oracle import random_matrix
from fixtures import demo_matrix

FIXTURES = Path(__file__).parent.parent / "fixtures"
DEMO_DENSE = str(FIXTURES / "demo10-dense.mpx")
DEMO_SPARSE = str(FIXTURES / "demo10-sparse.mpx")
ONE = str(FIXTURES / "one.mpx")
# 10^5000, past the 4,300 decimal digits that int() and str() take by default.
HUGE_DIGITS = "1" + "0" * 5000
HUGE_TEXT = f"1\n{HUGE_DIGITS}\n"


class TestValueTokens:
    def test_epsilon_spellings(self):
        assert parse_value_token(".") is None
        assert parse_value_token("-inf") is None

    def test_integers_and_rationals(self):
        assert parse_value_token("-7") == -7
        assert parse_value_token("3/4") == parse_value_token("6/8")

    @pytest.mark.parametrize("bad", ["1.5", "x", "3/", "/4", "3/-2", "1e3", "inf"])
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(MatrixFormatError):
            parse_value_token(bad)


class TestMatrixFiles:
    def test_shipped_fixtures_agree(self):
        dense = parse_matrix(Path(DEMO_DENSE).read_text())
        sparse = parse_matrix(Path(DEMO_SPARSE).read_text())
        assert dense == sparse == demo_matrix()

    def test_dense_round_trip(self):
        a = demo_matrix()
        assert parse_matrix(serialize_matrix(a)) == a

    def test_sparse_round_trip(self):
        rng = random.Random(127)
        for _ in range(10):
            a = random_matrix(rng, rng.randint(1, 6), 0.5)
            lines = [f"{a.rows} {a.finite_count}"]
            lines += [f"{i + 1} {j + 1} {v}" for (i, j), v in sorted(a.entries.items())]
            assert parse_matrix("\n".join(lines) + "\n") == a

    def test_canonical_dense_is_stable(self):
        a = demo_matrix()
        once = serialize_matrix(a)
        assert serialize_matrix(parse_matrix(once)) == once

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 2\n",  # missing row
            "2\n1 2 3\n4 5\n",  # ragged
            "2 1\n3 1 5\n",  # sparse index out of range
            "2 2\n1 1 5\n1 1 6\n",  # duplicate entry
            "2 1\n1 1 .\n",  # sparse entries must be finite
            "1 2 3\nx\n",  # bad header
            "1\n\u0663\n",  # a non-ASCII digit as a value
            "\u0662\n1 2\n3 4\n",  # ... as the dimension
            "2 1\n\u0661 1 5\n",  # ... as an index
            "1\n1/\u00b2\n",  # a superscript denominator
            "2 1\n1 1_0 5\n",  # int() would take the underscore
            "2 2\n1 1 5\n",  # fewer entry lines than the header's m
            "2 1\n1 1 5\n2 2 6\n",  # more entry lines than the header's m
            "0\n",  # a dense matrix of dimension 0
            "0 0\n",  # a sparse one
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(MatrixFormatError):
            parse_matrix(text)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on decimal digits"
    )
    def test_values_past_the_digit_limit_are_bad_input(self):
        # Called directly, under the interpreter's default limit, the readers
        # report a too-long value as a format error (run_command lifts it).
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(MatrixFormatError):
                parse_matrix(HUGE_TEXT)
            with pytest.raises(MatrixFormatError):
                parse_value_token("1/" + HUGE_DIGITS)
            with pytest.raises(MatrixFormatError):
                cli._parse_count(HUGE_DIGITS, "exponent")
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on decimal digits"
    )
    def test_writers_take_values_of_any_length(self):
        # Called directly, under the interpreter's default limit, the
        # writers still write a too-long value whole, and leave the limit
        # as they found it.
        big = tropical.TropicalMatrix(1, 1, {(0, 0): 10**5000})
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = serialize_matrix(big)
            grid = cli.matrix_grid(big)
            doc = dump_expansion(expand(big))
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        assert text == HUGE_TEXT
        assert grid == HUGE_DIGITS
        assert doc["terms"][0]["rate"] == HUGE_DIGITS
        assert doc["terms"][0]["C"]["entries"] == [[1, 1, "0"]]


class TestExpansionDocument:
    def test_round_trip_evaluates_identically(self):
        a = demo_matrix()
        x = expand(a)
        doc = dump_expansion(x, input_digest=matrix_digest(a))
        loaded = load_expansion(json.loads(json.dumps(doc)))
        rng = random.Random(131)
        for _ in range(10):
            t = rng.randint(x.threshold, x.threshold + 400)
            assert loaded.evaluate(t) == x.evaluate(t)

    def test_reduced_round_trip(self):
        a = demo_matrix()
        x = expand(a, reduce_by_cyclicity=True)
        loaded = load_expansion(dump_expansion(x))
        assert loaded.evaluate(220) == x.evaluate(220)

    @pytest.mark.parametrize("reduce", [False, True], ids=["plain", "reduced"])
    @pytest.mark.parametrize("name", ["demo10-dense.mpx", "demo10-sparse.mpx", "one.mpx"])
    def test_expansion_equals_its_document(self, name, reduce):
        x = expand(parse_matrix((FIXTURES / name).read_text()), reduce_by_cyclicity=reduce)
        assert load_expansion(json.loads(json.dumps(dump_expansion(x)))) == x

    def test_bad_documents_rejected(self):
        with pytest.raises(MatrixFormatError):
            load_expansion({"format": "something-else"})
        doc = dump_expansion(expand(demo_matrix()))
        doc["terms"][0]["C"]["rows"] = 4  # inconsistent block dimension
        with pytest.raises(MatrixFormatError):
            load_expansion(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            (("n",), 10.9),
            (("n",), "10"),
            (("threshold",), "200"),
            (("threshold",), True),
            (("terms", 0, "group"), 1.0),
            (("terms", 0, "nodes", 0), "1"),
            (("terms", 0, "circuit", "nodes", 0), 0),
            (("terms", 0, "classes", 0, 0), 11),
            (("terms", 0, "C", "rows"), 10.0),
            (("terms", 0, "C", "entries", 0, 0), True),
            (("terms", 0, "C", "entries", 0, 0), 1.9),
            (("terms", 0, "C", "entries", 0, 1), 3),
            (("terms", 0, "C", "entries", 1), [1, 1, "999"]),
            (("terms", 0, "C", "entries", 0, 2), "."),
            (("terms", 0, "C", "entries", 0, 2), 0),
            (("terms", 0, "reduced"), "false"),
            (("terms", 0, "reduced"), 1),
            (("terms", 0, "scaling"), ["0"]),
            (("terms", 0, "scaling", 0), "."),
            (("terms", 0, "classes"), [[1, 2]]),
            (("terms", 0, "nodes", 1), 1),
            (("terms", 0, "group"), 0),
            (("terms", 1, "circuit", "nodes", 0), 1),
            (("terms", 2, "group"), 2),
            (("terms", 2, "classes", 0), [1]),
            ((), {"n": 0, "threshold": 0, "terms": []}),
            (("terms", 0, "C", "entries", 0), [1, 1]),
        ],
    )
    def test_document_grammar_is_strict(self, field, value):
        # Counts and indices are JSON integers (not bools), values are
        # strings, each cell of a block appears once and in range, and
        # reduced is a JSON boolean.  A term agrees with itself: one finite
        # scaling value per node, one class per factor index, distinct
        # nodes holding the circuit's and the classes' members, a group
        # from 1 on, and groups increase from term to term.  The order is
        # 1 or more.  Anything else is a format error.  An empty field
        # replaces top-level fields of the document.
        doc = dump_expansion(expand(demo_matrix(), reduce_by_cyclicity=True))
        load_expansion(json.loads(json.dumps(doc)))  # the untouched document loads
        target = doc
        for key in field[:-1]:
            target = target[key]
        if field:
            target[field[-1]] = value
        else:
            doc.update(value)
        with pytest.raises(MatrixFormatError):
            load_expansion(doc)

    @pytest.mark.parametrize("threshold", [3, 199, 201])
    def test_threshold_other_than_2n2_rejected(self, threshold):
        # evaluate(t) is the t-th power from 2 n^2 on, whatever a document says.
        doc = dump_expansion(expand(demo_matrix()))
        doc["threshold"] = threshold
        with pytest.raises(MatrixFormatError, match="threshold"):
            load_expansion(doc)

    @pytest.mark.parametrize(
        "reduce, change",
        [
            (False, lambda term: term.update(reduced=True)),
            (True, lambda term: term.update(reduced=False)),
            (True, lambda term: term.pop("reduced")),
        ],
        ids=["reduced-without-classes", "classes-not-reduced", "classes-reduced-missing"],
    )
    def test_reduced_must_agree_with_classes(self, reduce, change):
        doc = dump_expansion(expand(demo_matrix(), reduce_by_cyclicity=reduce))
        change(doc["terms"][0])
        with pytest.raises(MatrixFormatError, match="reduced"):
            load_expansion(doc)

    def test_acyclic_document_loses_the_naive_fallback(self):
        # A loaded empty expansion has no source matrix: every power from
        # the order upward is all-bottom either way, and below the order it
        # answers all-bottom too (documented in docs/expansion-format.md).
        from maxplus import TropicalMatrix

        a = parse_matrix("2\n. 1\n. .\n")
        x = expand(a)
        loaded = load_expansion(dump_expansion(x))
        assert loaded.evaluate(8) == x.evaluate(8) == TropicalMatrix.epsilon(2)
        assert x.evaluate(1) == a
        assert loaded.evaluate(1) == TropicalMatrix.epsilon(2)


class TestCommands:
    def test_roots_output(self, capsys):
        assert run_command(["roots", DEMO_DENSE]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:7] == [
            "8 (x2)",
            "7 (x1)",
            "6 (x1)",
            "4 (x1)",
            "3 (x3)",
            "0 (x1)",
            "-inf (x1)",
        ]
        assert any("M_6" in line for line in out)

    def test_power_one_by_one(self, capsys):
        assert run_command(["power", ONE, "5"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "20"]

    def test_power_naive_and_csr_agree(self, capsys):
        assert run_command(["power", DEMO_SPARSE, "200", "--naive"]) == 0
        naive_out = capsys.readouterr().out
        assert run_command(["power", DEMO_SPARSE, "200", "--csr"]) == 0
        csr_out = capsys.readouterr().out
        assert naive_out == csr_out
        assert parse_matrix(naive_out) == matrix_power(demo_matrix(), 200)

    def test_power_huge_exponent(self, capsys):
        assert run_command(["power", ONE, str(10**30)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == str(4 * 10**30)

    def test_verify_matches(self, capsys):
        assert run_command(["verify", DEMO_DENSE, "--t-range", "200..210"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_reports_mismatch(self, capsys, monkeypatch):
        import maxplus.cli as cli

        real_expand = cli.expand

        def corrupted(a, **kwargs):
            from dataclasses import replace

            x = real_expand(a, **kwargs)
            bumped = replace(x.terms[0], rate=x.terms[0].rate + 1)
            return cli.CsrExpansion(n=x.n, terms=(bumped,) + x.terms[1:])

        monkeypatch.setattr(cli, "expand", corrupted)
        assert run_command(["verify", DEMO_DENSE, "--t-range", "200..203", "--seed", "9"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "t = 200" in out and "seed 9" in out

    def test_expand_json_digest(self, capsys):
        assert run_command(["expand", DEMO_DENSE, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 10 and doc["threshold"] == 200
        assert doc["input_digest"] == matrix_digest(demo_matrix())
        assert len(doc["terms"]) == 3

    def test_expand_human_readable(self, capsys):
        assert run_command(["expand", DEMO_DENSE]) == 0
        out = capsys.readouterr().out
        assert "term 1: rate = 8, circuit = (1,2,1)" in out

    def test_expand_reduce_flag(self, capsys):
        assert run_command(["expand", DEMO_DENSE, "--reduce", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(term["reduced"] for term in doc["terms"])

    def test_visualize_output(self, capsys):
        assert run_command(["visualize", DEMO_DENSE]) == 0
        out = capsys.readouterr().out
        assert "group 3: nodes (6,7,8,9,10), rate = 3" in out
        assert "d = (0, -3, -3, -2, -4)" in out

    def test_eigen_output(self, capsys):
        assert run_command(["eigen", DEMO_DENSE]) == 0
        out = capsys.readouterr().out
        assert "eigenvalue = 8" in out
        assert "critical nodes: 1, 2" in out

    def test_eigen_runs_karp_and_the_closure_once(self, monkeypatch, capsys):
        calls = {"karp": 0, "closure": 0}

        def counting(key, real):
            def wrapped(*args):
                calls[key] += 1
                return real(*args)

            return wrapped

        # Every module binding of the two routines is counted.
        for module in (cli, digraph, tropical):
            for key, name in (("karp", "karp_max_cycle_mean"), ("closure", "_max_plus_closure")):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        assert run_command(["eigen", DEMO_DENSE]) == 0
        assert calls == {"karp": 1, "closure": 1}

    def test_eigen_acyclic_is_a_domain_error(self, tmp_path, capsys):
        f = tmp_path / "acyclic.mpx"
        f.write_text("2\n. 1\n. .\n")
        assert run_command(["eigen", str(f)]) == 2
        assert "no finite eigenvalue" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run_command(["roots", "/nonexistent/zzz.mpx"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_matrix_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.mpx"
        f.write_text("2\n1 2\n")
        assert run_command(["roots", str(f)]) == 2
        assert "bad input" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["roots", DEMO_DENSE, "--frobnicate"]) == 2

    def test_bad_t_range_exits_2(self, capsys):
        assert run_command(["verify", DEMO_DENSE, "--t-range", "5"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", ONE, "\u0663"],
            ["power", ONE, "1_0"],
            ["power", ONE, "-3"],
            ["verify", DEMO_DENSE, "--t-range", "\u0661..\u0662"],
            ["verify", DEMO_DENSE, "--t-range", "3..2"],
        ],
    )
    def test_bad_counts_are_bad_input(self, argv, capsys):
        assert run_command(argv) == 2
        assert "bad input" in capsys.readouterr().err

    def test_superscript_denominator_is_bad_input(self, tmp_path, capsys):
        f = tmp_path / "bad.mpx"
        f.write_text("1\n1/\u00b2\n", encoding="utf-8")
        assert run_command(["roots", str(f)]) == 2
        assert "bad input" in capsys.readouterr().err

    def test_values_of_any_length(self, tmp_path, capsys):
        # A 1x1 matrix with the entry 10^5000: its root, and its cube
        # 3 * 10^5000, cross both file formats exactly; the interpreter's
        # digit limit is back in force afterwards.
        f = tmp_path / "huge.mpx"
        f.write_text(HUGE_TEXT)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run_command(["roots", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            f"{HUGE_DIGITS} (x1)\n"
            "mmcs:\n"
            "  M_0 = {}  (length 0, weight 0)\n"
            f"  M_1 = {{(1,1)}}  (length 1, weight {HUGE_DIGITS})\n"
        )
        assert run_command(["power", str(f), "3"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("1\n3" + HUGE_DIGITS[1:] + "\n", "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_acyclic_expand_mentions_empty(self, tmp_path, capsys):
        f = tmp_path / "acyclic.mpx"
        f.write_text("2\n. 1\n. .\n")
        assert run_command(["expand", str(f)]) == 0
        assert "acyclic" in capsys.readouterr().out

    def test_acyclic_visualize_has_no_groups(self, tmp_path, capsys):
        f = tmp_path / "acyclic.mpx"
        f.write_text("2\n. 1\n. .\n")
        assert run_command(["visualize", str(f)]) == 0
        assert capsys.readouterr().out == "acyclic matrix: nothing to visualize\n"


def test_console_entry_point_runs():
    import os
    import subprocess
    import sys

    import maxplus

    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(maxplus.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "maxplus", "roots", DEMO_DENSE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("8 (x2)")
