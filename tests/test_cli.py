import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

from pbsym import bench
from pbsym import breaker
from pbsym import checker
from pbsym import cli
from pbsym import parsing

import oracle
import render

DATA = pathlib.Path(__file__).parent / "data"


def golden_pair(tmp_path):
    return str(DATA / "php32.opb"), str(DATA / "php32_lex.pbp")


def sym_file(tmp_path, text="(x1 x3)(x2 x4)\n"):
    p = tmp_path / "syms.txt"
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------- check

def test_check_accepts_golden(tmp_path, capsys):
    formula, proof = golden_pair(tmp_path)
    assert cli.main(["check", formula, proof]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED-DERIVATION" in out


def test_check_json_schema(tmp_path, capsys):
    formula, proof = golden_pair(tmp_path)
    assert cli.main(["check", formula, proof, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == cli.REPORT_SCHEMA
    assert payload["verdict"] == "VERIFIED-DERIVATION"
    assert payload["counters"]["spec_materializations"] == 88
    assert payload["counters"]["proof_bytes"] > 0
    assert set(payload["timings"]) == {"parse_s", "check_s"}


def test_check_rejects_corrupted_proof(tmp_path, capsys):
    formula, proof = golden_pair(tmp_path)
    text = pathlib.Path(proof).read_text().replace(
        "rup +1 $d5 >= 1 : -1;", "rup +1 $d5 >= 2 : -1;", 1)
    bad = tmp_path / "bad.pbp"
    bad.write_text(text)
    assert cli.main(["check", formula, str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "REJECTED"
    assert "line" in payload["error"]


def test_check_missing_file_is_io_error(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "nope.opb"),
                     str(tmp_path / "nope.pbp")]) == 2
    assert "error:" in capsys.readouterr().err


def _non_utf8(tmp_path, name):
    p = tmp_path / name
    p.write_bytes(b"\xff\xfe\x00")
    return str(p)


@pytest.mark.parametrize("which", ["formula", "proof"])
def test_check_non_utf8_input_is_io_error(tmp_path, capsys, which):
    formula, proof = golden_pair(tmp_path)
    if which == "formula":
        formula = _non_utf8(tmp_path, "bin.opb")
    else:
        proof = _non_utf8(tmp_path, "bin.pbp")
    assert cli.main(["check", formula, proof]) == 2
    err = capsys.readouterr().err
    bad = formula if which == "formula" else proof
    assert err.startswith("error: %s is not UTF-8 text" % bad)
    assert "Traceback" not in err


def test_check_trace_goes_to_stderr(tmp_path, capsys):
    formula, proof = golden_pair(tmp_path)
    assert cli.main(["check", formula, proof, "--trace"]) == 0
    assert "trace:" in capsys.readouterr().err


def test_check_trace_prints_notes_before_a_rejection(tmp_path, capsys):
    # the last red fails at its goal `self` after the goals of both reds
    # before it were discharged; their notes are what a user reads then
    formula, proof = tmp_path / "f.opb", tmp_path / "p.pbp"
    formula.write_text("+1 x1 +1 x2 >= 1 ;\n")
    proof.write_text(parsing.HEADER + "\n"
                     "red +1 x3 >= 1 : x3 -> 1;\n"
                     "red +1 x1 >= 1 : x1 -> 0;\n")
    assert cli.main(["check", str(formula), str(proof), "--trace"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["trace: goal self: tautology",
                                         "trace: goal 1: rup"]
    assert "verdict: REJECTED" in captured.out
    assert "goal:self reason:undischarged-goal" in captured.out


# step 2 (line 3) fails its RUP; line 5 is malformed
REJECTED_THEN_MALFORMED = (parsing.HEADER + "\n"
                           "rup +1 x1 +1 x2 >= 1;\n"
                           "rup +1 x1 >= 1;\n"
                           "pol 1 2 +;\n"
                           "rup +1 ~~x1 >= 1;\n")


def test_stream_is_checked_before_it_is_read_to_the_end():
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    doc = {"header": parsing.HEADER,
           "steps": parsing.iter_proof(REJECTED_THEN_MALFORMED)}
    with pytest.raises(checker.CheckError) as e:
        checker.Checker(formula).run(doc)
    assert (e.value.line, e.value.reason) == (3, "rup-failed")
    # the rest of the stream is still there to be read
    with pytest.raises(parsing.ParseError) as e:
        list(doc["steps"])
    assert e.value.line == 5


@pytest.mark.parametrize("flags", [[], ["--trace"], ["--json"]])
def test_malformed_line_below_a_rejected_step_is_a_parse_error(
        tmp_path, capsys, flags):
    formula, proof = tmp_path / "f.opb", tmp_path / "p.pbp"
    formula.write_text("+1 x1 +1 x2 >= 1 ;\n")
    proof.write_text(REJECTED_THEN_MALFORMED)
    assert cli.main(["check", str(formula), str(proof)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 5: literal '~~x1' has more than "
                            "one leading '~'\n")


def test_stray_end_line_does_not_end_the_proof(tmp_path, capsys):
    # `end scope;` at top level ended the proof, so the failing rup below
    # it was never read and the proof was verified
    formula, proof = DATA / "end_stray.opb", DATA / "end_stray.pbp"
    assert cli.main(["check", str(formula), str(proof)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
    lines = proof.read_text().splitlines()
    assert lines[1] == "end scope;"
    control = tmp_path / "control.pbp"
    control.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    rc, payload = _check_files(capsys, formula, control)
    assert rc == 1
    assert payload["error"].startswith("line:2 goal:- reason:rup-failed")


def test_check_reads_a_multiplier_past_the_int_str_digit_limit(tmp_path,
                                                              capsys):
    # a 5,000-digit number is past CPython 3.11+'s default limit
    formula, proof = tmp_path / "f.opb", tmp_path / "p.pbp"
    formula.write_text("+1 x1 >= 1 ;\n")
    proof.write_text("%s\npol 1 1%s *;\n" % (parsing.HEADER, "0" * 4999))
    rc, payload = _check_files(capsys, formula, proof)
    assert (rc, payload["verdict"]) == (0, "VERIFIED-DERIVATION")


@pytest.mark.parametrize("method", ["new", "old"])
def test_streamed_check_holds_less_than_the_parsed_proof(method):
    # PHP(8) with all generators: parsing the proof first holds every
    # step through the check; the stream holds the database and one step
    inst = bench.generate("php", (8,))
    text = breaker.break_symmetries(inst.constraints, inst.variables,
                                    inst.generators,
                                    method=method).text()

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two_phase = peak(lambda: checker.check_document(
        inst.constraints, parsing.parse_proof(text)))
    streamed = peak(lambda: cli._check_text(inst.constraints, text))
    assert streamed < 0.7 * two_phase


DOM_HEAD = "dom +1 x1 >= 1 : x1 -> x3 x3 -> x1 : subproof\n"


@pytest.mark.parametrize("formula,proof", [
    pytest.param("php32.opb", "del range a b;\n", id="del-range-ids"),
    pytest.param("php32.opb", "rup +1 x1 >= 1 : z;\n", id="rup-hint"),
    pytest.param("php32.opb",
                 DOM_HEAD + "scope leq\nproofgoal #1\nqed #1 : q;\n",
                 id="qed-hint"),
    pytest.param("php32.opb", DOM_HEAD + "scope\n", id="bare-scope"),
    pytest.param("php32.opb", DOM_HEAD + "scope leq\nproofgoal\n",
                 id="bare-proofgoal"),
    pytest.param("php32.opb", "load_order;\n", id="bare-load-order"),
    pytest.param("php32.opb",
                 "def_order lex1\nvars\nleft u1;\nright v1;\naux $d1;\n"
                 "end vars;\nspec\nred +1 ~$d1 +1 ~u1 +1 v1 >= 1 : $d1 -> 0;\n",
                 id="def-order-cut-in-spec"),
    pytest.param("php32.opb", "red +1 x1 >= 1 : x1 -> 2;\n",
                 id="witness-image-2"),
    pytest.param("php32.opb", "rup +1 ~~x1 >= 1;\n", id="double-tilde"),
    pytest.param("php32.opb", "red +1 x2 >= 1 : x2 -> ~~x1;\n",
                 id="double-tilde-witness"),
    # `~~x1` read as the negation of a variable `~x1`, which the propagator
    # aliased to the literal ~x1, so this satisfiable formula was refuted
    pytest.param("double_tilde.opb", "red +1 ~x1 >= 1 : x1 -> 0 ;\n"
                 "rup >= 1 ;\nconclusion UNSAT ;\n", id="double-tilde-formula"),
    # a bare `~` read as the negation of a variable with the empty name
    pytest.param("bare_tilde.opb", "rup >= 1 ;\n", id="bare-tilde-formula"),
    pytest.param("php32.opb", "rup +1 ~ >= 1 ;\n", id="bare-tilde"),
    pytest.param("php32.opb", "rup +1 x1 >= 1 : 1 : 2;\n",
                 id="rup-two-hint-sections"),
    pytest.param("php32.opb", DOM_HEAD + "scope leq\nproofgoal #1\nqed #2;\n",
                 id="qed-key-mismatch"),
    pytest.param("php32.opb", "dom +1 x1 >= 1 : x1 -> x3 x3 -> x1;\n",
                 id="dom-without-subproof"),
    pytest.param("php32.opb", DOM_HEAD + "scope leq\nproofgoal #1\n"
                 "red +1 x1 >= 1 : x1 -> 1;\nqed #1;\n",
                 id="red-in-proofgoal"),
    pytest.param("php32.opb",
                 "def_order lex1\nvars\nleft u1;\nright v1;\naux $d1;\n"
                 "end vars;\nspec\nrup +1 ~$d1 >= 1;\nend spec;\n",
                 id="rup-in-spec"),
    pytest.param("php32.opb", "red +1 x1 >= 1 : x1 x2 x3;\n",
                 id="witness-odd-pairs"),
    pytest.param("php32.opb", "red +1 x1 >= 1 : x1 -> x2 x3;\n",
                 id="witness-arrow-missing"),
    pytest.param("php32.opb", "red +1 x1 >= 1 : x1 -> 0 x1 -> 1;\n",
                 id="witness-key-twice"),
    pytest.param("php32.opb", "red +1 x1 >= 1 : ~x1 -> 0;\n",
                 id="witness-negated-key"),
    pytest.param("php32.opb", "rup +1 >= 1;\n", id="coefficient-alone"),
    pytest.param("php32.opb", "rup +1 x1 >=;\n", id="missing-degree"),
    pytest.param("stray_semicolon.opb", "", id="opb-stray-semicolon"),
    pytest.param("trailing_tokens.opb", "", id="opb-trailing-tokens"),
    pytest.param("bad_literal.cnf", "", id="cnf-literal"),
    pytest.param("bad_header.cnf", "", id="cnf-header"),
    pytest.param("clause_first.cnf", "", id="cnf-clause-before-header"),
    pytest.param("dnf.cnf", "", id="cnf-not-cnf"),
    pytest.param("two_headers.cnf", "", id="cnf-second-header"),
    pytest.param("after_end.cnf", "", id="cnf-clause-after-percent"),
])
def test_malformed_input_is_a_parse_error(tmp_path, capsys, formula, proof):
    (tmp_path / "bad_literal.cnf").write_text("p cnf 2 1\n1 a 0\n")
    (tmp_path / "bad_header.cnf").write_text("p cnf x 1\n1 0\n")
    (tmp_path / "clause_first.cnf").write_text("1 0\np cnf 1 1\n")
    (tmp_path / "dnf.cnf").write_text("p dnf 1 1\n1 0\n")
    (tmp_path / "two_headers.cnf").write_text("p cnf 2 1\n1 2 0\np cnf 1 1\n")
    (tmp_path / "after_end.cnf").write_text("p cnf 2 1\n1 2 0\n%\n0\n1 0\n")
    (tmp_path / "stray_semicolon.opb").write_text("+1 x1 ; >= 1 ;\n")
    (tmp_path / "trailing_tokens.opb").write_text("+1 x1 >= 1 2 ;\n")
    (tmp_path / "double_tilde.opb").write_text("+1 ~~x1 >= 1 ;\n")
    (tmp_path / "bare_tilde.opb").write_text("+1 ~ >= 1 ;\n")
    (tmp_path / "php32.opb").write_text((DATA / "php32.opb").read_text())
    pbp = tmp_path / "proof.pbp"
    pbp.write_text(parsing.HEADER + "\n" + proof)
    assert cli.main(["check", str(tmp_path / formula), str(pbp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ")
    assert "Traceback" not in err


def _check_files(capsys, formula, proof):
    """`pbsym check --json` of two files, which prints no traceback;
    returns (exit code, report)."""
    rc = cli.main(["check", str(formula), str(proof), "--json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return rc, json.loads(captured.out)


def _check_texts(tmp_path, capsys, formula_text, proof_body):
    """`pbsym check --json` of a formula and a proof given as text (the
    proof without its header); returns (exit code, report)."""
    formula, proof = tmp_path / "f.opb", tmp_path / "p.pbp"
    formula.write_text(formula_text)
    proof.write_text(parsing.HEADER + "\n" + proof_body)
    return _check_files(capsys, formula, proof)


def _aux_proof(order=None):
    """A proof, without its header, whose dom step's leq spec rows would
    meet a formula constraint, under the def_order text `order` (lex1 by
    default)."""
    return ((order or render.lex_order_text(1)) + "\n"
            "load_order lex1 x1;\n"
            "dom +1 ~x1 >= 1 : x1 -> 0 : subproof\n"
            "scope leq\nproofgoal 1\nqed 1;\nproofgoal #1\nqed #1;\n"
            "end scope;\n"
            "scope geq\nproofgoal #2\nqed #2;\nend scope;\nqed dom;\n"
            "rup >= 1 ;\nconclusion UNSAT ;\n")


def _leq_qed_failed():
    """Start of the report of a failed qed of goal 1 in the leq scope of
    `_aux_proof()`; it cites the line of the block's `proofgoal 1`."""
    lines = (parsing.HEADER + "\n" + _aux_proof()).splitlines()
    return "line:%d goal:1 reason:qed-failed" % (lines.index("proofgoal 1") + 1)


def _aux_in_formula_check(tmp_path, capsys, name, order=None):
    """Check `_aux_proof(order)` against a formula with a constraint over
    `name`; returns (exit code, report)."""
    return _check_texts(
        tmp_path, capsys, "+1 x1 >= 1 ;\n+1 ~%s >= 1 ;\n" % name,
        _aux_proof(order))


def test_order_aux_variable_in_formula_is_refused(tmp_path, capsys):
    # the spec rows of the dom scopes constrain the formula's $d1, so the
    # satisfiable formula was refuted
    rc, payload = _aux_in_formula_check(tmp_path, capsys, "$d1")
    assert rc == 1
    assert "reason:aux-in-formula" in payload["error"]
    # renamed, the same proof fails at the leq scope's hint-free qed
    rc, payload = _aux_in_formula_check(tmp_path, capsys, "y1")
    assert rc == 1
    assert payload["error"].startswith(_leq_qed_failed())


@pytest.mark.parametrize("formula,body,error", [
    # a red step's constraint over an order-aux name
    ("+1 x1 +1 x2 >= 1 ;\n", "red +1 $a1 +1 x1 >= 1 : x1 -> 1;\n",
     "line:2 goal:- reason:aux-in-constraint constraint +1 $a1 +1 x1 >= 1 "
     "mentions order-aux variables ['$a1']"),
    # the refusal names the first formula constraint over one, the second
    ("+1 x1 +1 x2 >= 1 ;\n+1 $a1 +1 ~x2 >= 1 ;\n+1 $b2 >= 1 ;\n",
     "rup +1 x1 +1 x2 >= 1 ;\n",
     "line:- goal:- reason:aux-in-formula constraint +1 $a1 +1 ~x2 >= 1 "
     "mentions order-aux variables ['$a1']"),
    # x2 >= 1, the goal of the touched ID 1, fails before the self goal
    ("+1 x1 +1 x2 >= 1 ;\n", "red +1 x3 >= 1 : x1 -> 0;\n",
     "line:2 goal:1 reason:undischarged-goal "),
    # `+` with one operand on the stack
    ("+1 x1 >= 1 ;\n", "pol 1 +;\n",
     "line:2 goal:- reason:bad-polish polish stack underflow at +"),
], ids=["aux-in-constraint", "aux-in-formula", "touched-goal", "bad-polish"])
def test_red_and_formula_refusals_name_line_goal_and_reason(
        tmp_path, capsys, formula, body, error):
    rc, payload = _check_texts(tmp_path, capsys, formula, body)
    assert rc == 1
    assert payload["error"].startswith(error)


@pytest.mark.parametrize("name,rc,report", [
    # every goal holds over the touched premises and not(c): no spec row
    # is built
    ("red_bound_local", 0, {"rup_calls": 1, "spec_materializations": 0}),
    # the order goal needs the scope, which builds lex2's six spec rows
    ("red_bound_scope", 0, {"rup_calls": 2, "spec_materializations": 6}),
    # the order goal fails in the scope too
    ("red_bound_undischarged", 1,
     "line:47 goal:#1 reason:undischarged-goal goal +1 $d2 >= 1 "),
])
def test_red_steps_that_move_bound_variables(tmp_path, capsys, name, rc,
                                             report):
    got, payload, lines = _data_check(tmp_path, capsys, name)
    assert got == rc
    if rc:
        assert payload["verdict"] == "REJECTED"
        assert lines[46].startswith("red +1 x2 >= 1 : x2 -> 1;")
        assert payload["error"].startswith(report)
    else:
        assert payload["verdict"] == checker.VERIFIED
        assert payload["counters"] == dict(
            report, implicit_reflexivity_skips=0, spec_rows_aliased=0,
            proof_bytes=(DATA / (name + ".pbp")).stat().st_size)


def test_order_aux_variable_without_dollar_is_refused(tmp_path, capsys):
    # lex1 with its aux $d1 renamed y1: the dom scope's spec rows then
    # constrained the formula's y1, and the satisfiable formula was refuted
    plain = render.lex_order_text(1).replace("$d1", "y1").replace(
        "$e1", "e1").replace("$f1", "f1")
    rc, payload = _aux_in_formula_check(tmp_path, capsys, "y1", plain)
    assert rc == 1
    assert payload["error"].startswith("line:2 goal:- reason:bad-order")
    # with `$` names and the formula over z1, the proof fails at its qed
    rc, payload = _aux_in_formula_check(tmp_path, capsys, "z1")
    assert rc == 1
    assert payload["error"].startswith(_leq_qed_failed())


@pytest.mark.parametrize("body", [
    pytest.param("red +1 x1 >= 1 : $d1 -> 0;\n", id="red-aux-key"),
    pytest.param("red +1 x1 >= 1 : x1 -> $d1;\n", id="red-aux-image"),
    pytest.param(render.lex_order_text(1) + "\nload_order lex1 x1;\n"
                 "dom +1 ~x1 >= 1 : x1 -> $d1 : subproof\n"
                 "scope leq\nend scope;\nscope geq\nend scope;\nqed dom;\n",
                 id="dom-aux-image"),
])
def test_aux_variable_in_witness_is_refused(tmp_path, capsys, body):
    rc, payload = _check_texts(tmp_path, capsys, "+1 x1 >= 0 ;\n", body)
    lines = (parsing.HEADER + "\n" + body).splitlines()
    step = next(i for i, l in enumerate(lines, 1)
                if l.startswith(("red +1 x1", "dom ")))
    assert rc == 1
    assert payload["error"].startswith(
        "line:%d goal:- reason:aux-in-witness" % step)


# def_order cyc: O(u, v) is reflexive and its strict part is the cycle
# 00 < 01 < 11 < 00 over (x1, x2), so it is not transitive
CYCLE_ORDER = """def_order cyc
vars
left u1 u2;
right v1 v2;
aux;
end vars;
spec
end spec;
def
+1 u1 +1 ~u2 +1 v1 +1 v2 >= 1;
+1 ~u1 +1 ~u2 +1 v1 +1 ~v2 >= 1;
+1 u1 +1 u2 +1 ~v1 +1 ~v2 >= 1;
end def;
transitivity
vars
fresh_right %s;
fresh_aux_1;
fresh_aux_2;
end vars;
proof
qed proof;
end transitivity;
reflexivity
proof
qed proof;
end reflexivity;
end def_order;
load_order cyc x1 x2;
"""


def _cycle_dom(constraint, witness, leq=""):
    return ("dom %s : %s : subproof\nscope leq\n%send scope;\n"
            "scope geq\nproofgoal #4\nqed #4;\nend scope;\nqed dom;\n"
            % (constraint, witness, leq))


def test_order_fresh_names_must_be_fresh(tmp_path, capsys):
    # with fresh_right naming the left variables, the transitivity goal
    # O(u, u) is a tautology, and dom over the cyclic order removed every
    # model of the satisfiable formula ~x1 + x2 >= 1 (00, 01 and 11)
    proof = (_cycle_dom("+1 x1 +1 x2 >= 1", "x1 -> 1 x2 -> 1")
             + _cycle_dom("+1 x1 +1 ~x2 >= 1", "x2 -> 0",
                          "proofgoal 1\nqed 1;\n")
             + _cycle_dom("+1 ~x1 +1 ~x2 >= 1", "x1 -> 0")
             + "rup +1 x1 >= 1;\nrup >= 1;\nconclusion UNSAT;\n")
    formula = "+1 ~x1 +1 x2 >= 1 ;\n"
    rc, payload = _check_texts(tmp_path, capsys, formula,
                               CYCLE_ORDER % "u1 u2" + proof)
    assert rc == 1
    assert payload["error"].startswith("line:2 goal:- reason:bad-order")
    # with fresh names the transitivity proof has a goal left undischarged
    rc, payload = _check_texts(tmp_path, capsys, formula,
                               CYCLE_ORDER % "w1 w2" + proof)
    assert rc == 1
    assert payload["error"].startswith("line:2 goal:#1 "
                                       "reason:undischarged-goal")


def _data_check(tmp_path, capsys, name, old=None, new=None):
    """Check tests/data/NAME.pbp against NAME.opb, with the line `old` of
    the proof replaced by `new` if given; returns (exit code, report, the
    proof's lines)."""
    proof = DATA / (name + ".pbp")
    text = proof.read_text()
    if old is not None:
        assert old + "\n" in text
        text = text.replace(old + "\n", new + "\n")
        proof = tmp_path / "control.pbp"
        proof.write_text(text)
    rc, payload = _check_files(capsys, DATA / (name + ".opb"), proof)
    return rc, payload, text.splitlines()


def _line_of(lines, prefix, nth=1):
    """Line number of the nth line that starts with `prefix`."""
    hits = [i for i, l in enumerate(lines, 1) if l.startswith(prefix)]
    return hits[nth - 1]


def test_load_order_binds_variables_not_literals(tmp_path, capsys):
    # bound to ~x1, a checker that compares witness variables with bound
    # names takes the red below for one that leaves the order alone, and
    # refutes the satisfiable formula x2 >= 1
    rc, payload, lines = _data_check(tmp_path, capsys, "load_order_negated")
    assert rc == 1
    assert payload["error"].startswith(
        "line:%d goal:- reason:bad-binding" % _line_of(lines, "load_order"))
    # bound to x1, the same proof fails at its dom
    rc, payload, lines = _data_check(tmp_path, capsys, "load_order_negated",
                                     "load_order lex1 ~x1;",
                                     "load_order lex1 x1;")
    assert rc == 1
    assert payload["error"].startswith(
        "line:%d goal:#1 reason:undischarged-goal" % _line_of(lines, "dom "))


def test_hinted_conclusion_is_checked(tmp_path, capsys):
    # `conclusion UNSAT : 1` on a satisfiable formula cites its one clause,
    # which is no contradiction
    rc, payload, _ = _data_check(tmp_path, capsys, "conclusion_hinted")
    assert rc == 1
    assert payload["error"].startswith("line:2 goal:- reason:bad-conclusion")


@pytest.mark.parametrize("body,line,goal,named", [
    pytest.param("pol -99 ;\n", 2, "-", "-99 (ID -96)", id="pol-operand"),
    pytest.param("rup +1 x1 +1 x2 >= 1 : -5 ;\n", 2, "-", "-5 (ID -2)",
                 id="rup-hint"),
    # a qed hint names the goal of its block
    pytest.param(render.lex_order_text(1) + "\nload_order lex1 x1;\n"
                 "dom +1 x1 >= 1 : x1 -> 1 : subproof\nscope leq\n"
                 "proofgoal #1\nqed #1 : -50;\nend scope;\nscope geq\n"
                 "end scope;\nqed dom;\n", 39, "#1", "-50 (ID -43)",
                 id="qed-hint"),
])
def test_invisible_relative_id_is_named_as_written(tmp_path, capsys, body,
                                                   line, goal, named):
    # a relative ID is named as the proof writes it, and by the ID it
    # resolves to, which the proof never writes
    rc, payload = _check_texts(
        tmp_path, capsys, "+1 x1 +1 x2 >= 1 ;\n+1 ~x1 +1 x2 >= 1 ;\n", body)
    assert rc == 1
    assert payload["error"] == ("line:%d goal:%s reason:invisible-id "
                                "constraint %s is not visible here"
                                % (line, goal, named))


def test_qed_hint_errors_name_their_goal(tmp_path, capsys):
    # lexfix_lemma's transitivity proof, its qed citing first an ID that is
    # not visible, then a visible one that is no contradiction: both errors
    # name goal #1 at its proofgoal line
    lines = (DATA / "lexfix_lemma.pbp").read_text().splitlines(True)
    at = _line_of(lines, "qed #1 : -1;")
    head = "line:%d goal:#1 reason:" % _line_of(lines, "proofgoal #1")
    proof = tmp_path / "p.pbp"
    for hint, error in (("-500", "invisible-id constraint -500 "),
                        ("-2", "qed-not-contradiction ")):
        lines[at - 1] = "qed #1 : %s;\n" % hint
        proof.write_text("".join(lines))
        rc, payload = _check_files(capsys, DATA / "lexfix.opb", proof)
        assert rc == 1
        assert payload["error"].startswith(head + error)


def test_order_constraints_use_only_declared_variables(tmp_path, capsys):
    # the def constraint over the formula's x1 keeps x1 as it stands in
    # every order instance, which then refutes the satisfiable formula
    # x1 + x2 >= 1
    rc, payload, _ = _data_check(tmp_path, capsys, "def_order_undeclared")
    assert rc == 1
    assert payload["error"].startswith("line:2 goal:- reason:bad-order")
    # without x1 the same proof fails at its second red
    rc, payload, lines = _data_check(tmp_path, capsys, "def_order_undeclared",
                                     "+1 v1 +1 ~u1 +1 x1 >= 1;",
                                     "+1 v1 +1 ~u1 >= 1;")
    assert rc == 1
    assert payload["error"].startswith(
        "line:%d goal:#1 reason:undischarged-goal" % _line_of(lines, "red ", 2))


# ------------------------------------------------------------------- break

def test_break_selfcheck_roundtrip(tmp_path, capsys):
    formula, _ = golden_pair(tmp_path)
    prefix = str(tmp_path / "out")
    rc = cli.main(["break", formula, sym_file(tmp_path), "-o", prefix,
                   "--selfcheck", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "BROKEN"
    assert payload["selfcheck"] == "VERIFIED-DERIVATION"
    assert payload["clauses"] == 10
    assert (payload["counters"]["proof_bytes"]
            == pathlib.Path(prefix + ".pbp").stat().st_size)
    proof = parsing.parse_proof(pathlib.Path(prefix + ".pbp").read_text())
    assert proof["steps"]
    cons, _ = parsing.parse_opb(pathlib.Path(prefix + ".opb").read_text())
    assert len(cons) == 9 + 10      # original formula plus breaking clauses


def test_break_selfcheck_failure_is_reported(tmp_path, capsys, monkeypatch):
    # the checked text loses the fragment's first step, a red step
    emitted = breaker.ProofBuilder.text

    def text(self):
        lines = emitted(self).splitlines(keepends=True)
        start = next(i for i, l in enumerate(lines)
                     if l.startswith("load_order "))
        gone = next(i for i in range(start, len(lines))
                    if lines[i].startswith("red "))
        return "".join(lines[:gone] + lines[gone + 1:])

    monkeypatch.setattr(breaker.ProofBuilder, "text", text)
    formula, _ = golden_pair(tmp_path)
    rc = cli.main(["break", formula, sym_file(tmp_path), "-o",
                   str(tmp_path / "out"), "--selfcheck", "--json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["verdict"] == "SELFCHECK-FAILED"
    assert re.match(r"line:\d+ goal:\S+ reason:[a-z-]+ ", payload["error"])


def test_break_output_is_deterministic(tmp_path):
    formula, _ = golden_pair(tmp_path)
    syms = sym_file(tmp_path)
    for name in ("a", "b"):
        cli.main(["break", formula, syms, "-o", str(tmp_path / name)])
    assert ((tmp_path / "a.pbp").read_bytes()
            == (tmp_path / "b.pbp").read_bytes())
    assert ((tmp_path / "a.opb").read_bytes()
            == (tmp_path / "b.opb").read_bytes())


# sha256 of the .pbp and .opb that `pbsym break` writes for `pbsym gen php
# 13` with all the sidecar's generators, the benchmark's emit instance
# before relabelling; a change to what the breaker writes must edit a pin
EMIT_PINS = {
    "new": ("26cb0b3994e4380e4af4a5d18c270ae25b65b3b6d418c3e4b2a8c230a8991748",
            "7d716d8986baed70cdcbdc4822540471da3864d285896d588484e068e5e6d782"),
    "old": ("08011b977b38cf7cd848fd275bc8dcb029388603bdaac6551e0c8b7b01b54506",
            "fbe6f7ad043acc2c24cf8adc5d88262497d07a64b1f739f5a36062c1104a67be"),
}


@pytest.mark.parametrize("method", sorted(EMIT_PINS))
def test_break_php13_output_pinned(tmp_path, method):
    prefix = str(tmp_path / "php13")
    assert cli.main(["gen", "php", "13", "-o", prefix]) == 0
    syms = json.loads(pathlib.Path(prefix + ".json").read_text())
    sym_path = sym_file(tmp_path, "\n".join(syms["symmetries"]) + "\n")
    out = str(tmp_path / method)
    assert cli.main(["break", prefix + ".cnf", sym_path, "-o", out,
                     "--method", method]) == 0
    assert tuple(hashlib.sha256(pathlib.Path(out + ext).read_bytes())
                 .hexdigest() for ext in (".pbp", ".opb")) == EMIT_PINS[method]


def test_break_cp_variant_flag_is_ignored(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["break", "--help"])
    assert "--cp-variant" not in capsys.readouterr().out
    formula, _ = golden_pair(tmp_path)
    syms = sym_file(tmp_path)
    for name, extra in (("plain", []), ("cp", ["--cp-variant"])):
        assert cli.main(["break", formula, syms, "-o", str(tmp_path / name)]
                        + extra) == 0
    assert capsys.readouterr().err == "warning: --cp-variant is ignored\n"
    for ext in (".pbp", ".opb"):
        assert ((tmp_path / ("plain" + ext)).read_bytes()
                == (tmp_path / ("cp" + ext)).read_bytes())


@pytest.mark.parametrize("method", ["new", "old"])
def test_break_chain_names_avoid_formula_variables(tmp_path, capsys, method):
    # the formula already uses the breaker's chain names s1, s2 and t1
    formula = tmp_path / "clash.opb"
    formula.write_text("+1 s1 +1 s2 >= 1 ;\n+1 ~s1 +1 ~s2 >= 1 ;\n"
                       "+1 t1 +1 s1 >= 1 ;\n+1 t1 +1 s2 >= 1 ;\n")
    prefix = str(tmp_path / "out")
    rc = cli.main(["break", str(formula), sym_file(tmp_path, "(s1 s2)\n"),
                   "-o", prefix, "--method", method, "--selfcheck", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (rc, payload["verdict"]) == (0, "BROKEN")
    assert payload["selfcheck"] == "VERIFIED-DERIVATION"
    assert cli.main(["check", str(formula), prefix + ".pbp"]) == 0
    cons, _ = parsing.parse_opb(formula.read_text())
    broken, _ = parsing.parse_opb(pathlib.Path(prefix + ".opb").read_text())
    assert oracle.equisat(cons, broken[len(cons):])


def test_break_rejects_bad_symmetry(tmp_path, capsys):
    formula, _ = golden_pair(tmp_path)
    rc = cli.main(["break", formula, sym_file(tmp_path, "(x1 x2)\n"),
                   "-o", str(tmp_path / "out"), "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "INVALID-SYMMETRY"
    assert "generator 1" in payload["error"]


@pytest.mark.parametrize("syms", ["(x2 x3)\n", ""],
                         ids=["a-generator", "no-generator"])
def test_break_refuses_a_formula_over_a_dollar_name(tmp_path, capsys, syms):
    # `pbsym check` refuses such a formula (aux-in-formula), so no proof
    # the breaker could write for it would check
    formula = tmp_path / "aux.opb"
    formula.write_text("+1 $y +1 x2 >= 1 ;\n+1 $y +1 x3 >= 1 ;\n")
    prefix = tmp_path / "out"
    rc = cli.main(["break", str(formula), sym_file(tmp_path, syms),
                   "-o", str(prefix), "--json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["verdict"] == "INVALID-FORMULA"
    assert "$y" in payload["error"]
    assert not list(tmp_path.glob("out*"))
    assert cli.main(["check", str(formula), str(DATA / "php32_lex.pbp"),
                     "--json"]) == 1
    assert "reason:aux-in-formula" in capsys.readouterr().out


@pytest.mark.parametrize("text,line", [
    pytest.param("x1 x2 x3\n", 1, id="no-arrows"),
    pytest.param("(x1 x2\n", 1, id="unbalanced-cycle"),
    pytest.param("($a1 x1)\n", 1, id="aux-variable"),
    pytest.param("(x1 ~~x1)\n", 1, id="double-tilde-cycle"),
    pytest.param("x1 -> ~~x3 x3 -> x1\n", 1, id="double-tilde-arrow"),
    pytest.param("x1 -> x2 x3 -> x2\n", 1, id="not-a-permutation"),
    pytest.param("(x1 x3)\n(x2 ~)\n", 2, id="bare-tilde"),
    pytest.param("~x1 -> x3 x3 -> ~x1\n", 1, id="negated-key"),
    pytest.param("(x1 x3)\n* comment\n\nx1 -> x3 x1 -> x2\n", 4,
                 id="conflicting-images-after-comment"),
    pytest.param("* comment\n(x1)\n", 2, id="one-literal-cycle"),
    pytest.param("(x1 x3)\n\n(x1 x2) x3\n", 3, id="text-after-cycles"),
])
def test_break_malformed_symmetry_file_is_a_parse_error(tmp_path, capsys,
                                                        text, line):
    formula, _ = golden_pair(tmp_path)
    rc = cli.main(["break", formula, sym_file(tmp_path, text),
                   "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line %d: " % line)
    assert "Traceback" not in err


def test_break_non_utf8_symmetry_file_is_io_error(tmp_path, capsys):
    formula, _ = golden_pair(tmp_path)
    syms = _non_utf8(tmp_path, "bin.sym")
    prefix = tmp_path / "out"
    assert cli.main(["break", formula, syms, "-o", str(prefix)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s is not UTF-8 text" % syms)
    assert "Traceback" not in err
    assert not (tmp_path / "out.pbp").exists()


def test_break_empty_symmetry_file(tmp_path, capsys):
    formula, _ = golden_pair(tmp_path)
    prefix = str(tmp_path / "out")
    rc = cli.main(["break", formula,
                   sym_file(tmp_path, "* nothing here\n"), "-o", prefix])
    assert rc == 0
    assert "clauses: 0" in capsys.readouterr().out
    cons, _ = parsing.parse_opb(pathlib.Path(prefix + ".opb").read_text())
    assert len(cons) == 9


@pytest.mark.parametrize("method", ["new", "old"])
def test_break_generator_off_the_formula_is_skipped(tmp_path, capsys, method):
    # (x7 x8) moves no variable of PHP(3), so it breaks nothing, loads no
    # order and binds no variable
    prefix = str(tmp_path / "php3")
    assert cli.main(["gen", "php", "3", "-o", prefix]) == 0
    capsys.readouterr()
    outputs = []
    for name, text in (("off", "(x7 x8)\n"), ("none", "")):
        syms = tmp_path / (name + ".sym")
        syms.write_text(text)
        out = str(tmp_path / name)
        assert cli.main(["break", prefix + ".cnf", str(syms), "-o", out,
                         "--method", method, "--selfcheck", "--json"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["binding"] == ""
        outputs.append([pathlib.Path(out + ext).read_text()
                        for ext in (".pbp", ".opb")])
    assert outputs[0] == outputs[1]
    assert "load_order" not in outputs[0][0]


@pytest.mark.parametrize("method", ["new", "old"])
def test_break_binding_lists_the_moved_variables(tmp_path, capsys, method):
    # (x1 x3)(x2 x4) on PHP(3, 2): x5 and x6 stay out of the order
    formula, _ = golden_pair(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["break", formula, sym_file(tmp_path), "-o", out,
                     "--method", method, "--selfcheck", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["binding"] == "x1 x2 x3 x4"
    assert payload["selfcheck"] == "VERIFIED-DERIVATION"
    load = [l for l in pathlib.Path(out + ".pbp").read_text().splitlines()
            if l.startswith("load_order ")]
    assert load == ["load_order %s4 x1 x2 x3 x4;"
                    % ("lex" if method == "new" else "biglex")]


def test_cnf_variables_are_the_ones_the_clauses_use(tmp_path, capsys,
                                                    monkeypatch):
    # the header declares 6 variables and the clauses use x1..x4: break
    # gets x1..x4, and check builds no variable list
    formula = tmp_path / "wide.cnf"
    formula.write_text("p cnf 6 2\n1 2 0\n3 4 0\n")
    seen = []
    real = breaker.break_symmetries
    monkeypatch.setattr(breaker, "break_symmetries",
                        lambda f, v, *a, **k: seen.append(v) or real(f, v, *a,
                                                                     **k))
    out = str(tmp_path / "out")
    assert cli.main(["break", str(formula), sym_file(tmp_path), "-o", out,
                     "--selfcheck", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["selfcheck"] == (
        "VERIFIED-DERIVATION")
    assert seen == [["x1", "x2", "x3", "x4"]]
    monkeypatch.setattr(cli, "_cnf_variables", None)
    assert cli.main(["check", str(formula), out + ".pbp"]) == 0


def test_cnf_suffix_in_any_case_is_dimacs(tmp_path, capsys):
    # PHP4.CNF was read as OPB: `line 1: bad coefficient 'p'`
    inst = bench.generate("php", (4,))
    formula = tmp_path / "PHP4.CNF"
    formula.write_text(parsing.render_cnf(inst.constraints, inst.nvars()))
    syms = sym_file(tmp_path, parsing.render_witness(inst.generators[0]))
    rc = cli.main(["break", str(formula), syms, "-o", str(tmp_path / "out"),
                   "--selfcheck", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["selfcheck"] == (
        "VERIFIED-DERIVATION")


def test_break_old_method(tmp_path, capsys):
    formula, _ = golden_pair(tmp_path)
    rc = cli.main(["break", formula, sym_file(tmp_path),
                   "-o", str(tmp_path / "out"), "--method", "old",
                   "--selfcheck", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selfcheck"] == "VERIFIED-DERIVATION"


def _pbsym_ascii_locale(cwd, *argv):
    """``pbsym <argv>`` in a fresh interpreter whose locale encodes ASCII
    only and whose streams and files follow the locale."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "pbsym.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_non_ascii_names_under_an_ascii_locale(tmp_path, flags):
    # output files are UTF-8 whatever the locale, and a report escapes what
    # the locale cannot encode instead of ending in a traceback
    (tmp_path / "f.opb").write_text(
        "+1 xé1 +1 xé2 >= 1 ;\n+1 ~xé1 +1 ~xé2 >= 1 ;\n", encoding="utf-8")
    (tmp_path / "s.sym").write_text("(xé1 xé2)\n", encoding="utf-8")
    run = _pbsym_ascii_locale(tmp_path, "break", "f.opb", "s.sym", "-o", "b",
                              *flags)
    assert run.returncode == 0, run.stderr
    assert b"Traceback" not in run.stderr
    proof = (tmp_path / "b.pbp").read_bytes().decode("utf-8")
    assert "load_order lex2 xé1 xé2;" in proof
    run = _pbsym_ascii_locale(tmp_path, "check", "f.opb", "b.pbp", *flags)
    assert run.returncode == 0, run.stderr
    assert b"VERIFIED-DERIVATION" in run.stdout

    (tmp_path / "bad.pbp").write_text(
        parsing.HEADER + "\nrup +1 xé1 >= 1;\n", encoding="utf-8")
    run = _pbsym_ascii_locale(tmp_path, "check", "f.opb", "bad.pbp", *flags)
    assert run.returncode == 1
    assert b"reason:rup-failed" in run.stdout
    assert b"Traceback" not in run.stderr


# --------------------------------------------------------------------- gen

def test_gen_writes_cnf_and_sidecar(tmp_path, capsys):
    prefix = str(tmp_path / "php3")
    assert cli.main(["gen", "php", "3", "-o", prefix, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"schema": 1, "verdict": "GENERATED",
                       "variables": 6, "constraints": 9, "generators": 3}
    cons = parsing.parse_cnf(pathlib.Path(prefix + ".cnf").read_text())
    assert len(cons) == 9
    sidecar = json.loads(pathlib.Path(prefix + ".json").read_text())
    assert sidecar["family"] == "php"
    assert sidecar["variables"]["p1_h1"] == "x1"
    assert len(sidecar["symmetries"]) == 3


@pytest.mark.parametrize("family,params", [
    ("php", [4]), ("rphp", [2]), ("clqcl", [6, 3, 2]), ("count", [6, 3]),
    ("tseitin", [3])])
def test_gen_sidecar_symmetries_round_trip(tmp_path, capsys, family, params):
    # render_witness writes the sidecar, parse_symmetries reads it back
    prefix = str(tmp_path / family)
    assert cli.main(["gen", family] + [str(p) for p in params]
                    + ["-o", prefix]) == 0
    sidecar = json.loads(pathlib.Path(prefix + ".json").read_text())
    syms = parsing.parse_symmetries("\n".join(sidecar["symmetries"]))
    gens = bench.generate(family, tuple(params)).generators
    assert syms == gens
    assert [list(s.items()) for s in syms] == [list(g.items()) for g in gens]


# sha256 of the .cnf and the .json sidecar that `pbsym gen` writes, one
# size per family: the sidecar pins each family's generator list
GEN_PINS = {
    "php 4": (
        "8500d387f53eb4e57f524c2cd18c838c712e8fe4ca6c45474074a157aa39a1e4",
        "fbef05695f9d9975c035ae86c8b71458f4eb232bf783e10c02f78f7793b547e8"),
    "rphp 2": (
        "7de65ecec2770885bc61734b5d7f3ef78c7027adbf2e47bd2174b928368078a4",
        "2a15420da08d8ca63b38eea2b28f914b94bb39f4fc1015e60cbf241217ad5b1d"),
    "clqcl 6 3 2": (
        "5bf19838717bd0f7c980dcdc68c5533863c0e9e1fb8a2d49712da061ca3189ae",
        "cddb79ce76e1a9f1f74197ac57d364b4b00319c1c569cc43d7bc7c7ef001fc63"),
    "count 6 3": (
        "b96f9f75854dc6f19772f82718618dfa07440a90611b0ea2e339d9354a897d2d",
        "9fee7629647391d77dc63d4b050735292a5ffbe2ab46839044a0da79a2aae22a"),
    "tseitin 3": (
        "277b4c93664fbbe4baf106a7c73f278cddfcdec86e5a2d3d57a8aafc4cf652e6",
        "092312ced22a03320558ec99419b17220e7fe059449b19824f1e959f933c65a6"),
}


@pytest.mark.parametrize("instance", sorted(GEN_PINS))
def test_gen_output_pinned(tmp_path, instance):
    prefix = str(tmp_path / "inst")
    assert cli.main(["gen"] + instance.split() + ["-o", prefix]) == 0
    got = tuple(hashlib.sha256(pathlib.Path(prefix + ext).read_bytes())
                .hexdigest() for ext in (".cnf", ".json"))
    assert got == GEN_PINS[instance]


def test_gen_bad_params(tmp_path, capsys):
    assert cli.main(["gen", "php", "1", "-o", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("params,message", [
    (["rphp", "1"], "RPHP needs at least 2 pigeons"),
    (["clqcl", "5"], "ClqCl needs n >= k"),
    (["count", "2", "3"], "Count needs n >= k >= 2"),
    (["tseitin", "1"], "TseitinGrid needs n >= 2"),
])
def test_gen_family_refuses_its_bad_params(tmp_path, capsys, params,
                                           message):
    assert cli.main(["gen", *params, "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_gen_wrong_parameter_count(tmp_path, capsys):
    assert cli.main(["gen", "php", "3", "4", "-o", str(tmp_path / "P")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: php takes parameters (n), got 2")
    assert "Traceback" not in err


# ----------------------------------------------------------------- compare

def test_compare_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = cli.main(["compare", "php", "3..4", "--step", "1", "-o", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,method,proof_bytes,emit_s,check_s"
    assert len(rows) == 1 + 2 * 2   # header + {3,4} x {new,old}
    assert rows[1].startswith("3,new,")
    assert rows[2].startswith("3,old,")


def test_gen_count_n_n_lists_no_generator(tmp_path, capsys):
    # Count(3, 3)'s element swaps move no variable
    prefix = str(tmp_path / "count33")
    assert cli.main(["gen", "count", "3", "3", "-o", prefix, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"] == 0
    sidecar = json.loads(pathlib.Path(prefix + ".json").read_text())
    assert sidecar["symmetries"] == []


def test_compare_size_without_generators(tmp_path):
    # Count(3, 3) has no generator: its rows break nothing, and the bare
    # proof checks
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "count", "3..4", "--step", "1",
                     "-o", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["3", "new"], ["3", "old"],
                                     ["4", "new"], ["4", "old"]]
    header = len(parsing.HEADER) + 1
    assert [int(r[2]) == header for r in rows] == [True, True, False, False]


def test_compare_bad_range(tmp_path, capsys):
    assert cli.main(["compare", "php", "3-4"]) == 2
    assert "range" in capsys.readouterr().err


def test_compare_zero_step(tmp_path, capsys):
    assert cli.main(["compare", "php", "5..6", "--step", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --step must be at least 1")


# --------------------------------------------------------- number arguments

@pytest.mark.parametrize("argv", [
    ["gen", "php", "\u0663", "-o", "bad"],      # Arabic-Indic digit 3
    ["gen", "php", "1_0", "-o", "bad"],
    ["gen", "php", "3.0", "-o", "bad"],
    ["compare", "php", "3..4", "--step", "\u0661"],
    ["compare", "php", "3..4", "--step", "1_0"]])
def test_number_arguments_are_ascii_digits(tmp_path, capsys, monkeypatch,
                                           argv):
    # int() reads all of these; the number rule of the formats does not
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument " in err and "is not a number" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("size_range", ["3..\u0663", "1_0..12", "+3..4x"])
def test_compare_range_is_ascii_digits(capsys, size_range):
    assert cli.main(["compare", "php", size_range]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: size range must look like 5..30")


def test_compare_empty_range_is_an_error(capsys):
    assert cli.main(["compare", "php", "5..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: size range 5..3 is empty")


def test_number_arguments_take_a_sign(tmp_path, capsys):
    prefix = str(tmp_path / "php")
    assert cli.main(["gen", "php", "+3", "-o", prefix, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"] == 3
    assert cli.main(["compare", "php", "+3..3", "--step", "+1"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 2
