"""Structural fuzzing of the proof boundary.

Deleting, duplicating or swapping one token or one whole line of a valid
proof must end in a verdict, a ParseError or a CheckError: no other
exception may escape parse_proof + check_document, and the CLI, which
checks the proof as a stream, must end as a check of the parsed proof
does, with no traceback.  Two deterministic
mutations of the order steps of every source proof must be rejected.  On
Tseitin(2) proofs, mutated or with a forged step, every step the checker
accepts must pass the per-step semantic oracle.
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from pbsym import bench, breaker, checker, cli, parsing
from pbsym import constraints as pb

from test_acceptance import check_each_step

DATA = pathlib.Path(__file__).parent / "data"


def _sources():
    """(formula, proof text) pairs: the golden proof, breaker output and
    the frozen cutting-planes proofs."""
    golden, _ = parsing.parse_opb((DATA / "php32.opb").read_text())
    out = [(golden, (DATA / "php32_lex.pbp").read_text())]
    php = bench.generate("php", (3,))
    for method in ("new", "old"):
        b = breaker.break_symmetries(php.constraints, php.variables,
                                     php.generators, method=method)
        out.append((php.constraints, b.text()))
    # frozen proofs with weakening and division inside dom scopes
    for name in ("php4", "tseitin3"):
        out.append((parsing.parse_cnf((DATA / (name + ".cnf")).read_text()),
                    (DATA / (name + "_cp.pbp")).read_text()))
    tseitin = bench.generate("tseitin", (2,))
    b = breaker.break_symmetries(tseitin.constraints, tseitin.variables,
                                 tseitin.generators)
    out.append((tseitin.constraints, b.text()))
    return out


SOURCES = _sources()


def _edit(items, op, i, j):
    """`items` with item i deleted, duplicated, or swapped with item j."""
    items = list(items)
    if op == "delete":
        del items[i]
    elif op == "duplicate":
        items.insert(i, items[i])
    else:
        items[i], items[j] = items[j], items[i]
    return items


def _tseitin_sources():
    """Tseitin(2), 4 formula variables, broken by both methods: small
    enough for the brute-force oracle at every step."""
    inst = bench.generate("tseitin", (2,))
    return [(inst.constraints,
             breaker.break_symmetries(inst.constraints, inst.variables,
                                      inst.generators,
                                      method=method).text())
            for method in ("new", "old")]


@st.composite
def mutated_proofs(draw, sources=SOURCES):
    formula, text = draw(st.sampled_from(sources))
    lines = text.split("\n")
    op = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    index = lambda n: draw(st.integers(0, n - 1))
    li = index(len(lines))
    if draw(st.booleans()):
        lines = _edit(lines, op, li, index(len(lines)))
    else:
        toks = lines[li].split(" ")
        lines[li] = " ".join(_edit(toks, op, index(len(toks)),
                                   index(len(toks))))
    return formula, "\n".join(lines)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated_proofs())
def test_structural_mutations_raise_only_proof_errors(case):
    formula, text = case
    try:
        checker.check_document(formula, parsing.parse_proof(text))
    except (parsing.ParseError, checker.CheckError):
        pass


def _two_phase(formula, text):
    """(exit code, verdict, reason, line) of a check of the parsed proof:
    exit 2 whenever parse_proof raises."""
    try:
        doc = parsing.parse_proof(text)
    except parsing.ParseError as e:
        return 2, None, None, e.line
    try:
        verdict, _ = checker.check_document(formula, doc)
    except checker.CheckError as e:
        return 1, "REJECTED", e.reason, e.line
    return 0, verdict, None, None


def _streamed(formula_path, proof_path):
    """(exit code, verdict, reason, line) of `pbsym check --json`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["check", str(formula_path), str(proof_path), "--json"])
    if rc == 2:
        m = re.match(r"error: (?:line (\d+): )?", err.getvalue())
        assert m, err.getvalue()
        return 2, None, None, m.group(1) and int(m.group(1))
    report = json.loads(out.getvalue())
    if rc == 1:
        line, reason = re.match(r"line:(\S+) goal:\S+ reason:(\S+) ",
                                report["error"]).groups()
        return 1, report["verdict"], reason, None if line == "-" else int(line)
    return rc, report["verdict"], None, None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated_proofs())
def test_streamed_cli_check_matches_a_check_of_the_parsed_proof(case):
    formula, text = case
    with tempfile.TemporaryDirectory() as tmp:
        formula_path = pathlib.Path(tmp, "f.opb")
        proof_path = pathlib.Path(tmp, "p.pbp")
        formula_path.write_text("".join(pb.render(c) + " ;\n"
                                        for c in formula))
        proof_path.write_text(text)
        expected = _two_phase(
            parsing.parse_opb(formula_path.read_text())[0], text)
        assert _streamed(formula_path, proof_path) == expected


TSEITIN = _tseitin_sources()


def _check_step_by_step(formula, text):
    """Run the per-step oracle over `text`, which may be rejected."""
    try:
        check_each_step(formula, parsing.parse_proof(text))
    except (parsing.ParseError, checker.CheckError):
        pass


@settings(max_examples=120, derandomize=True, deadline=None)
@given(mutated_proofs(TSEITIN))
def _check_mutation_step_by_step(case):
    _check_step_by_step(*case)


def test_steps_accepted_before_a_mutation_is_rejected_are_sound():
    # the per-step oracle over invalid proofs: a mutation may be rejected,
    # but every step the checker accepted before that must be sound
    t0 = time.perf_counter()
    _check_mutation_step_by_step()
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("forged", ["red +1 x1 >= 1 : x1 -> 1;",
                                    "red +1 ~x1 >= 1 : x1 -> 0;"],
                         ids=["x1", "~x1"])
@pytest.mark.parametrize("index", range(len(TSEITIN)), ids=["new", "old"])
def test_forged_red_step_is_rejected_or_sound(index, forged, at):
    # a red step that fixes a formula variable: the structural mutations
    # only reorder the breaker's reds, which define fresh variables and so
    # stay sound whatever their witness.  Where the witness does not map
    # the formula onto itself, the step must be rejected, or the oracle
    # sees a lost model
    formula, text = TSEITIN[index]
    lines = text.split("\n")
    if at == "first":
        where = 1 + next(i for i, line in enumerate(lines)
                         if line.startswith("load_order"))
    else:
        where = len(lines) - 1
    lines.insert(where, forged)
    _check_step_by_step(formula, "\n".join(lines))


def _first(doc, kind):
    return next(s for s in doc["steps"] if s["kind"] == kind)


def _rejection(formula, doc):
    with pytest.raises(checker.CheckError) as e:
        checker.check_document(formula, doc)
    return e.value


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_negated_bound_variable_is_rejected(index):
    formula, text = SOURCES[index]
    doc = parsing.parse_proof(text)
    load = _first(doc, "load_order")
    load["vars"][-1] = pb.neg(load["vars"][-1])
    e = _rejection(formula, doc)
    assert (e.reason, e.line) == ("bad-binding", load["line"])


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_formula_variable_in_order_def_is_rejected(index):
    formula, text = SOURCES[index]
    doc = parsing.parse_proof(text)
    order = _first(doc, "def_order")
    con = order["def"][0]
    x = min(formula[0].variables())
    order["def"][0] = pb.normalize(
        [(a, lit) for lit, a in con.terms.items()] + [(1, x)], con.degree)
    e = _rejection(formula, doc)
    assert (e.reason, e.line) == ("bad-order", order["line"])
