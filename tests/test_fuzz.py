"""Structural fuzzing of the proof boundary.

Deleting, duplicating or swapping one token or one whole line of a valid
proof must end in a verdict, a ParseError or a CheckError: no other
exception may escape parse_proof + check_document.  Two deterministic
mutations of the order steps of every source proof must be rejected.
"""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from pbsym import bench, breaker, checker, parsing
from pbsym import constraints as pb

DATA = pathlib.Path(__file__).parent / "data"


def _sources():
    """(formula, proof text) pairs: the golden proof, breaker output and
    the frozen cutting-planes proofs."""
    golden, _ = parsing.parse_opb((DATA / "php32.opb").read_text())
    out = [(golden, (DATA / "php32_lex.pbp").read_text())]
    php = bench.generate("php", (3,))
    for method in ("new", "old"):
        b = breaker.break_symmetries(php.constraints, php.variables,
                                     bench.known_generators(php), method=method)
        out.append((php.constraints, b.text()))
    # frozen proofs with weakening and division inside dom scopes
    for name in ("php4", "tseitin3"):
        out.append((parsing.parse_cnf((DATA / (name + ".cnf")).read_text()),
                    (DATA / (name + "_cp.pbp")).read_text()))
    tseitin = bench.generate("tseitin", (2,))
    b = breaker.break_symmetries(tseitin.constraints, tseitin.variables,
                                 bench.known_generators(tseitin))
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


@st.composite
def mutated_proofs(draw):
    formula, text = draw(st.sampled_from(SOURCES))
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
