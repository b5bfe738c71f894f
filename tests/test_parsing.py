import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from pbsym import constraints as pb
from pbsym import parsing

import render

DATA = pathlib.Path(__file__).parent / "data"


def test_parse_opb_basic():
    cons, variables = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    assert cons == [pb.normalize([(1, "x1"), (1, "x2")], 1)]
    assert variables == ["x1", "x2"]


def test_parse_opb_normalizes():
    cons, _ = parsing.parse_opb("+1 x1 -1 x2 >= 0 ;\n")
    assert cons[0] == pb.normalize([(1, "x1"), (1, "~x2")], 1)


def test_parse_opb_example_constraint():
    cons, _ = parsing.parse_opb("+2 ~x1 +3 x2 +2 x3 >= 5 ;\n")
    assert cons[0].terms == {"~x1": 2, "x2": 3, "x3": 2}


def test_parse_opb_reads_a_semicolon_attached_to_the_degree():
    attached = parsing.parse_opb("+1 x1 +2 x2 >= 1;\n")
    assert attached == parsing.parse_opb("+1 x1 +2 x2 >= 1 ;\n")
    assert attached[0] == [pb.normalize([(1, "x1"), (2, "x2")], 1)]


def test_render_cnf_refuses_what_dimacs_cannot_say():
    for text, message in [("+2 x1 >= 1 ;", "constraint +2 x1 >= 1 is not a "
                           "clause"), ("+1 y1 >= 1 ;", "non-indexed variable y1")]:
        with pytest.raises(parsing.ParseError) as e:
            parsing.render_cnf(parsing.parse_opb(text + "\n")[0], 1)
        assert str(e.value) == message


def test_parse_opb_rejects_bad_coefficient():
    with pytest.raises(parsing.ParseError):
        parsing.parse_opb("+x x1 >= 1 ;\n")


def test_parse_cnf_clause():
    cons = parsing.parse_cnf("p cnf 2 1\n1 2 0\n")
    assert cons == [pb.normalize([(1, "x1"), (1, "x2")], 1)]


def test_parse_cnf_negative_literals():
    cons = parsing.parse_cnf("p cnf 3 1\n-1 -3 0\n")
    assert cons == [pb.normalize([(1, "~x1"), (1, "~x3")], 1)]


def test_parse_cnf_rejects_out_of_range():
    with pytest.raises(parsing.ParseError):
        parsing.parse_cnf("p cnf 2 1\n3 0\n")


def test_parse_cnf_rejects_unterminated():
    with pytest.raises(parsing.ParseError):
        parsing.parse_cnf("p cnf 2 1\n1 2\n")


def test_php32_cnf_matches_opb():
    cnf = parsing.parse_cnf((DATA / "php32.cnf").read_text())
    opb, _ = parsing.parse_opb((DATA / "php32.opb").read_text())
    assert cnf == opb and len(cnf) == 9


def test_proof_header_required():
    with pytest.raises(parsing.ParseError):
        parsing.parse_proof("pol 1 2 +;\n")


def test_empty_proof():
    doc = parsing.parse_proof(parsing.HEADER + "\n")
    assert doc["steps"] == []


def test_single_pol_roundtrip():
    doc = parsing.parse_proof(parsing.HEADER + "\npol 1 2 +;\n")
    assert doc["steps"][0]["tokens"] == ["1", "2", "+"]
    assert render.proof_text(doc).strip().splitlines()[1] == "pol 1 2 +;"


def test_render_step_rejects_an_unknown_kind():
    out = []
    with pytest.raises(parsing.ParseError, match="cannot serialize step "
                       "kind 'bogus'"):
        parsing.render_step(out, {"kind": "bogus", "line": 1})
    assert out == []


def test_witness_arrow_form():
    doc = parsing.parse_proof(
        parsing.HEADER + "\nred +1 ~s1 +1 x1 >= 1 : s1 -> 0;\n")
    assert doc["steps"][0]["witness"] == {"s1": 0}


def test_witness_pair_list_form():
    text = (parsing.HEADER + "\n"
            "dom +1 t6 >= 1 : x5 x4 x6 x3 x1 x6 x2 x5 x3 x2 x4 x1 : subproof\n"
            "scope leq\nend scope;\nscope geq\nend scope;\nqed dom;\n")
    doc = parsing.parse_proof(text)
    w = doc["steps"][0]["witness"]
    assert w == {"x5": "x4", "x6": "x3", "x1": "x6",
                 "x2": "x5", "x3": "x2", "x4": "x1"}


@pytest.mark.parametrize("step,message", [
    ("rup +1 x1 ;", "missing '>='"),
    ("red +1 x1 >= 1 : x1 -> ;", "malformed arrow witness"),
    ("red +1 x1 >= 1 : x1 x3 -> ;", "malformed arrow witness"),
], ids=["rup-without-degree", "arrow-without-image", "arrow-misplaced"])
def test_malformed_step_names_its_line(step, message):
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_proof(parsing.HEADER + "\n" + step + "\n")
    assert str(e.value) == "line 2: " + message


def test_rup_with_relative_hints():
    doc = parsing.parse_proof(parsing.HEADER + "\nrup +1 t3 >= 1 : -1 22;\n")
    assert doc["steps"][0]["hints"] == [-1, 22]


def test_load_order_step():
    doc = parsing.parse_proof(
        parsing.HEADER + "\nload_order lex6 x5 x6 x1 x2 x3 x4;\n")
    s = doc["steps"][0]
    assert s["name"] == "lex6" and len(s["vars"]) == 6


def test_unknown_keyword_rejected():
    with pytest.raises(parsing.ParseError):
        parsing.parse_proof(parsing.HEADER + "\nfrobnicate 1;\n")


@pytest.mark.parametrize("kind,step", [
    ("red", "red +1 x1 >= 1 : x1 -> 1;"),
    ("dom", "dom +1 x1 >= 1 : x1 -> x3;"),
    ("del", "del range 1 2;"),
    ("load_order", "load_order lex1 x1;"),
])
def test_proofgoal_block_holds_only_pol_and_rup(kind, step):
    text = (parsing.HEADER + "\n"
            "dom +1 x1 >= 1 : x1 -> x3 x3 -> x1 : subproof\n"
            "scope leq\nproofgoal #1\n" + step + "\nqed #1;\n")
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_proof(text)
    assert e.value.line == 5
    assert str(e.value) == ("line 5: unknown keyword %r inside subproof"
                            % kind)


def test_unbalanced_scope_rejected():
    text = (parsing.HEADER + "\n"
            "dom +1 t4 >= 1 : x1 -> x3 : subproof\nscope leq\n")
    with pytest.raises(parsing.ParseError):
        parsing.parse_proof(text)


def test_golden_document_roundtrip():
    text = (DATA / "php32_lex.pbp").read_text()
    doc = parsing.parse_proof(text)
    again = parsing.parse_proof(render.proof_text(doc))
    assert render.strip_lines(doc) == render.strip_lines(again)


def test_golden_document_shape():
    doc = parsing.parse_proof((DATA / "php32_lex.pbp").read_text())
    kinds = [s["kind"] for s in doc["steps"]]
    assert kinds[0] == "def_order"
    assert kinds[1] == "load_order"
    assert kinds.count("dom") == 2
    assert kinds.count("del_range") == 4
    order = doc["steps"][0]
    assert len(order["spec"]) == 22
    assert len(order["def"]) == 1
    assert len(order["aux"]) == 11
    # the dollar prefix marks order-aux variables
    assert all(pb.is_aux_var(v) for v in order["aux"])


# ------------------------------------------------------------------ stream

def test_iter_proof_yields_steps_above_a_malformed_line():
    steps = parsing.iter_proof(parsing.HEADER + "\nrup +1 x1 >= 1;\n"
                               "pol 1 2 +;\nrup +1 x1 >=;\n")
    assert next(steps)["line"] == 2
    assert next(steps)["tokens"] == ["1", "2", "+"]
    with pytest.raises(parsing.ParseError) as e:
        next(steps)
    assert e.value.line == 4


@pytest.mark.parametrize("lines,line", [
    # a structural error, then a literal-rule error on the next line
    (["rup +1 x1 >=;", "rup +1 ~~x1 >= 1;"], 2),
    (["rup +1 ~~x1 >= 1;", "rup +1 x1 >=;"], 2),
    (["pol 1 2 +;", "frobnicate;", "rup +1 ~ >= 1;"], 3),
    # the literal rule holds in the spec rows of a def_order too
    (["def_order lex1", "vars", "left u1;", "right v1;", "aux $d1;",
      "end vars;", "spec", "red +1 ~$d1 +1 u1 >= 1 : $d1 -> 0 : 1;",
      "red +1 ~~u1 >= 1 : $d1 -> 0;"], 9),
], ids=["structural-first", "literal-first", "unknown-keyword",
        "in-def-order"])
def test_first_parse_error_in_file_order_is_reported(lines, line):
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_proof(parsing.HEADER + "\n" + "\n".join(lines) + "\n")
    assert e.value.line == line


def test_trailer_ends_the_proof():
    doc = parsing.parse_proof(parsing.HEADER + "\npol 1 2 +;\n"
                              "end pseudo-Boolean proof;\n\n* done\n")
    assert [s["kind"] for s in doc["steps"]] == ["pol"]


@pytest.mark.parametrize("tail,line", [
    (["end scope;", "rup +1 x1 >= 1;"], 2),
    (["end;"], 2),
    (["end pseudo-Boolean;"], 2),
    (["end pseudo-Boolean proof;", "* a comment", "rup +1 x1 >= 1;"], 4),
    (["end pseudo-Boolean proof;", "end pseudo-Boolean proof;"], 3),
    (["end pseudo-Boolean proof;", "rup +1 ~~x1 >= 1;"], 3),
], ids=["end-scope", "bare-end", "short-trailer", "step-after-trailer",
        "second-trailer", "malformed-after-trailer"])
def test_only_the_trailer_ends_a_proof(tail, line):
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_proof(parsing.HEADER + "\n" + "\n".join(tail) + "\n")
    assert e.value.line == line


# ------------------------------------------------------- constraint reader

def _outcome(read, toks):
    """What reading `toks` at line 7 gives: the terms in order and the
    degree, or the error message and line."""
    try:
        c = read(toks, 7)
    except parsing.ParseError as e:
        return "error", str(e), e.line
    return list(c.terms.items()), c.degree


def _normalized(toks, lineno):
    """The reference reader: every term through `normalize`."""
    terms, degree, rest = parsing._parse_terms(toks, lineno)
    if rest:
        raise parsing.ParseError("trailing tokens %r after constraint" % rest,
                                 lineno)
    return pb.normalize(terms, degree)


BIG = 2 ** 200
numbers = st.one_of(st.integers(-3, 3), st.integers(BIG // 2, BIG),
                    st.integers(-BIG, -BIG // 2))
# few names, so that terms repeat a literal or complement one
literals = st.sampled_from(["x1", "~x1", "x2", "~x2", "$d1", "~$d1", "x10"])


@st.composite
def spelled(draw, number):
    """`number` as the formats allow it: optional `+`, leading zeros."""
    text = "%s%d" % ("0" * draw(st.integers(0, 1)), abs(number))
    sign = "-" if number < 0 else draw(st.sampled_from(["", "+"]))
    return sign + text


@st.composite
def constraint_tokens(draw):
    toks = []
    for coef, lit in draw(st.lists(st.tuples(numbers, literals), max_size=6)):
        toks += [draw(spelled(coef)), lit]
    return toks + [">=", draw(spelled(draw(numbers)))]


@st.composite
def malformed_tokens(draw):
    """A constraint with one token dropped, replaced or added."""
    toks = draw(constraint_tokens())
    i = draw(st.integers(0, len(toks)))
    junk = st.sampled_from([">=", "x3", "1_0", "\u0661", "+", ":", "~x9",
                            "2", "-"])
    edit = draw(st.sampled_from(["drop", "replace", "insert"]))
    if edit == "insert":
        toks.insert(i, draw(junk))
    elif i < len(toks):
        if edit == "drop":
            del toks[i]
        else:
            toks[i] = draw(junk)
    return toks


@settings(max_examples=400, derandomize=True, deadline=None)
@given(constraint_tokens())
@example(["+1", "x1", "+1", "~x1", ">=", "1"])
@example(["+0", "x1", ">=", "-2"])
@example(["+2", "x1", "-1", "x1", ">=", "1"])
@example([">=", "0"])
def test_reader_returns_what_normalize_builds(toks):
    assert _outcome(parsing._read_constraint, toks) == \
        _outcome(_normalized, toks)
    assert _outcome(parsing._read_constraint, toks)[0] != "error"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(malformed_tokens())
@example(["+1", "x1", ">=", "1", "x2"])
@example(["+1", "x1", ">="])
@example(["+1", "x1", "+1"])
@example(["1", ">=", ">=", "1"])
def test_reader_raises_what_normalize_raises(toks):
    assert _outcome(parsing._read_constraint, toks) == \
        _outcome(_normalized, toks)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4).filter(bool), max_size=5),
                max_size=4))
def test_parse_cnf_clauses_are_what_normalize_builds(clauses):
    text = "p cnf 4 %d\n" % len(clauses) + "".join(
        " ".join(map(str, clause + [0])) + "\n" for clause in clauses)
    got = parsing.parse_cnf(text)
    want = [pb.normalize([(1, "x%d" % lit if lit > 0 else "~x%d" % -lit)
                          for lit in clause], 1) for clause in clauses]
    assert [(list(c.terms.items()), c.degree) for c in got] == \
        [(list(c.terms.items()), c.degree) for c in want]


def test_parse_opb_lists_variables_in_order_of_first_use():
    cons, variables = parsing.parse_opb(
        "+1 x3 +0 x9 -1 x1 >= 0 ;\n+1 x1 +2 ~x3 +1 ~x3 +1 x4 >= 2 ;\n")
    assert variables == ["x3", "x9", "x1", "x4"]
    assert list(cons[0].terms.items()) == [("x3", 1), ("~x1", 1)]
    assert list(cons[1].terms.items()) == [("x1", 1), ("~x3", 3), ("x4", 1)]


def test_parse_opb_keeps_its_error_messages():
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_opb("+1 x1 >= 1 ;\n+1 x1 >= 1 x2 ;\n")
    assert str(e.value) == "line 2: trailing tokens ['x2']"


# ------------------------------------------------------------------ numbers

@pytest.mark.parametrize("step,message", [
    ("rup \u0661 x2 >= 1;", "bad coefficient '\u0661'"),
    ("rup +1 x2 >= 1_0;", "bad degree '1_0'"),
    ("rup +1 x2 >= 1 : 1_0;", "bad hint '1_0'"),
    ("pol \u0661;", "bad number '\u0661'"),
    ("pol 1_0;", "bad number '1_0'"),
    ("del range 1_0 2_0;", "bad ID '1_0'"),
    ("red +1_0 x1 >= 1 : x1 -> 1;", "bad coefficient '+1_0'"),
], ids=["coefficient", "degree", "hint", "pol-digit", "pol-underscore",
        "del-range", "red"])
def test_a_number_is_ascii_digits(step, message):
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_proof(parsing.HEADER + "\n" + step + "\n")
    assert str(e.value) == "line 2: " + message


def test_goal_keys_and_qed_hints_are_numbers():
    head = (parsing.HEADER + "\n"
            "dom +1 x1 >= 1 : x1 -> x3 x3 -> x1 : subproof\nscope leq\n")
    for goal, message in [("proofgoal #1_0\nqed #10;", "line 4: bad "
                           "proofgoal key '1_0'"),
                          ("proofgoal #1\nqed #1 : \u0662;", "line 5: bad "
                           "qed hint '\u0662'")]:
        with pytest.raises(parsing.ParseError) as e:
            parsing.parse_proof(head + goal + "\n")
        assert str(e.value) == message


def test_numbers_keep_signs_and_leading_zeros():
    doc = parsing.parse_proof(parsing.HEADER + "\n"
                              "rup +01 x1 -1 x2 >= -0 : +3 -2 007;\n"
                              "pol 1 +2 + x\u00e91 +;\n")
    rup, pol = doc["steps"]
    assert rup["constraint"] == pb.normalize([(1, "x1"), (-1, "x2")], 0)
    assert rup["hints"] == [3, -2, 7]
    assert pol["tokens"] == ["1", "+2", "+", "x\u00e91", "+"]


def test_polish_reads_only_ascii_numbers():
    # what is no number is a literal: its axiom, never a constraint ID
    for tok in ("1_0", "\u0661"):
        assert pb.evaluate_polish([tok], None) == pb.literal_axiom(tok)
    assert pb.evaluate_polish(["+2"], {2: pb.FALSUM}.get) == pb.FALSUM


def test_dimacs_literals_are_numbers():
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_cnf("p cnf 2 1\n1 1_0 0\n")
    assert str(e.value) == "line 2: bad literal '1_0'"
    # of two faults on a line, the first token's is reported
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_cnf("p cnf 2 1\n3 x 0\n")
    assert str(e.value) == "line 2: literal 3 exceeds declared 2 variables"


@pytest.mark.parametrize("header,message", [
    ("p cnf 2 x", "bad clause count 'x'"),
    ("p cnf 2 -5", "bad clause count '-5'"),
    ("p cnf -3 1", "bad variable count '-3'"),
    ("p cnf \u0662 1", "bad variable count '\u0662'"),
    ("p cnf 2 1_0", "bad clause count '1_0'"),
])
def test_dimacs_header_counts_are_non_negative_numbers(header, message):
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_cnf(header + "\n1 2 0\n")
    assert str(e.value) == "line 1: " + message


def test_dimacs_clause_count_is_not_matched():
    assert len(parsing.parse_cnf("p cnf 2 7\n1 2 0\n")) == 1
    assert parsing.parse_cnf("c empty\np cnf +0 0\n") == []


def test_dimacs_second_header_is_an_error():
    # it would reset the bound a later clause's literals are checked against
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_cnf("p cnf 2 1\n1 2 0\np cnf 1 1\n1 0\n")
    assert str(e.value) == "line 3: second 'p cnf' header"


@pytest.mark.parametrize("tail", ["%\n0\n", "%\n", "  %  \n\nc end\n0\n\n",
                                  "%\nc end\n0"])
def test_dimacs_percent_line_ends_the_clauses(tail):
    # SATLIB's files end in `%` and a lone `0`
    text = "p cnf 3 2\n1 -2 0\n2 3 0\n"
    assert parsing.parse_cnf(text + tail) == parsing.parse_cnf(text)


@pytest.mark.parametrize("text,message", [
    ("p cnf 2 1\n1 2 0\n%\n0\n1 0\n",
     "line 5: '1 0' after the '%' line that ends the clauses"),
    ("p cnf 2 1\n1 2 0\n%\n0\n0\n",
     "line 5: '0' after the '%' line that ends the clauses"),
    ("p cnf 2 1\n1 2 0\n%\np cnf 2 1\n",
     "line 4: 'p cnf 2 1' after the '%' line that ends the clauses"),
    ("p cnf 2 1\n1 2\n%\n0\n",
     "line 3: clause before '%' lacks terminating 0"),
])
def test_dimacs_percent_line_tail_is_checked(text, message):
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_cnf(text)
    assert str(e.value) == message


# ----------------------------------------------------------------- comments

def test_a_comment_starts_with_star_after_blanks_only():
    doc = parsing.parse_proof(parsing.HEADER + "\n  * note\n\t*\n;\n"
                              "pol 1 2 +;\n")
    assert [s["line"] for s in doc["steps"]] == [5]
    # `;*` is not a comment: its first token is `*`, an unknown keyword
    with pytest.raises(parsing.ParseError) as e:
        parsing.parse_proof(parsing.HEADER + "\n;* rup +1 x1 >= 1;\n")
    assert str(e.value) == "line 2: unknown keyword '*'"
