import pathlib

import pytest

from pbsym import constraints as pb
from pbsym import parsing

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
    assert parsing.serialize_proof(doc).strip().splitlines()[1] == "pol 1 2 +;"


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
    again = parsing.parse_proof(parsing.serialize_proof(doc))
    assert parsing.strip_lines(doc) == parsing.strip_lines(again)


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
