import bisect
import pathlib
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from pbsym import bench, breaker, checker
from pbsym import constraints as pb
from pbsym import parsing
from pbsym.checker import (Checker, CheckError, Frame, RootFrame, UNSAT,
                           VERIFIED, check_document)

from oracle import implies
import render

DATA = pathlib.Path(__file__).parent / "data"


def php32():
    cons, _ = parsing.parse_opb((DATA / "php32.opb").read_text())
    return cons


def golden_text():
    return (DATA / "php32_lex.pbp").read_text()


def check(formula, text, **kw):
    return check_document(formula, parsing.parse_proof(text), **kw)


def test_empty_proof_verifies():
    verdict, _ = check(php32(), parsing.HEADER + "\n")
    assert verdict == VERIFIED


def test_golden_proof_accepted():
    verdict, counters = check(php32(), golden_text())
    assert verdict == VERIFIED
    assert counters["rup_calls"] > 0


def test_pol_copy_and_relative_rup():
    text = (parsing.HEADER + "\n"
            "pol 1;\n"
            "rup +1 x1 +1 x2 >= 1 : -1;\n")
    verdict, _ = check(php32(), text)
    assert verdict == VERIFIED


def test_rup_refutation_concludes_unsat():
    # x1, ~x1 by unit propagation
    formula, _ = parsing.parse_opb("+1 x1 >= 1 ;\n+1 ~x1 >= 1 ;\n")
    verdict, _ = check(formula, parsing.HEADER + "\nrup >= 1;\n")
    assert verdict == UNSAT


def test_invisible_id_rejected():
    with pytest.raises(CheckError) as e:
        check(php32(), parsing.HEADER + "\npol 99;\n")
    assert e.value.reason == "invisible-id"


def test_failed_rup_rejected():
    with pytest.raises(CheckError) as e:
        # the negation of x1 + x2 >= 2 fixes nothing, so propagation stalls
        check(php32(), parsing.HEADER + "\nrup +1 x1 +1 x2 >= 2;\n")
    assert e.value.reason == "rup-failed"


def test_red_fresh_variable_accepted():
    text = parsing.HEADER + "\nred +1 ~s1 +1 x1 +1 ~x3 >= 1 : s1 -> 0;\n"
    verdict, counters = check(php32(), text)
    assert verdict == VERIFIED
    assert counters["implicit_reflexivity_skips"] == 1
    assert counters["spec_materializations"] == 0


def test_red_rejects_aux_constraint():
    text = parsing.HEADER + "\nred +1 $d6 >= 1 : $d6 -> 1;\n"
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason in ("aux-in-constraint", "aux-in-witness")


def test_red_rejects_underivable():
    # forcing both x1 and x2 is not redundant for PHP
    text = parsing.HEADER + "\nred +1 x1 +1 x2 >= 2 : zz -> 0;\n"
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason == "undischarged-goal"


def test_deletion_of_core_rejected():
    with pytest.raises(CheckError) as e:
        check(php32(), parsing.HEADER + "\ndel range 1 2;\n")
    assert e.value.reason == "core-delete"


def test_deletion_is_idempotent():
    text = (parsing.HEADER + "\n"
            "pol 1;\n"
            "del range 10 11;\n"
            "del range 10 11;\n")
    verdict, _ = check(php32(), text)
    assert verdict == VERIFIED


def test_deleted_id_becomes_invisible():
    text = (parsing.HEADER + "\n"
            "pol 1;\npol 2;\n"
            "del range 10 11;\n"
            "pol 10;\n")
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason == "invisible-id"


def test_ids_never_reused_after_deletion():
    text = (parsing.HEADER + "\n"
            "pol 1;\n"
            "del range 10 11;\n"
            "pol 2;\n"
            "pol 11;\n")
    verdict, _ = check(php32(), text)
    assert verdict == VERIFIED


def test_huge_deletion_range_is_bounded_by_assigned_ids():
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    text = parsing.HEADER + "\npol 1;\ndel range 2 10000000000;\n"
    t0 = time.perf_counter()
    verdict, _ = check(formula, text)
    assert verdict == VERIFIED
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(CheckError) as e:
        check(formula, text.replace("del range 2", "del range 1"))
    assert (e.value.reason, e.value.line) == ("core-delete", 3)


def test_load_order_requires_definition():
    with pytest.raises(CheckError) as e:
        check(php32(), parsing.HEADER + "\nload_order nope x1 x2;\n")
    assert e.value.reason == "unknown-order"


def _order_prefix(text):
    """The golden document up to and including load_order."""
    lines = text.splitlines()
    stop = next(i for i, l in enumerate(lines) if l.startswith("load_order"))
    return "\n".join(lines[: stop + 1]) + "\n"


def test_load_order_arity_mismatch():
    prefix = _order_prefix(golden_text())
    bad = prefix.replace("load_order lex6 x5 x6 x1 x2 x3 x4",
                         "load_order lex6 x5 x6 x1 x2 x3")
    with pytest.raises(CheckError) as e:
        check(php32(), bad)
    assert e.value.reason == "arity-mismatch"


def test_load_order_needs_empty_derived_set():
    prefix = _order_prefix(golden_text())
    lines = prefix.splitlines()
    # derive something before loading
    body = "\n".join(lines[:-1]) + "\npol 1;\n" + lines[-1] + "\n"
    with pytest.raises(CheckError) as e:
        check(php32(), body)
    assert e.value.reason == "derived-not-empty"


def test_dom_requires_loaded_order():
    text = (parsing.HEADER + "\n"
            "dom +1 t4 >= 1 : x1 -> x3 x3 -> x1 : subproof\n"
            "scope leq\nend scope;\nscope geq\nend scope;\nqed dom;\n")
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason == "no-order"


def test_dom_identity_witness_rejected():
    prefix = _order_prefix(golden_text())
    text = (prefix +
            "dom +1 t4 >= 1 : zz -> 0 : subproof\n"
            "scope leq\nend scope;\nscope geq\nend scope;\nqed dom;\n")
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason == "identity-witness"


def test_unknown_step_kind_rejected():
    with pytest.raises(CheckError) as e:
        Checker(php32()).run({"steps": [{"kind": "bogus", "line": 7}]})
    assert (e.value.reason, e.value.line) == ("invalid-step", 7)
    assert "unsupported step kind 'bogus'" in e.value.message


def test_red_step_in_a_goal_block_rejected():
    # a proofgoal block runs pol and rup steps only
    red = {"kind": "red", "line": 4,
           "constraint": pb.normalize([(1, "~s1")], 1), "witness": {"s1": 0}}
    block = {"key": "#1", "line": 3, "steps": [red], "qed_hint": None}
    with pytest.raises(CheckError) as e:
        checker.run_obligation([], [pb.normalize([(1, "x1")], 1)], [block],
                               "transitivity")
    assert (e.value.reason, e.value.line) == ("invalid-step", 4)
    assert "step 'red' not allowed inside a subproof" in e.value.message


def _core_trace(trace):
    return [int(t.split()[2].rstrip(":")) for t in trace
            if t.startswith("core goal ")]


def test_dom_nonsymmetry_witness_leaves_core_goal():
    prefix = _order_prefix(golden_text())
    # x1 -> x2 is not a symmetry of PHP(3,2); core goals cannot all discharge
    text = (prefix +
            "dom +1 t4 >= 1 : x1 -> x2 x2 -> x1 : subproof\n"
            "scope leq\nend scope;\nscope geq\nend scope;\nqed dom;\n")
    trace = []
    with pytest.raises(CheckError) as e:
        check(php32(), text, trace=trace)
    # the order goal, without a block, fails first
    assert (e.value.reason, e.value.goal, e.value.line) == (
        "undischarged-goal", "#1", prefix.count("\n") + 1)
    # of the touched core constraints 1, 4, 5, 7 and 8 only the image of
    # x1 + x2 >= 1 is in the core; the rest are pending
    assert _core_trace(trace) == [1]


def test_subproof_locals_invisible_after_qed():
    # the golden tau cleanup cites constraint 24 (a leq-scope local of the
    # first dom) nowhere; simulate a direct reference instead
    text = golden_text().replace("del range 10 26;", "pol 47;\ndel range 10 26;")
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason == "invisible-id"


def test_counters_deterministic():
    _, c1 = check(php32(), golden_text())
    _, c2 = check(php32(), golden_text())
    assert c1 == c2


def test_trace_collects_goal_decisions():
    trace = []
    check(php32(), golden_text(), trace=trace)
    assert trace
    # a dom step's core goals are the core constraints its witness
    # touches, the others being their own images: sigma = (x1 x3)(x2 x4)
    # leaves x5 + x6 >= 1 (ID 3) alone, tau moves every variable
    assert _core_trace(trace) == [1, 2, 4, 5, 6, 7, 8, 9] + list(range(1, 10))


def test_conclusion_unsat_requires_falsum():
    text = parsing.HEADER + "\nconclusion UNSAT;\n"
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.reason == "bad-conclusion"


def test_diagnostics_cite_source_line():
    text = parsing.HEADER + "\npol 1;\nrup +1 x1 +1 x2 >= 2;\n"
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert e.value.line == 3
    assert str(e.value).startswith("line:3")


REFLEXIVITY_BLOCK = "proofgoal #1\nrup >= 1;\nqed #1 : -1;\nqed proof;\nend reflexivity;"
GEQ_HEAD = "scope geq\nproofgoal #2\n"


def _drop_reflexivity_block(text):
    return text.replace(REFLEXIVITY_BLOCK, "qed proof;\nend reflexivity;")


def _repeat_reflexivity_block(text):
    block = "proofgoal #1\nrup >= 1;\nqed #1 : -1;\n"
    return text.replace(REFLEXIVITY_BLOCK, block + REFLEXIVITY_BLOCK)


def _drop_first_geq_block(text):
    start = text.index(GEQ_HEAD)
    stop = text.index("end scope;", start)
    return text[:start] + "scope geq\n" + text[stop:]


def _repeat_first_geq_block(text):
    start = text.index(GEQ_HEAD) + len("scope geq\n")
    stop = text.index("end scope;", start)
    return text[:stop] + text[start:stop] + text[stop:]


def _line_of(text, needle, occurrence):
    """1-based line of the `occurrence`-th line equal to `needle`."""
    hits = [i for i, l in enumerate(text.splitlines(), 1) if l == needle]
    return hits[occurrence - 1]


@pytest.mark.parametrize("edit,reason,goal,needle,occurrence", [
    # def_order obligation: a goal without a block, a block not pending
    (_drop_reflexivity_block, "undischarged-goal", "#1", "def_order lex6", 1),
    (_repeat_reflexivity_block, "unknown-goal", "#1", "proofgoal #1", 3),
    # dom scope: the same two situations, with the same two reasons
    (_drop_first_geq_block, "undischarged-goal", "#2",
     "dom +1 t4  >= 1 : x1 -> x3 x2 -> x4 x3 -> x1 x4 -> x2  : subproof", 1),
    (_repeat_first_geq_block, "unknown-goal", "#2", "proofgoal #2", 2),
], ids=["obligation-missing", "obligation-repeated", "dom-missing",
        "dom-repeated"])
def test_goal_reasons_agree_across_scopes(edit, reason, goal, needle,
                                          occurrence):
    text = edit(golden_text())
    with pytest.raises(CheckError) as e:
        check(php32(), text)
    assert (e.value.reason, e.value.goal) == (reason, goal)
    assert e.value.line == _line_of(text, needle, occurrence)


def test_rup_uses_only_its_hints():
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n+1 x2 >= 1 ;\n")
    verdict, _ = check(formula, parsing.HEADER + "\nrup +1 x2 >= 1;\n")
    assert verdict == VERIFIED
    # constraint 1 alone does not imply x2
    with pytest.raises(CheckError) as e:
        check(formula, parsing.HEADER + "\nrup +1 x2 >= 1 : 1;\n")
    assert (e.value.reason, e.value.line) == ("rup-failed", 2)


def _lex2_formula():
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n+1 x2 >= 1 ;\n")
    return formula


def _lex2_proof(step):
    return (parsing.HEADER + "\n" + render.lex_order_text(2) + "\n"
            "load_order lex2 x1 x2;\n" + step + "\n")


def test_red_order_goal_proved_over_spec_rows():
    # the witness touches the z-binding, so red must prove O(z|w, z); its
    # first RUP builds all six spec rows of lex2
    trace = []
    verdict, counters = check(_lex2_formula(),
                              _lex2_proof("red +1 ~x1 >= 1 : x1 -> 0;"),
                              trace=trace)
    assert verdict == VERIFIED
    assert trace[-1] == "goal #1: rup"
    assert counters["spec_materializations"] == 6
    assert counters["rup_calls"] == 1
    assert counters["implicit_reflexivity_skips"] == 0


def test_red_order_goal_rejected():
    # x1 -> 1 makes the assignment lex-larger, so O(z|w, z) does not hold
    with pytest.raises(CheckError) as e:
        check(_lex2_formula(), _lex2_proof("red +1 x1 >= 1 : x1 -> 1;"))
    assert (e.value.reason, e.value.goal) == ("undischarged-goal", "#1")


def test_hint_free_qed_without_contradiction_rejected():
    # transitivity of lex2 is not a RUP consequence of its premises
    text = _lex2_proof("")
    start = text.index("proofgoal #1\n", text.index("\ntransitivity\n"))
    stop = text.index("qed proof;\nend transitivity;")
    text = text[:start] + "proofgoal #1\nqed #1;\n" + text[stop:]
    with pytest.raises(CheckError) as e:
        check(_lex2_formula(), text)
    assert (e.value.reason, e.value.goal) == ("qed-failed", "#1")
    assert e.value.line == _line_of(text, "proofgoal #1", 1)


# Hint-free RUP runs on one propagator per frame chain.  Each proof below
# would be accepted by a propagator that kept constraints the step may no
# longer see.

def test_rup_cannot_use_deleted_constraint():
    # x3 >= 1 is redundant (red), not implied; the first rup puts it in the
    # propagator before it is deleted
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    text = (parsing.HEADER + "\n"
            "red +1 x3 >= 1 : x3 -> 1;\n"
            "rup +1 x3 +1 x2 >= 1;\n"
            "del range 2 4;\n"
            "rup +1 x3 >= 1;\n")
    with pytest.raises(CheckError) as e:
        check(formula, text)
    assert (e.value.reason, e.value.line) == ("rup-failed", 5)
    verdict, _ = check(formula, text.replace("del range 2 4;\n", ""))
    assert verdict == VERIFIED


def test_rup_cannot_use_a_row_deleted_below_a_live_one():
    # `del range 2 3` deletes the red's x3 >= 1 but keeps the rup's row
    # above it, which the engine already holds; undone to before x3 >= 1
    # and fed the rup's row again, the engine no longer propagates x3
    formula, _ = parsing.parse_opb((DATA / "del_then_rup.opb").read_text())
    text = (DATA / "del_then_rup.pbp").read_text()
    with pytest.raises(CheckError) as e:
        check(formula, text)
    assert (e.value.reason, e.value.line) == ("rup-failed", 5)
    verdict, _ = check(formula, text.replace("del range 2 3;\n", ""))
    assert verdict == VERIFIED


class _ReadCounter(dict):
    """A frame's `cons` that counts the entries read from it."""

    reads = 0

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item

    def __iter__(self):
        return (k for k, _v in self.items())

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_sync_reads_only_the_entries_added_since():
    # a sync of a frame that holds 10,000 rows, after one more was added,
    # reads that one row, not the rows the propagator already holds
    root = Frame()
    for i in range(10000):
        root.add(pb.normalize([(1, "x%d" % i), (1, "y%d" % i)], 1))
    engine = root.propagator()
    assert len(engine.rows) == 10000
    root.cons = _ReadCounter(root.cons)
    root.add(pb.normalize([(1, "z"), (1, "~x0")], 1))
    assert root.propagator() is engine
    assert len(engine.rows) == 10001
    assert root.cons.reads <= 2


# u1 <= v1 as an implication, and (u2, u3) <= (v2, v3) when v's sum is at
# least u's sum minus one, which is reflexive but not transitive: goal #1
# holds by RUP, goal #2 does not
IMPLIES_SUM = """def_order implies_sum
vars
left u1 u2 u3;
right v1 v2 v3;
aux;
end vars;
spec
end spec;
def
+1 ~u1 +1 v1 >= 1;
+1 v2 +1 v3 +1 ~u2 +1 ~u3 >= 1;
end def;
transitivity
vars
fresh_right w1 w2 w3;
fresh_aux_1;
fresh_aux_2;
end vars;
proof
proofgoal #1
qed #1;
proofgoal #2
qed #2;
qed proof;
end transitivity;
reflexivity
proof
qed proof;
end reflexivity;
end def_order;
"""


def test_proofgoal_block_cannot_use_earlier_block():
    # block #1 ends in a contradiction; block #2 may not inherit it
    text = parsing.HEADER + "\n" + IMPLIES_SUM
    with pytest.raises(CheckError) as e:
        check(_lex2_formula(), text)
    assert (e.value.reason, e.value.goal) == ("qed-failed", "#2")
    assert e.value.line == _line_of(text, "proofgoal #2", 1)


def test_geq_scope_cannot_use_leq_scope():
    # the leq block ends in a contradiction over the leq spec rows; the geq
    # scope has neither, and no contradiction of its own
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    dom = ("dom +1 x1 >= 1 : x1 -> 0 x2 -> 1 : subproof\n"
           "scope leq\n%s"
           "end scope;\nscope geq\nproofgoal #2\nqed #2;\nend scope;\n"
           "qed dom;")
    for leq in ("", "proofgoal #1\nqed #1;\n"):
        text = _lex2_proof(dom % leq)
        with pytest.raises(CheckError) as e:
            check(formula, text)
        assert (e.value.reason, e.value.goal) == ("qed-failed", "#2")
        assert e.value.line == _line_of(text, "proofgoal #2", 1)


def test_rup_cannot_use_negation_from_red():
    # red proves ~x3 + x1 >= 1 under not(x3 >= 1) = ~x3, which then goes
    formula, _ = parsing.parse_opb("+1 ~x3 +1 x1 >= 1 ;\n+1 x3 +1 x1 >= 1 ;\n")
    text = (parsing.HEADER + "\n"
            "red +1 x3 >= 1 : x3 -> 1;\n"
            "rup +1 ~x3 >= 1;\n")
    trace = []
    with pytest.raises(CheckError) as e:
        check(formula, text, trace=trace)
    assert (e.value.reason, e.value.line) == ("rup-failed", 3)
    assert "goal 1: rup" in trace


def _broken(family, params, method, first=False):
    inst = bench.generate(family, params)
    syms = inst.generators
    built = breaker.break_symmetries(inst.constraints, inst.variables,
                                     syms[:1] if first else syms,
                                     method=method)
    return inst.constraints, built.text()


def _broken_php(n, method, first=False):
    return _broken("php", (n,), method, first)


def _frozen_cp(name):
    """A proof of the first generator by the retired cutting-planes variant
    of the new method, kept as data: the only breaker proofs with weakening
    and division inside dom scopes."""
    formula = parsing.parse_cnf((DATA / (name + ".cnf")).read_text())
    return formula, (DATA / (name + "_cp.pbp")).read_text()


# verdicts and counters of breaker proofs; a hint-free RUP reads every
# spec row in scope, so spec_materializations does not depend on how many
# lemmas a dom scope writes.  A scope whose witness fixes bound positions
# builds only lex<m> over the m positions it moves and counts the rest
# aliased (1092 rows built on PHP(5) before scopes were contracted,
# 484 + 608 now);
# the cutting-planes proofs have pol steps in scope, so they build all
@pytest.mark.parametrize("source,counters", [
    ((_broken_php, 5, "new"), {"rup_calls": 461, "spec_materializations": 484,
                               "spec_rows_aliased": 608,
                               "implicit_reflexivity_skips": 234}),
    ((_broken_php, 5, "old"), {"rup_calls": 302, "spec_materializations": 0,
                               "spec_rows_aliased": 0,
                               "implicit_reflexivity_skips": 110}),
    # the first generator moves 14 of PHP(8)'s 56 variables, so its order
    # is lex14, and the dom step's leq and geq scopes build 2 * (4 * 14 - 2)
    # spec rows (an order over all 56 would build 2 * 222 = 444); it fixes
    # no bound position, so no row is aliased
    ((_broken_php, 8, "new", True), {"rup_calls": 107,
                                     "spec_materializations": 108,
                                     "spec_rows_aliased": 0,
                                     "implicit_reflexivity_skips": 54}),
    ((_frozen_cp, "php4"), {"rup_calls": 24, "spec_materializations": 92,
                            "spec_rows_aliased": 0,
                            "implicit_reflexivity_skips": 22}),
    # Tseitin(3)'s first generator is a negation after a nonempty prefix
    ((_frozen_cp, "tseitin3"), {"rup_calls": 16, "spec_materializations": 92,
                                "spec_rows_aliased": 0,
                                "implicit_reflexivity_skips": 14}),
], ids=["php5-new", "php5-old", "php8-first-new", "php4-new-cp",
        "tseitin3-new-cp"])
def test_breaker_proof_counters_pinned(source, counters):
    make, *args = source
    formula, text = make(*args)
    verdict, got = check_document(formula, parsing.parse_proof(text))
    assert verdict == VERIFIED
    assert got == counters


@pytest.mark.parametrize("value,reason", [
    ("UNSAT : 3", None),
    ("UNSAT : -1", None),
    ("unsat : 3", None),
    ("UNSAT:3", None),
    ("UNSAT : 1", "bad-conclusion"),
    ("UNSAT:1", "bad-conclusion"),
    ("UNSAT :", "bad-conclusion"),
    ("UNSAT : 7", "invisible-id"),
    ("UNSAT 3", "bad-conclusion"),
    ("UNSAT : x", "bad-conclusion"),
    # the ID is a number by the parser's rule: ASCII [+-]?[0-9]+
    ("UNSAT : +3", None),
    ("UNSAT : \u0663", "bad-conclusion"),
    ("SAT : 1", None),
])
def test_hinted_conclusion_cites_a_visible_contradiction(value, reason):
    # ID 3 is the falsum the rup derives; ID 1 is a formula clause
    formula, _ = parsing.parse_opb("+1 x1 >= 1 ;\n+1 ~x1 >= 1 ;\n")
    text = parsing.HEADER + "\nrup >= 1;\nconclusion %s;\n" % value
    if reason is None:
        check(formula, text)
        return
    with pytest.raises(CheckError) as e:
        check(formula, text)
    assert (e.value.reason, e.value.line) == (reason, 3)


def test_del_range_from_below_one_walks_no_unassigned_id(monkeypatch):
    # no ID below 1 is ever assigned, so a range from -10**15 removes what
    # one from 1 removes, and no more
    removed = []
    real = RootFrame.remove

    def remove(self, cid):
        removed.append(cid)
        assert len(removed) <= 10, "del range walks unassigned IDs"
        real(self, cid)

    monkeypatch.setattr(RootFrame, "remove", remove)
    formula, _ = parsing.parse_opb(
        (DATA / "del_range_negative.opb").read_text())
    proof = (DATA / "del_range_negative.pbp").read_text()
    assert "del range -1000000000000000 1;" in proof
    assert check(formula, proof)[0] == VERIFIED
    assert removed == []
    chk = Checker([])
    chk.run(parsing.parse_proof(parsing.HEADER + "\n"
                                "red +1 x1 >= 1 : x1 -> 1;\n"
                                "red +1 x2 >= 1 : x2 -> 1;\n"
                                "del range -1000000000000000 3;\n"))
    assert removed == [1, 2]
    assert chk.root.cons == {}


@pytest.mark.parametrize("method", ["new", "old"])
def test_dom_scope_steps_follow_from_what_their_frame_sees(monkeypatch,
                                                           method):
    # the per-step oracle inside dom scopes: an accepted pol or rup follows
    # from the live top-level entries, the negated dom constraint, the
    # scope's spec rows and order constraints, the negated goal and the
    # block's earlier steps; three variables and one swap keep every frame
    # small enough to enumerate
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 +1 x3 >= 1 ;\n"
                                   "+1 ~x1 +1 ~x2 >= 1 ;\n")
    built = breaker.break_symmetries(formula, ["x1", "x2", "x3"],
                                     [{"x1": "x2", "x2": "x1"}],
                                     method=method)
    doc = parsing.parse_proof(built.text())
    audited = []

    def audit(handler):
        def run_step(frame, step):
            if frame.state is None:  # a def_order obligation
                return handler(frame, step)
            seen, f = [], frame
            while f is not None:
                seen += [f.get(cid) for cid in f.ids if cid in f.cons]
                f = f.parent
            handler(frame, step)
            assert implies(seen, frame.get(frame.ids[-1])), step
            audited.append(step)
        return run_step

    for kind, handler in list(checker._SUBPROOF_STEPS.items()):
        monkeypatch.setitem(checker._SUBPROOF_STEPS, kind, audit(handler))
    assert check_document(formula, doc)[0] == VERIFIED
    in_dom = sum(len(block["steps"]) for step in doc["steps"]
                 if step["kind"] == "dom"
                 for block in step["leq"] + step["geq"])
    assert len(audited) == in_dom > 0


# The checker's root engine lives through `del range`: it is undone to the
# mark of the earliest deleted entry it holds and fed the live entries after
# it.  These tests hold it to a fresh engine over the live rows, and to a
# reference that builds the engine again after every deletion.

_lits = st.integers(1, 4).flatmap(
    lambda i: st.sampled_from(["x%d" % i, "~x%d" % i]))
_cons = st.builds(pb.normalize,
                  st.lists(st.tuples(st.integers(1, 2), _lits),
                           min_size=1, max_size=3),
                  st.integers(1, 2))
# root add, child frame push (with one premise), add to the top child,
# pop, del range (start, length) at the root, hint-free RUP at the top
_engine_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _cons),
    st.tuples(st.just("push"), _cons),
    st.tuples(st.just("child"), _cons),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("del"), st.tuples(st.integers(1, 12),
                                        st.integers(1, 3))),
    st.tuples(st.just("rup"), _cons),
), max_size=24)


def _con(text):
    return parsing.parse_opb(text + " ;\n")[0][0]


# x1 and ~x1 conflict at ID 2, which goes; x2 still propagates
CONFLICT_ROW_DELETED = [
    ("add", _con("+1 x1 >= 1")), ("add", _con("+1 ~x1 >= 1")),
    ("add", _con("+1 x2 >= 1")), ("rup", _con("+1 x3 >= 1")),
    ("del", (2, 1)), ("rup", _con("+1 x1 >= 1"))]
# ID 3 goes first, then ID 2 below it
LATER_DELETED_FIRST = [
    ("add", _con("+1 x1 >= 1")), ("add", _con("+1 ~x1 +1 x2 >= 1")),
    ("add", _con("+1 ~x2 +1 x3 >= 1")), ("add", _con("+1 ~x3 +1 x4 >= 1")),
    ("rup", _con("+1 x4 >= 1")), ("del", (3, 1)), ("del", (2, 1)),
    ("rup", _con("+1 x4 >= 1"))]
# ID 2 goes while the child frame holding ~x2 is synced
DELETED_UNDER_SYNCED_CHILD = [
    ("add", _con("+1 x1 >= 1")), ("add", _con("+1 ~x1 +1 x2 >= 1")),
    ("push", _con("+1 ~x2 >= 1")), ("rup", _con("+1 x3 >= 1")),
    ("del", (2, 1)), ("rup", _con("+1 x3 >= 1"))]


def _chain(frame):
    chain = []
    while frame is not None:
        chain.append(frame)
        frame = frame.parent
    return chain[::-1]


def _run_engine_script(script):
    """Run `script` on a root frame; after each RUP the engine must equal
    a fresh one fed the live rows of the chain, root first.  Returns the
    cases the script hit."""
    root = RootFrame(None)
    frames, cases, conflict_row_gone = [root], set(), False
    for op, arg in script:
        if op == "add":
            root.add(arg)
        elif op == "push":
            frames.append(Frame(parent=frames[-1], premises=[arg]))
        elif op == "child" and len(frames) > 1:
            frames[-1].add(arg)
        elif op == "pop" and len(frames) > 1:
            frames.pop()
        elif op == "del":
            start, n = arg
            for cid in range(start, start + n):
                pos = bisect.bisect_left(root.ids, cid)
                if cid not in root.cons or pos >= len(root.marks):
                    continue  # not an entry the engine holds
                if root.cut is not None and pos < root.cut:
                    cases.add("later-deleted-first")
                if len(root.synced) > 1:
                    cases.add("deleted-under-synced-child")
                # the row that put the engine in conflict: it was not in
                # conflict before the row was fed, and was after
                after = [m for m in root.marks[pos + 1:] if m is not None]
                after = after[0] if after else (
                    root.synced[1][1] if len(root.synced) > 1
                    else root.engine.mark())
                if not root.marks[pos][2] and after[2]:
                    conflict_row_gone = True
                root.remove(cid)
        elif op == "rup":
            engine = frames[-1].propagator()
            fresh = pb.Propagator()
            for f in _chain(frames[-1]):
                for cid in f.ids:
                    if cid in f.cons:
                        fresh.add(f.cons[cid])
            assert engine.conflict == fresh.conflict
            assert engine.assignment() == fresh.assignment()
            assert engine.rup(arg) == fresh.rup(arg)
            if conflict_row_gone:
                cases.add("conflict-row-deleted")
                conflict_row_gone = False
    return cases


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_engine_ops)
@example(CONFLICT_ROW_DELETED)
@example(LATER_DELETED_FIRST)
@example(DELETED_UNDER_SYNCED_CHILD)
def test_engine_after_deletions_equals_a_fresh_one(script):
    _run_engine_script(script)


@pytest.mark.parametrize("script,case", [
    (CONFLICT_ROW_DELETED, "conflict-row-deleted"),
    (LATER_DELETED_FIRST, "later-deleted-first"),
    (DELETED_UNDER_SYNCED_CHILD, "deleted-under-synced-child"),
])
def test_engine_examples_hit_their_case(script, case):
    assert case in _run_engine_script(script)


def _rebuild_on_remove(monkeypatch):
    """The reference: a removal that drops an entry drops the engine too,
    and the next hint-free RUP feeds every live row again."""
    real = RootFrame.remove

    def remove(self, cid):
        had = cid in self.cons
        real(self, cid)
        if had:
            self.engine, self.marks, self.cut = None, [], None

    monkeypatch.setattr(RootFrame, "remove", remove)


def _outcome(formula, text):
    """Verdict, counters and trace of a check, or the error it ends in."""
    trace = []
    try:
        verdict, counters = check(formula, text, trace=trace)
    except CheckError as e:
        return ("rejected", e.reason, e.line, e.goal), trace
    except parsing.ParseError as e:
        return ("malformed", str(e)), trace
    return (verdict, dict(counters)), trace


def _data_case(name):
    # a proof's formula is its stem's .opb or .cnf, else that of the stem
    # before the last "_" (php32_lex.pbp checks against php32.opb)
    for stem in (name, name.rsplit("_", 1)[0]):
        if (DATA / (stem + ".opb")).exists():
            formula, _ = parsing.parse_opb((DATA / (stem + ".opb")).read_text())
            break
        if (DATA / (stem + ".cnf")).exists():
            formula = parsing.parse_cnf((DATA / (stem + ".cnf")).read_text())
            break
    return formula, (DATA / (name + ".pbp")).read_text()


_DIFF_CASES = (
    [pytest.param(_data_case, (p.stem,), id=p.stem)
     for p in sorted(DATA.glob("*.pbp"))]
    + [pytest.param(_broken, (fam, params, method, first),
                    id="%s%s-%s-%s" % (fam, "".join(map(str, params)), method,
                                       "first" if first else "all"))
       for fam, params in (("php", (4,)), ("count", (5, 3)),
                           ("tseitin", (3,)))
       for method in ("new", "old") for first in (True, False)])


@pytest.mark.parametrize("make,args", _DIFF_CASES)
def test_check_matches_a_rebuild_after_every_deletion(monkeypatch, make,
                                                      args):
    formula, text = make(*args)
    got = _outcome(formula, text)
    with monkeypatch.context() as m:
        _rebuild_on_remove(m)
        assert _outcome(formula, text) == got


@pytest.mark.parametrize("method,rows,rebuilt_rows", [
    ("old", 2976, 8124), ("new", 7327, 12475)])
def test_deletion_feeds_only_the_rows_after_the_cut(monkeypatch, method,
                                                    rows, rebuilt_rows):
    # PHP(8), all generators: a fragment's `del range` undoes the root
    # engine to before the rows it deletes, and the check keeps one root
    # engine; rows counts every row Propagator.add receives, the shared
    # scratch engine included, and rebuilt_rows is that count when every
    # deletion builds the root engine again, from every live row (12 times
    # here).  `new`'s dom scopes feed only the spec rows of the positions
    # their witness moves (11559 and 16707 rows when they fed all)
    formula, text = _broken_php(8, method)
    fed, engines = [0], []
    real_add, real_propagator = pb.Propagator.add, Frame.propagator

    def add(self, c):
        fed[0] += 1
        return real_add(self, c)

    def propagator(self):
        engine = real_propagator(self)
        if isinstance(_chain(self)[0].state, Checker):
            if not any(engine is e for e in engines):
                engines.append(engine)
        return engine

    monkeypatch.setattr(pb.Propagator, "add", add)
    monkeypatch.setattr(Frame, "propagator", propagator)
    assert check(formula, text)[0] == VERIFIED
    assert (fed[0], len(engines)) == (rows, 1)
    fed[0], engines[:] = 0, []
    _rebuild_on_remove(monkeypatch)
    assert check(formula, text)[0] == VERIFIED
    assert (fed[0], len(engines)) == (rebuilt_rows, 13)


def _pigeon_cycle(n):
    """PHP(n) and the proof `new` writes for its pigeon n-cycle, one
    generator that moves all n(n - 1) variables."""
    inst = bench.generate("php", (n,))
    names = inst.names
    cycle = {names["p%d_h%d" % (i, j)]: names["p%d_h%d" % (i % n + 1, j)]
             for i in range(1, n + 1) for j in range(1, n)}
    built = breaker.break_symmetries(inst.constraints, inst.variables,
                                     [cycle], method="new")
    return inst.constraints, built.text()


def _dom_rup_assignments(monkeypatch, formula, text):
    """The hint-free RUPs inside dom steps, and the literals they put on
    the trail before the engine was undone."""
    in_dom, start, got = [False], [None], [0, 0]
    real_dom, real_rup = Checker.step_dom, pb.Propagator.rup
    real_undo = pb.Propagator.undo

    def step_dom(self, step):
        in_dom[0] = True
        try:
            return real_dom(self, step)
        finally:
            in_dom[0] = False

    def rup(self, goal):
        if in_dom[0]:
            got[0] += 1
            start[0] = len(self.trail)
        try:
            return real_rup(self, goal)
        finally:
            start[0] = None

    def undo(self, mark):
        if start[0] is not None:
            got[1] += len(self.trail) - start[0]
        return real_undo(self, mark)

    monkeypatch.setattr(Checker, "step_dom", step_dom)
    monkeypatch.setattr(pb.Propagator, "rup", rup)
    monkeypatch.setattr(pb.Propagator, "undo", undo)
    assert check(formula, text)[0] == VERIFIED
    return tuple(got)


def test_dom_rup_assignments_do_not_grow_with_the_support(monkeypatch):
    # the pigeon cycle of PHP(8) moves k = 56 variables, of PHP(12) 132;
    # the negated lemma of a dom-scope RUP conflicts next to where it
    # starts, so breadth-first propagation assigns about 12.3 literals per
    # RUP at either size, where a depth-first walk down the $d/$a chain
    # assigned 14.8 and 27.5 (with 4k - 3 more leq lemmas, each cheap)
    php8 = _dom_rup_assignments(monkeypatch, *_pigeon_cycle(8))
    php12 = _dom_rup_assignments(monkeypatch, *_pigeon_cycle(12))
    assert (php8, php12) == ((277, 3374), (657, 8162))
    assert php12[1] / php12[0] <= php8[1] / php8[0] + 1
