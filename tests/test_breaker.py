import collections
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pbsym import bench
from pbsym import breaker
from pbsym import constraints as pb
from pbsym import orders
from pbsym import parsing
from pbsym.checker import (
    UNSAT, VERIFIED, Checker, CheckError, check_document, spec_rule,
)

import oracle
import polish_reference
import render

DATA = pathlib.Path(__file__).parent / "data"


def php32():
    return parsing.parse_opb((DATA / "php32.opb").read_text())


def sigma():
    return parsing.parse_symmetry("(x1 x3)(x2 x4)")


def tau():
    return parsing.parse_symmetry(
        "x5 -> x4 x6 -> x3 x1 -> x6 x2 -> x5 x3 -> x2 x4 -> x1")


def checked(formula, builder):
    return check_document(formula, parsing.parse_proof(builder.text()))


# ------------------------------------------------------------- symmetries

def test_parse_cycles():
    s = sigma()
    assert s == {"x1": "x3", "x3": "x1", "x2": "x4", "x4": "x2"}


def test_parse_arrow_list():
    lits = pb.witness_lits(tau())
    assert lits["x5"] == "x4"
    assert lits["~x5"] == "~x4"


def test_parse_negation_cycle():
    s = parsing.parse_symmetry("(x1 ~x1)")
    assert s == {"x1": "~x1"}
    assert pb.witness_lits(s)["~x1"] == "x1"


def test_parse_rejects_non_permutation():
    with pytest.raises(parsing.ParseError):
        parsing.parse_symmetry("x1 -> x2 x3 -> x2")


def test_parse_rejects_garbage():
    with pytest.raises(parsing.ParseError):
        parsing.parse_symmetry("x1 x2 x3")


def test_identity_mappings_dropped():
    s = parsing.parse_symmetry("x1 -> x1 x2 -> x3 x3 -> x2")
    assert list(s) == ["x2", "x3"]


def test_apply_constraint():
    cons, _ = php32()
    s = sigma()
    assert (pb.substitute(cons[0], pb.witness_lits(s))
            == pb.normalize([(1, "x3"), (1, "x4")], 1))


def verify(formula, sym):
    return breaker.verify_symmetry(formula, sym, breaker.occurrences(formula))


def test_verify_symmetry_accepts_both_generators():
    cons, _ = php32()
    assert verify(cons, sigma())
    assert verify(cons, tau())


def test_verify_symmetry_rejects_non_symmetry():
    cons, _ = php32()
    with pytest.raises(breaker.BreakError):
        verify(cons, parsing.parse_symmetry("(x1 x2)"))


def reference_verify(formula, sym):
    """:func:`breaker.verify_symmetry` as it was before the variable index:
    scan the whole formula and compare substituted constraints."""
    moved = [c for c in formula if not sym.keys().isdisjoint(c.variables())]
    lits = pb.witness_lits(sym)
    return (collections.Counter(pb.substitute(c, lits) for c in moved)
            == collections.Counter(moved))


def test_verify_symmetry_counts_duplicates():
    # (x1 x2) maps the set {x1 >= 1, x2 >= 1} onto itself, but the formula
    # has x1 >= 1 twice and x2 >= 1 once
    x1, x2 = (pb.normalize([(1, v)], 1) for v in ("x1", "x2"))
    swap = parsing.parse_symmetry("(x1 x2)")
    assert verify([x1, x2, x1, x2], swap)
    assert not reference_verify([x1, x1, x2], swap)
    with pytest.raises(breaker.BreakError, match="missing"):
        verify([x1, x1, x2], swap)


@pytest.mark.parametrize("sym", [
    pytest.param({"x1": 0}, id="constant-0"),
    pytest.param({"x1": 1, "x2": "x2"}, id="constant-1"),
    pytest.param({"x1": "x3", "x2": "x3", "x3": "x1"}, id="two-onto-one"),
    pytest.param({"x1": "~x3", "x3": "~x3"}, id="two-onto-one-negated"),
    pytest.param({"x1": "x2"}, id="image-off-the-support"),
])
def test_verify_symmetry_requires_a_literal_permutation(sym):
    # under such a witness an image could merge terms or fold constants,
    # which comparing renamed (terms, degree) keys does not model
    cons, _ = php32()
    with pytest.raises(breaker.BreakError, match="permute"):
        verify(cons, sym)


_vars = ["x%d" % i for i in range(1, 5)]
_formulas = st.lists(st.builds(
    pb.normalize,
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(
        _vars + ["~" + v for v in _vars])), max_size=3),
    st.integers(-1, 2)), max_size=6)


@st.composite
def _literal_permutations(draw, variables=_vars):
    images = draw(st.permutations(variables))
    flips = draw(st.lists(st.booleans(), min_size=len(variables),
                          max_size=len(variables)))
    return {v: ("~" + w if flip else w)
            for v, w, flip in zip(variables, images, flips) if flip or v != w}


@settings(max_examples=300)
@given(_formulas, _literal_permutations())
def test_verify_symmetry_agrees_with_substitution(formula, sym):
    # closing the formula under sym makes a symmetry of it more often
    lits = pb.witness_lits(sym)
    closed = formula + [pb.substitute(c, lits) for c in formula]
    for f in (formula, closed):
        try:
            got = verify(f, sym)
        except breaker.BreakError:
            got = False
        assert got == reference_verify(f, sym)


def test_choose_binding_puts_first_support_last():
    # only the variables a generator moves are bound: x5 and x6 are not
    got = breaker.choose_binding(["x%d" % i for i in range(1, 7)], [sigma()])
    assert got == ["x1", "x2", "x3", "x4"]


def test_choose_binding_binds_the_union_of_supports():
    # the second generator's support comes first, in formula order, then
    # the first generator's; x6 and x8, which neither moves, are left out
    variables = ["x3", "x1", "x6", "x2", "x5", "x4", "x7", "x8"]
    first = parsing.parse_symmetry("(x7 x5)")
    got = breaker.choose_binding(variables, [first, sigma()])
    assert got == ["x3", "x1", "x2", "x4", "x5", "x7"]
    assert breaker.choose_binding(variables, [sigma(), first]) == [
        "x5", "x7", "x3", "x1", "x2", "x4"]


# -------------------------------------------------------- order definition

def _set_aside_transitivity(step):
    """Empty the transitivity goal of the def_order `step`, a copy, and
    return the steps it had."""
    (goal,) = step["transitivity"]["goals"]
    steps, goal["steps"] = goal["steps"], []
    return steps


def _assert_lex_transitivity_shape(steps, n):
    """The transitivity goal of lex(n): 3n-2 rup lemmas, each citing at
    most 6 hints, then one pol."""
    *lemmas, last = steps
    assert len(lemmas) == 3 * n - 2
    assert all(s["kind"] == "rup" and 1 <= len(s["hints"]) <= 6
               for s in lemmas)
    assert last["kind"] == "pol"


def test_lex_definition_matches_golden_block():
    # the golden proof keeps the older cutting planes transitivity proof;
    # everything else in the definition is the same
    golden = parsing.parse_proof((DATA / "php32_lex.pbp").read_text())
    mine = parsing.parse_proof(
        parsing.HEADER + "\n" + render.lex_order_text(6) + "\n")
    got = render.strip_lines(mine["steps"][0])
    want = render.strip_lines(golden["steps"][0])
    _assert_lex_transitivity_shape(_set_aside_transitivity(got), 6)
    _set_aside_transitivity(want)
    assert got == want


def _check_definition(definition, name, n):
    """Check the def_order text `definition` of the order `name` over n
    variables and load it."""
    binding = " ".join("x%d" % i for i in range(1, n + 1))
    text = (parsing.HEADER + "\n" + definition + "\n"
            + "load_order %s %s;\n" % (name, binding))
    formula, _ = parsing.parse_opb(
        "".join("+1 x%d >= 0 ;\n" % i for i in range(1, n + 1)))
    return check_document(formula, parsing.parse_proof(text))


@pytest.mark.parametrize("n", list(range(1, 13)) + [40])
def test_lex_definition_validates(n):
    verdict, _ = _check_definition(render.lex_order_text(n),
                                   "lex%d" % n, n)
    assert verdict == VERIFIED


def test_lex_transitivity_needs_every_step():
    # each mutant leaves one step out and renumbers the IDs cited after it,
    # so a step that cited the missing lemma loses that hint or pol term
    step = breaker.build_lex_order(3)
    (goal,) = step["transitivity"]["goals"]
    steps = goal["steps"]
    assert len(steps) == 8
    first = 3 * len(step["spec"]) + 4   # the first step's ID
    for i in range(len(steps)):
        gone = first + i
        mutant = []
        for s in steps[:i] + steps[i + 1:]:
            if s["kind"] == "rup":
                s = dict(s, hints=[h - (h > gone) for h in s["hints"]
                                   if h != gone])
            else:
                toks = list(s["tokens"])
                if str(gone) in toks:   # P_n, the first of four terms
                    toks.remove(str(gone))
                    toks.remove("+")
                s = dict(s, tokens=[str(int(t) - (int(t) > gone))
                                    if t.isdigit() else t for t in toks])
            mutant.append(s)
        goal["steps"] = mutant
        with pytest.raises(CheckError):
            _check_definition(render.step_text(step), "lex3", 3)


@pytest.mark.parametrize("n", [2, 4])
def test_big_definition_validates(n):
    verdict, _ = _check_definition(render.big_order_text(n),
                                   "biglex%d" % n, n)
    assert verdict == VERIFIED


def test_lex_spec_passes_specification_check():
    order = breaker.build_lex_order(3)
    assert orders.verify_specification(order["spec"], order["aux"],
                                       spec_rule())


def test_lex_definition_line_count_linear():
    lines10 = render.lex_order_text(10).count("\n")
    lines40 = render.lex_order_text(40).count("\n")
    assert lines40 < 5 * lines10


# ------------------------------------------------------------ full proofs

def _mask_ids(obj):
    """Structural copy of a parsed proof without line numbers, with the
    constraint IDs of pol steps (integer tokens that are not a multiplier
    or divisor), rup hints and del range bounds replaced by "#"."""
    if isinstance(obj, list):
        return [_mask_ids(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: _mask_ids(v) for k, v in obj.items() if k != "line"}
    kind = obj.get("kind")
    if kind == "pol":
        toks = obj["tokens"]
        out["tokens"] = [
            "#" if t.lstrip("-").isdigit() and nxt not in ("*", "d") else t
            for t, nxt in zip(toks, toks[1:] + [None])]
    elif kind == "rup" and obj["hints"] is not None:
        out["hints"] = ["#"] * len(obj["hints"])
    elif kind == "del_range":
        out["start"] = out["stop"] = "#"
    return out


def _dropped_steps(steps, reference):
    """The steps of `reference` left out of `steps`, which must be a
    subsequence of it."""
    dropped, i = [], 0
    for ref in reference:
        if i < len(steps) and steps[i] == ref:
            i += 1
        else:
            dropped.append(ref)
    assert i == len(steps), "not a subsequence of the reference block"
    return dropped


def test_php32_document_matches_golden():
    # the golden proof carries rup and pol steps that restate constraints
    # already in scope or that unit propagation finds anyway; the breaker
    # leaves those out and keeps every other step but the transitivity
    # proof, whose golden form is the older cutting planes one
    cons, variables = php32()
    b = breaker.break_symmetries(cons, variables, [sigma(), tau()])
    doc = parsing.parse_proof(b.text())
    golden = parsing.parse_proof((DATA / "php32_lex.pbp").read_text())
    got, ref = _mask_ids(doc["steps"]), _mask_ids(golden["steps"])
    assert [s["kind"] for s in got] == [s["kind"] for s in ref]
    dropped = []
    for step, want in zip(got, ref):
        if step["kind"] == "def_order":
            _assert_lex_transitivity_shape(_set_aside_transitivity(step), 6)
            _set_aside_transitivity(want)
        if step["kind"] != "dom":
            assert step == want
            continue
        assert (step["constraint"], step["witness"]) == (want["constraint"],
                                                         want["witness"])
        for scope in ("leq", "geq"):
            assert ([(g["key"], g["qed_hint"]) for g in step[scope]]
                    == [(g["key"], g["qed_hint"]) for g in want[scope]])
            for block, wblock in zip(step[scope], want[scope]):
                dropped += _dropped_steps(block["steps"], wblock["steps"])
    assert {s["kind"] for s in dropped} <= {"rup", "pol"}
    assert len(dropped) == 116
    verdict, _ = check_document(cons, doc)
    assert verdict == VERIFIED


def test_php32_document_counters():
    cons, variables = php32()
    b = breaker.break_symmetries(cons, variables, [sigma(), tau()])
    verdict, counters = checked(cons, b)
    assert verdict == VERIFIED
    # 88 spec rows in all: the order binds x5 x6 x1 x2 x3 x4, and sigma
    # fixes x5 and x6, so its two scopes, lex4 over x1..x4, skip the
    # 2 * 8 rows of those
    assert counters["spec_materializations"] == 72
    assert counters["spec_rows_aliased"] == 16
    assert counters["implicit_reflexivity_skips"] == 36
    assert counters["rup_calls"] == 70


def test_old_method_verifies_and_agrees():
    cons, variables = php32()
    new = breaker.break_symmetries(cons, variables, [sigma(), tau()])
    old = breaker.break_symmetries(cons, variables, [sigma(), tau()],
                                   method="old")
    verdict, _ = checked(cons, old)
    assert verdict == VERIFIED
    assert collections.Counter(new.kept) == collections.Counter(old.kept)


def test_kept_constraints_are_clauses():
    cons, variables = php32()
    b = breaker.break_symmetries(cons, variables, [sigma(), tau()])
    assert len(b.kept) == 26      # (3k - 2) for k = 4 and k = 6, twice over
    assert all(c.degree == 1 and set(c.terms.values()) == {1} for c in b.kept)


@pytest.mark.parametrize("left_out", range(len(breaker.LEQ_FAMILIES)))
@pytest.mark.parametrize("family,params,needed", [
    ("php", (5,), (True, True, True)),
    # Count's generators can spare t_j v ~$a_{p_j}; PHP's cannot
    ("count", (5, 3), (True, False, True))])
def test_each_leq_lemma_family_is_needed(family, params, needed, left_out,
                                         monkeypatch):
    # families, not single lemmas: at the ends of the chain a single
    # lemma can be spared on some instances
    inst = bench.generate(family, params)
    monkeypatch.setattr(breaker, "LEQ_FAMILIES", tuple(
        f for i, f in enumerate(breaker.LEQ_FAMILIES) if i != left_out))
    b = breaker.break_symmetries(inst.constraints, inst.variables,
                                 inst.generators)
    if not needed[left_out]:
        assert checked(inst.constraints, b)[0] == VERIFIED
        return
    with pytest.raises(CheckError) as e:
        checked(inst.constraints, b)
    assert e.value.reason == "rup-failed"


def test_single_transposition_fragment():
    cons, variables = php32()
    swap = parsing.parse_symmetry("(x1 x3)(x2 x4)")
    b = breaker.break_symmetries(cons, variables, [swap])
    verdict, _ = checked(cons, b)
    assert verdict == VERIFIED
    assert len(b.kept) == 3 * 4 - 2


def test_non_suffix_support_still_verifies():
    # with tau first, the binding leaves sigma's support at positions 1..4
    cons, variables = php32()
    b = breaker.break_symmetries(cons, variables, [tau(), sigma()])
    verdict, _ = checked(cons, b)
    assert verdict == VERIFIED


def test_identity_symmetry_adds_nothing():
    cons, variables = php32()
    b = breaker.break_symmetries(cons, variables, [{}])
    assert b.kept == []
    assert b.text() == parsing.HEADER + "\n"


def test_fixed_point_in_a_witness_is_dropped():
    # parse_symmetry drops x -> x, and so does the breaker for a witness
    # dict; kept, its clause would be ~x + x >= 1, a tautology
    cons, variables = parsing.parse_opb(
        "+1 x1 +1 x2 >= 1 ;\n+1 x1 +1 x3 >= 1 ;\n+1 x2 +1 x3 >= 1 ;\n")
    fixed = {"x1": "x1", "x2": "x3", "x3": "x2"}
    for method in ("new", "old"):
        b = breaker.break_symmetries(cons, variables, [fixed], method=method)
        want = breaker.break_symmetries(cons, variables,
                                        [{"x2": "x3", "x3": "x2"}],
                                        method=method)
        assert b.kept == want.kept
        assert not any(c.is_tautology() for c in b.kept)


def test_breaking_satisfiable_formula_is_sound():
    # a negation symmetry of x1 + x2 = 1; the broken formula stays SAT
    cons, variables = parsing.parse_opb(
        "+1 x1 +1 x2 >= 1 ;\n+1 ~x1 +1 ~x2 >= 1 ;\n")
    flip = parsing.parse_symmetry("(x1 ~x1)(x2 ~x2)")
    verify(cons, flip)
    b = breaker.break_symmetries(cons, variables, [flip])
    verdict, _ = checked(cons, b)
    assert verdict == VERIFIED
    from oracle import satisfiable
    assert satisfiable(list(cons) + list(b.kept))


def test_old_method_breaks_negation_symmetries():
    # Tseitin's generator maps every x_i to ~x_i, so the wanted clauses
    # repeat a variable and only match once saturated
    inst = bench.generate("tseitin", (2,))
    gens = inst.generators
    b = breaker.break_symmetries(inst.constraints, inst.variables, gens,
                                 method="old")
    verdict, _ = checked(inst.constraints, b)
    assert verdict == VERIFIED
    assert len(b.kept) == sum(3 * len(g) - 2 for g in gens) == 10
    assert oracle.equisat(inst.constraints, b.kept)


_six = ["x%d" % i for i in range(1, 7)]


@st.composite
def _symmetric_formulas(draw):
    """A formula over six variables closed under a literal permutation,
    which is then a symmetry of it, and a variable order."""
    sym = draw(_literal_permutations(_six))
    formula = draw(st.lists(st.builds(
        pb.normalize,
        st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(
            _six + ["~" + v for v in _six])), min_size=1, max_size=3),
        st.integers(0, 2)), min_size=1, max_size=3))
    lits = pb.witness_lits(sym)
    closed, new = dict.fromkeys(formula), formula
    while new:
        new = [c for c in (pb.substitute(c, lits) for c in new)
               if c not in closed]
        closed.update(dict.fromkeys(new))
    return list(closed), draw(st.permutations(_six)), sym


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_symmetric_formulas(), st.sampled_from(["new", "old"]))
def test_breaking_a_random_symmetric_formula(case, method):
    # the proof checks, UNSAT only where the formula is, and the kept
    # clauses, over the formula's variables and the chain variables, keep
    # its satisfiability
    formula, variables, sym = case
    b = breaker.break_symmetries(formula, variables, [sym], method=method)
    verdict, _ = checked(formula, b)
    assert verdict == VERIFIED or (verdict == UNSAT
                                   and oracle.satisfiable(formula) is None)
    assert oracle.equisat(formula, b.kept)


@pytest.mark.parametrize("family,params", [
    ("php", (5,)), ("count", (6, 3)), ("tseitin", (3,))])
def test_old_dom_constraint_is_the_order_instance(family, params):
    # built over the support alone, it is the biglex instance O(z, sigma z)
    # over the whole binding
    inst = bench.generate(family, params)
    gens = inst.generators
    b = breaker.ProofBuilder(inst.constraints, inst.variables, "old")
    b.begin(gens)
    for sym in gens:
        fr = breaker._Fragment(b.binding, b.position, sym)
        left = [sym.get(z, z) for z in b.binding]
        assert (breaker._big_constraint(len(b.binding),
                                        zip(fr.pos, fr.xs, fr.imgs))
                == orders.instance(b.order, b.binding, left)[1][0])


# ------------------------------------------------------ aggregate carving

def reference_carve(big, lemmas, wanted):
    """Carving as it was first written: a fold of add over multiply, then
    one weaken per unwanted variable, in term order."""
    cur = big
    for lem, coef in lemmas:
        cur = polish_reference.add(cur, polish_reference.multiply(lem, coef))
    weakened = []
    for var in [pb.var_of(l) for l in cur.terms]:
        if var not in wanted:
            cur = polish_reference.weaken(cur, var)
            weakened.append(var)
    return cur, weakened


def carve(big, lemmas, wanted):
    """The arithmetic of :meth:`breaker.ProofBuilder._carve_clause`: a copy
    of the big constraint's LinearSum, each lemma added times its
    multiplier, then each variable not in `wanted` weakened, in term order."""
    base = pb.LinearSum().add(big)
    cur = base.copy()
    for lem, coef in lemmas:
        cur.add(lem, coef)
    weakened = [var for var in cur.coef if var not in wanted]
    for var in weakened:
        cur.weaken(var)
    # the base is shared by every clause of a generator
    assert base.constraint() == big
    return cur.constraint(), weakened


BIG = 2 ** 70
# few variables, and big coefficients that often coincide, so that sums
# cancel exactly, flip polarity and clamp their degree at 0
_coeffs = st.one_of(st.integers(1, 3), st.sampled_from([BIG, BIG + 1]),
                    st.integers(BIG, 4 * BIG))
_lits = st.sampled_from(_vars + ["~" + v for v in _vars])
_wide = st.builds(pb.normalize, st.lists(st.tuples(_coeffs, _lits),
                                         max_size=5),
                  st.one_of(st.integers(0, 4), _coeffs))


def C(*terms, ge):
    return pb.normalize(list(terms), ge)


@settings(max_examples=300)
@given(_wide, st.lists(st.tuples(_wide, st.one_of(st.integers(1, 4),
                                                  st.just(BIG))),
                       max_size=4),
       st.sets(st.sampled_from(_vars)))
@example(C((BIG, "x1"), (1, "x2"), ge=1), [(C((1, "~x1"), ge=0), BIG)],
         {"x2"})                                                 # cancel
@example(C((BIG, "x1"), (1, "x2"), ge=1),                        # cancel,
         [(C((1, "~x1"), ge=0), BIG), (C((2, "x1"), ge=1), 1)],  # then back
         {"x1", "x2"})
@example(C((1, "x1"), (2, "x2"), (1, "~x3"), ge=1),              # flips
         [(C((2, "x4"), (3, "~x1"), (5, "x3"), ge=2), BIG)], {"x1", "x4"})
@example(C((5, "x1"), ge=2), [(C((5, "~x1"), (1, "x2"), ge=1), 1),
                              (C((1, "x3"), ge=1), 1)], {"x3"})  # clamp
def test_carve_is_the_fold_of_add_and_weaken(big, lemmas, wanted):
    got, got_weakened = carve(big, lemmas, wanted)
    want, want_weakened = reference_carve(big, lemmas, wanted)
    # term order too: a carved clause is kept, and written, in it
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.degree == want.degree
    assert got_weakened == want_weakened


ROUND_TRIP_INSTANCES = [("php", (n,)) for n in range(3, 7)] + [
    ("tseitin", (2,)), ("count", (4, 3))]


# the "-False-False" in these cases' ids once named two more parameters,
# the cutting-planes variant (now removed) and first-generator-only; the
# ids keep that form so that results stay comparable across versions
@pytest.mark.parametrize("method", ["new", "old"],
                         ids=["new-False-False", "old-False-False"])
@pytest.mark.parametrize("family,params", ROUND_TRIP_INSTANCES)
def test_breaker_output_is_a_serializer_fixed_point(family, params, method):
    inst = bench.generate(family, params)
    b = breaker.break_symmetries(inst.constraints, inst.variables,
                                 inst.generators, method=method)
    text = b.text()
    assert render.proof_text(parsing.parse_proof(text)) == text


@pytest.mark.parametrize("name", ["php4_cp", "tseitin3_cp"])
def test_frozen_cp_proof_is_a_serializer_fixed_point(name):
    # the only proofs here with weakening and division inside dom scopes
    text = (DATA / (name + ".pbp")).read_text()
    assert render.proof_text(parsing.parse_proof(text)) == text


# sha256 of the proof text of all known generators; a change to what the
# breaker writes must edit a pin here, on purpose
PROOF_TEXT_PINS = [
    ("php", (5,), "new",
     "91284e85891fedb2585fbef02649642463072faaa4ea98017e7d1f039ab178e8"),
    ("php", (5,), "old",
     "f761021ad08022bb6c88f4da1e17e176c7acb0f47d8274af2c94960e082fe565"),
    ("count", (6, 3), "new",
     "ae5d01b2b6c3bea9ab451ae1869a5e1a88352403ade2143200fac2091f1a9f3e"),
    ("count", (6, 3), "old",
     "3a1def2338520085c7d6546b89276ddbb88b4c396187971530687481917a80a6"),
    ("tseitin", (3,), "new",
     "1aa08e645c68a3add8f7d08146efd4d447de285a7a32ef2d6f5e94cf3bb9322f"),
    ("tseitin", (3,), "old",
     "97d490f754fb7d7a8802cf643e10779e5339b6bab9fb9fd6076e426571d338d4"),
    # long carving chains, with many polarity flips in their sums
    ("php", (9,), "old",
     "d5f959ed3d7a3f2befcd915f86142ea3963340ae7dd81d32c50c23fa9571b78f"),
]

# sha256 of the augmented formula text (formula, then kept clauses) of the
# same cases, as `pbsym break` writes it to .opb: kept clauses render in
# term order.  The "first" entries break the first known generator alone,
# which leaves variables out of the order; their sha256 were computed with
# an order over every formula variable, so they pin that the .opb does not
# depend on which variables the order binds
FORMULA_TEXT_PINS = [
    ("php", (5,), "all", "new",
     "60fa2a05985337ba953a9d00126f1bcb59d849de117de8d275222d299a536931"),
    ("php", (5,), "all", "old",
     "25249d960912cf919d51e4180de1321bda9e8f7dff76d372fff97e22def630ee"),
    ("count", (6, 3), "all", "new",
     "e341c65fd00231822334f41f230e73f4d9b478b7cb7957ac8d19b3252d58b1c3"),
    ("count", (6, 3), "all", "old",
     "920cf01f902d5b4b85add09d13aa96de102290bf97700d37ed4b9af95a5a6763"),
    ("tseitin", (3,), "all", "new",
     "08d18e5367fd452736ce5f27568685e5dfe8c55ef661564c6a2155975cdb8b66"),
    ("tseitin", (3,), "all", "old",
     "adfc3dbc6200fd11660170b3deee345b147ca8b5d9e6871cc6adb1daf1cd209d"),
    ("php", (9,), "all", "old",
     "39c6e7bf5d03916089a523ac9f8fda1bfc67d8531f99d431c390a242a4f849aa"),
    ("php", (5,), "first", "new",
     "044c771d1131e19f05615f575ddc2dea9fe9726cd33346a810e76a9eaed49b70"),
    ("php", (5,), "first", "old",
     "8b87a3a82fcb945d96bea886eddf27716a5e5044c4e1ae95514cb007236667ba"),
    ("php", (8,), "first", "new",
     "f40c2f67e89b89dd9fab7a467e33203509202f26b410e2575fecf18131dcfb25"),
    ("php", (8,), "first", "old",
     "069863def501e38c4f8e7328fbea3a476ae35801b340c35500376db37b65fa50"),
    ("count", (6, 3), "first", "new",
     "9a209538e5b0114d448ee729c9e98df26d9327b9f895da76eafa8fbe333c9311"),
    ("count", (6, 3), "first", "old",
     "26768eea7777f609814e16e1a4ae6e1c39934476ecfd9a2d65c276836b199a34"),
    ("tseitin", (3,), "first", "new",
     "5a57fbe94d2e634968f31d614c6fdf51f62c6e41633c7bedf7d98e83c2352f7f"),
    ("tseitin", (3,), "first", "old",
     "e5a14358f74de995c743616ea6c327ce5750c13a2a5fe7ae5722a3ede3079869"),
]


@pytest.mark.parametrize(
    "family,params,method,sha", PROOF_TEXT_PINS,
    # ids in the form of the fixed-point test's above
    ids=["%s-params%d-%s-False-False-%s" % (fam, i, method, sha)
         for i, (fam, _params, method, sha) in enumerate(PROOF_TEXT_PINS)])
def test_breaker_proof_text_pinned(family, params, method, sha):
    inst = bench.generate(family, params)
    b = breaker.break_symmetries(inst.constraints, inst.variables,
                                 inst.generators, method=method)
    assert hashlib.sha256(b.text().encode()).hexdigest() == sha


@pytest.mark.parametrize(
    "family,params,gens,method,sha", FORMULA_TEXT_PINS,
    ids=["%s%s-%s%s" % (fam, params, "" if gens == "all" else "first-", method)
         for fam, params, gens, method, _sha in FORMULA_TEXT_PINS])
def test_breaker_formula_text_pinned(family, params, gens, method, sha):
    inst = bench.generate(family, params)
    syms = inst.generators
    b = breaker.break_symmetries(inst.constraints, inst.variables,
                                 syms if gens == "all" else syms[:1],
                                 method=method)
    text = "".join("%s ;\n" % pb.render(c)
                   for c in list(inst.constraints) + list(b.kept))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def _pigeon_cycle(inst, n):
    """PHP(n)'s pigeon n-cycle: every pigeon moves to the next one."""
    names = inst.names
    return {names["p%d_h%d" % (i, j)]: names["p%d_h%d" % (i % n + 1, j)]
            for i in range(1, n + 1) for j in range(1, n)}


def _hole_cycle(inst, n):
    """PHP(n)'s hole (n - 1)-cycle: every hole moves to the next one."""
    names = inst.names
    return {names["p%d_h%d" % (i, j)]: names["p%d_h%d" % (i, j % (n - 1) + 1)]
            for i in range(1, n + 1) for j in range(1, n)}


def _cycle_set(inst, n):
    """One pigeon swap, the pigeon n-cycle, one hole swap and the hole
    (n - 1)-cycle, which generate PHP(n)'s symmetry group."""
    gens = inst.generators
    return [gens[0], _pigeon_cycle(inst, n), gens[n - 1], _hole_cycle(inst, n)]


# sha256 of the .pbp and .opb text of PHP(6) broken with cycles, which move
# up to k = 30 variables each, so `old` carves long chains of |U|-bit sums
CYCLE_TEXT_PINS = [
    ("pigeon-cycle", "new",
     "b15c4dd8798ba40c1dfcd146f2ffa30d01a651a6d614ad82b7de8d127e7f7b40",
     "b16b0419cc0932405aa3a165aba2034bc14833021185fe9e75e2faa7c79a884f"),
    ("pigeon-cycle", "old",
     "40b2eaf16635ebeeb6106e061edb6315c0a6596d965d9241e22a886619490ee6",
     "67e2f1c7d2f3f82132e23c566d206efc4e39b92011fa953f7cbd91e0aaba538c"),
    ("cycle-set", "new",
     "08a85fdc1ab108f262d80ee09df094acca30b6f397ca7ec2b482020c07f578cb",
     "1bd6df44f3bf459e90bc38f335d80f82a493af99907ca508c429015513ce9a61"),
    ("cycle-set", "old",
     "fb2ce81a25da79f25cc8c17e077f46f1252596048fca334bc44ec0865ed709d0",
     "4ddac08266664e74a99a99bd30d90ef72981db5d667fdb0479efa6cb397e1a6a"),
]


@pytest.mark.parametrize("gens,method,pbp_sha,opb_sha", CYCLE_TEXT_PINS)
def test_breaker_cycle_text_pinned(gens, method, pbp_sha, opb_sha):
    inst = bench.generate("php", (6,))
    syms = ([_pigeon_cycle(inst, 6)] if gens == "pigeon-cycle"
            else _cycle_set(inst, 6))
    b = breaker.break_symmetries(inst.constraints, inst.variables, syms,
                                 method=method)
    opb = "".join("%s ;\n" % pb.render(c)
                  for c in list(inst.constraints) + list(b.kept))
    assert hashlib.sha256(b.text().encode()).hexdigest() == pbp_sha
    assert hashlib.sha256(opb.encode()).hexdigest() == opb_sha


def _all_variables_binding(variables, syms):
    """The binding of an order over every formula variable, the first
    generator's support last: the reference that the kept clauses of the
    order over U are compared with."""
    supp = set(syms[0])
    return ([v for v in variables if v not in supp]
            + [v for v in variables if v in supp])


@pytest.mark.parametrize("method", ["new", "old"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family,params", [
    ("php", (5,)), ("php", (8,)), ("count", (6, 3)), ("tseitin", (3,))])
def test_kept_clauses_do_not_depend_on_unmoved_variables(
        family, params, m, method, monkeypatch):
    # the first m known generators; the order binds U, the union of their
    # supports, and the kept clauses, term order included, are those of an
    # order over every variable
    inst = bench.generate(family, params)
    syms = inst.generators[:m]
    moved = set().union(*syms)
    b = breaker.break_symmetries(inst.constraints, inst.variables, syms,
                                 method=method)
    load, = [s for s in parsing.parse_proof(b.text())["steps"]
             if s["kind"] == "load_order"]
    assert len(load["vars"]) == len(moved) and set(load["vars"]) == moved
    assert b.binding == load["vars"]
    monkeypatch.setattr(breaker, "choose_binding", _all_variables_binding)
    ref = breaker.break_symmetries(inst.constraints, inst.variables, syms,
                                   method=method)
    assert len(ref.binding) == len(inst.variables)
    assert ([(list(c.terms.items()), c.degree) for c in b.kept]
            == [(list(c.terms.items()), c.degree) for c in ref.kept])
    for built in (b, ref):
        verdict, _ = checked(inst.constraints, built)
        assert verdict == VERIFIED


def _printed_clauses(formula, text):
    """What each top-level pol step of the proof `text` derives: its
    program evaluated over the constraints that the IDs it cites hold in
    a checker run up to that step."""
    chk = Checker(formula)
    out = []
    for step in parsing.parse_proof(text)["steps"]:
        if step["kind"] == "pol":
            out.append(pb.evaluate_polish(step["tokens"], chk.root.get_rel))
        getattr(chk, Checker.STEPS[step["kind"]])(step)
    assert chk.conclude() == VERIFIED
    return out


@pytest.mark.parametrize("method", ["new", "old"])
@pytest.mark.parametrize("family,params", [
    ("php", (5,)), ("count", (6, 3)), ("tseitin", (3,)), ("rphp", (2,)),
    ("clqcl", (6, 3, 2))])
def test_kept_clauses_are_what_the_proof_derives(family, params, method):
    # the top-level pol steps are exactly the kept clauses' derivations;
    # a carved clause is kept as the breaker computed it, so it must equal,
    # term order included, what its printed program derives
    inst = bench.generate(family, params)
    b = breaker.break_symmetries(inst.constraints, inst.variables,
                                 inst.generators, method=method)
    got = [(list(c.terms.items()), c.degree) for c in b.kept]
    want = [(list(c.terms.items()), c.degree)
            for c in _printed_clauses(inst.constraints, b.text())]
    assert got == want


FAMILY_SIZES = [("php", (5,)), ("rphp", (2,)), ("clqcl", (6, 3, 2)),
                ("count", (6, 3)), ("tseitin", (3,))]


@pytest.mark.parametrize("method", ["new", "old"])
@pytest.mark.parametrize("family,params,gens", [
    (family, params, gens) for family, params in FAMILY_SIZES
    for gens in ("first", "all")] + [("php", (6,), "cycles")])
def test_builder_ids_are_the_checkers(family, params, gens, method):
    # ProofBuilder.dominance allocates the IDs that Checker.step_dom does;
    # an ID allocated too many or too few after a fragment's last cited ID
    # leaves every proof valid, but the two counters apart
    inst = bench.generate(family, params)
    if gens == "cycles":
        syms = _cycle_set(inst, 6)
    else:
        syms = inst.generators[:1] if gens == "first" else inst.generators
    b = breaker.break_symmetries(inst.constraints, inst.variables, syms,
                                 method=method)
    chk = Checker(inst.constraints)
    assert chk.run(parsing.parse_proof(b.text())) == VERIFIED
    assert chk.root.counter[0] == b.next_id


# ------------------------------------------------- the circuit is lex<k>

def _lex_renamed(xs, imgs, s, t):
    """lex<k>'s spec rows, k = len(xs), under u -> xs, v -> imgs, $a -> s
    and $d -> t, each witness renamed to match; only the $a rows if t is
    empty."""
    k = len(xs)
    lex = orders.lex(k)
    names = dict(zip(lex["aux"], list(s) + list(t)))
    rename = dict(zip(lex["left"], xs))
    rename.update(zip(lex["right"], imgs))
    rename.update(names)
    lits = pb.witness_lits(rename)
    rows = lex["spec"] if t else lex["spec"][:2 * (k - 1)]
    return [(pb.substitute(c, lits), {names[x]: h for x, h in w.items()})
            for c, w in rows]


def _exact(rows):
    return [(list(c.terms.items()), c.degree, w) for c, w in rows]


def _circuit_cases():
    """(xs, imgs) pairs: k = 1..8 over fresh names, images a reversal with
    every other image negated, and the support of every generator of every
    family of FAMILY_SIZES, negation generators included."""
    for k in range(1, 9):
        xs = ["x%d" % i for i in range(1, k + 1)]
        yield pytest.param(xs, [pb.neg(x) if i % 2 else x for i, x in
                                enumerate(reversed(xs))], id="k%d" % k)
    for family, params in FAMILY_SIZES:
        for g, sym in enumerate(bench.generate(family, params).generators):
            xs = sorted(sym)
            yield pytest.param(xs, [sym[x] for x in xs],
                               id="%s-gen%d" % (family, g + 1))


@pytest.mark.parametrize("xs,imgs", _circuit_cases())
def test_lex_spec_is_lex_renamed(xs, imgs):
    k = len(xs)
    s = ["s%d" % j for j in range(1, k)]
    t = ["t%d" % j for j in range(1, k + 1)]
    for d in (t, []):
        assert (_exact(orders.lex_spec(xs, imgs, s, d))
                == _exact(_lex_renamed(xs, imgs, s, d)))


@pytest.mark.parametrize("method", ["new", "old"])
@pytest.mark.parametrize("family,params", FAMILY_SIZES)
def test_breaker_red_steps_are_lex_renamed(family, params, method):
    # one generator's top-level red steps are its circuit, lex<k> between
    # its support and their images: with `old`, the $a rows alone
    inst = bench.generate(family, params)
    sym = inst.generators[0]
    b = breaker.break_symmetries(inst.constraints, inst.variables, [sym],
                                 method=method)
    fr = breaker._Fragment(b.binding, b.position, sym)
    s = ["%s%d" % (b.s_prefix, j) for j in range(1, fr.k)]
    t = (["%s%d" % (b.t_prefix, j) for j in range(1, fr.k + 1)]
         if method == "new" else [])
    reds = [(step["constraint"], step["witness"])
            for step in parsing.parse_proof(b.text())["steps"]
            if step["kind"] == "red"]
    assert _exact(reds) == _exact(_lex_renamed(fr.xs, fr.imgs, s, t))


def test_breaker_does_not_import_the_checker():
    code = ("import sys, pbsym.breaker; "
            "sys.exit('pbsym.checker' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(
        breaker.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_stats_track_support_and_size():
    cons, variables = php32()
    b = breaker.break_symmetries(cons, variables, [sigma(), tau()])
    assert [s["support"] for s in b.stats] == [4, 6]
    assert all(s["chars"] > 0 for s in b.stats)
