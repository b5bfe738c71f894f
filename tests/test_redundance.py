"""Witness-local redundance: the checker's occurrence index and live
multiset against a full scan of the database, and the redundance rule
`checker.redundance`, which `red` steps and specification rows share: its
local-first RUP against a check over every earlier entry, and the rows it
accepts against the brute-force redundance condition."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pbsym import breaker, orders, parsing
from pbsym import constraints as pb
from pbsym.checker import (
    Checker, CheckError, RootFrame, VERIFIED, check_document, redundance,
    run_obligation, spec_rule,
)

from oracle import redundant

small = settings(max_examples=200, derandomize=True, deadline=None)

VARS = ["x%d" % i for i in range(1, 6)]
lits = st.sampled_from(VARS).flatmap(
    lambda v: st.sampled_from([v, "~" + v]))
cons = st.builds(
    pb.normalize,
    st.lists(st.tuples(st.integers(-3, 3), lits), max_size=4),
    st.integers(-1, 4),
)
images = st.one_of(st.sampled_from([0, 1]), lits)
witnesses = st.dictionaries(st.sampled_from(VARS), images, max_size=3)
# a script of top-level steps; IDs are picked by position among the live
# ones, deletion ranges by offset from the ID counter
ops = st.lists(st.one_of(
    st.tuples(st.just("sum"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("copy"), st.integers(0, 99), st.none()),
    st.tuples(st.just("sat"), st.integers(0, 99), st.none()),
    st.tuples(st.just("red"), cons, witnesses),
    st.tuples(st.just("del"), st.integers(0, 6), st.integers(0, 6)),
), max_size=25)


def reference_touched(chk, w):
    """The premises `red c : w` has goals for, by a scan of every live
    top-level entry: those over a witness variable, in ID order."""
    return [(cid, g) for cid, g in chk.root.cons.items()
            if not set(w).isdisjoint(g.variables())]


def _run_op(chk, op, ncore):
    kind, a, b = op
    ids = sorted(chk.root.cons)
    if kind == "sum":
        step = parsing.pol_step(
            [str(ids[a % len(ids)]), str(ids[b % len(ids)]), "+"], None)
    elif kind == "copy":
        # a second ID holding an equal constraint
        step = parsing.pol_step([str(ids[a % len(ids)]), "1", "*"], None)
    elif kind == "sat":
        step = parsing.pol_step([str(ids[a % len(ids)]), "s"], None)
    elif kind == "red":
        step = parsing.red_step(a, b, None)
    else:
        start = max(ncore + 1, chk.root.counter[0] - a)
        step = parsing.del_range_step(start, start + b, None)
    try:
        getattr(chk, Checker.STEPS[step["kind"]])(step)
    except CheckError:
        pass  # a rejected red adds nothing


@small
@given(st.lists(cons, min_size=1, max_size=6), ops,
       st.lists(st.tuples(cons, witnesses), min_size=1, max_size=4))
def test_indexed_goals_match_full_scan(formula, script, probes):
    chk = Checker(formula)
    for op in script:
        _run_op(chk, op, len(formula))
        assert chk.root.live == Counter(chk.root.cons.values())
        # no key is left at count zero: `in` is the syntactic-premise test
        assert set(chk.root.live) == set(chk.root.cons.values())
    for _c, w in probes:
        assert chk.root.touched(w) == reference_touched(chk, w)


def _dup_proof(deletion):
    # IDs 2 and 3 both hold x3 >= 1; the last red's only goal, x3 >= 1,
    # is a syntactic premise while one of them is live
    return parsing.parse_proof(parsing.HEADER + "\n"
                               "red +1 x3 >= 1 : x3 -> 1;\n"
                               "red +1 x3 >= 1 : x3 -> 1;\n"
                               + deletion + "\n"
                               "red +1 x4 >= 1 : x4 -> x3;\n")


def test_premise_kept_while_an_equal_copy_is_live():
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    trace = []
    verdict, counters = check_document(formula, _dup_proof("del range 2 3;"),
                                       trace=trace)
    assert verdict == VERIFIED
    assert trace[-1] == "goal self: syntactic premise"
    assert counters["rup_calls"] == 0


def test_premise_gone_once_every_copy_is_deleted():
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    with pytest.raises(CheckError) as e:
        check_document(formula, _dup_proof("del range 2 4;"))
    assert (e.value.reason, e.value.goal, e.value.line) == (
        "undischarged-goal", "self", 5)
    goal = pb.normalize([(1, "x3")], 1)
    negc = pb.negate(pb.normalize([(1, "x4")], 1))
    assert not pb.rup_check(list(formula) + [negc], goal)


# ------------------------------------------------------------ specifications

def test_spec_goal_needing_an_untouched_entry_uses_the_fallback(monkeypatch):
    # entry 2's witness touches no earlier entry, but its goal $a + u1 >= 1
    # follows only with entry 1, $a >= 1
    spec = [(pb.normalize([(1, "$a")], 1), {"$a": 1}),
            (pb.normalize([(1, "$b"), (1, "u1")], 1), {"$b": "$a"})]
    seen, engine_goals = [], []
    real, real_rup = pb.rup_check, pb.Propagator.rup

    def rup_check(premises, goal):
        seen.append(list(premises))
        return real(premises, goal)

    def rup(self, goal):
        engine_goals.append(goal)
        return real_rup(self, goal)

    monkeypatch.setattr(pb, "rup_check", rup_check)
    monkeypatch.setattr(pb.Propagator, "rup", rup)
    assert orders.verify_specification(spec, ["$a", "$b"], spec_rule())
    negc = pb.negate(spec[1][0])
    goal = pb.normalize([(1, "$a"), (1, "u1")], 1)
    # the local step sees not(C_2) alone; the scope's engine proves the goal
    assert seen == [[negc]]
    assert engine_goals == [goal]


def reference_verify(spec, aux_vars):
    """verify_specification by a full scan: every earlier entry is
    substituted, and every RUP runs over all earlier entries."""
    earlier = []
    for i, (con, wit) in enumerate(spec, start=1):
        bad = set(wit) - set(aux_vars)
        if bad:
            raise orders.OrderError(
                "spec entry %d witnesses non-aux variables %s" % (i, sorted(bad)))
        negc = pb.negate(con)
        context = set(earlier) | {negc}
        for g in earlier + [con]:
            goal = pb.substitute(g, pb.witness_lits(wit))
            if goal.is_tautology() or goal in context:
                continue
            if not pb.rup_check(earlier + [negc], goal):
                raise orders.OrderError("spec entry %d: goal %s not derivable"
                                        % (i, pb.render(goal)))
        earlier.append(con)
    return True


AUX = ["$a1", "$a2"]
spec_lits = st.sampled_from(AUX + ["u1", "u2"]).flatmap(
    lambda v: st.sampled_from([v, "~" + v]))
spec_cons = st.builds(
    pb.normalize,
    st.lists(st.tuples(st.integers(1, 2), spec_lits), min_size=1, max_size=2),
    st.integers(0, 2),
)
# mostly aux domains; u1 in a domain is rejected
spec_wits = st.dictionaries(
    st.sampled_from(AUX * 4 + ["u1"]),
    st.one_of(st.sampled_from([0, 1]), spec_lits), max_size=1)


@st.composite
def spec_entries(draw):
    """An entry whose witness often maps one of its aux literals to true or
    to another literal, so that its goals hold more often than not."""
    con, wit = draw(spec_cons), draw(spec_wits)
    auxlits = [l for l in con.terms if pb.var_of(l) in AUX]
    if auxlits and draw(st.integers(0, 3)):
        lit = draw(st.sampled_from(auxlits))
        img = draw(st.one_of(st.just(1), spec_lits))
        if not pb.is_positive(lit):
            img = 0 if img == 1 else pb.neg(img)
        wit = {pb.var_of(lit): img}
    return con, wit


@st.composite
def specs(draw):
    """Up to six entries; some copy an earlier entry with one more literal,
    so they follow from an entry their witness may not touch."""
    spec = []
    for _ in range(draw(st.integers(0, 6))):
        if spec and draw(st.booleans()):
            base = draw(st.sampled_from(spec))[0]
            con = pb.normalize([(a, l) for l, a in base.terms.items()]
                               + [(1, draw(spec_lits))], base.degree)
            spec.append((con, draw(spec_wits)))
        else:
            spec.append(draw(spec_entries()))
    return spec


def shared_verify(spec, aux_vars):
    """verify_specification with the redundance rule `red` steps use."""
    return orders.verify_specification(spec, aux_vars, spec_rule())


def _outcome(fn, spec):
    try:
        return fn(spec, AUX)
    except orders.OrderError as e:
        return str(e)


@small
@given(specs())
def test_local_first_spec_check_matches_full_reference(spec):
    assert (_outcome(shared_verify, spec)
            == _outcome(reference_verify, spec))


def _audited_rule(accepted):
    """The shared rule over a fresh root frame; each row it accepts is
    checked against the brute-force redundance condition over the rows
    accepted before it, then appended to `accepted`."""
    root = RootFrame(None)

    def derive(c, w):
        failed = redundance(root, c, w)
        if failed is None:
            assert redundant(accepted, c, w), (c, w)
            accepted.append(c)
        return failed
    return derive


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lex_spec_rows_accepted_by_the_rule_are_redundant(n):
    order = breaker.build_lex_order(n)
    accepted = []
    assert orders.verify_specification(order["spec"], order["aux"],
                                       _audited_rule(accepted))
    assert accepted == [c for c, _w in order["spec"]]


@small
@given(specs())
def test_spec_rows_accepted_by_the_rule_are_redundant(spec):
    accepted = []
    try:
        orders.verify_specification(spec, AUX, _audited_rule(accepted))
    except orders.OrderError:
        pass


def test_lex_order_validation_is_linear(monkeypatch):
    # adds alone grow linearly even when each not(C_i) propagates down the
    # whole $a chain, so the literals the adds assign are counted too
    counts = {}
    real = pb.Propagator.add

    def add(self, c):
        before = len(self.trail)
        result = real(self, c)
        counts["adds"] += 1
        counts["assigned"] += len(self.trail) - before
        return result

    monkeypatch.setattr(pb.Propagator, "add", add)
    sizes, seen = (250, 500, 1000), []
    for n in sizes:
        counts.update(adds=0, assigned=0)
        orders.validate(breaker.build_lex_order(n), run_obligation,
                        spec_rule())
        seen.append(dict(counts))
    for key in ("adds", "assigned"):
        for (n1, c1), (n2, c2) in zip(zip(sizes, seen), zip(sizes[1:], seen[1:])):
            slope = math.log(c2[key] / c1[key]) / math.log(n2 / n1)
            assert slope <= 1.1, (key, n1, n2, c1[key], c2[key])
