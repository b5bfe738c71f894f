import itertools
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from pbsym import breaker, checker
from pbsym import constraints as pb
from pbsym import orders, parsing
from pbsym.checker import Checker, CheckError, run_obligation, spec_rule

import oracle
from oracle import implies

DATA = pathlib.Path(__file__).parent / "data"


def con(terms, degree):
    return pb.normalize(terms, degree)


def empty_block(key):
    return {"key": key, "line": 0, "steps": [], "qed_hint": None}


def order_step(name, left, right, aux, spec, order, fresh=None,
               transitivity=(), reflexivity=()):
    """A def_order step; fresh_right defaults to w1..wn and the fresh aux
    lists to empty ones."""
    fresh = fresh or (["w%d" % i for i in range(1, len(left) + 1)], [], [])
    return parsing.def_order_step(name, left, right, aux, spec, order, fresh,
                                  list(transitivity), list(reflexivity), 0)


def leq1(transitivity=()):
    """One-variable order u1 <= v1 with no auxiliaries."""
    return order_step("leq1", ["u1"], ["v1"], [], [],
                      [con([(1, "v1"), (1, "~u1")], 1)],
                      transitivity=transitivity)


def test_trivial_order_is_validated_and_empty():
    assert Checker([]).loaded is orders.TRIVIAL
    assert orders.TRIVIAL["left"] == []
    assert orders.TRIVIAL["def"] == []


def test_rejects_mismatched_placeholder_lists():
    with pytest.raises(orders.OrderError, match="length"):
        orders.check_names(order_step("bad", ["u1", "u2"], ["v1"], [], [], [],
                                      (["w1", "w2"], [], [])))


def test_rejects_aux_overlapping_placeholders():
    with pytest.raises(orders.OrderError, match="twice"):
        orders.check_names(order_step("bad", ["u1"], ["v1"], ["u1"], [], [],
                                      (["w1"], ["$b1"], ["$c1"])))


@pytest.mark.parametrize("spec,order", [
    pytest.param([], [con([(1, "v1"), (1, "~u1"), (1, "x1")], 1)], id="def"),
    pytest.param([(con([(1, "$a1"), (1, "x1")], 1), {"$a1": 1})], [],
                 id="spec"),
])
def test_rejects_undeclared_variable(spec, order):
    # x1 is neither a placeholder nor an aux variable, so no binding or
    # renaming replaces it in an order instance
    step = order_step("bad", ["u1"], ["v1"], ["$a1"], spec, order,
                      (["w1"], ["$b1"], ["$c1"]))
    with pytest.raises(orders.OrderError, match="undeclared"):
        orders.check_names(step)


def test_specification_accepts_settable_entry():
    spec = [(con([(1, "$a1")], 1), {"$a1": 1})]
    assert orders.verify_specification(spec, ["$a1"], spec_rule())


def test_specification_rejects_unsettable_entry():
    spec = [(con([(1, "$a1")], 1), {"$a1": 0})]
    with pytest.raises(orders.OrderError):
        orders.verify_specification(spec, ["$a1"], spec_rule())


def test_specification_rejects_non_aux_witness():
    spec = [(con([(1, "$a1")], 1), {"u1": 1})]
    with pytest.raises(orders.OrderError):
        orders.verify_specification(spec, ["$a1"], spec_rule())


def test_specification_uses_earlier_entries_as_premises():
    # second entry copies the first under an empty witness; it must
    # discharge by identity with premise C_1
    c = con([(1, "$a1"), (1, "$a2")], 1)
    spec = [(c, {"$a1": 1}), (c, {})]
    assert orders.verify_specification(spec, ["$a1", "$a2"], spec_rule())


def test_spec_instance_substitutes():
    order = order_step(
        "s", ["u1"], ["v1"], ["$a1"],
        [(con([(1, "$a1")], 1), {"$a1": 1}),
         (con([(1, "v1"), (1, "~u1")], 1), {})],
        [], (["w1"], ["$b1"], ["$c1"]))
    spec, _ = orders.instance(order, ["x2"], ["~x7"])
    assert spec[1] == con([(1, "~x7"), (1, "~x2")], 1)


def test_spec_instance_arity_checked():
    with pytest.raises(orders.OrderError):
        orders.instance(leq1(), ["x1", "x2"], ["x3"])


def test_order_instance_substitutes_constants():
    _, got = orders.instance(leq1(), [0], ["x4"])
    assert got == [con([(1, "x4")], 0)]
    assert got[0].is_tautology()


def old_instance(order, left, right, aux_map=None):
    """spec_instance and order_instance as they were before one literal map
    served both: each built its own map of the substitution."""
    def mapping():
        m = dict(zip(order["left"], left))
        m.update(zip(order["right"], right))
        if aux_map:
            m.update(aux_map)
        return pb.witness_lits(m)

    spec_map = mapping()
    spec = [pb.substitute(c, spec_map) for c, _w in order["spec"]]
    order_map = mapping()
    return spec, [pb.substitute(c, order_map) for c in order["def"]]


_LEX3 = breaker.build_lex_order(3)


def _image():
    """A literal over x1..x3, either polarity, or a 0/1 constant."""
    return st.one_of(st.sampled_from([0, 1]),
                     st.builds(lambda v, p: p + "x%d" % v,
                               st.integers(1, 3), st.sampled_from(["", "~"])))


@st.composite
def _instance_args(draw):
    """lex3 or biglex3, images for u and v where some positions of v
    repeat u's, and the aux renaming of the transitivity proof or none."""
    order = draw(st.sampled_from([_LEX3, breaker.build_big_order(3)]))
    left = draw(st.lists(_image(), min_size=3, max_size=3))
    right = [l if draw(st.booleans()) else draw(_image()) for l in left]
    trans = order["transitivity"]
    aux_map = draw(st.sampled_from([
        None, dict(zip(order["aux"], trans["fresh_aux_1"]))]))
    return order, left, right, aux_map


def _exact(cons):
    return [(list(c.terms.items()), c.degree) for c in cons]


@settings(max_examples=200, deadline=None)
@given(_instance_args())
@example((_LEX3, ["x1", "~x2", 0], ["x1", "~x2", 0],
          dict(zip(_LEX3["aux"], _LEX3["transitivity"]["fresh_aux_2"]))))
# the identity: the order's own rows, unsubstituted
@example((_LEX3, _LEX3["left"], _LEX3["right"], None))
@example((breaker.build_big_order(3), ["u1", "u2", "u3"], ["v1", "v2", "v3"],
          None))
def test_instance_equals_the_old_two_map_bodies(args):
    order, left, right, aux_map = args
    want_spec, want_order = old_instance(order, left, right, aux_map)
    spec, got_order = orders.instance(order, left, right, aux_map)
    assert _exact(spec) == _exact(want_spec)
    assert _exact(got_order) == _exact(want_order)


def obligation(check, order):
    """The premises and the goals that `check` hands its `run`, which
    records them and runs no proof."""
    seen = []
    check(order, lambda premises, goals, blocks, label:
          seen.append((premises, goals)))
    [(premises, goals)] = seen
    return premises, goals


def test_obligations_build_one_map_per_instance(monkeypatch):
    calls = []
    real = pb.witness_lits
    monkeypatch.setattr(pb, "witness_lits",
                        lambda w: calls.append(w) or real(w))
    # S(u,v) and O(u,v) are the order's own rows: the identity builds none
    obligation(orders.check_transitivity, _LEX3)
    assert len(calls) == 2
    obligation(orders.check_reflexivity, _LEX3)
    assert len(calls) == 3


def test_dom_step_builds_two_order_maps(monkeypatch):
    """Each order instance builds one literal map: a dom step instantiates
    the loaded order twice (leq and geq scope), and maps its own witness
    once for the core goals."""
    formula, _ = parsing.parse_opb((DATA / "php32.opb").read_text())
    doc = parsing.parse_proof((DATA / "php32_lex.pbp").read_text())
    chk = Checker(formula)
    maps = []
    real = pb.witness_lits
    monkeypatch.setattr(pb, "witness_lits",
                        lambda w: maps.append(w) or real(w))
    doms = 0
    for step in doc["steps"]:
        maps.clear()
        getattr(chk, Checker.STEPS[step["kind"]])(step)
        if step["kind"] == "dom":
            doms += 1
            placeholders = set(chk.loaded["left"])
            assert sum(placeholders <= m.keys() for m in maps) == 2
            assert len(maps) == 3
    assert doms == 2


def test_transitivity_obligation_shape():
    premises, goals = obligation(orders.check_transitivity, leq1())
    # no spec entries, so just O(u,v) and O(v,w)
    assert premises == [con([(1, "v1"), (1, "~u1")], 1),
                        con([(1, "w1"), (1, "~v1")], 1)]
    assert goals == [con([(1, "w1"), (1, "~u1")], 1)]
    assert implies(premises, goals[0])


def test_transitivity_discharged_by_bare_qed():
    assert orders.check_transitivity(leq1([empty_block("#1")]),
                                     run_obligation)


def test_transitivity_missing_goal_rejected():
    with pytest.raises(CheckError):
        orders.check_transitivity(leq1(), run_obligation)


def test_reflexivity_goal_is_tautological_here():
    premises, goals = obligation(orders.check_reflexivity, leq1())
    assert premises == []
    assert goals[0].is_tautology()
    assert orders.check_reflexivity(leq1(), run_obligation)


def test_lexfix_hint_builds_the_contracted_rows_and_the_rows_it_cites():
    # lex4 bound to x1..x4, and the dom swaps x1 and x3: each of its two
    # scopes feeds the propagator lex<2>'s 8 rows, and the hinted rup of
    # the leq scope builds the two spec rows it cites, IDs 14 and 12, under
    # their own names; no other spec row is built
    formula, _ = parsing.parse_opb((DATA / "lexfix.opb").read_text())
    text = (DATA / "lexfix_hint.pbp").read_text()
    assert "rup +1 ~$a3 +1 $a1 >= 1 : 14 12;\n" in text
    _, counters = checker.check_document(formula, parsing.parse_proof(text))
    rows = len(orders.contract(4, [0, 2], ["x3", "x2", "x1", "x4"],
                               ["x1", "x2", "x3", "x4"]))
    assert rows == 8
    assert counters["spec_materializations"] == 2 * rows + 2 == 18
    assert counters["spec_rows_aliased"] == 2 * (14 - rows) == 12


@pytest.mark.parametrize("order", [
    *(pytest.param(breaker.build_lex_order(n), id="lex%d" % n)
      for n in (1, 2)),
    *(pytest.param(breaker.build_big_order(n), id="biglex%d" % n)
      for n in (1, 2, 3)),
])
def test_obligation_steps_follow_from_what_their_frame_sees(monkeypatch,
                                                            order):
    # the per-step oracle inside proofgoal blocks: an accepted pol or rup
    # follows from the obligation's premises, the negated goal and the
    # block's earlier steps, at most 15 variables here
    audited = []

    def audit(handler):
        def run_step(frame, step):
            seen, f = [], frame
            while f is not None:
                seen += [f.get(cid) for cid in f.ids]
                f = f.parent
            handler(frame, step)
            assert implies(seen, frame.get(frame.ids[-1])), step
            audited.append(step)
        return run_step

    for kind in parsing.SUBPROOF_STEPS:
        name = "step_" + kind
        monkeypatch.setattr(checker.Frame, name,
                            audit(getattr(checker.Frame, name)))
    assert orders.validate(order, run_obligation, spec_rule()) is order
    blocks = order["transitivity"]["goals"] + order["reflexivity"]["goals"]
    assert len(audited) == sum(len(b["steps"]) for b in blocks) > 0


def test_only_validated_orders_are_stored():
    # the checker stores the step that validates, and nothing for one
    # that does not, so an order it loads has been validated
    chk = Checker([])
    with pytest.raises(CheckError):
        chk.step_def_order(leq1())
    assert "leq1" not in chk.orders
    order = leq1([empty_block("#1")])
    assert orders.validate(order, run_obligation, spec_rule()) is order
    chk.step_def_order(order)
    assert chk.orders["leq1"] is order


# ------------------------------------------------- lex<n> and its row layout
# (a "positional shape": at each position i, lex<n>'s rows define the aux of
# i from u_i, v_i and the aux of i - 1)

def test_lex_order_has_a_positional_shape():
    # the breaker's lex<n> and the lexfix proofs' parsed lex4 are
    # recognized; the rows of position i are those of $a_i, below the last
    # position, then those of $d_i
    assert [orders.lex_size(breaker.build_lex_order(n))
            for n in (1, 2, 5, 40)] == [1, 2, 5, 40]
    proof = parsing.parse_proof((DATA / "lexfix_lemma.pbp").read_text())
    assert orders.lex_size(proof["steps"][0]) == 4
    assert [[orders.lex_row(5, x, i, h) for x in ("$a", "$d")[i == 5:]
             for h in (1, 2)] for i in range(1, 6)] == [
        [0, 1, 8, 9], [2, 3, 10, 11], [4, 5, 12, 13], [6, 7, 14, 15],
        [16, 17]]


@pytest.mark.parametrize("n", range(1, 31))
def test_lex_row_names_the_row_its_witness_sets(n):
    for r, (_c, w) in enumerate(orders.lex(n)["spec"]):
        ((name, value),) = w.items()
        assert orders.lex_row(n, name[:2], int(name[2:]), value + 1) == r


def test_contracted_aux_keep_the_moved_positions_names():
    # lex5 with positions 2 and 3 moved: $a and $d of each, but the last $d
    # is $d5, the order constraint's
    assert orders.contracted_aux(5, [1, 2]) == (["$a2", "$a3"],
                                               ["$d2", "$d5"])
    assert orders.contracted_aux(5, [0, 4]) == (["$a1"], ["$d1", "$d5"])


def _aliases(n, fixed):
    """Each aux of a fixed position of lex<n>, with the value the rows give
    it under u_i = v_i there: 1, or the aux of its kind at the nearest
    moved position before it."""
    alias = {}
    for p in range(n):
        if fixed[p]:
            for x in ("$a", "$d")[p == n - 1:]:
                prev = "%s%d" % (x, p)
                alias["%s%d" % (x, p + 1)] = alias.get(prev, prev) if p else 1
    return alias


def _value(image, rho):
    return image if isinstance(image, int) else int(
        oracle.lit_holds(image, rho))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_aliases_hold_on_every_model_of_the_rows(n):
    # for every fixed pattern: (i) every model of lex<n>'s rows with
    # u_i = v_i at the fixed positions i sets each aux of a fixed position
    # to its alias, (ii) every row of a fixed position holds under u_i = v_i
    # and the aliases, whatever the other variables are, and (iii) the
    # names contracted_aux keeps are the moved positions' aux, but $d_n,
    # which stands for the last moved position's $d
    lex = orders.lex(n)
    rows = [c for c, _w in lex["spec"]]
    full = oracle.models(rows, lex["left"] + lex["right"] + lex["aux"])
    for fixed in itertools.product((False, True), repeat=n):
        alias = _aliases(n, fixed)
        at = [i for i in range(1, n + 1) if fixed[i - 1]]
        for rho in full:
            if all(rho["u%d" % i] == rho["v%d" % i] for i in at):
                assert all(rho[x] == _value(img, rho)
                           for x, img in alias.items()), (fixed, rho)
        for c in rows:
            i = next(int(y[1:]) for y in c.variables() if y[0] == "u")
            if i not in at:
                continue
            free = (c.variables() | {img for img in alias.values()
                                     if isinstance(img, str)}) - set(alias)
            for rho in oracle.all_assignments(free - {"v%d" % i}):
                rho["v%d" % i] = rho["u%d" % i]
                rho.update((x, _value(img, rho)) for x, img in alias.items())
                assert oracle.con_holds(c, rho), (fixed, pb.render(c))
        moved = [p for p in range(n) if not fixed[p]]
        if moved:
            a, d = orders.contracted_aux(n, moved)
            last = "$d%d" % n
            kept = [alias.get(x, x) for x in a + d]
            assert kept == ["$a%d" % (p + 1) for p in moved if p < n - 1] + [
                "$d%d" % (p + 1) for p in moved], fixed
            assert d[-1] == last and set(a + d[:-1]).isdisjoint(alias)


def test_contract_is_the_projection_of_the_full_rows():
    # for lex<n>, n <= 4, and every set of moved positions: the models of
    # the contracted rows are those of lex<n>'s rows with u_i = v_i at each
    # fixed position i, restricted to the contracted rows' variables
    for n in range(1, 5):
        lex = orders.lex(n)
        u, v = lex["left"], lex["right"]
        full = oracle.models([c for c, _w in lex["spec"]],
                             u + v + lex["aux"])
        for fixed in itertools.product((False, True), repeat=n):
            moved = [p for p in range(n) if not fixed[p]]
            if not moved:
                continue
            rows = orders.contract(n, moved, u, v)
            names = sorted(oracle.vars_of(rows))
            assert set(names) == {x for p in moved for x in (u[p], v[p])}.union(
                *orders.contracted_aux(n, moved))
            want = {tuple(rho[x] for x in names) for rho in full
                    if all(rho[u[p]] == rho[v[p]]
                           for p in range(n) if fixed[p])}
            got = {tuple(rho[x] for x in names)
                   for rho in oracle.models(rows, names)}
            assert got == want, (n, moved)


@pytest.mark.parametrize("tail", [0, 2])
@pytest.mark.parametrize("k", range(1, 9))
def test_contract_is_lex_renamed(k, tail):
    # k moved positions, every other one, then `tail` fixed ones: lex<k>'s
    # rows under u and v -> the literals there and $a and $d -> the names
    # of contracted_aux.  Followed by fixed positions, the last moved one
    # keeps its $a, and the rows are those of lex<k + 1> but its last $d's
    n, moved = 2 * k - 1 + tail, list(range(0, 2 * k, 2))
    left = ["x%d" % i for i in range(1, n + 1)]
    right = [pb.neg(x) if i % 2 else x for i, x in enumerate(reversed(left))]
    a, d = orders.contracted_aux(n, moved)
    m = len(a) + 1
    lex = orders.lex(m)
    rename = dict(zip(lex["left"], [left[p] for p in moved]))
    rename.update(zip(lex["right"], [right[p] for p in moved]))
    rename.update(zip(lex["aux"], a + d))
    lits = pb.witness_lits(rename)
    spec = lex["spec"][:2 * (m - 1)] + lex["spec"][2 * (m - 1):][:2 * k]
    want = [pb.substitute(c, lits) for c, _w in spec]
    assert ([(list(c.terms.items()), c.degree)
             for c in orders.contract(n, moved, left, right)]
            == [(list(c.terms.items()), c.degree) for c in want])


def _lex3_with(row, index):
    order = breaker.build_lex_order(3)
    spec = list(order["spec"])
    spec[index] = (con(*row), spec[index][1])
    return dict(order, spec=spec)


def _lex4_renamed():
    """lex4 with its $a aux named $g."""
    order = breaker.build_lex_order(4)
    name = {x: x.replace("$a", "$g") for x in order["aux"]}
    lits = pb.witness_lits(name)
    spec = [(pb.substitute(c, lits), {name[x]: b for x, b in w.items()})
            for c, w in order["spec"]]
    return dict(order, aux=[name[x] for x in order["aux"]], spec=spec)


def _lex4_spec(edit):
    order = breaker.build_lex_order(4)
    return dict(order, spec=edit(list(order["spec"])))


@pytest.mark.parametrize("order", [
    pytest.param(breaker.build_big_order(3), id="biglex"),
    pytest.param(_lex4_renamed(), id="renamed-aux"),
    # $a1's two rows in the other order
    pytest.param(_lex4_spec(lambda s: [s[1], s[0]] + s[2:]),
                 id="swapped-rows"),
    pytest.param(_lex4_spec(lambda s: s + s[-1:]), id="extra-row"),
    # $a2's first row mentions position 1 too
    pytest.param(_lex3_with(([(3, "~$a2"), (2, "$a1"), (1, "u2"), (1, "~v2"),
                              (1, "u1")], 3), 2), id="two-positions"),
    # under u2 = v2, $a2's first row is the clause ~$a2 v $a1 v $d1
    pytest.param(_lex3_with(([(1, "~$a2"), (1, "$a1"), (1, "$d1"),
                              (1, "u2"), (1, "~v2")], 2), 2), id="three-literals"),
    # under u2 = v2, 2 ~$a2 + $a1 + $d1 >= 2 is no clause
    pytest.param(_lex3_with(([(2, "~$a2"), (1, "$a1"), (1, "$d1"),
                              (1, "u2"), (1, "~v2")], 3), 2), id="not-clausal"),
    # $d2's second row reads $a2, defined at the same position, so $d2's
    # rows say $d2 v ~$d1 v $a2: the second literal is no aux of position 1
    pytest.param(_lex3_with(([(3, "$d2"), (3, "~$d1"), (3, "$a2"),
                              (1, "u2"), (1, "~v2")], 3), 7), id="not-a-definition"),
    # $d3's first row reads $a1, two positions back
    pytest.param(_lex3_with(([(4, "~$d3"), (3, "$d2"), (1, "~$a1"),
                              (1, "~u3"), (1, "v3")], 4), 8), id="two-back"),
])
def test_orders_without_a_positional_shape(order):
    # any order that does not state lex<n> exactly is not recognized
    assert orders.lex_size(order) is None
