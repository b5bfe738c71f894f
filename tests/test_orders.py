import pytest

from pbsym import constraints as pb
from pbsym import orders, parsing
from pbsym.checker import Checker, CheckError, run_obligation

from oracle import implies


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
    assert orders.verify_specification(spec, ["$a1"])


def test_specification_rejects_unsettable_entry():
    spec = [(con([(1, "$a1")], 1), {"$a1": 0})]
    with pytest.raises(orders.OrderError):
        orders.verify_specification(spec, ["$a1"])


def test_specification_rejects_non_aux_witness():
    spec = [(con([(1, "$a1")], 1), {"u1": 1})]
    with pytest.raises(orders.OrderError):
        orders.verify_specification(spec, ["$a1"])


def test_specification_uses_earlier_entries_as_premises():
    # second entry copies the first under an empty witness; it must
    # discharge by identity with premise C_1
    c = con([(1, "$a1"), (1, "$a2")], 1)
    spec = [(c, {"$a1": 1}), (c, {})]
    assert orders.verify_specification(spec, ["$a1", "$a2"])


def test_spec_instance_is_lazy_and_substitutes():
    order = order_step(
        "s", ["u1"], ["v1"], ["$a1"],
        [(con([(1, "$a1")], 1), {"$a1": 1}),
         (con([(1, "v1"), (1, "~u1")], 1), {})],
        [], (["w1"], ["$b1"], ["$c1"]))
    thunks = orders.spec_instance(order, ["x2"], ["~x7"])
    assert all(callable(t) for t in thunks)
    assert thunks[1]() == con([(1, "~x7"), (1, "~x2")], 1)


def test_spec_instance_arity_checked():
    with pytest.raises(orders.OrderError):
        orders.spec_instance(leq1(), ["x1", "x2"], ["x3"])


def test_order_instance_substitutes_constants():
    got = orders.order_instance(leq1(), [0], ["x4"])
    assert got == [con([(1, "x4")], 0)]
    assert got[0].is_tautology()


def test_transitivity_obligation_shape():
    premises, goals = orders.transitivity_obligation(leq1())
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
    premises, goals = orders.reflexivity_obligation(leq1())
    assert premises == []
    assert goals[0].is_tautology()
    assert orders.check_reflexivity(leq1(), run_obligation)


def test_only_validated_orders_are_stored():
    # the checker stores the step that validates, and nothing for one
    # that does not, so an order it loads has been validated
    chk = Checker([])
    with pytest.raises(CheckError):
        chk.step_def_order(leq1())
    assert "leq1" not in chk.orders
    order = leq1([empty_block("#1")])
    assert orders.validate(order, run_obligation) is order
    chk.step_def_order(order)
    assert chk.orders["leq1"] is order
