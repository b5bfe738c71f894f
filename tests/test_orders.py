import pytest

from pbsym import constraints as pb
from pbsym import orders
from pbsym.checker import run_obligation

from oracle import implies


def con(terms, degree):
    return pb.normalize(terms, degree)


def leq1():
    """One-variable order u1 <= v1 with no auxiliaries."""
    return orders.OrderDefinition(
        "leq1", ["u1"], ["v1"], [], [],
        [con([(1, "v1"), (1, "~u1")], 1)])


def empty_block(key):
    return {"key": key, "line": 0, "steps": [], "qed_hint": None}


def test_trivial_order_is_validated_and_empty():
    assert orders.TRIVIAL.validated
    assert orders.TRIVIAL.n == 0
    assert orders.TRIVIAL.order_constraints == []


def test_rejects_mismatched_placeholder_lists():
    with pytest.raises(orders.OrderError):
        orders.OrderDefinition("bad", ["u1", "u2"], ["v1"], [], [], [])


def test_rejects_aux_overlapping_placeholders():
    with pytest.raises(orders.OrderError):
        orders.check_names(
            orders.OrderDefinition("bad", ["u1"], ["v1"], ["u1"], [], []),
            {"fresh_right": ["w1"], "fresh_aux_1": [], "fresh_aux_2": []})


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
    order = orders.OrderDefinition(
        "s", ["u1"], ["v1"], ["$a1"],
        [(con([(1, "$a1")], 1), {"$a1": 1}),
         (con([(1, "v1"), (1, "~u1")], 1), {})],
        [])
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
    premises, goals = orders.transitivity_obligation(leq1(), ["w1"], [], [])
    # no spec entries, so just O(u,v) and O(v,w)
    assert premises == [con([(1, "v1"), (1, "~u1")], 1),
                        con([(1, "w1"), (1, "~v1")], 1)]
    assert goals == [con([(1, "w1"), (1, "~u1")], 1)]
    assert implies(premises, goals[0])


def test_transitivity_discharged_by_bare_qed():
    assert orders.check_transitivity(
        leq1(), ["w1"], [], [], [empty_block("#1")], run_obligation)


def test_transitivity_missing_goal_rejected():
    from pbsym.checker import CheckError
    with pytest.raises(CheckError):
        orders.check_transitivity(leq1(), ["w1"], [], [], [], run_obligation)


def test_reflexivity_goal_is_tautological_here():
    premises, goals = orders.reflexivity_obligation(leq1())
    assert premises == []
    assert goals[0].is_tautology()
    assert orders.check_reflexivity(leq1(), [], run_obligation)


def test_validate_marks_order():
    order = leq1()
    assert not order.validated
    orders.validate(order,
                    {"fresh_right": ["w1"], "fresh_aux_1": [],
                     "fresh_aux_2": [], "goals": [empty_block("#1")]},
                    {"goals": []}, run_obligation)
    assert order.validated
