"""The incremental propagation engine, `constraints.Propagator`, against a
reference slack sweep, the one-shot `rup_check` and the brute-force oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

from pbsym import constraints
from pbsym.constraints import (
    CONFLICT, Propagator, negate, normalize, propagate, rup_check,
)

import oracle

lits = st.integers(1, 5).flatmap(
    lambda i: st.sampled_from(["x%d" % i, "~x%d" % i]))
cons = st.builds(
    normalize,
    st.lists(st.tuples(st.integers(-3, 3), lits), max_size=4),
    st.integers(-1, 4),
)
formulas = st.lists(cons, max_size=8)
# a script of engine operations: add a constraint, take a mark, undo to
# the last mark, or test a RUP goal
ops = st.lists(st.one_of(
    st.tuples(st.just("add"), cons),
    st.tuples(st.just("mark"), st.none()),
    st.tuples(st.just("undo"), st.none()),
    st.tuples(st.just("rup"), cons),
), max_size=20)

small = settings(max_examples=200, derandomize=True, deadline=None)


def reference_propagate(constraints):
    """Slack-based unit propagation by sweeping every constraint until
    nothing changes; the assignment, or CONFLICT."""
    rho = {}

    def value(lit):
        v = rho.get(lit.lstrip("~"))
        if v is None:
            return None
        return 1 - v if lit.startswith("~") else v

    changed = True
    while changed:
        changed = False
        for c in constraints:
            s = sum(a for l, a in c.terms.items() if value(l) != 0) - c.degree
            if s < 0:
                return CONFLICT
            for l, a in c.terms.items():
                if a > s and value(l) is None:
                    rho[l.lstrip("~")] = 0 if l.startswith("~") else 1
                    changed = True
    return rho


def state(engine):
    """What `undo` must restore, with variables first seen later left out:
    they are unassigned and occur nowhere once undone."""
    n = len(engine.value)
    return (list(engine.slack), list(engine.value), list(engine.trail),
            [list(o) for o in engine.occ], len(engine.rows), engine.conflict,
            n)


def same_state(engine, saved):
    slack, value, trail, occ, rows, conflict, n = saved
    assert engine.slack == slack
    assert engine.value[:n] == value
    assert all(v is None for v in engine.value[n:])
    assert engine.trail == trail
    assert engine.occ[:n] == occ
    assert not any(engine.occ[n:])
    assert (len(engine.rows), engine.conflict) == (rows, conflict)


def add(engine, rows, c):
    """engine.add(c), keeping in `rows` the constraints the engine holds as
    rows: tautologies and constraints added in conflict are not kept."""
    if not engine.conflict and c.degree > 0:
        rows.append(c)
    return engine.add(c)


def check_slacks(engine, rows):
    """Each row's slack is `oracle.slack` of its constraint under the
    engine's assignment."""
    assert len(engine.rows) == len(rows)
    rho = engine.assignment()
    for r, c in enumerate(rows):
        assert engine.slack[r] == oracle.slack(c, rho)
        assert engine.top[r] == max(c.terms.values(), default=0)


# x3 queues B, then A, and the row queued last is scanned first: A makes
# x1 true, and ~x1 occurs in R0, B and R2, so B's slack drops below zero
# in the middle of that occurrence list; R2 must be lowered all the same,
# or undo would raise its slack above the start
R0 = normalize([(1, "~x1"), (1, "x4"), (1, "x5")], 1)
B = normalize([(1, "~x3"), (1, "~x1")], 1)
A = normalize([(1, "~x3"), (1, "x1")], 1)
R2 = normalize([(1, "~x1"), (1, "x2"), (1, "x5")], 1)
MID_LIST = [R0, B, A, R2]
X1, X2 = normalize([(1, "x1")], 1), normalize([(1, "x2")], 1)
X3, NOT_X3 = normalize([(1, "x3")], 1), normalize([(1, "~x3")], 1)
NOT_X1 = normalize([(1, "~x1")], 1)
X1_TO_X2 = normalize([(1, "~x1"), (1, "x2")], 1)
X1_OR_X2 = normalize([(1, "x1"), (1, "x2")], 1)


def test_example_propagates_chain():
    e = Propagator()
    assert e.add(normalize([(1, "~x1"), (1, "x2")], 1))
    assert e.add(normalize([(2, "~x2"), (1, "x3"), (1, "x4")], 2))
    assert e.assignment() == {}
    assert e.add(normalize([(1, "x1")], 1))
    assert e.assignment() == {"x1": 1, "x2": 1, "x3": 1, "x4": 1}
    assert not e.add(normalize([(1, "~x4")], 1))
    assert e.conflict


def test_conflict_mid_occurrence_list_lowers_every_occurrence():
    e = Propagator()
    for c in MID_LIST:
        assert e.add(c)
    saved, mark = state(e), e.mark()
    assert not e.add(X3)
    # x1 lowered R2 after B went below zero
    assert e.trail == [e.lits["x3"], e.lits["x1"]]
    assert e.slack == [1, -1, 0, 1, 0]
    e.undo(mark)
    same_state(e, saved)


@given(formulas)
@small
def test_propagate_equals_reference_sweep(f):
    assert propagate(f) == reference_propagate(f)


@given(formulas)
@small
def test_propagation_is_sound(f):
    got = propagate(f)
    if got == CONFLICT:
        assert oracle.satisfiable(f) is None
    else:
        for var, val in got.items():
            lit = var if val else "~" + var
            assert oracle.implies(f, normalize([(1, lit)], 1))


@given(formulas, formulas, cons)
@small
@example(MID_LIST, [X3], X2)      # the conflict comes in an add
@example(MID_LIST, [], NOT_X3)     # in a rup of a clause goal
@example(MID_LIST, [], normalize([(1, "x3"), (1, "x4")], 2))  # of a row
def test_undo_restores_state(base, extra, goal):
    e, rows = Propagator(), []
    for c in base:
        add(e, rows, c)
    saved = state(e)
    mark = e.mark()
    for c in extra:
        add(e, rows, c)
    check_slacks(e, rows)
    e.rup(goal)
    check_slacks(e, rows)
    e.undo(mark)
    same_state(e, saved)
    check_slacks(e, rows[:len(e.rows)])


@given(ops)
@small
@example([("add", c) for c in MID_LIST]
         + [("mark", None), ("add", X3), ("undo", None), ("rup", NOT_X3),
            ("rup", X2)])
def test_incremental_rup_equals_one_shot(script):
    e, rows = Propagator(), []
    db, marks = [], []
    for op, c in script:
        if op == "add":
            assert add(e, rows, c) == (propagate(db + [c]) != CONFLICT)
            db.append(c)
        elif op == "mark":
            marks.append((e.mark(), len(db), state(e)))
        elif op == "undo" and marks:
            mark, size, saved = marks.pop()
            e.undo(mark)
            del db[size:]
            del rows[len(e.rows):]
            same_state(e, saved)
        elif op == "rup":
            assert e.rup(c) == rup_check(db, c) == (
                reference_propagate(db + [negate(c)]) == CONFLICT)
        check_slacks(e, rows)


@given(formulas, cons)
@small
# not(x1 + x2 >= 2) falsifies one of them, not both
@example([X1_OR_X2], normalize([(1, "x1"), (1, "x2")], 2))
def test_accepted_rup_is_implied(f, goal):
    e = Propagator()
    for c in f:
        e.add(c)
    if e.rup(goal):
        assert oracle.implies(f, goal)


# goals for each of rup's paths: a tautology; clause goals (degree 1)
# with a coefficient above 1, with a literal already true and over a
# variable in no row; a degree-2 goal, which keeps the row path
@pytest.mark.parametrize("goal", [
    normalize([(1, "x3")], 0),
    normalize([(2, "x3"), (1, "~x2")], 1),
    normalize([(3, "~x4"), (1, "x2")], 1),
    normalize([(1, "x6"), (1, "x1")], 1),
    normalize([(1, "x1"), (1, "x2")], 2),
], ids=["tautology", "coefficient-2", "literal-true", "fresh-variable",
        "degree-2"])
@pytest.mark.parametrize("db", [
    [X1, X1_TO_X2], [X1_OR_X2], [X1, NOT_X1],
    [X1_OR_X2, NOT_X1, normalize([(1, "~x2")], 1)],
], ids=["x1-and-x2", "x1-or-x2", "in-conflict", "in-conflict-by-chain"])
def test_rup_of_each_goal_kind_equals_one_shot(db, goal):
    e = Propagator()
    for c in db:
        e.add(c)
    saved = state(e)
    assert e.conflict == (propagate(db) == CONFLICT)
    assert e.rup(goal) == rup_check(db, goal) == (
        reference_propagate(db + [negate(goal)]) == CONFLICT)
    same_state(e, saved)


# ------------------------------------------- the shared one-shot engine

def fresh_propagate(premises):
    """propagate's body before the shared engine: a fresh Propagator per
    call."""
    engine = Propagator()
    for c in premises:
        if not engine.add(c):
            return CONFLICT
    return engine.assignment()


def assert_scratch_empty():
    """The shared engine holds no row, no assignment and no conflict."""
    e = constraints._scratch
    assert (e.rows, e.slack, e.top, e.trail, e.conflict) == (
        [], [], [], [], False)
    assert all(v is None for v in e.value)
    assert not any(e.occ)


@given(st.lists(st.tuples(formulas, cons), min_size=1, max_size=4))
@small
@example([([X1, NOT_X1], X2)])                  # premises conflict alone
@example([([X1, X1_TO_X2], X2)])                # a refuted goal
@example([([X1], X2), ([X1, NOT_X1], X2), ([X1_TO_X2], X1)])  # unrefuted
def test_shared_engine_equals_a_fresh_engine(calls):
    # calls in a row: nothing one call leaves may change the next
    for f, goal in calls:
        assert propagate(f) == fresh_propagate(f)
        assert_scratch_empty()
        assert rup_check(f, goal) == (
            fresh_propagate(f + [negate(goal)]) == CONFLICT)
        assert_scratch_empty()


def test_shared_engine_is_emptied_when_propagation_raises():
    def premises():
        yield X1
        yield X1_TO_X2
        raise RuntimeError("premise list broke off")

    with pytest.raises(RuntimeError):
        propagate(premises())
    assert_scratch_empty()
    assert propagate([NOT_X1]) == {"x1": 0}
