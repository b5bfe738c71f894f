"""Preorders with auxiliary variables.

An order definition consists of placeholder variable lists u/v, auxiliary
variables, a specification (an ordered list of constraints introduced by
redundance with witnesses over the aux variables only) and the order
constraints themselves.  Validation checks the specification obligations
plus reflexivity and transitivity subproofs; only validated orders may be
loaded by the checker.
"""

import collections

from . import constraints as pb


class OrderError(Exception):
    pass


class OrderDefinition:

    def __init__(self, name, u_vars, v_vars, aux_vars, spec, order_constraints):
        if len(u_vars) != len(v_vars):
            raise OrderError("left/right lists differ in length")
        self.name = name
        self.u_vars = list(u_vars)
        self.v_vars = list(v_vars)
        self.aux_vars = list(aux_vars)
        self.spec = list(spec)  # [(Constraint, Witness)]
        self.order_constraints = list(order_constraints)
        self.validated = False

    @property
    def n(self):
        return len(self.u_vars)


# Initial configuration: the trivial order over zero variables.
TRIVIAL = OrderDefinition("trivial", [], [], [], [], [])
TRIVIAL.validated = True


def _engine(premises, negc):
    engine = pb.Propagator()
    for c in premises:
        engine.add(c)
    engine.add(negc)
    return engine


def verify_specification(spec, aux_vars):
    """Check the redundance obligations of a specification, in list order.

    Entry i is derived by the redundance rule from C_1..C_{i-1}, the rule
    ``red`` applies: the goals of :func:`pb.redundance_goals` are
    discharged by :func:`pb.discharge` against the earlier entries and
    neg(C_i).  Only the earlier entries over a witness variable, found
    through a variable -> entry index, are substituted; the others are
    their own images.  A RUP goal is tried first in a fresh propagator
    over those touched entries plus neg(C_i), and only if that fails over
    all earlier entries plus neg(C_i).  RUP is monotone in its premises,
    so the first success is sound and the verdict is that of the full
    check; the fallback engine is built when a goal needs it.
    """
    aux = set(aux_vars)
    entries = []   # C_1..C_{i-1}
    occ = {}       # variable -> indices into `entries`, ascending
    known = set()
    for i, (con, wit) in enumerate(spec, start=1):
        bad = set(wit) - aux
        if bad:
            raise OrderError(
                "spec entry %d witnesses non-aux variables %s" % (i, sorted(bad)))
        negc = pb.negate(con)
        touched = sorted({j for v in wit for j in occ.get(v, ())})
        near = [entries[j] for j in touched]
        engines = [None, None]

        def rup(goal):
            # over the touched entries first, then over all of them
            for k, premises in enumerate((near, entries)):
                if engines[k] is None:
                    engines[k] = _engine(premises, negc)
                if engines[k].rup(goal):
                    return True
            return False

        for _key, goal in pb.redundance_goals(zip(touched, near), con, wit):
            if pb.discharge(goal, known, negc, rup) is None:
                raise OrderError("spec entry %d: goal %s not derivable"
                                 % (i, pb.render(goal)))
        for v in con.variables():
            occ.setdefault(v, []).append(len(entries))
        entries.append(con)
        known.add(con)
    return True


def _mapping(order, left, right, aux_map=None):
    m = {}
    for u, img in zip(order.u_vars, left):
        m[u] = img
    for v, img in zip(order.v_vars, right):
        m[v] = img
    if aux_map:
        m.update(aux_map)
    return m


def spec_instance(order, left, right, aux_map=None):
    """S(left, right, aux) as one zero-argument function per spec entry,
    in spec order, each building its row.

    left/right are literal (or 0/1 constant) lists of length n; building
    is deferred so the checker builds, and counts, only the rows it reads.
    """
    if len(left) != order.n or len(right) != order.n:
        raise OrderError("arity mismatch: expected %d variables" % order.n)
    m = _mapping(order, left, right, aux_map)
    return [(lambda c=c: pb.substitute(c, m)) for c, _w in order.spec]


def order_instance(order, left, right, aux_map=None):
    """O(left, right, aux), eagerly computed (the list is small)."""
    if len(left) != order.n or len(right) != order.n:
        raise OrderError("arity mismatch: expected %d variables" % order.n)
    m = _mapping(order, left, right, aux_map)
    return [pb.substitute(c, m) for c in order.order_constraints]


def _aux_renaming(order, fresh_aux):
    if len(fresh_aux) != len(order.aux_vars):
        raise OrderError("fresh aux list length mismatch")
    return dict(zip(order.aux_vars, fresh_aux))


def transitivity_obligation(order, fresh_right, fresh_aux_1, fresh_aux_2):
    """Premises (in ID assignment order) and goals of the transitivity check.

    Premises: S(u,v,a), S(v,w,b), S(u,w,c), O(u,v,a), O(v,w,b);
    goals: O(u,w,c).
    """
    if len(fresh_right) != order.n:
        raise OrderError("fresh_right length mismatch")
    u, v, w = order.u_vars, order.v_vars, list(fresh_right)
    ren_b = _aux_renaming(order, fresh_aux_1)
    ren_c = _aux_renaming(order, fresh_aux_2)
    premises = []
    premises.extend(c() for c in spec_instance(order, u, v))
    premises.extend(c() for c in spec_instance(order, v, w, ren_b))
    premises.extend(c() for c in spec_instance(order, u, w, ren_c))
    premises.extend(order_instance(order, u, v))
    premises.extend(order_instance(order, v, w, ren_b))
    goals = order_instance(order, u, w, ren_c)
    return premises, goals


def reflexivity_obligation(order):
    """Premises S(u,u,a) and goals O(u,u,a) of the reflexivity check."""
    u = order.u_vars
    premises = [c() for c in spec_instance(order, u, u)]
    goals = order_instance(order, u, u)
    return premises, goals


def check_reflexivity(order, subproof_goals, run):
    premises, goals = reflexivity_obligation(order)
    run(premises, goals, subproof_goals, "reflexivity")
    return True


def check_transitivity(order, fresh_right, fresh_aux_1, fresh_aux_2,
                       subproof_goals, run):
    premises, goals = transitivity_obligation(
        order, fresh_right, fresh_aux_1, fresh_aux_2)
    run(premises, goals, subproof_goals, "transitivity")
    return True


def check_names(order, transitivity):
    """The variables a def_order declares are pairwise distinct, else the
    transitivity goal is a weaker statement, and its aux and fresh-aux ones
    are `$` names, else dom's spec rows may constrain formula variables."""
    aux = (order.aux_vars + transitivity["fresh_aux_1"]
           + transitivity["fresh_aux_2"])
    names = order.u_vars + order.v_vars + transitivity["fresh_right"] + aux
    twice = sorted(v for v, k in collections.Counter(names).items() if k > 1)
    if twice:
        raise OrderError("variables %s are declared twice" % twice)
    plain = [v for v in aux if not pb.is_aux_var(v)]
    if plain:
        raise OrderError("aux variables %s do not start with '$'" % plain)


def validate(order, transitivity, reflexivity, run):
    """Full validation pipeline for a parsed def_order block.  `run`
    (premises, goals, blocks, label) runs each obligation's subproof."""
    check_names(order, transitivity)
    verify_specification(order.spec, order.aux_vars)
    check_transitivity(order, transitivity["fresh_right"],
                       transitivity["fresh_aux_1"], transitivity["fresh_aux_2"],
                       transitivity["goals"], run)
    check_reflexivity(order, reflexivity["goals"], run)
    order.validated = True
    return order
