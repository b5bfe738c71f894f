"""Preorders with auxiliary variables.

An order is its ``def_order`` step, the dict :func:`parsing.def_order_step`
builds and :func:`parsing.parse_proof` returns: placeholder variable lists
``left``/``right`` (u/v), auxiliary variables ``aux``, a specification
``spec`` (an ordered list of (constraint, witness) rows, each introduced by
redundance with a witness over the aux variables only), the order
constraints ``def``, and the transitivity and reflexivity proofs.
:func:`validate` checks the declared names, the specification obligations
and both proofs; the checker stores, and so loads, only orders that pass.
An instance substitutes for u, v and aux once, in :func:`instance`; a
proof builds only the spec rows it reads.
"""

import collections

from . import constraints as pb
from . import parsing


class OrderError(Exception):
    pass


# Initial configuration: the trivial order over zero variables.
TRIVIAL = parsing.def_order_step("trivial", [], [], [], [], [], ([], [], []),
                                 [], [], None)


def verify_specification(spec, aux_vars):
    """Check the redundance obligations of a specification, in list order.

    Entry i is derived by the redundance rule from C_1..C_{i-1}, the rule
    ``red`` applies: the goals of :func:`pb.redundance_goals` are
    discharged by :func:`pb.discharge` against the earlier entries and
    neg(C_i).  Only the earlier entries over a witness variable, found
    through a variable -> entry index, are substituted; the others are
    their own images.  A RUP goal is proved by :func:`pb.rup_check` over
    those touched entries plus neg(C_i) first, and only if that fails over
    all earlier entries plus neg(C_i).  RUP is monotone in its premises,
    so the first success is sound and the verdict is that of the full
    check.
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
        local = near + [negc]

        def rup(goal):
            return (pb.rup_check(local, goal)
                    or pb.rup_check(entries + [negc], goal))

        for _key, goal in pb.redundance_goals(zip(touched, near), con, wit):
            if pb.discharge(goal, known, negc, rup) is None:
                raise OrderError("spec entry %d: goal %s not derivable"
                                 % (i, pb.render(goal)))
        for v in con.variables():
            occ.setdefault(v, []).append(len(entries))
        entries.append(con)
        known.add(con)
    return True


def instance(order, left, right, aux_map=None):
    """S and O under u -> left, v -> right (literal or 0/1 lists of length
    n) and the aux renaming `aux_map`, through one literal map: the spec
    rows as :func:`spec_instance` returns them, and the order constraints."""
    n = len(order["left"])
    if len(left) != n or len(right) != n:
        raise OrderError("arity mismatch: expected %d variables" % n)
    m = dict(zip(order["left"], left))
    m.update(zip(order["right"], right))
    if aux_map:
        m.update(aux_map)
    lits = pb.witness_lits(m)
    return (spec_instance(order, lits),
            [pb.substitute(c, lits) for c in order["def"]])


def spec_instance(order, lits):
    """The spec rows under the literal map `lits`, as one zero-argument
    function per spec entry, in spec order, each building its row; building
    is deferred so the checker builds, and counts, only the rows it reads."""
    return [(lambda c=c: pb.substitute(c, lits)) for c, _w in order["spec"]]


def check_transitivity(order, run):
    """Run the transitivity proof.  Its premises get IDs in this order:
    S(u,v,a), S(v,w,b), S(u,w,c), O(u,v,a), O(v,w,b), the spec rows as the
    zero-argument functions of :func:`instance`, so that only the rows a
    step reads are built; its goals are O(u,w,c), where w, b and c are the
    proof's fresh_right, fresh_aux_1 and fresh_aux_2 names."""
    trans = order["transitivity"]
    u, v, w = order["left"], order["right"], trans["fresh_right"]
    spec_uv, o_uv = instance(order, u, v)
    spec_vw, o_vw = instance(order, v, w,
                             dict(zip(order["aux"], trans["fresh_aux_1"])))
    spec_uw, goals = instance(order, u, w,
                              dict(zip(order["aux"], trans["fresh_aux_2"])))
    run(spec_uv + spec_vw + spec_uw + o_uv + o_vw, goals, trans["goals"],
        "transitivity")
    return True


def check_reflexivity(order, run):
    """Run the reflexivity proof: premises S(u,u,a), goals O(u,u,a)."""
    u = order["left"]
    spec, goals = instance(order, u, u)
    run(spec, goals, order["reflexivity"]["goals"], "reflexivity")
    return True


def check_names(order):
    """The names a def_order declares.  Left, right and fresh_right are
    equally long, and so are aux and the two fresh-aux lists.  All are
    pairwise distinct, else the transitivity goal is a weaker statement.
    Aux and fresh-aux names start with `$`, else dom's spec rows may
    constrain formula variables.  Spec and def constraints use only left,
    right and aux names, else an order instance constrains variables that
    no binding or renaming replaces."""
    trans = order["transitivity"]
    n, k = len(order["left"]), len(order["aux"])
    if len(order["right"]) != n or len(trans["fresh_right"]) != n:
        raise OrderError("left, right and fresh_right lists differ in length")
    if len(trans["fresh_aux_1"]) != k or len(trans["fresh_aux_2"]) != k:
        raise OrderError("aux and fresh aux lists differ in length")
    aux = order["aux"] + trans["fresh_aux_1"] + trans["fresh_aux_2"]
    names = order["left"] + order["right"] + trans["fresh_right"] + aux
    twice = sorted(v for v, c in collections.Counter(names).items() if c > 1)
    if twice:
        raise OrderError("variables %s are declared twice" % twice)
    plain = [v for v in aux if not pb.is_aux_var(v)]
    if plain:
        raise OrderError("aux variables %s do not start with '$'" % plain)
    used = {v for c, _w in order["spec"] for v in c.variables()}
    used.update(v for c in order["def"] for v in c.variables())
    free = sorted(used.difference(order["left"], order["right"], order["aux"]))
    if free:
        raise OrderError("spec or def constraints use undeclared variables %s"
                         % free)


def validate(order, run):
    """Full validation of a def_order step.  `run` (premises, goals,
    blocks, label) runs each obligation's subproof over lazy spec rows."""
    check_names(order)
    verify_specification(order["spec"], order["aux"])
    check_transitivity(order, run)
    check_reflexivity(order, run)
    return order
