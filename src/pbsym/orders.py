"""Preorders with auxiliary variables.

An order is its ``def_order`` step, the dict :func:`parsing.def_order_step`
builds and :func:`parsing.parse_proof` returns: placeholder variable lists
``left``/``right`` (u/v), auxiliary variables ``aux``, a specification
``spec`` (an ordered list of (constraint, witness) rows, each introduced by
redundance with a witness over the aux variables only), the order
constraints ``def``, and the transitivity and reflexivity proofs.
:func:`validate` checks the declared names, the specification obligations
and both proofs; the checker stores, and so loads, only orders that pass.
The redundance rule and the subproof runner are the checker's, passed in,
so a spec row is derived by the same code as a ``red`` step.
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


def verify_specification(spec, aux_vars, derive):
    """Check the redundance obligations of a specification, in list order.

    Entry i witnesses aux variables only and is derived from C_1..C_{i-1}
    by `derive` (constraint, witness), the redundance rule ``red`` applies:
    it returns None once the entry is a premise of the entries after it,
    else the (key, goal) it could not prove.
    """
    aux = set(aux_vars)
    for i, (con, wit) in enumerate(spec, start=1):
        bad = set(wit) - aux
        if bad:
            raise OrderError(
                "spec entry %d witnesses non-aux variables %s" % (i, sorted(bad)))
        failed = derive(con, wit)
        if failed is not None:
            raise OrderError("spec entry %d: goal %s not derivable"
                             % (i, pb.render(failed[1])))
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


def positional(order):
    """The positional shape of `order`, or None: per position i of u and
    v, the indices of the spec rows at i and the (x, image) of each aux x
    they define, 0/1 or the literal that x equals where u_i = v_i.

    A row must mention u and v at one position i and witness one aux x,
    whose rows all sit at i.  Under u_i = v_i it must be a tautology or
    clausal (its coefficients below the degree sum to less than it, so it
    propagates as the clause of the others), and x's clauses must say x =
    0/1 or x = a literal over an aux of i - 1 that is no other's image.
    Rows at i read aux of i and i - 1 only, and order constraints aux of
    the last position only, so renaming merges no two terms of a row."""
    u, v, spec = order["left"], order["right"], order["spec"]
    place = {y: i for uv in (u, v) for i, y in enumerate(uv)}
    shape, where, clauses, images = [([], []) for _ in u], {}, {}, set()
    for r, (con, wit) in enumerate(spec):
        at = {place[y] for y in con.variables() & place.keys()}
        if len(at) != 1 or len(wit) != 1:
            return None
        i, (x,) = at.pop(), wit
        shape[i][0].append(r)
        red = pb.substitute(con, pb.witness_lits({u[i]: v[i]}))
        big = frozenset(l for l, a in red.terms.items() if a >= red.degree)
        if where.setdefault(x, i) != i or red.degree and (
                sum(red.terms.values()) - sum(map(red.terms.get, big))
                >= red.degree or place.keys() & red.variables()):
            return None
        if red.degree:
            clauses.setdefault(x, set()).add(big)
    for x, cls in clauses.items():
        o = next((l for c in cls if x in c for l in c if l != x), None)
        if cls in ({frozenset([x])}, {frozenset([pb.neg(x)])}):
            image = int(frozenset([x]) in cls)
        elif (o and cls == {frozenset([x, o]), frozenset(map(pb.neg, (x, o)))}
              and where.get(pb.var_of(o)) == where[x] - 1
              and pb.var_of(o) not in images):
            image = pb.neg(o)
            images.add(pb.var_of(o))
        else:
            return None
        shape[where[x]][1].append((x, image))
    reads = [(where[x], c) for c, w in spec for x in w]
    reads += [(len(u), c) for c in order["def"]]
    if any(where.get(y, i) not in (i, i - 1) or y in place and i == len(u)
           for i, c in reads for y in c.variables()):
        return None
    return shape


def aliases(shape, fixed):
    """The alias map of a scope that fixes each position i with `fixed[i]`
    true, and the positions it moves.  Each aux a fixed position defines
    maps to 0/1 or to a literal of its class's representative: the member
    no fixed position defines, at the nearest moved position before it."""
    alias, moved = {}, []
    for i, fix in enumerate(fixed):
        if not fix:
            moved.append(i)
        for x, image in shape[i][1] if fix else ():
            if isinstance(image, str):
                y = pb.var_of(image)
                rep = alias.get(y, y)
                image = (rep if image == y else 1 - rep
                         if isinstance(rep, int) else pb.neg(rep))
            alias[x] = image
    return alias, moved


def contract(order, shape, moved, rename, left, right):
    """The spec rows at the `moved` positions under u -> left, v -> right
    and the aux literal map `rename`: a scope's rows under its alias map."""
    lits = dict(rename)
    lits.update(pb.witness_lits(
        {uv[p]: img[p] for p in moved
         for uv, img in ((order["left"], left), (order["right"], right))}))
    return [pb.substitute(order["spec"][r][0], lits)
            for p in moved for r in shape[p][0]]


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


def validate(order, run, derive):
    """Full validation of a def_order step.  `derive` (constraint, witness)
    derives each spec row by the redundance rule, as
    :func:`verify_specification` takes it; `run` (premises, goals, blocks,
    label) runs each obligation's subproof over lazy spec rows."""
    check_names(order)
    verify_specification(order["spec"], order["aux"], derive)
    check_transitivity(order, run)
    check_reflexivity(order, run)
    return order
