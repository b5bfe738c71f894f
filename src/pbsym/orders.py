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
proof builds only the spec rows it reads.  The module also states lex<n>,
its rows over any names and their layout (:func:`lex`, :func:`lex_spec`,
:func:`lex_row`); a dom scope of an order :func:`lex_size` recognizes
builds lex<m> over the m positions its witness moves (:func:`contract`).
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


def _a_pair(cur, prev, u, v):
    """The rows reifying cur <-> (prev and u >= v); prev None at the top
    level."""
    if prev is None:
        one = ([(1, pb.neg(cur)), (1, u), (1, pb.neg(v))], 1)
        two = ([(2, cur), (1, pb.neg(u)), (1, v)], 2)
    else:
        one = ([(3, pb.neg(cur)), (2, prev), (1, u), (1, pb.neg(v))], 3)
        two = ([(2, cur), (2, pb.neg(prev)), (1, pb.neg(u)), (1, v)], 2)
    return _reification(cur, one, two)


def _d_pair(cur, prevd, preva, u, v):
    """The rows reifying cur <-> (u < v or (u = v and prevd)), lex style."""
    if prevd is None:
        one = ([(1, pb.neg(cur)), (1, pb.neg(u)), (1, v)], 1)
        two = ([(2, cur), (1, u), (1, pb.neg(v))], 2)
    else:
        one = ([(4, pb.neg(cur)), (3, prevd), (1, pb.neg(preva)),
                (1, pb.neg(u)), (1, v)], 4)
        two = ([(3, cur), (3, pb.neg(prevd)), (1, preva),
                (1, u), (1, pb.neg(v))], 3)
    return _reification(cur, one, two)


def _reification(cur, *halves):
    """The two (constraint, witness) rows defining `cur` from its halves."""
    return [(pb.normalize(*half), {cur: value})
            for value, half in enumerate(halves)]


def lex_spec(u, v, a, d):
    """lex<n>'s spec rows over the names `u` and `v` (n each), `a` (n - 1,
    or n for an a at the last position too) and `d` (n, or none for the `a`
    rows alone), all a rows first: a_i reifies u and v equal up to position
    i, and d_i u <=lex v up to i.  With n - 1 `a`, the layout is
    :func:`lex_row`'s."""
    a, d = [None, *a], [None, *d]
    spec = []
    for i in range(1, len(a)):
        spec += _a_pair(a[i], a[i - 1], u[i - 1], v[i - 1])
    for i in range(1, len(d)):
        spec += _d_pair(d[i], d[i - 1], a[i - 1], u[i - 1], v[i - 1])
    return spec


def lex(n):
    """The statement of lex<n>: its `left`, `right` and `aux` names, `spec`
    rows and `def`.  The 4n - 2 spec rows are :func:`lex_spec` over u, v,
    $a and $d; the order constraint is $d_n."""
    u, v, a, d = (["%s%d" % (x, i) for i in range(1, n + 1)]
                  for x in ("u", "v", "$a", "$d"))
    return {"left": u, "right": v, "aux": a[:-1] + d,
            "spec": lex_spec(u, v, a[:-1], d),
            "def": [pb.clause(d[-1:])] if n else []}


def lex_row(n, x, i, h):
    """The index in lex<n>'s spec of row h (1 or 2) of aux x_i, x "$a" or
    "$d": the row whose witness sets x_i to h - 1."""
    return 2 * (i - 1) + h - 1 + (2 * (n - 1) if x == "$d" else 0)


def lex_size(order):
    """n when `order` states lex<n>, its `left`, `right`, `aux`, `spec` and
    `def` those of :func:`lex` (n), else None.  The name and the proofs do
    not count: an order the checker loads has passed them."""
    n = len(order["left"])
    want = lex(n)
    return n if all(order[k] == want[k] for k in want) else None


def contracted_aux(n, moved):
    """The aux names of a lex<n> scope that moves the positions `moved`
    (ascending, at least one): A, the $a of each moved position below the
    last position, and D, the $d of each moved position but the last, then
    $d_n.  Under u_i = v_i at the other positions each chain of lex<n>
    collapses to one name, and these are the names it keeps: the last
    $d is the order constraint's."""
    a = ["$a%d" % (p + 1) for p in moved if p < n - 1]
    d = ["$d%d" % (p + 1) for p in moved[:-1]] + ["$d%d" % n]
    return a, d


def contract(n, moved, left, right):
    """The rows of a lex<n> scope that moves the positions `moved`, under
    u -> left and v -> right (literal lists of length n): lex<m> over the m
    moved positions, on the names of :func:`contracted_aux`."""
    a, d = contracted_aux(n, moved)
    return [c for c, _w in lex_spec([left[p] for p in moved],
                                    [right[p] for p in moved], a, d)]


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
