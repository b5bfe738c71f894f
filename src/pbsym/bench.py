"""Crafted benchmark families.

Each family of :data:`FAMILIES` returns an :class:`Instance` whose
constraints are CNF clauses in normalized PB form, plus a naming map from
semantic names (``p2_h1`` = pigeon 2 in hole 1) to the ``x<i>`` variables
used in the DIMACS encoding, and the family's analytic symmetry generators
as witness dicts (variable -> literal); all of them pass
:func:`pbsym.breaker.verify_symmetry` by construction.
"""

import itertools

from . import constraints as pb


class BenchError(Exception):
    pass


class Instance:

    def __init__(self, family, params, constraints, variables, names,
                 generators=()):
        self.family = family
        self.params = params
        self.constraints = constraints
        self.variables = variables      # x<i> in index order
        self.names = names              # semantic name -> x<i>
        # symmetry witness dicts; one that moves nothing is left out
        self.generators = [g for g in generators if g]

    def nvars(self):
        return len(self.variables)

    def __repr__(self):
        return "Instance(%s%r: %d vars, %d constraints)" % (
            self.family, self.params, len(self.variables),
            len(self.constraints))


class _Vars:
    """Allocates x1, x2, ... against semantic names."""

    def __init__(self):
        self.names = {}
        self.order = []

    def new(self, name):
        var = "x%d" % (len(self.order) + 1)
        self.names[name] = var
        self.order.append(var)
        return var

    def __getitem__(self, name):
        return self.names[name]


def _swap(names, pairs):
    """The witness that swaps each named pair of `pairs`."""
    mapping = {}
    for a, b in pairs:
        mapping[names[a]] = names[b]
        mapping[names[b]] = names[a]
    return mapping


# ---------------------------------------------------------------- families

def php(n):
    """n pigeons into n-1 holes; UNSAT for n >= 2."""
    if n < 2:
        raise BenchError("PHP needs at least 2 pigeons")
    vs = _Vars()
    for i in range(1, n + 1):
        for j in range(1, n):
            vs.new("p%d_h%d" % (i, j))
    cons = [pb.clause([vs["p%d_h%d" % (i, j)] for j in range(1, n)])
            for i in range(1, n + 1)]
    for j in range(1, n):
        for i1, i2 in itertools.combinations(range(1, n + 1), 2):
            cons.append(pb.clause(["~" + vs["p%d_h%d" % (i1, j)],
                                   "~" + vs["p%d_h%d" % (i2, j)]]))
    gens = [_swap(vs, [("p%d_h%d" % (i, j), "p%d_h%d" % (i + 1, j))
                       for j in range(1, n)])
            for i in range(1, n)]
    gens += [_swap(vs, [("p%d_h%d" % (i, j), "p%d_h%d" % (i, j + 1))
                        for i in range(1, n + 1)])
             for j in range(1, n - 1)]
    return Instance("php", (n,), cons, vs.order, vs.names, gens)


def rphp(n):
    """n pigeons via m = 2n resting places into n-1 holes; UNSAT."""
    if n < 2:
        raise BenchError("RPHP needs at least 2 pigeons")
    m = 2 * n
    vs = _Vars()
    for i in range(1, n + 1):
        for r in range(1, m + 1):
            vs.new("p%d_r%d" % (i, r))
    for r in range(1, m + 1):
        for j in range(1, n):
            vs.new("r%d_h%d" % (r, j))
    cons = []
    for i in range(1, n + 1):
        cons.append(pb.clause([vs["p%d_r%d" % (i, r)]
                               for r in range(1, m + 1)]))
    for r in range(1, m + 1):
        for i1, i2 in itertools.combinations(range(1, n + 1), 2):
            cons.append(pb.clause(["~" + vs["p%d_r%d" % (i1, r)],
                                   "~" + vs["p%d_r%d" % (i2, r)]]))
    for i in range(1, n + 1):
        for r in range(1, m + 1):
            cons.append(pb.clause(["~" + vs["p%d_r%d" % (i, r)]]
                                  + [vs["r%d_h%d" % (r, j)]
                                     for j in range(1, n)]))
    for j in range(1, n):
        for r1, r2 in itertools.permutations(range(1, m + 1), 2):
            for i1, i2 in itertools.combinations(range(1, n + 1), 2):
                cons.append(pb.clause(
                    ["~" + vs["p%d_r%d" % (i1, r1)],
                     "~" + vs["p%d_r%d" % (i2, r2)],
                     "~" + vs["r%d_h%d" % (r1, j)],
                     "~" + vs["r%d_h%d" % (r2, j)]]))
    gens = [_swap(vs, [("p%d_r%d" % (i, r), "p%d_r%d" % (i + 1, r))
                       for r in range(1, m + 1)])
            for i in range(1, n)]
    gens += [_swap(vs, [("p%d_r%d" % (i, r), "p%d_r%d" % (i, r + 1))
                        for i in range(1, n + 1)]
                   + [("r%d_h%d" % (r, j), "r%d_h%d" % (r + 1, j))
                      for j in range(1, n)])
             for r in range(1, m)]
    gens += [_swap(vs, [("r%d_h%d" % (r, j), "r%d_h%d" % (r, j + 1))
                        for r in range(1, m + 1)])
             for j in range(1, n - 1)]
    return Instance("rphp", (n,), cons, vs.order, vs.names, gens)


def clqcl(n, k=6, c=5):
    """A graph on n vertices with a k-clique and a c-coloring; UNSAT if k > c."""
    if n < k:
        raise BenchError("ClqCl needs n >= k")
    vs = _Vars()
    for u, v in itertools.combinations(range(1, n + 1), 2):
        vs.new("e%d_%d" % (u, v))
    for a in range(1, k + 1):
        for u in range(1, n + 1):
            vs.new("q%d_%d" % (a, u))
    for u in range(1, n + 1):
        for b in range(1, c + 1):
            vs.new("c%d_%d" % (u, b))
    edge = lambda u, v: vs["e%d_%d" % (min(u, v), max(u, v))]
    cons = []
    for a in range(1, k + 1):
        cons.append(pb.clause([vs["q%d_%d" % (a, u)]
                               for u in range(1, n + 1)]))
    for a1, a2 in itertools.combinations(range(1, k + 1), 2):
        for u in range(1, n + 1):
            cons.append(pb.clause(["~" + vs["q%d_%d" % (a1, u)],
                                   "~" + vs["q%d_%d" % (a2, u)]]))
        for u, v in itertools.permutations(range(1, n + 1), 2):
            if u < v:
                cons.append(pb.clause(["~" + vs["q%d_%d" % (a1, u)],
                                       "~" + vs["q%d_%d" % (a2, v)],
                                       edge(u, v)]))
                cons.append(pb.clause(["~" + vs["q%d_%d" % (a1, v)],
                                       "~" + vs["q%d_%d" % (a2, u)],
                                       edge(u, v)]))
    for u in range(1, n + 1):
        cons.append(pb.clause([vs["c%d_%d" % (u, b)]
                               for b in range(1, c + 1)]))
    for u, v in itertools.combinations(range(1, n + 1), 2):
        for b in range(1, c + 1):
            cons.append(pb.clause(["~" + edge(u, v),
                                   "~" + vs["c%d_%d" % (u, b)],
                                   "~" + vs["c%d_%d" % (v, b)]]))
    def vswap(u):  # swap vertices u and u+1
        pairs = [("q%d_%d" % (a, u), "q%d_%d" % (a, u + 1))
                 for a in range(1, k + 1)]
        pairs += [("c%d_%d" % (u, b), "c%d_%d" % (u + 1, b))
                  for b in range(1, c + 1)]
        for w in range(1, n + 1):
            if w not in (u, u + 1):
                pairs.append(("e%d_%d" % tuple(sorted((w, u))),
                              "e%d_%d" % tuple(sorted((w, u + 1)))))
        return _swap(vs, pairs)
    return Instance("clqcl", (n, k, c), cons, vs.order, vs.names,
                    [vswap(u) for u in range(1, n)])


def count(n, k=3):
    """Partition [n] into k-sets; UNSAT when k does not divide n."""
    if k < 2 or n < k:
        raise BenchError("Count needs n >= k >= 2")
    vs = _Vars()
    subsets = list(itertools.combinations(range(1, n + 1), k))
    key = lambda S: "s" + "_".join(map(str, S))
    for S in subsets:
        vs.new(key(S))
    name = lambda S: vs[key(S)]
    cons = []
    for i in range(1, n + 1):
        cons.append(pb.clause([name(S) for S in subsets if i in S]))
    for S, T in itertools.combinations(subsets, 2):
        if set(S) & set(T):
            cons.append(pb.clause(["~" + name(S), "~" + name(T)]))
    def eswap(i):  # swap elements i and i+1
        sub = lambda S: tuple(sorted(
            (i + 1 if e == i else (i if e == i + 1 else e)) for e in S))
        pairs = [(S, sub(S)) for S in subsets]
        return _swap(vs, [(key(S), key(T)) for S, T in pairs if S < T])
    return Instance("count", (n, k), cons, vs.order, vs.names,
                    [eswap(i) for i in range(1, n)])


def tseitin_grid(n):
    """XOR = 0 at every vertex of an n x n grid; satisfiable (all zero)."""
    if n < 2:
        raise BenchError("TseitinGrid needs n >= 2")
    vs = _Vars()
    for i in range(1, n + 1):          # horizontal edges (i,j)-(i,j+1)
        for j in range(1, n):
            vs.new("h%d_%d" % (i, j))
    for i in range(1, n):              # vertical edges (i,j)-(i+1,j)
        for j in range(1, n + 1):
            vs.new("v%d_%d" % (i, j))
    def incident(i, j):
        out = []
        if j > 1:
            out.append(vs["h%d_%d" % (i, j - 1)])
        if j < n:
            out.append(vs["h%d_%d" % (i, j)])
        if i > 1:
            out.append(vs["v%d_%d" % (i - 1, j)])
        if i < n:
            out.append(vs["v%d_%d" % (i, j)])
        return out
    cons = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            edges = incident(i, j)
            # forbid every odd-parity sign pattern
            for signs in itertools.product((0, 1), repeat=len(edges)):
                if sum(signs) % 2 == 1:
                    cons.append(pb.clause(
                        [(e if s else "~" + e) for e, s in zip(edges, signs)]))
    # flip the 4-cycle of face (i, j)
    gens = [{e: "~" + e for e in (vs["h%d_%d" % (i, j)],
                                  vs["h%d_%d" % (i + 1, j)],
                                  vs["v%d_%d" % (i, j)],
                                  vs["v%d_%d" % (i, j + 1)])}
            for i in range(1, n) for j in range(1, n)]
    return Instance("tseitin", (n,), cons, vs.order, vs.names, gens)


# the families by name: each builds an instance and its generators
FAMILIES = {"php": php, "rphp": rphp, "clqcl": clqcl, "count": count,
            "tseitin": tseitin_grid}


def generate(family, params):
    try:
        fn = FAMILIES[family.lower()]
    except KeyError:
        raise BenchError("unknown family %r (know %s)"
                         % (family, sorted(FAMILIES)))
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    if not len(names) - len(fn.__defaults__ or ()) <= len(params) <= len(names):
        raise BenchError("%s takes parameters (%s), got %d"
                         % (family, ", ".join(names), len(params)))
    return fn(*params)
