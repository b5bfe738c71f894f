"""Crafted benchmark generators.

Each generator returns an :class:`Instance` whose constraints are CNF
clauses in normalized PB form, plus a naming map from semantic names
(``p2_h1`` = pigeon 2 in hole 1) to the ``x<i>`` variables used in the
DIMACS encoding.  :func:`known_generators` produces analytic symmetry
generators for each family, as witness dicts (variable -> literal); all of
them pass :func:`pbsym.breaker.verify_symmetry` by construction.
"""

import itertools

from . import constraints as pb


class BenchError(Exception):
    pass


class Instance:

    def __init__(self, family, params, constraints, variables, names):
        self.family = family
        self.params = params
        self.constraints = constraints
        self.variables = variables      # x<i> in index order
        self.names = names              # semantic name -> x<i>

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


def _clause(lits):
    return pb.normalize([(1, l) for l in lits], 1)


# ---------------------------------------------------------------- families

def php(n):
    """n pigeons into n-1 holes; UNSAT for n >= 2."""
    if n < 2:
        raise BenchError("PHP needs at least 2 pigeons")
    vs = _Vars()
    for i in range(1, n + 1):
        for j in range(1, n):
            vs.new("p%d_h%d" % (i, j))
    cons = [_clause([vs["p%d_h%d" % (i, j)] for j in range(1, n)])
            for i in range(1, n + 1)]
    for j in range(1, n):
        for i1, i2 in itertools.combinations(range(1, n + 1), 2):
            cons.append(_clause(["~" + vs["p%d_h%d" % (i1, j)],
                                 "~" + vs["p%d_h%d" % (i2, j)]]))
    return Instance("php", (n,), cons, vs.order, vs.names)


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
        cons.append(_clause([vs["p%d_r%d" % (i, r)] for r in range(1, m + 1)]))
    for r in range(1, m + 1):
        for i1, i2 in itertools.combinations(range(1, n + 1), 2):
            cons.append(_clause(["~" + vs["p%d_r%d" % (i1, r)],
                                 "~" + vs["p%d_r%d" % (i2, r)]]))
    for i in range(1, n + 1):
        for r in range(1, m + 1):
            cons.append(_clause(["~" + vs["p%d_r%d" % (i, r)]]
                                + [vs["r%d_h%d" % (r, j)] for j in range(1, n)]))
    for j in range(1, n):
        for r1, r2 in itertools.permutations(range(1, m + 1), 2):
            for i1, i2 in itertools.combinations(range(1, n + 1), 2):
                cons.append(_clause(
                    ["~" + vs["p%d_r%d" % (i1, r1)],
                     "~" + vs["p%d_r%d" % (i2, r2)],
                     "~" + vs["r%d_h%d" % (r1, j)],
                     "~" + vs["r%d_h%d" % (r2, j)]]))
    return Instance("rphp", (n,), cons, vs.order, vs.names)


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
        cons.append(_clause([vs["q%d_%d" % (a, u)] for u in range(1, n + 1)]))
    for a1, a2 in itertools.combinations(range(1, k + 1), 2):
        for u in range(1, n + 1):
            cons.append(_clause(["~" + vs["q%d_%d" % (a1, u)],
                                 "~" + vs["q%d_%d" % (a2, u)]]))
        for u, v in itertools.permutations(range(1, n + 1), 2):
            if u < v:
                cons.append(_clause(["~" + vs["q%d_%d" % (a1, u)],
                                     "~" + vs["q%d_%d" % (a2, v)],
                                     edge(u, v)]))
                cons.append(_clause(["~" + vs["q%d_%d" % (a1, v)],
                                     "~" + vs["q%d_%d" % (a2, u)],
                                     edge(u, v)]))
    for u in range(1, n + 1):
        cons.append(_clause([vs["c%d_%d" % (u, b)] for b in range(1, c + 1)]))
    for u, v in itertools.combinations(range(1, n + 1), 2):
        for b in range(1, c + 1):
            cons.append(_clause(["~" + edge(u, v),
                                 "~" + vs["c%d_%d" % (u, b)],
                                 "~" + vs["c%d_%d" % (v, b)]]))
    return Instance("clqcl", (n, k, c), cons, vs.order, vs.names)


def count(n, k=3):
    """Partition [n] into k-sets; UNSAT when k does not divide n."""
    if k < 2 or n < k:
        raise BenchError("Count needs n >= k >= 2")
    vs = _Vars()
    subsets = list(itertools.combinations(range(1, n + 1), k))
    for S in subsets:
        vs.new("s" + "_".join(str(i) for i in S))
    name = lambda S: vs["s" + "_".join(str(i) for i in S)]
    cons = []
    for i in range(1, n + 1):
        cons.append(_clause([name(S) for S in subsets if i in S]))
    for S, T in itertools.combinations(subsets, 2):
        if set(S) & set(T):
            cons.append(_clause(["~" + name(S), "~" + name(T)]))
    return Instance("count", (n, k), cons, vs.order, vs.names)


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
                    cons.append(_clause(
                        [(e if s else "~" + e) for e, s in zip(edges, signs)]))
    return Instance("tseitin", (n,), cons, vs.order, vs.names)


_FAMILIES = {"php": php, "rphp": rphp, "clqcl": clqcl, "count": count,
             "tseitin": tseitin_grid}


def generate(family, params):
    try:
        fn = _FAMILIES[family.lower()]
    except KeyError:
        raise BenchError("unknown family %r (know %s)"
                         % (family, sorted(_FAMILIES)))
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    if not len(names) - len(fn.__defaults__ or ()) <= len(params) <= len(names):
        raise BenchError("%s takes parameters (%s), got %d"
                         % (family, ", ".join(names), len(params)))
    return fn(*params)


# -------------------------------------------------------------- generators

def _swap(names, pairs):
    mapping = {}
    for a, b in pairs:
        mapping[names[a]] = names[b]
        mapping[names[b]] = names[a]
    return mapping


def known_generators(inst):
    """Analytic symmetry generators for a generated instance."""
    f, names = inst.family, inst.names
    if f == "php":
        (n,) = inst.params
        gens = [_swap(names, [("p%d_h%d" % (i, j), "p%d_h%d" % (i + 1, j))
                              for j in range(1, n)])
                for i in range(1, n)]
        gens += [_swap(names, [("p%d_h%d" % (i, j), "p%d_h%d" % (i, j + 1))
                               for i in range(1, n + 1)])
                 for j in range(1, n - 1)]
        return gens
    if f == "rphp":
        (n,) = inst.params
        m = 2 * n
        gens = [_swap(names, [("p%d_r%d" % (i, r), "p%d_r%d" % (i + 1, r))
                              for r in range(1, m + 1)])
                for i in range(1, n)]
        gens += [_swap(names,
                       [("p%d_r%d" % (i, r), "p%d_r%d" % (i, r + 1))
                        for i in range(1, n + 1)]
                       + [("r%d_h%d" % (r, j), "r%d_h%d" % (r + 1, j))
                          for j in range(1, n)])
                 for r in range(1, m)]
        gens += [_swap(names, [("r%d_h%d" % (r, j), "r%d_h%d" % (r, j + 1))
                               for r in range(1, m + 1)])
                 for j in range(1, n - 1)]
        return gens
    if f == "clqcl":
        n, k, c = inst.params
        def vswap(u):  # swap vertices u and u+1
            pairs = [("q%d_%d" % (a, u), "q%d_%d" % (a, u + 1))
                     for a in range(1, k + 1)]
            pairs += [("c%d_%d" % (u, b), "c%d_%d" % (u + 1, b))
                      for b in range(1, c + 1)]
            for w in range(1, n + 1):
                if w in (u, u + 1):
                    continue
                a1, b1 = sorted((w, u)), sorted((w, u + 1))
                pairs.append(("e%d_%d" % tuple(a1), "e%d_%d" % tuple(b1)))
            return _swap(names, pairs)
        return [vswap(u) for u in range(1, n)]
    if f == "count":
        n, k = inst.params
        def eswap(i):  # swap elements i and i+1
            sub = lambda S: tuple(sorted(
                (i + 1 if e == i else (i if e == i + 1 else e)) for e in S))
            pairs = []
            for S in itertools.combinations(range(1, n + 1), k):
                T = sub(S)
                if S < T:
                    pairs.append(("s" + "_".join(map(str, S)),
                                  "s" + "_".join(map(str, T))))
            return _swap(names, pairs)
        return [eswap(i) for i in range(1, n)]
    if f == "tseitin":
        (n,) = inst.params
        gens = []
        for i in range(1, n):          # flip the 4-cycle of face (i, j)
            for j in range(1, n):
                edges = [names["h%d_%d" % (i, j)],
                         names["h%d_%d" % (i + 1, j)],
                         names["v%d_%d" % (i, j)],
                         names["v%d_%d" % (i, j + 1)]]
                gens.append({e: "~" + e for e in edges})
        return gens
    raise BenchError("no generators for family %r" % f)

