"""Brute-force semantic oracles used across the test suite.

Deliberately written against the raw data (dicts of literal -> coeff)
rather than reusing the library's algebra, so the two code paths are
independent.
"""

import itertools


def lit_holds(lit, assignment):
    if lit.startswith("~"):
        return assignment[lit[1:]] == 0
    return assignment[lit] == 1


def con_holds(con, assignment):
    lhs = 0
    for lit, a in con.terms.items():
        if lit_holds(lit, assignment):
            lhs += a
    return lhs >= con.degree


def all_assignments(variables):
    variables = sorted(variables)
    for bits in itertools.product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


def vars_of(cons):
    vs = set()
    for c in cons:
        for lit in c.terms:
            vs.add(lit[1:] if lit.startswith("~") else lit)
    return vs


def implies(premises, goal):
    """Every total assignment satisfying all premises satisfies the goal."""
    vs = vars_of(list(premises) + [goal])
    assert len(vs) <= 16, "oracle is exponential; keep instances small"
    for rho in all_assignments(vs):
        if all(con_holds(p, rho) for p in premises) and not con_holds(goal, rho):
            return False
    return True


def redundant(premises, c, witness):
    """The redundance condition for deriving `c` from `premises` under
    `witness` (variable -> literal | 0 | 1): every total assignment that
    satisfies the premises and falsifies `c`, composed with the witness,
    satisfies the premises and `c`."""
    cons = list(premises) + [c]
    vs = vars_of(cons) | set(witness) | {
        img.lstrip("~") for img in witness.values() if isinstance(img, str)}
    assert len(vs) <= 16, "oracle is exponential; keep instances small"
    for rho in all_assignments(vs):
        if all(con_holds(p, rho) for p in premises) and not con_holds(c, rho):
            moved = dict(rho)
            for v, img in witness.items():
                moved[v] = img if isinstance(img, int) else int(
                    lit_holds(img, rho))
            if not all(con_holds(g, moved) for g in cons):
                return False
    return True


def satisfiable(cons, extra_vars=()):
    vs = vars_of(cons) | set(extra_vars)
    assert len(vs) <= 20
    for rho in all_assignments(vs):
        if all(con_holds(c, rho) for c in cons):
            return rho
    return None


def models(cons, variables=None):
    vs = set(variables) if variables is not None else vars_of(cons)
    return [rho for rho in all_assignments(vs)
            if all(con_holds(c, rho) for c in cons)]


def slack(con, assignment):
    """Sum of the coefficients of the literals a partial assignment does
    not falsify, minus the degree."""
    s = -con.degree
    for lit, a in con.terms.items():
        var = lit[1:] if lit.startswith("~") else lit
        if var not in assignment or lit_holds(lit, assignment):
            s += a
    return s


def equisat(formula, breaking):
    """Whether sat(F) <=> sat(F u B), by exhaustive search."""
    formula, breaking = list(formula), list(breaking)
    assert len(vars_of(formula + breaking)) <= 20, \
        "oracle is exponential; keep instances small"
    return ((satisfiable(formula) is None)
            == (satisfiable(formula + breaking) is None))


def lex_leq(alpha, beta):
    """alpha <=_lex beta for equally long 0/1 sequences, first bit most
    significant."""
    assert len(alpha) == len(beta), "assignments differ in length"
    return list(alpha) <= list(beta)
