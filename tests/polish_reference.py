"""The cutting-planes arithmetic as it was before :class:`pbsym.constraints.
LinearSum`: each operator builds a new :class:`Constraint`, so a ``+``
copies its first operand's dict, a polarity flip rebuilds it and every
``w`` copies it again.  Kept as the reference that the in-place evaluator
is compared with, term order, degree, errors and ``resolve`` calls
included.
"""

from pbsym.constraints import (
    Constraint, ConstraintError, literal_axiom, neg, parse_int, var_of,
)


def add(c1, c2):
    """The sum of two normalized constraints.

    Returns exactly what :func:`normalize` returns for the concatenated
    terms, term order included: c1's variables keep their positions, even
    when their polarity flips, and c2's new variables follow in c2's order.
    Costs a copy of c1's dict plus O(len(c2.terms)) lookups, and one
    rebuild of the dict when some polarity flips.
    """
    terms = c1.terms.copy()
    degree = c1.degree + c2.degree
    flipped = {}  # literal of c1 -> the opposite literal that replaces it
    for lit, a in c2.terms.items():
        b = terms.get(lit)
        if b is not None:
            terms[lit] = a + b
            continue
        other = neg(lit)
        b = terms.get(other)
        if b is None:
            terms[lit] = a
        elif b > a:
            terms[other] = b - a
            degree -= a
        elif b == a:
            del terms[other]
            degree -= a
        else:
            terms[other] = a - b
            flipped[other] = lit
            degree -= b
    if flipped:
        terms = {flipped.get(l, l): a for l, a in terms.items()}
    return Constraint(terms, max(degree, 0))


def multiply(c, k):
    if k <= 0:
        raise ConstraintError("multiplier must be positive, got %d" % k)
    return Constraint({l: a * k for l, a in c.terms.items()}, c.degree * k)


def divide(c, k):
    """Division with ceiling on every coefficient and on the degree."""
    if k <= 0:
        raise ConstraintError("divisor must be positive, got %d" % k)
    terms = {l: -(-a // k) for l, a in c.terms.items()}
    return Constraint(terms, -(-c.degree // k))


def saturate(c):
    terms = {l: min(a, c.degree) for l, a in c.terms.items() if min(a, c.degree) > 0}
    return Constraint(terms, c.degree)


def weaken(c, variable):
    """Cancel the term on `variable` by adding literal axioms.

    Weakening a variable that does not occur is a no-op.
    """
    for lit in (variable, "~" + variable):
        if lit in c.terms:
            a = c.terms[lit]
            terms = {l: b for l, b in c.terms.items() if l != lit}
            return Constraint(terms, max(c.degree - a, 0))
    return c


def evaluate_polish(tokens, resolve):
    """Evaluate a reverse-Polish cutting planes program.

    ``tokens`` is a list of strings; ``resolve`` maps a (possibly negative,
    i.e. relative) constraint ID to a Constraint.  Number tokens are lazy:
    popped by ``*`` or ``d`` they act as integers, anywhere a constraint is
    needed they act as constraint IDs.  Only a token :func:`parse_int`
    reads is a number.  Other tokens are literals: they act as literal
    axioms when used as constraints, and name the variable for ``w``.
    """
    stack = []

    def as_constraint(item):
        kind, val = item
        if kind == "con":
            return val
        if kind == "num":
            return resolve(val)
        return literal_axiom(val)  # kind == "lit"

    def pop(what="operand"):
        if not stack:
            raise ConstraintError("polish stack underflow at %s" % what)
        return stack.pop()

    for tok in tokens:
        if tok == "+":
            b = as_constraint(pop("+"))
            a = as_constraint(pop("+"))
            stack.append(("con", add(a, b)))
        elif tok == "*":
            kind, k = pop("*")
            if kind != "num":
                raise ConstraintError("multiplier must be a number")
            c = as_constraint(pop("*"))
            stack.append(("con", multiply(c, k)))
        elif tok == "d":
            kind, k = pop("d")
            if kind != "num":
                raise ConstraintError("divisor must be a number")
            c = as_constraint(pop("d"))
            stack.append(("con", divide(c, k)))
        elif tok == "s":
            stack.append(("con", saturate(as_constraint(pop("s")))))
        elif tok == "w":
            kind, name = pop("w")
            if kind != "lit":
                raise ConstraintError("weakening needs a variable name")
            c = as_constraint(pop("w"))
            stack.append(("con", weaken(c, var_of(name))))
        else:
            num = parse_int(tok)
            stack.append(("lit", tok) if num is None else ("num", num))
    if len(stack) != 1:
        raise ConstraintError("polish program left %d items on the stack" % len(stack))
    return as_constraint(stack[0])

