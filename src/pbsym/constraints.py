"""Pseudo-Boolean constraint algebra and unit propagation; the proof rules
built on them are the checker's.

A constraint is a normalized integer-linear inequality

    a_1 l_1 + ... + a_m l_m >= A

over 0/1 literals: at most one term per variable, every coefficient >= 1,
degree A >= 0.  Literals are plain strings such as ``x3`` or ``~x3``;
auxiliary variables belonging to a loaded order carry a ``$`` prefix
(``$d6``, ``~$d6``).  Coefficients are Python ints, so arbitrary precision
comes for free.

Literals are strings at this module's API.  Inside the unit-propagation
engine, :class:`Propagator`, they are ints: a variable is interned once to
an int i, its positive literal is 2i and its negated literal 2i + 1.
One-shot propagation (:func:`propagate`, so :func:`rup_check`) shares one
module-level engine, which keeps its interned names from call to call and
holds no constraint between calls; it is not re-entrant, and pbsym runs
single-threaded.
"""


class ConstraintError(Exception):
    pass


CONFLICT = "conflict"


def neg(lit):
    """Negate a literal string."""
    if lit.startswith("~"):
        return lit[1:]
    return "~" + lit


def var_of(lit):
    if lit.startswith("~"):
        return lit[1:]
    return lit


def is_positive(lit):
    return not lit.startswith("~")


def is_aux_var(var):
    """Order-auxiliary variables are namespaced with a '$' prefix."""
    return var.startswith("$")


class Constraint:
    """A normalized PB constraint.

    ``terms`` maps a literal string to its (positive) coefficient; each
    variable occurs under at most one polarity.  ``degree`` is the
    right-hand side, clamped at zero.  Instances are treated as immutable
    once built; every operation returns what :func:`normalize` would.
    """

    __slots__ = ("terms", "degree", "_hash", "_variables")

    def __init__(self, terms, degree):
        self.terms = terms
        self.degree = degree
        self._hash = self._variables = None

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # built on first call: sets of constraints are rebuilt per step
        if self._hash is None:
            self._hash = hash((frozenset(self.terms.items()), self.degree))
        return self._hash

    def __repr__(self):
        return "Constraint(%s)" % render(self)

    def is_tautology(self):
        return self.degree == 0

    def is_contradiction(self):
        """No assignment can satisfy the constraint (sum of coefficients < degree)."""
        return sum(self.terms.values()) < self.degree

    def variables(self):
        """The variables of the terms, as a frozenset built on first call."""
        if self._variables is None:
            self._variables = frozenset(var_of(l) for l in self.terms)
        return self._variables


def normalize(raw_terms, raw_degree):
    """Build the unique normalized constraint from signed OPB-style input.

    Negative coefficients are flipped with a*l = a - a*~l, terms on the
    same variable are merged in the order their variables first occur, and
    the degree is clamped at >= 0.
    """
    acc = {}  # variable -> signed coefficient of the POSITIVE literal
    degree = raw_degree
    for coeff, lit in raw_terms:
        if lit.startswith("~"):
            # a * ~x = a - a * x
            v = lit[1:]
            acc[v] = acc.get(v, 0) - coeff
            degree -= coeff
        else:
            acc[lit] = acc.get(lit, 0) + coeff
    return _from_signed(acc, degree)


def _from_signed(acc, degree):
    """The tail of :func:`normalize` and :func:`substitute`: `acc` maps
    each variable to the signed coefficient of its positive literal."""
    terms = {}
    for v, a in acc.items():
        if a > 0:
            terms[v] = a
        elif a:
            terms["~" + v] = -a
            degree -= a
    return Constraint(terms, degree if degree > 0 else 0)


FALSUM = Constraint({}, 1)


def clause(lits):
    """The clause over `lits`, whose variables are distinct: what
    :func:`normalize` builds for them, unchecked.  Literals that may repeat
    a variable go through :func:`normalize`."""
    return Constraint(dict.fromkeys(lits, 1), 1)


def negate(c):
    """Negation: sum a_i ~l_i >= sum a_i - A + 1.  Every literal of the
    normalized `c` flips in place, so this is what :func:`normalize`
    returns for the flipped terms."""
    terms = {(l[1:] if l.startswith("~") else "~" + l): a
             for l, a in c.terms.items()}
    return Constraint(terms, max(sum(terms.values()) - c.degree + 1, 0))


def witness_lits(witness):
    """Each literal `witness` (variable -> literal | 0 | 1) moves, in both
    polarities, mapped to its image; build it once to apply one witness to
    many constraints."""
    lits = dict(witness)
    for v, img in witness.items():
        lits["~" + v] = 1 - img if img == 0 or img == 1 else neg(img)
    return lits


def substitute(c, witness):
    """Apply a witness, given as its :func:`witness_lits`; constants fold
    into the degree.

    One pass over the terms accumulates each image's signed coefficient per
    variable, as :func:`normalize` does, so images that share a variable
    merge and the result is exactly what :func:`normalize` returns for the
    images, term order included.  O(len(c.terms)).
    """
    image = witness.get
    acc = {}  # variable -> signed coefficient of the POSITIVE literal
    degree = c.degree
    for lit, a in c.terms.items():
        img = image(lit, lit)
        if isinstance(img, int):  # a constant, 0 or 1
            if img:
                degree -= a
        elif img[0] == "~":
            v = img[1:]
            acc[v] = acc.get(v, 0) - a
            degree -= a
        else:
            acc[img] = acc.get(img, 0) + a
    return _from_signed(acc, degree)


class LinearSum:
    """A mutable sum of normalized constraints: `coef` maps each variable to
    the signed coefficient of its positive literal, and `degree` is the
    normalized degree, clamped at 0 after every operation.  A variable
    keeps its place when its polarity flips, one that cancels is dropped,
    and a new or returning one goes last, so :meth:`constraint` is what
    :func:`normalize` of all the summed terms gives, term order included.
    :meth:`add` costs O(len(c.terms)), :meth:`weaken` O(1), the rest one
    pass."""

    __slots__ = ("coef", "degree")

    def __init__(self, coef=None, degree=0):
        self.coef, self.degree = {} if coef is None else coef, degree

    def copy(self):
        return LinearSum(self.coef.copy(), self.degree)

    def add(self, c, k=1):
        """Add `k` times the normalized constraint `c`; returns self."""
        coef, degree = self.coef, self.degree + k * c.degree
        for lit, a in c.terms.items():
            var, a = (lit[1:], -k * a) if lit[0] == "~" else (lit, k * a)
            b = coef.get(var, 0)
            if a * b < 0:       # opposite literals cancel
                degree -= min(abs(a), abs(b))
            b += a
            if b:
                coef[var] = b
            else:               # gone; if it comes back, it goes last
                del coef[var]
        self.degree = degree if degree > 0 else 0
        return self

    def divide(self, k):
        """Division with ceiling on every coefficient and on the degree."""
        coef = self.coef
        for var, a in coef.items():
            coef[var] = a // k if a < 0 else -(-a // k)
        self.degree = -(-self.degree // k)

    def saturate(self):
        d, coef = self.degree, self.coef
        if not d:
            coef.clear()
        for var, a in coef.items():
            if abs(a) > d:
                coef[var] = d if a > 0 else -d

    def weaken(self, var):
        """Cancel the term on `var` by adding a literal axiom; a variable
        that does not occur is a no-op."""
        a = self.coef.pop(var, None)
        if a is not None:
            self.degree = max(self.degree - abs(a), 0)

    def constraint(self):
        terms = {}
        for var, a in self.coef.items():
            if a > 0:
                terms[var] = a
            else:
                terms["~" + var] = -a
        return Constraint(terms, self.degree)


def literal_axiom(lit):
    """The axiom l >= 0 (trivially true, useful as a polish operand)."""
    return Constraint({lit: 1}, 0)


def parse_int(tok):
    """The int that `tok` spells if it is a number, ASCII ``[+-]?[0-9]+``,
    else None.  ``int()`` alone also reads ``1_0`` and non-ASCII digits."""
    if tok.isascii() and "_" not in tok:
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def evaluate_polish(tokens, resolve):
    """Evaluate a reverse-Polish cutting planes program.

    ``tokens`` is a list of strings; ``resolve`` maps a (possibly negative,
    i.e. relative) constraint ID to a Constraint.  Number tokens are lazy:
    popped by ``*`` or ``d`` they act as integers, anywhere a constraint is
    needed they act as constraint IDs, resolved as an operator pops them
    (``+`` pops its second operand first).  Only a token :func:`parse_int`
    reads is a number.  Other tokens are literals: they act as literal
    axioms when used as constraints, and name the variable for ``w``.

    Operators change one :class:`LinearSum` in place; a cited constraint is
    copied only when an operator changes it, and ``k *`` on one records k.
    So a program costs time linear in its operands.
    """
    stack = []  # ints, literal names, LinearSums and (constraint, k) pairs

    def pop(what):
        try:
            return stack.pop()
        except IndexError:
            raise ConstraintError("polish stack underflow at %s"
                                  % what) from None

    def operand(what):
        """The popped operand as (constraint, multiplier)."""
        val = pop(what)
        if isinstance(val, int):
            return resolve(val), 1
        if isinstance(val, str):
            return literal_axiom(val), 1
        return (val.constraint(), 1) if isinstance(val, LinearSum) else val

    def owned(what):
        """The popped operand as a LinearSum the program may change."""
        if stack and isinstance(stack[-1], LinearSum):
            return stack.pop()
        return LinearSum().add(*operand(what))

    for tok in tokens:
        if tok == "+":
            b = operand("+")
            val = owned("+").add(*b)
        elif tok == "*" or tok == "d":
            name = "multiplier" if tok == "*" else "divisor"
            k = pop(tok)
            if not isinstance(k, int):
                raise ConstraintError("%s must be a number" % name)
            val = operand(tok) if tok == "*" else owned(tok)
            if k <= 0:
                raise ConstraintError("%s must be positive, got %d" % (name, k))
            if tok == "*":
                val = val[0], val[1] * k
            else:
                val.divide(k)
        elif tok == "s":
            val = owned("s")
            val.saturate()
        elif tok == "w":
            name = pop("w")
            if not isinstance(name, str):
                raise ConstraintError("weakening needs a variable name")
            val = owned("w")
            val.weaken(var_of(name))
        else:
            # a number starts with a sign or a digit; a literal seldom does
            num = parse_int(tok) if tok[:1] in "+-0123456789" else None
            val = tok if num is None else num
        stack.append(val)
    if len(stack) != 1:
        raise ConstraintError("polish program left %d items on the stack" % len(stack))
    c, k = operand("end")
    return c if k == 1 else LinearSum().add(c, k).constraint()


class Propagator:
    """Incremental slack-based unit propagation over int literals.

    Each added constraint becomes a row.  ``occ[l]`` lists ``(row, coeff)``
    for every row in which literal l occurs, and ``slack[row]`` is the sum
    of the coefficients of the row's non-falsified literals minus its
    degree.  Assigning a literal lowers the slacks of every row it
    falsifies before anything else happens, so :meth:`undo` restores them
    exactly from the trail.  A row whose slack drops below its largest
    coefficient is queued and scanned: each unassigned literal whose
    coefficient exceeds the slack is propagated to true.  Propagation runs
    breadth first, level by level: the rows queued while one level is
    scanned make up the next, and within a level the row queued last is
    scanned first.  A slack below zero is a conflict as soon as the
    literal that lowered it has lowered all of its occurrences.  Once in
    conflict the engine stays there until undone past the constraint that
    caused it.  :meth:`rup` of a clause goal (degree 1) falsifies the
    goal's literals directly, with no row for its negation.
    """

    def __init__(self):
        self.lits = {}     # literal string -> int literal
        self.names = []    # variable int -> name
        self.value = []    # int literal -> 1 (true), 0 (false) or None
        self.occ = []      # int literal -> [(row, coeff)]
        self.rows = []     # row -> [(int literal, coeff)]
        self.top = []      # row -> its largest coefficient
        self.slack = []    # row -> slack
        self.trail = []    # true literals, in assignment order
        self.conflict = False

    def _intern(self, lit):
        """The int literal of `lit`, whose variable is new."""
        var = var_of(lit)
        l = 2 * len(self.names)
        self.names.append(var)
        self.lits[var], self.lits["~" + var] = l, l + 1
        self.value += (None, None)
        self.occ += ([], [])
        return l if is_positive(lit) else l + 1

    def add(self, c):
        """Add constraint `c` and propagate; False if the database is in
        conflict.  Tautologies are skipped: they never propagate."""
        if self.conflict:
            return False
        if c.degree == 0:
            return True
        row = len(self.rows)
        value, occ, interned = self.value, self.occ, self.lits
        lits = []
        s, top = -c.degree, 0
        for lit, a in c.terms.items():
            l = interned.get(lit)
            if l is None:
                l = self._intern(lit)
            lits.append((l, a))
            occ[l].append((row, a))
            if value[l] != 0:
                s += a
            if a > top:
                top = a
        self.rows.append(lits)
        self.slack.append(s)
        self.top.append(top)
        if s < 0:
            self.conflict = True
            return False
        # a row propagates only when its slack is that low
        return s >= top or self._propagate(lits, s)

    def _propagate(self, lits, s):
        """Make true each unassigned literal of `lits` whose coefficient
        exceeds `s`, then scan the queued rows likewise, level by level, to
        the fixpoint; False on a conflict."""
        value, occ, rows = self.value, self.occ, self.rows
        slack, top, trail = self.slack, self.top, self.trail
        # `queued` collects the next level; a level is scanned from its
        # last row, which on the aggregate method's chain lemmas meets the
        # conflict through a literal that occurs in few rows
        level, queued, conflict = [], [], False
        while True:
            for l, a in lits:
                if a > s and value[l] is None:
                    value[l], value[l ^ 1] = 1, 0
                    trail.append(l)
                    for r, b in occ[l ^ 1]:
                        s2 = slack[r] = slack[r] - b
                        if s2 < top[r]:
                            queued.append(r)
                            if s2 < 0:
                                conflict = True
                    # every occurrence is lowered, so undo restores all
                    if conflict:
                        self.conflict = True
                        return False
            if not level:
                if not queued:
                    return True
                level, queued = queued, level
            r = level.pop()
            # queued below its top, and slacks only fall here
            lits, s = rows[r], slack[r]

    def mark(self):
        """A point to :meth:`undo` back to."""
        return len(self.rows), len(self.trail), self.conflict

    def undo(self, mark):
        """Restore the rows, assignment, slacks and conflict of `mark`."""
        nrows, ntrail, self.conflict = mark
        value, occ, slack, trail = self.value, self.occ, self.slack, self.trail
        rows = self.rows
        for _ in range(len(rows) - nrows):
            # rows go in the order they came, so each occurrence list ends
            # with the entry of the last row
            for l, _a in rows.pop():
                occ[l].pop()
        del slack[nrows:], self.top[nrows:]
        # only the rows that stay need their slacks back
        for l in trail[ntrail:]:
            value[l] = value[l ^ 1] = None
            for r, a in occ[l ^ 1]:
                slack[r] += a
        del trail[ntrail:]

    def rup(self, goal):
        """Reverse unit propagation: whether the database plus not(goal)
        propagates to a conflict.  Leaves the database as it was.

        not(goal) of a clause goal (degree 1, any coefficients) says each
        literal of the goal is false, so those literals are falsified
        directly; other goals add not(goal) as a row."""
        if self.conflict:
            return True
        mark = self.mark()
        if goal.degree != 1:
            refuted = not self.add(negate(goal))
        else:
            value, interned, units = self.value, self.lits, []
            for lit in goal.terms:
                l = interned.get(lit)
                if l is not None:  # else it occurs in no row
                    if value[l]:
                        return True
                    units.append((l ^ 1, 1))
            refuted = not self._propagate(units, 0)
        self.undo(mark)
        return refuted

    def assignment(self):
        """The propagated assignment as variable -> 0/1."""
        return {self.names[l >> 1]: 1 - (l & 1) for l in self.trail}


_scratch = Propagator()


def propagate(constraints):
    """Unit propagation over a list of constraints to fixpoint, from the
    empty assignment.

    Returns the assignment, or the string CONFLICT if some constraint's
    slack goes negative.  A literal l_i with a_i > slack is propagated to 1.
    Runs on one module-level :class:`Propagator`, which keeps its interned
    variables and is undone to empty on the way out; it is not re-entrant,
    and pbsym runs single-threaded.
    """
    try:
        for c in constraints:
            if not _scratch.add(c):
                return CONFLICT
        return _scratch.assignment()
    finally:
        _scratch.undo((0, 0, False))


def rup_check(premises, goal):
    """Reverse unit propagation: the list `premises` plus not(goal) must
    propagate to a conflict."""
    return propagate(premises + [negate(goal)]) == CONFLICT


def render(c):
    """OPB-style text form: `+2 ~x1 +3 x2 >= 5`."""
    return " ".join([f"+{a} {lit}" for lit, a in c.terms.items()]
                    + [f">= {c.degree}"])

