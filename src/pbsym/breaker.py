"""Proof-logging lex-leader symmetry breaking.

Given a formula F and a syntactic symmetry sigma, we derive the standard
lex-leader breaking clauses together with a proof that the checker in
:mod:`pbsym.checker` accepts.  A symmetry is the witness it is in the
proof: the dict of its moved variables to their image literals, as
:func:`parsing.parse_symmetries` reads it from a symmetry file.  The
order binds U, the union of the generators' supports, and no other
variable (:func:`choose_binding`), so its size follows the symmetry's,
not the formula's n variables.  Two derivation strategies are provided:

* the *chain* method ("new"): the lexicographic order :func:`orders.lex`,
  whose specification introduces prefix-equality variables $a_i and
  prefix-comparison variables $d_i.  Per symmetry we introduce lex<k>
  between the support x and its image sigma x, :func:`orders.lex_spec`
  with s_j for $a_j and t_j for $d_j, derive ``t_k >= 1`` by dominance and
  turn it into clauses.  Every generator's fragment is 13k + 4 lines for
  support size k, whatever n, and 5k - 3 of them are hint-free RUP lemmas
  of its dominance step.  No lemma restates a row in scope, but unit
  propagation finds some of them anyway on some formulas (see
  :meth:`ProofBuilder._leq_lemmas`).  The order's ``def_order`` is
  O(|U|), so the whole proof is O(|U|) plus the fragments: O(|U|) for one
  generator.

* the *aggregate* method ("old"): a one-constraint order with exponential
  coefficients sum 2^(m-i) (v_i + ~u_i) >= 2^m - 1 over m = |U| bound
  variables.  Dominance introduces the instantiated big constraint
  directly; clause j adds j - 1 chain lemmas to it and weakens the rest:
  Theta(k) operations on |U|-bit integers each.  Its circuit is lex<k>'s
  s_j rows alone.

The chain variables s_j and t_j are named fresh: when the formula already
uses a name ``s<digits>`` (or ``t<digits>``), the prefix gets a trailing
``_`` until it is free.

Proofs are built as the step dicts :func:`parsing.parse_proof` returns and
printed by :func:`parsing.render_step`; this module writes no proof text.
An order is its ``def_order`` step: :func:`build_lex_order` and
:func:`build_big_order` return it, proofs included, and the builder reads
the loaded order's spec size and arity from it.  Lex's transitivity hints
and a fragment's pol programs cite rows by :func:`orders.lex_row`.
"""

import collections
import functools

from . import constraints as pb
from . import orders
from . import parsing


class BreakError(Exception):
    verdict = "INVALID-SYMMETRY"    # what `pbsym break` reports


class FormulaError(BreakError):
    """The formula uses a `$` name, which orders reserve."""
    verdict = "INVALID-FORMULA"


# ------------------------------------------------------------- symmetries

def occurrences(formula):
    """Each variable's positions in the formula, in order, and an empty
    cache for :func:`verify_symmetry`'s constraint keys."""
    index = collections.defaultdict(list)
    for i, c in enumerate(formula):
        for lit in c.terms:
            index[pb.var_of(lit)].append(i)
    return index, {}


def verify_symmetry(formula, sym, index):
    """The substituted formula must equal the formula as a multiset.

    The witness must permute its support's literals, so an image is its
    constraint renamed.  Through `index`, the formula's :func:`occurrences`,
    a generator costs only the terms of the constraints it moves, and a
    constraint's key is built once, for the first generator that moves it.
    """
    images = {pb.var_of(img) for img in sym.values() if isinstance(img, str)}
    if images != sym.keys():
        raise BreakError("witness does not permute its support's literals")
    lits = pb.witness_lits(sym)
    positions, keys = index
    moved = sorted({i for v in sym for i in positions[v]})
    for i in moved:
        if i not in keys:
            keys[i] = frozenset(formula[i].terms.items()), formula[i].degree
    want = collections.Counter(keys[i] for i in moved)
    for i in moved:
        c = formula[i]
        terms = c.terms
        image = (frozenset(zip(map(lits.get, terms, terms), terms.values())),
                 c.degree)
        if not want[image]:
            raise BreakError("image of constraint `%s` is missing from the "
                             "formula" % pb.render(c))
        want[image] -= 1
    return True


def choose_binding(variables, syms):
    """Variable order for load_order: U, the union of the supports of
    `syms`, and no other variable.  The variables the other generators
    move come first, in formula order; the support of `syms[0]` goes last
    (contiguously).  A variable no generator moves is its own image under
    every witness, so leaving it out of the order changes no kept clause,
    and the order, its spec instances and `old`'s coefficients are sized
    |U|, not len(variables)."""
    supp = set(syms[0])
    moved = set().union(*syms)
    head = [v for v in variables if v in moved and v not in supp]
    return head + [v for v in variables if v in supp]


def _fresh_prefix(base, taken):
    """`base`, with "_" appended until no name in `taken` is it followed by
    digits, so that chain variables base1, base2, ... clash with none."""
    while any(v.startswith(base) and v[len(base):].isdigit() for v in taken):
        base += "_"
    return base


# ------------------------------------------------------------ proof steps

def _rup(*lits):
    """Hint-free rup step for the clause over `lits`, whose variables are
    distinct; falsum when there are none."""
    return parsing.rup_step(pb.clause(lits), None, None)


def _pol(*tokens):
    return parsing.pol_step([str(t) for t in tokens], None)


def _refute(key, steps):
    """A proofgoal block whose steps end in a contradiction at ID -1."""
    return [parsing.goal_block(key, steps, -1, None)]


def _fresh_right(n):
    return ["w%d" % i for i in range(1, n + 1)]


# -------------------------------------------------- lexicographic order

def build_lex_order(n):
    """The def_order step of the lexicographic order :func:`orders.lex`
    (n), with its transitivity and reflexivity proofs."""
    lex = orders.lex(n)
    aux = lex["aux"]
    fresh = (_fresh_right(n),
             [s.replace("$a", "$b").replace("$d", "$e") for s in aux],
             [s.replace("$a", "$c").replace("$d", "$f") for s in aux])
    return parsing.def_order_step(
        "lex%d" % n, lex["left"], lex["right"], aux, lex["spec"], lex["def"],
        fresh, _refute("#1", _lex_transitivity_steps(n, len(lex["spec"]))),
        _refute("#1", [_rup()]), None)


def _lex_transitivity_steps(n, rows):
    """Steps of goal #1 of the transitivity proof: O(u,w) from the three
    chained spec instances, by induction over the levels.

    Constraint IDs inside the obligation frame: spec S(u,v) occupies
    1..rows, S(v,w) and S(u,w) the next two blocks, then O(u,v), O(v,w)
    and the negated goal.  Level i derives P_i = ~$d_i v ~$e_i v
    $f_i and, below the last level, Qa_i = ~$d_i v ~$e_i v ~$c_i v $a_i
    and Qb_i, the same clause with $b_i, each by RUP over hints: its
    level's spec rows and the lemmas of the level before.  Without hints,
    every lemma would propagate over the three instances, so the check
    would build all of their rows.
    """
    def ids(block, x):
        # the ID of row (level i, half h) of x in spec instance `block`
        return lambda i, h: block * rows + 1 + orders.lex_row(n, x, i, h)

    (A, D), (B, E), (C, F) = ((ids(b, "$a"), ids(b, "$d")) for b in range(3))
    o_uv, o_vw, neg_goal = 3 * rows + 1, 3 * rows + 2, 3 * rows + 3
    steps = []

    def lemma(hints, *lits):
        steps.append(parsing.rup_step(pb.clause(lits), hints, None))
        return neg_goal + len(steps)

    prev = []  # Qa, Qb and P of the level before
    for i in range(1, n + 1):
        de = ("~$d%d" % i, "~$e%d" % i)
        p = lemma([D(i, 1), E(i, 1), F(i, 2)] + prev, *de, "$f%d" % i)
        if i < n:
            q = [D(i, 1), E(i, 1), C(i, 1)]
            qa = lemma(q + [A(i, 2)] + prev[:2], *de, "~$c%d" % i, "$a%d" % i)
            qb = lemma(q + [B(i, 2)] + prev[:2], *de, "~$c%d" % i, "$b%d" % i)
            prev = [qa, qb, p]
    steps.append(_pol(p, o_uv, "+", o_vw, "+", neg_goal, "+"))
    return steps


# -------------------------------------------------- aggregate (old) order

def _big_constraint(n, cells):
    """sum 2^(n-i) (v + ~u) >= sum 2^(n-i) over the (i, u, v) of `cells`.
    Over every position i of u and v, it is biglex<n>'s order constraint.
    Over the positions a witness moves, with u = z and v = sigma z, it is
    that constraint's instance: at any other position, v + ~u = z + ~z is
    1, so its 2^(n-i) stands on both sides and cancels."""
    terms, degree = [], 0
    for i, u, v in cells:
        c = 2 ** (n - i)
        terms += [(c, v), (c, pb.neg(u))]
        degree += c
    return pb.normalize(terms, degree)


def build_big_order(n):
    """The def_order step of biglex<n>, one order constraint with
    exponential coefficients and no aux variables."""
    # transitivity premises: O(u,v) = 1, O(v,w) = 2; their sum dominates
    # O(u,w).  O(u,u) normalizes to a tautology, so reflexivity needs no goal.
    return parsing.def_order_step(
        "biglex%d" % n, ["u%d" % i for i in range(1, n + 1)],
        ["v%d" % i for i in range(1, n + 1)], [], [],
        [_big_constraint(n, [(i, "u%d" % i, "v%d" % i)
                             for i in range(1, n + 1)])],
        (_fresh_right(n), [], []),
        _refute("#1", [_pol(1, 2, "+"), _pol(-1, 3, "+")]), [], None)


# ------------------------------------------------------------ the builder

class _Fragment:
    """One symmetry's support in binding order, and the IDs and names its
    proof fragment refers to.  `position` maps each bound name to its
    1-based position in `binding`, so the support costs O(k log k)."""

    def __init__(self, binding, position, sym):
        self.witness = sym
        self.pos = sorted(position[x] for x in sym if x in position)
        self.xs = [binding[p - 1] for p in self.pos]
        self.imgs = [sym[x] for x in self.xs]
        self.k = len(self.pos)
        self.first = None               # ID of the circuit's first row
        self.snames, self.tnames = {}, {}   # s_j and t_j by j
        self.neg_c = None               # ID of the negated dom constraint
        self.steps = []                 # top-level steps, in proof order

    def row(self, x, j, h):
        """The ID of the circuit's row h of s_j (x "$a") or t_j (x "$d")."""
        return self.first + orders.lex_row(self.k, x, j, h)


# The lemma families of the leq scope: each maps a fragment and j < k to
# a clause (see ProofBuilder._leq_lemmas)
LEQ_FAMILIES = (
    lambda fr, j: ("$d%d" % fr.pos[j - 1], pb.neg(fr.snames[j])),
    lambda fr, j: (fr.tnames[j], "~$a%d" % fr.pos[j - 1]),
    lambda fr, j: ("$d%d" % fr.pos[j - 1], fr.tnames[j + 1]),
)


class ProofBuilder:
    """Builds the proof document as step dicts and prints each with
    :func:`parsing.render_step`.

    `next_id` is the next constraint ID, counted from after the formula
    as the checker counts: every step that derives a constraint takes one,
    and so does every premise the checker adds itself (negated dom
    constraints, spec instances, order constraints), even though dominance
    subproof locals become invisible once their scope closes.  `known`
    maps IDs to the constraints that kept clauses' pol programs cite, and
    the spec layout is read from :attr:`order`.
    """

    def __init__(self, formula, variables, method="new"):
        if method not in ("new", "old"):
            raise BreakError("unknown method %r" % method)
        self.variables = list(variables)
        self.method = method
        # name prefixes of the chain variables
        self.s_prefix, self.t_prefix = (_fresh_prefix(base, self.variables)
                                        for base in "st")
        self.lines = [parsing.HEADER]
        self.next_id = len(formula) + 1
        self.known = {}
        self.s_count = 0
        self.binding = []       # load_order's names, set by begin
        self.position = {}      # each bound name's 1-based position in it
        self.order = None       # the loaded def_order step, set by begin
        self.kept = []          # derived breaking clauses, in proof order
        self.stats = []         # per-symmetry {"support": k, "chars": ...}

    # -- low-level helpers

    def dominance(self, fr, con, leq, geq):
        """Derive `con` by a dom step under `fr.witness`; returns its ID.
        `leq` and `geq`, called as (fr, steps, oid), append their scope's
        steps with :meth:`derive`.

        The IDs are :meth:`checker.Checker.step_dom`'s, premises the
        checker adds itself included: one for not(con), `fr.neg_c`; in leq,
        S spec rows and the negated order goal of block #1, `oid`; in geq,
        S spec rows and the |def| order constraints, the first `oid`.  Each
        scope's steps follow its premises."""
        S = len(self.order["spec"])
        fr.neg_c = self.next_id
        self.next_id += 1
        blocks = []
        for key, premises, fill in (("#1", S + 1, leq),
                                    ("#2", S + len(self.order["def"]), geq)):
            steps, oid = [], self.next_id + S
            self.next_id += premises
            fill(fr, steps, oid)
            blocks.append(_refute(key, steps))
        return self.derive(fr.steps, parsing.dom_step(
            con, fr.witness, *blocks, None), con)

    def derive(self, steps, step, content=None):
        """Append a step that derives one constraint to `steps`; returns its
        ID.  The pol programs of kept clauses see `content`, if given, under
        that ID."""
        steps.append(step)
        cid = self.next_id
        self.next_id += 1
        if content is not None:
            self.known[cid] = content
        return cid

    def text(self):
        return "\n".join(self.lines) + "\n"

    # -- document skeleton

    def begin(self, syms):
        self.binding = choose_binding(self.variables, syms)
        self.position = {z: i for i, z in enumerate(self.binding, 1)}
        build = build_lex_order if self.method == "new" else build_big_order
        self.order = build(len(self.binding))
        parsing.render_step(self.lines, self.order)
        parsing.render_step(self.lines, parsing.load_order_step(
            self.order["name"], self.binding, None))

    def break_symmetry(self, sym):
        mark = len(self.lines)
        fr = _Fragment(self.binding, self.position, sym)
        self._emit_circuit(fr)
        if self.method == "new":
            self._break_new(fr)
        else:
            self._break_old(fr)
        for step in fr.steps:
            parsing.render_step(self.lines, step)
        chars = sum(len(l) + 1 for l in self.lines[mark:])
        self.stats.append({"support": fr.k, "chars": chars})

    def _emit_circuit(self, fr):
        """Derive lex<k> between x and sigma x by red steps: s_j, x and
        sigma x equal up to j, and with `new`, t_j, x <=lex sigma x up to
        j."""
        s = ["%s%d" % (self.s_prefix, self.s_count + j) for j in range(1, fr.k)]
        self.s_count += len(s)
        t = (["%s%d" % (self.t_prefix, j) for j in range(1, fr.k + 1)]
             if self.method == "new" else [])
        fr.snames, fr.tnames = dict(enumerate(s, 1)), dict(enumerate(t, 1))
        fr.first = self.next_id
        for con, w in orders.lex_spec(fr.xs, fr.imgs, s, t):
            self.derive(fr.steps, parsing.red_step(con, w, None), con)

    def _s_clauses(self, fr):
        """pol programs of the clauses s_j -> x_j and s_j -> ~sigma(x_j)."""
        return ([_pol(fr.row("$a", j, 2), fr.xs[j - 1], "+", "s")
                 for j in range(1, fr.k)]
                + [_pol(fr.row("$a", j, 2), pb.neg(fr.imgs[j - 1]), "+", "s")
                   for j in range(1, fr.k)])

    def _emit_clauses(self, fr, pols):
        """Emit clause-producing pol steps, recording their evaluated content."""
        for step in pols:
            self._keep(fr, step, pb.evaluate_polish(step["tokens"],
                                                    self.known.__getitem__))

    def _keep(self, fr, step, con):
        """Emit the pol step that derives the breaking clause `con`."""
        self.derive(fr.steps, step)
        self.kept.append(con)

    # -- chain method

    def _break_new(self, fr):
        result = self.dominance(fr, pb.clause([fr.tnames[fr.k]]),
                                self._leq_lemmas, self._geq_lemmas)
        self._cleanup_new(fr, result)

    def _leq_lemmas(self, fr, steps, _oid):
        """Falsum from ~t_k, S(sigma z, z) and ~$d_n by hint-free RUP, after
        3(k - 1) lemmas, the :data:`LEQ_FAMILIES` for j = 1 .. k - 1.  They
        bridge the circuit over the support x and the order's chain over z
        at support positions p_1 < ... < p_k:

        * ``$d_{p_j} v ~s_j``: s_j, x >= sigma x at each of the first j
          support positions, gives sigma z <=lex z up to p_j;
        * ``t_j v ~$a_{p_j}``: $a_{p_j}, sigma z >= z at each position up
          to p_j, gives t_j, x <=lex sigma x up to j;
        * ``$d_{p_j} v t_{j+1}``: ~t_{j+1}, sigma x <lex x within the first
          j + 1 support positions, gives sigma z <=lex z up to p_j.

        Unit propagation finds the rest.  PHP's proofs fail without any one
        family; Count's can spare the second (both tested), and so can
        Tseitin(3)'s."""
        emit = functools.partial(self.derive, steps)
        for family in LEQ_FAMILIES:
            for j in range(1, fr.k):
                emit(_rup(*family(fr, j)))
        emit(_rup())

    def _geq_lemmas(self, fr, steps, _oid):
        """Derive falsum from S(z, sigma z), sigma z >= z and ~t_k; unit
        propagation finds the $d chain from $d_n itself."""
        emit = functools.partial(self.derive, steps)
        for j in range(1, fr.k):
            emit(_rup(pb.neg(fr.snames[j]), "$a%d" % fr.pos[j - 1]))
        for j in range(1, fr.k):
            emit(_rup(fr.tnames[j]))
        emit(_rup())

    def _cleanup_new(self, fr, result):
        """Turn t_k >= 1 into the breaking clauses and drop the scaffolding."""
        k = fr.k
        tlem = {k: result}
        for j in range(k - 1, 0, -1):
            con = pb.clause([fr.tnames[j]])
            tlem[j] = self.derive(fr.steps, parsing.rup_step(
                con, [-1, fr.row("$d", j + 1, 1)], None), con)
        pols = self._s_clauses(fr)
        pols.append(_pol(fr.row("$d", 1, 1), tlem[1], "+", "s"))
        for j in range(1, k):
            pols.append(_pol(fr.row("$d", j + 1, 1), pb.neg(fr.tnames[j]), 3,
                             "*", "+", tlem[j + 1], 4, "*", "+", "s"))
        self._emit_clauses(fr, pols)
        fr.steps.append(parsing.del_range_step(fr.first, fr.neg_c + 2, None))
        fr.steps.append(parsing.del_range_step(result, result + k, None))

    # -- aggregate method

    def _break_old(self, fr):
        # O(z, sigma z) over the support; the other positions cancel
        big = _big_constraint(len(self.binding), zip(fr.pos, fr.xs, fr.imgs))
        # each scope adds not(c) to its order premise: the negated order
        # goal in leq, the order constraint O(z, sigma z) in geq
        def scope(fr, steps, oid):
            self.derive(steps, _pol(fr.neg_c, oid, "+"))
        big_id = self.dominance(fr, big, scope, scope)

        # chain lemmas: under s_{j-1}, every earlier support level is >=
        lemma = {}
        for j in range(2, fr.k + 1):
            for m in range(1, j):
                lits = (pb.neg(fr.snames[j - 1]), fr.xs[m - 1],
                        pb.neg(fr.imgs[m - 1]))
                # a negation symmetry maps x to ~x: normalize merges the terms
                con = (pb.clause(lits) if pb.var_of(lits[2]) != lits[1]
                       else pb.normalize([(1, l) for l in lits], 1))
                lemma[j, m] = self.derive(
                    fr.steps, parsing.rup_step(con, None, None)), con

        first_clause = self.next_id
        self._emit_clauses(fr, self._s_clauses(fr))
        # lemma m's multiplier, as an int and as its token
        n = len(self.binding)
        coefs = [(c, str(c)) for c in (2 ** (n - p) for p in fr.pos)]
        big = pb.LinearSum().add(big)
        for j in range(1, fr.k + 1):
            self._keep(fr, *self._carve_clause(big, big_id, fr, lemma, coefs,
                                               j))
        fr.steps.append(parsing.del_range_step(fr.first, first_clause, None))

    def _carve_clause(self, big, big_id, fr, lemma, coefs, j):
        """pol step extracting breaking clause j from the big constraint, a
        LinearSum, and the clause it derives.  `lemma[j, m]` is a chain
        lemma's ID and content, and `coefs[m - 1]` its multiplier, as an
        int and as its token."""
        cur, tokens = big.copy(), [str(big_id)]
        for m in range(1, j):
            lemma_id, con = lemma[j, m]
            coef, coef_token = coefs[m - 1]
            tokens += [str(lemma_id), coef_token, "*", "+"]
            cur.add(con, coef)
        want = [pb.neg(fr.xs[j - 1]), fr.imgs[j - 1]]
        if j > 1:
            want.insert(0, pb.neg(fr.snames[j - 1]))
        # a negation symmetry's clause names ~x_j twice
        want = dict.fromkeys(want)
        wanted = {pb.var_of(l) for l in want}
        for var in [var for var in cur.coef if var not in wanted]:
            cur.weaken(var)
            tokens += [var, "w"]
        cur.saturate()
        tokens.append("s")
        delta = cur.degree
        if delta < 1:
            raise BreakError("aggregate clause %d degenerated to a tautology" % j)
        if delta > 1:
            tokens += [str(delta), "d"]
            cur.divide(delta)
        cur = cur.constraint()
        if cur != pb.clause(want):
            raise BreakError("aggregate clause %d came out as %s"
                             % (j, pb.render(cur)))
        return parsing.pol_step(tokens, None), cur


def break_symmetries(formula, variables, syms, method="new"):
    """Emit breaking clauses plus proof for every symmetry, in order.

    `syms` are witness dicts that permute literals, as
    :func:`parsing.parse_symmetries` returns them; identity pairs x -> x
    are dropped first, as the parser drops them.  Every generator is
    checked with :func:`verify_symmetry` first; a failure names the
    generator.  Returns the :class:`ProofBuilder`; use ``.text()`` for the
    document, ``.kept`` for the derived clauses and ``.binding`` for the
    names ``load_order`` binds: the variables the generators move, in
    :func:`choose_binding`'s order, or ``[]`` when no generator moves a
    variable of the formula and no order is loaded.
    """
    aux = [v for v in variables if pb.is_aux_var(v)]
    if aux:
        raise FormulaError("the formula uses %s: `$` names are reserved for "
                           "order-auxiliary variables" % ", ".join(aux))
    syms = [{v: img for v, img in s.items() if img != v} for s in syms]
    index = occurrences(formula)
    for i, sym in enumerate(syms, start=1):
        try:
            verify_symmetry(formula, sym, index)
        except BreakError as e:
            raise BreakError("generator %d (%s): %s"
                             % (i, parsing.render_witness(sym), e))
    builder = ProofBuilder(formula, variables, method=method)
    # a generator that moves no variable of the formula acts as the identity
    active = [s for s in syms if not s.keys().isdisjoint(variables)]
    if active:
        builder.begin(active)
        for sym in active:
            builder.break_symmetry(sym)
    return builder
