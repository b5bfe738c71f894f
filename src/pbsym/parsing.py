"""Parsers and serializers for OPB formulas, DIMACS CNF and proof documents.

A proof is read as a stream of dict-shaped steps (key ``kind``), one
top-level step at a time (:func:`iter_proof`); :func:`parse_proof` lists
them.  Each step carries the source line number under ``line`` so checker
rejections can cite the offending statement.  Relative constraint IDs
(negative integers) are kept symbolic; they only make sense against the
live counter at check time.

A number, wherever the formats take one (coefficients, degrees, hints,
IDs, goal keys, DIMACS literals and counts), is ASCII ``[+-]?[0-9]+``
(``constraints.parse_int``).
A constraint ``<coef> <lit> ... >= <degree>`` in normalized form, positive
coefficients over distinct variables as pbsym itself prints it, is read in
one pass; any other is read term by term and passed to ``normalize``, which
builds the same constraint for normalized input.
"""

from . import constraints as pb

HEADER = "pseudo-Boolean proof version 3.0"


class ParseError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------- formulas

def parse_opb(text):
    """Parse an OPB file into a list of normalized constraints.

    Returns (constraints, variables-in-order-of-first-use).
    """
    cons = []
    seen = {}   # variable -> None, in order of first use
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("*"):
            continue
        toks = line.split()
        if toks[-1] == ";":
            toks = toks[:-1]
        elif toks[-1].endswith(";"):
            toks[-1] = toks[-1][:-1]
        if ";" in toks:
            raise ParseError("stray ';' inside constraint", lineno)
        _check_literals(line, toks, lineno)
        cons.append(_read_constraint(toks, lineno, after=""))
        # a constraint read leaves its literals at the odd positions
        # before `>= <degree>`; zero-coefficient terms count as uses
        for lit in toks[1:-2:2]:
            seen[pb.var_of(lit)] = None
    return cons, list(seen)


def parse_cnf(text):
    """Parse DIMACS CNF; clauses become sum of literals >= 1.

    One ``p cnf <variables> <clauses>`` header comes before the clauses.
    A line ``%`` ends them, as in SATLIB's files: after it only blank
    lines, ``c`` comments and one lone ``0`` may follow."""
    nvars = ended = None    # ended: set by the `%` line, then by its `0`
    cons = []
    clause = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if ended is not None:
            if line != "0" or ended:
                raise ParseError("%r after the '%%' line that ends the "
                                 "clauses" % line, lineno)
            ended = True
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise ParseError("second 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("bad problem line %r" % line, lineno)
            nvars = _count(parts[2], lineno, "variable count")
            _count(parts[3], lineno, "clause count")
            continue
        if nvars is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        if line == "%":
            if clause:
                raise ParseError("clause before '%' lacks terminating 0",
                                 lineno)
            ended = False
            continue
        toks = line.split()
        lits = _ints(toks)
        if lits is None:
            # lazily, so the literals before the bad token are checked first
            lits = (_int(tok, lineno, "literal") for tok in toks)
        for lit in lits:
            if lit == 0:
                names = ["x%d" % l if l > 0 else "~x%d" % -l for l in clause]
                # normalize merges a repeated or complementary variable
                cons.append(pb.clause(names)
                            if len(set(map(abs, clause))) == len(clause)
                            else pb.normalize([(1, n) for n in names], 1))
                clause = []
            else:
                if abs(lit) > nvars:
                    raise ParseError("literal %d exceeds declared %d variables"
                                     % (lit, nvars), lineno)
                clause.append(lit)
    if clause:
        raise ParseError("last clause lacks terminating 0", lineno)
    return cons


def render_cnf(cons, nvars):
    lines = ["p cnf %d %d" % (nvars, len(cons))]
    for c in cons:
        if c.degree != 1 or any(a != 1 for a in c.terms.values()):
            raise ParseError("constraint %s is not a clause" % pb.render(c))
        lits = []
        for lit in c.terms:
            v = pb.var_of(lit)
            if not v.startswith("x"):
                raise ParseError("non-indexed variable %s" % v)
            lits.append(("-" if lit.startswith("~") else "") + v[1:])
        lines.append(" ".join(lits) + " 0")
    return "\n".join(lines) + "\n"


def _check_literals(line, toks, lineno):
    """The one literal rule, over a line and its tokens: a literal is
    `name` or `~name`.  A bare `~` negates no variable, and `~~x` would
    read as the negation of a variable named `~x`, which `~x`, the
    negation of x, would alias."""
    if "~" in toks:
        raise ParseError("literal '~' has no variable", lineno)
    if "~~" in line:
        for tok in toks:
            if tok.startswith("~~"):
                raise ParseError("literal %r has more than one leading '~'"
                                 % tok, lineno)


# -------------------------------------------------------------- symmetries

def parse_symmetry(text, lineno=None):
    """Parse one symmetry: cycle form ``(x1 x3)(x2 x4)`` or an arrow list
    ``x1 -> x3 x3 -> x1``.  Cycles are cycles of literals, so a negation
    symmetry reads ``(x1 ~x1)``.  A symmetry is a witness: the returned
    dict maps each moved variable to its image literal, in the order the
    text names them, and drops identity pairs."""
    error = lambda message: ParseError(message, lineno)
    text = text.strip()
    if not text:
        raise error("empty symmetry description")
    _check_literals(text, text.replace("(", " ").replace(")", " ").split(),
                    lineno)
    mapping = {}

    def put(var, img):
        if mapping.setdefault(var, img) != img:
            raise error("conflicting images for %s" % var)

    if "(" in text:
        rest = text
        while rest:
            if not rest.startswith("("):
                raise error("malformed cycle notation %r" % text)
            close = rest.find(")")
            if close < 0:
                raise error("unbalanced parenthesis in %r" % text)
            lits, rest = rest[1:close].split(), rest[close + 1:].strip()
            if len(lits) < 2:
                raise error("cycles need at least two literals")
            for lit, nxt in zip(lits, lits[1:] + lits[:1]):
                put(pb.var_of(lit), nxt if pb.is_positive(lit) else pb.neg(nxt))
    else:
        toks = text.split()
        if len(toks) % 3 or any(t != "->" for t in toks[1::3]):
            raise error("expected `var -> literal` triples in %r" % text)
        for var, img in zip(toks[::3], toks[2::3]):
            put(var, img)
    for var, img in mapping.items():
        if not pb.is_positive(var):
            raise error("mapping keys must be variables, got %r" % var)
        if pb.is_aux_var(var) or pb.is_aux_var(pb.var_of(img)):
            raise error("symmetries may not touch order-aux variables")
    sym = {var: img for var, img in mapping.items() if img != var}
    if sorted(map(pb.var_of, sym.values())) != sorted(sym):
        raise error("substitution does not permute its support")
    return sym


def parse_symmetries(text):
    """One symmetry per non-empty line not starting with `*`; an error
    names its line."""
    return [parse_symmetry(line, lineno)
            for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith("*")]


def _int(tok, lineno, what):
    num = pb.parse_int(tok)
    if num is None:
        raise ParseError("bad %s %r" % (what, tok), lineno)
    return num


def _count(tok, lineno, what):
    num = _int(tok, lineno, what)
    if num < 0:
        raise ParseError("bad %s %r" % (what, tok), lineno)
    return num


def _ints(toks):
    """The ints `toks` spell, or None if some token is no number: one
    test of the joined tokens, then ``int()`` on each."""
    joined = "".join(toks)
    if joined.isascii() and "_" not in joined:
        try:
            return [int(tok) for tok in toks]
        except ValueError:
            pass
    return None


# the spellings of 1 ... 63, which cover the coefficients and degrees of
# nearly every constraint pbsym prints; a lookup here spares int()
_SMALL = {}
for _k in range(1, 64):
    _SMALL[str(_k)] = _SMALL["+%d" % _k] = _k
del _k


def _read_constraint(toks, lineno, after=" after constraint"):
    """The constraint `<coef> <lit> ... >= <degree>` that `toks` spell,
    exactly as ``normalize`` builds it from :func:`_parse_terms`' terms.

    In normalized form, positive coefficients over distinct variables,
    the term dict is built as the tokens come and is the result.  Any
    other token list (a zero or negative coefficient, a repeated or
    complementary variable, malformed input) is read by
    :func:`_parse_terms` and ``normalize``, which also raise its errors."""
    n = len(toks) - 2
    if n >= 0 and not n & 1 and toks[n] == ">=":
        small = _SMALL.get
        terms = {}
        for i in range(0, n, 2):
            coef = small(toks[i])
            if coef is None:
                coef = pb.parse_int(toks[i])
                if coef is None or coef <= 0:
                    break
            lit = toks[i + 1]
            if lit in terms:
                break
            if lit[0] == "~":
                if lit[1:] in terms:
                    break
            elif "~" + lit in terms:
                break
            terms[lit] = coef
        else:
            degree = small(toks[-1])
            if degree is None:
                degree = pb.parse_int(toks[-1])
            if degree is not None:
                return pb.Constraint(terms, degree if degree > 0 else 0)
    terms, degree, rest = _parse_terms(toks, lineno)
    if rest:
        raise ParseError("trailing tokens %r%s" % (rest, after), lineno)
    return pb.normalize(terms, degree)


def _parse_terms(toks, lineno):
    """Parse `<coef> <lit> ... >= <int>` from a token list.

    Returns (terms, degree, remaining tokens after the degree).
    """
    terms = []
    i = 0
    while i < len(toks) and toks[i] != ">=":
        coef = _int(toks[i], lineno, "coefficient")
        if i + 1 >= len(toks):
            raise ParseError("coefficient without literal", lineno)
        terms.append((coef, toks[i + 1]))
        i += 2
    if i >= len(toks):
        raise ParseError("missing '>='", lineno)
    if i + 1 >= len(toks):
        raise ParseError("missing degree after '>='", lineno)
    return terms, _int(toks[i + 1], lineno, "degree"), toks[i + 2:]


# ------------------------------------------------------------- proof steps
# The step dicts parse_proof returns and render_step prints.  `line` is
# the source line; the breaker builds its proofs from the same constructors
# with line None.

def pol_step(tokens, line):
    return {"kind": "pol", "line": line, "tokens": tokens}


def rup_step(constraint, hints, line):
    return {"kind": "rup", "line": line, "constraint": constraint,
            "hints": hints}


def red_step(constraint, witness, line):
    return {"kind": "red", "line": line, "constraint": constraint,
            "witness": witness}


def goal_block(key, steps, qed_hint, line):
    return {"key": key, "line": line, "steps": steps, "qed_hint": qed_hint}


def dom_step(constraint, witness, leq, geq, line):
    """`leq` and `geq` are lists of goal blocks."""
    return {"kind": "dom", "line": line, "constraint": constraint,
            "witness": witness, "leq": leq, "geq": geq}


_FRESH = ("fresh_right", "fresh_aux_1", "fresh_aux_2")


def def_order_step(name, left, right, aux, spec, order, fresh, transitivity,
                   reflexivity, line):
    """An order: `spec` lists its (constraint, witness) rows, `order` the
    constraints of its `def`, `fresh` the fresh_right, fresh_aux_1 and
    fresh_aux_2 names of its transitivity proof, and `transitivity` and
    `reflexivity` the goal blocks of its two proofs."""
    trans = dict(zip(_FRESH, fresh))
    trans["goals"] = transitivity
    return {"kind": "def_order", "line": line, "name": name, "left": left,
            "right": right, "aux": aux, "spec": spec, "def": order,
            "transitivity": trans, "reflexivity": {"goals": reflexivity}}


def load_order_step(name, zvars, line):
    return {"kind": "load_order", "line": line, "name": name, "vars": zvars}


def del_range_step(start, stop, line):
    return {"kind": "del_range", "line": line, "start": start, "stop": stop}


# ------------------------------------------------------------------ proofs

def _parse_witness(toks, lineno):
    """Witness text: arrow form `x1 -> x3 x2 -> 0` or pair list `x5 x4 ...`."""
    w = {}
    if "->" in toks:
        if len(toks) % 3 != 0:
            raise ParseError("malformed arrow witness", lineno)
        for j in range(0, len(toks), 3):
            var, arrow, img = toks[j], toks[j + 1], toks[j + 2]
            if arrow != "->":
                raise ParseError("malformed arrow witness", lineno)
            _witness_put(w, var, img, lineno)
    else:
        if len(toks) % 2 != 0:
            raise ParseError("odd pair-list witness", lineno)
        for j in range(0, len(toks), 2):
            _witness_put(w, toks[j], toks[j + 1], lineno)
    return w


def _witness_put(w, var, img, lineno):
    if var.startswith("~"):
        raise ParseError("witness keys must be variables, got %r" % var, lineno)
    if var in w:
        raise ParseError("variable %s witnessed twice" % var, lineno)
    if img in ("0", "1"):
        w[var] = int(img)
        return
    img_var = pb.var_of(img)
    if not img_var or img_var[0] in "+-0123456789":
        raise ParseError("witness image %r is neither 0, 1 nor a literal"
                         % img, lineno)
    w[var] = img


class _Lines:
    """Token stream over the significant lines of a proof document, read
    one line at a time: a line is split into tokens, and the literal rule
    applied to it, only when it is taken, so errors come in file order."""

    def __init__(self, text):
        self._lines = enumerate(text.splitlines(), start=1)
        self.last = None    # the line number of the line last taken

    def __iter__(self):
        return self

    def __next__(self):
        for lineno, line in self._lines:
            toks = line.replace(";", " ").split()
            # a comment's first non-blank character is `*`; a first token
            # that starts with `*` may also follow a `;`
            if toks and (toks[0][0] != "*" or line.lstrip()[0] != "*"):
                _check_literals(line, toks, lineno)
                self.last = lineno
                return lineno, toks
        raise StopIteration

    def take(self):
        item = next(self, None)
        if item is None:
            raise ParseError("unexpected end of proof", self.last)
        return item

    def expect(self, *head):
        lineno, toks = self.take()
        if tuple(toks[: len(head)]) != head:
            raise ParseError("expected %r, got %r" % (" ".join(head), " ".join(toks)),
                             lineno)
        return lineno, toks


def _parse_pol(lines, lineno, args):
    joined = "".join(args)
    if not joined.isascii() or "_" in joined:
        # a token int() reads is a malformed number, not a literal
        for tok in args:
            try:
                int(tok)
            except ValueError:
                continue
            _int(tok, lineno, "number")
    return pol_step(args, lineno)


def _parse_rup(lines, lineno, args):
    if ":" not in args:
        return rup_step(_read_constraint(args, lineno), None, lineno)
    i = args.index(":")
    toks = args[i + 1:]
    if ":" in toks:
        raise ParseError("too many ':' sections in rup", lineno)
    hints = _ints(toks)
    if hints is None:
        hints = [_int(tok, lineno, "hint") for tok in toks]
    return rup_step(_read_constraint(args[:i], lineno), hints, lineno)


def _parse_red(lines, lineno, args):
    if args.count(":") != 1:
        raise ParseError("red needs exactly one ':' before the witness", lineno)
    i = args.index(":")
    return red_step(_read_constraint(args[:i], lineno),
                    _parse_witness(args[i + 1:], lineno), lineno)


def _parse_goal_key(tok, lineno):
    if tok.startswith("#"):
        return "#%d" % _int(tok[1:], lineno, "proofgoal key")
    return _int(tok, lineno, "proofgoal key")


def _parse_goal(lines, toks, lineno):
    """One `proofgoal <key> ... qed <key> [: hint]` block, from its first
    line `toks` on."""
    if toks[0] != "proofgoal" or len(toks) < 2:
        raise ParseError("expected 'proofgoal <key>', got %r" % " ".join(toks),
                         lineno)
    key = _parse_goal_key(toks[1], lineno)
    steps = []
    qlineno, qtoks = lines.take()
    while qtoks[0] != "qed":
        steps.append(_parse_step(lines, qlineno, qtoks, _SUBPROOF_PARSERS))
        qlineno, qtoks = lines.take()
    if len(qtoks) >= 2 and _parse_goal_key(qtoks[1], qlineno) != key:
        raise ParseError("qed key mismatch for proofgoal %s" % key, qlineno)
    qed_hint = None
    if len(qtoks) == 4 and qtoks[2] == ":":
        qed_hint = _int(qtoks[3], qlineno, "qed hint")
    elif len(qtoks) > 2:
        raise ParseError("malformed qed", qlineno)
    return goal_block(key, steps, qed_hint, lineno)


def _parse_until(lines, closer, parse_one):
    """Parse items with `parse_one(toks, lineno)`, one per first line, up to
    and including the line that starts with `closer`."""
    items = []
    while True:
        lineno, toks = lines.take()
        if tuple(toks[: len(closer)]) == closer:
            return items
        items.append(parse_one(toks, lineno))


def _parse_proofgoals(lines, closer):
    return _parse_until(lines, closer, lambda toks, lineno:
                        _parse_goal(lines, toks, lineno))


def _parse_spec_row(toks, lineno):
    if toks[0] != "red":
        raise ParseError("spec entries must be red steps", lineno)
    step = _parse_red(None, lineno, toks[1:])
    return step["constraint"], step["witness"]


def _parse_var_decls(lines, expected_heads):
    decls = {}
    for head in expected_heads:
        lineno, toks = lines.expect(head)
        decls[head] = toks[1:]
    lines.expect("end", "vars")
    return decls


def _parse_def_order(lines, lineno0, args):
    if len(args) != 1:
        raise ParseError("def_order needs a name", lineno0)
    lines.expect("vars")
    decls = _parse_var_decls(lines, ("left", "right", "aux"))
    lines.expect("spec")
    spec = _parse_until(lines, ("end", "spec"), _parse_spec_row)
    lines.expect("def")
    order_cons = _parse_until(lines, ("end", "def"), _read_constraint)
    lines.expect("transitivity")
    lines.expect("vars")
    fresh = _parse_var_decls(lines, _FRESH)
    lines.expect("proof")
    trans_goals = _parse_proofgoals(lines, ("qed", "proof"))
    lines.expect("end", "transitivity")
    lines.expect("reflexivity")
    lines.expect("proof")
    refl_goals = _parse_proofgoals(lines, ("qed", "proof"))
    lines.expect("end", "reflexivity")
    lines.expect("end", "def_order")
    return def_order_step(args[0], decls["left"], decls["right"], decls["aux"],
                          spec, order_cons, [fresh[h] for h in _FRESH],
                          trans_goals, refl_goals, lineno0)


def _parse_dom(lines, lineno, args):
    if args.count(":") != 2 or args[-2:] != [":", "subproof"]:
        raise ParseError("dom must end in ': subproof'", lineno)
    i = args.index(":")
    constraint = _read_constraint(args[:i], lineno)
    witness = _parse_witness(args[i + 1:-2], lineno)
    scopes = {}
    for scope in ("leq", "geq"):
        lines.expect("scope", scope)
        scopes[scope] = _parse_proofgoals(lines, ("end", "scope"))
    lines.expect("qed", "dom")
    return dom_step(constraint, witness, scopes["leq"], scopes["geq"], lineno)


def _parse_load_order(lines, lineno, args):
    if not args:
        raise ParseError("load_order needs an order name", lineno)
    return load_order_step(args[0], args[1:], lineno)


def _parse_del(lines, lineno, args):
    if len(args) != 3 or args[0] != "range":
        raise ParseError("only 'del range a b' is supported", lineno)
    return del_range_step(_int(args[1], lineno, "ID"),
                          _int(args[2], lineno, "ID"), lineno)


def _value_parser(kind):
    return lambda lines, lineno, args: {"kind": kind, "line": lineno,
                                        "value": args}


_SUBPROOF_PARSERS = {"pol": _parse_pol, "rup": _parse_rup}
_PARSERS = {"pol": _parse_pol, "rup": _parse_rup, "red": _parse_red,
            "def_order": _parse_def_order, "load_order": _parse_load_order,
            "dom": _parse_dom, "del": _parse_del,
            "output": _value_parser("output"),
            "conclusion": _value_parser("conclusion")}


def _parse_step(lines, lineno, toks, parsers):
    parse = parsers.get(toks[0])
    if parse is None:
        raise ParseError("unknown keyword %r%s" % (
            toks[0], "" if parsers is _PARSERS else " inside subproof"), lineno)
    return parse(lines, lineno, toks[1:])


_TRAILER = ["end", "pseudo-Boolean", "proof"]


def iter_proof(text):
    """Parse a proof document one step at a time.

    Checks the header, then yields each top-level step as soon as its
    last line is read, so a caller that drops the steps it has used holds
    one step, not the proof.  A `ParseError` is raised when the stream
    reaches the first malformed line, after every step above it.  A proof
    ends at the end of the text or at the `end pseudo-Boolean proof`
    trailer, which only blank or `*` comment lines may follow; any other
    top-level `end` line is malformed."""
    lines = _Lines(text)
    lineno, toks = lines.take()
    if " ".join(toks) != HEADER:
        raise ParseError("missing proof header", lineno)
    for lineno, toks in lines:
        if toks[0] == "end":
            if toks != _TRAILER:
                raise ParseError("%r at top level: only %r ends a proof"
                                 % (" ".join(toks), " ".join(_TRAILER)),
                                 lineno)
            for lineno, toks in lines:
                raise ParseError("%r after the end of the proof"
                                 % " ".join(toks), lineno)
            return
        yield _parse_step(lines, lineno, toks, _PARSERS)


def parse_proof(text):
    """Parse a proof document into {"header":..., "steps": [...]}, the
    steps :func:`iter_proof` yields."""
    return {"header": HEADER, "steps": list(iter_proof(text))}


# -------------------------------------------------------------- serializer

def render_witness(w):
    """Arrow-form text of a witness, which is also a symmetry file line."""
    return " ".join([f"{var} -> {img}" for var, img in w.items()])


def _decl(head, names):
    """A declaration line; an empty list prints as `head;`."""
    return " ".join([head] + list(names)) + ";"


def _red_text(con, witness):
    return "red %s : %s;" % (pb.render(con), render_witness(witness))


def _render_goals(out, goals):
    for g in goals:
        out.append("proofgoal %s" % g["key"])
        for s in g["steps"]:
            render_step(out, s)
        if g["qed_hint"] is not None:
            out.append("qed %s : %d;" % (g["key"], g["qed_hint"]))
        else:
            out.append("qed %s;" % g["key"])


def _render_pol(out, s):
    out.append("pol " + " ".join(s["tokens"]) + ";")


def _render_rup(out, s):
    if s["hints"] is None:
        out.append("rup " + pb.render(s["constraint"]) + ";")
    else:
        out.append("rup %s : %s;" % (pb.render(s["constraint"]),
                                     " ".join(map(str, s["hints"]))))


def _render_red(out, s):
    out.append(_red_text(s["constraint"], s["witness"]))


def _render_dom(out, s):
    out.append("dom %s : %s : subproof" % (pb.render(s["constraint"]),
                                           render_witness(s["witness"])))
    for scope in ("leq", "geq"):
        out.append("scope " + scope)
        _render_goals(out, s[scope])
        out.append("end scope;")
    out.append("qed dom;")


def _render_def_order(out, s):
    trans = s["transitivity"]
    out.extend(["def_order " + s["name"], "vars", _decl("left", s["left"]),
                _decl("right", s["right"]), _decl("aux", s["aux"]),
                "end vars;", "spec"])
    out.extend(_red_text(con, w) for con, w in s["spec"])
    out.extend(["end spec;", "def"])
    out.extend(pb.render(con) + ";" for con in s["def"])
    out.extend(["end def;", "transitivity", "vars"])
    out.extend(_decl(head, trans[head]) for head in _FRESH)
    out.extend(["end vars;", "proof"])
    _render_goals(out, trans["goals"])
    out.extend(["qed proof;", "end transitivity;", "reflexivity", "proof"])
    _render_goals(out, s["reflexivity"]["goals"])
    out.extend(["qed proof;", "end reflexivity;", "end def_order;"])


def _render_load_order(out, s):
    out.append(_decl("load_order " + s["name"], s["vars"]))


def _render_del_range(out, s):
    out.append("del range %d %d;" % (s["start"], s["stop"]))


def _render_value(out, s):
    out.append(_decl(s["kind"], s["value"]))


_RENDERERS = {"pol": _render_pol, "rup": _render_rup, "red": _render_red,
              "dom": _render_dom, "def_order": _render_def_order,
              "load_order": _render_load_order, "del_range": _render_del_range,
              "output": _render_value, "conclusion": _render_value}


def render_step(out, step):
    """Append the text lines of one proof step to the list `out`."""
    render = _RENDERERS.get(step["kind"])
    if render is None:
        raise ParseError("cannot serialize step kind %r" % step["kind"])
    render(out, step)

