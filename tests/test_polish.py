"""The in-place cutting-planes evaluator against the one it replaced.

:func:`pbsym.constraints.evaluate_polish` runs every operator on one
:class:`pbsym.constraints.LinearSum`; ``polish_reference.evaluate_polish``
builds a new constraint per operator.  On the same program and database
both must give the same constraint, term order included, or the same
error, and must call ``resolve`` with the same IDs in the same order (the
checker counts the spec rows those calls build).
"""

from hypothesis import example, given, settings, strategies as st

from pbsym import constraints as pb

import polish_reference

BIG = 2 ** 70
VARS = ["x1", "x2", "x3"]
LITS = VARS + ["~" + v for v in VARS]

# few variables, and |U|-bit coefficients that often coincide, so that sums
# cancel exactly, flip polarity, drop a variable and bring it back, and
# clamp their degree at 0
coeffs = st.one_of(st.integers(1, 3), st.sampled_from([BIG, BIG + 1, 2 * BIG]))
cons = st.builds(pb.normalize, st.lists(st.tuples(coeffs, st.sampled_from(LITS)),
                                        max_size=4),
                 st.one_of(st.integers(0, 3), coeffs))
# IDs 1..3 and the relative -1 are in the database; 7 and -5 are not
databases = st.fixed_dictionaries({1: cons, 2: cons, 3: cons, -1: cons})
ids = st.sampled_from(["1", "2", "3", "-1", "+2"])
factors = st.sampled_from(["1", "2", "3", str(BIG), str(BIG + 1)])


def _programs(leaf):
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(lambda a, b: a + b + ["+"], sub, sub),
            st.builds(lambda a, k: a + [k, "*"], sub, factors),
            st.builds(lambda a, k: a + [k, "d"], sub, factors),
            st.builds(lambda a: a + ["s"], sub),
            st.builds(lambda a, v: a + [v, "w"], sub,
                      st.sampled_from(LITS + ["x9"]))),
        max_leaves=8)


programs = _programs(st.one_of(ids.map(lambda t: [t]),
                               st.sampled_from(LITS).map(lambda t: [t])))
# malformed input: a token dropped, added or swapped, numbers that are not
# positive, IDs that are not in the database, a literal where a number goes
junk = st.sampled_from(["+", "*", "d", "s", "w", "0", "-2", "7", "-5", "x1",
                        "~x2", "1", "2"])


@st.composite
def mutated(draw):
    tokens = list(draw(programs))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["insert", "delete", "swap"]))
        if op == "insert":
            tokens.insert(i, draw(junk))
        elif tokens:
            i = min(i, len(tokens) - 1)
            if op == "delete":
                del tokens[i]
            else:
                j = draw(st.integers(0, len(tokens) - 1))
                tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


def _run(evaluate, tokens, db):
    """What `evaluate` gives: the constraint's terms, in order, and degree,
    or the error's type and text; and the IDs `resolve` was called with."""
    calls = []

    def resolve(cid):
        calls.append(cid)
        if cid not in db:
            raise LookupError("constraint %d is not visible here" % cid)
        return db[cid]

    try:
        c = evaluate(tokens, resolve)
        out = (list(c.terms.items()), c.degree)
    except (pb.ConstraintError, LookupError) as e:
        out = (type(e), str(e))
    return out, calls


def _agree(tokens, db):
    got = _run(pb.evaluate_polish, tokens, db)
    assert got == _run(polish_reference.evaluate_polish, tokens, db)
    return got


def C(*terms, ge):
    return pb.normalize(list(terms), ge)


DB = {1: C((BIG, "x1"), (1, "x2"), ge=1), 2: C((1, "~x1"), ge=0),
      3: C((2, "x1"), (3, "~x2"), ge=2), -1: C((5, "x3"), ge=2)}


@settings(max_examples=400)
@given(databases, programs)
@example(DB, ["1", "2", str(BIG), "*", "+", "3", "+"])       # cancel, return
@example(DB, ["3", "1", "+", "-1", "+", "x1", "w", "s"])      # flip, weaken
@example(DB, ["-1", "2", "2", "*", "+", "3", "d"])            # clamp, divide
@example(DB, ["1", "2", "*", "3", "*", "2", "+"])             # scaled twice
def test_programs_agree_with_the_reference(db, tokens):
    _agree(tokens, db)


@settings(max_examples=400)
@given(databases, mutated())
@example(DB, ["+"])                          # underflow
@example(DB, ["7", "1", "+"])                # unknown ID: resolved second
@example(DB, ["1", "7", "+"])                # ... and first
@example(DB, ["7", "0", "*"])                # resolve before the sign test
@example(DB, ["1", "x1", "*"])               # a literal as the multiplier
@example(DB, ["1", "2", "w"])                # a number as the variable
@example(DB, ["1", "-2", "d"])
@example(DB, ["1", "2"])                     # left over
def test_malformed_programs_fail_as_the_reference_does(db, tokens):
    _agree(tokens, db)


def test_resolve_order_is_the_reference_order():
    # `+` resolves its second operand first, and a number popped by `*`
    # is never resolved
    out, calls = _agree(["1", "2", "+", "3", "2", "*", "+"], DB)
    assert calls == [2, 1, 3]
    assert _agree(["1", "7", "+"], DB)[1] == [7]


def test_a_program_does_not_change_its_operands():
    before = {cid: (list(c.terms.items()), c.degree) for cid, c in DB.items()}
    for tokens in (["1", "2", "+"], ["3", "x1", "w"], ["1", "s"],
                   ["3", "2", "d"], ["1", "2", "*", "2", "+"]):
        _agree(tokens, DB)
    assert {cid: (list(c.terms.items()), c.degree)
            for cid, c in DB.items()} == before
