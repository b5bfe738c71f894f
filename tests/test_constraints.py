import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from pbsym import constraints as pb
from pbsym.constraints import (
    CONFLICT, Constraint, evaluate_polish, neg, negate, normalize, propagate,
    rup_check, substitute,
)

import oracle


# the cutting-planes rules, each as the one-operator program that runs it
def _run(tokens, *cons):
    return evaluate_polish(tokens, dict(enumerate(cons, 1)).__getitem__)


def add(c1, c2):
    return _run(["1", "2", "+"], c1, c2)


def multiply(c, k):
    return _run(["1", str(k), "*"], c)


def divide(c, k):
    return _run(["1", str(k), "d"], c)


def saturate(c):
    return _run(["1", "s"], c)


def weaken(c, variable):
    return _run(["1", variable, "w"], c)


def C(*terms, ge):
    return normalize(list(terms), ge)


def test_neg_is_involution():
    assert neg("x1") == "~x1"
    assert neg(neg("x1")) == "x1"
    assert neg(neg("~$d6")) == "~$d6"


def test_normalize_merges_terms():
    c = C((1, "x1"), (1, "x1"), ge=1)
    assert c.terms == {"x1": 2} and c.degree == 1


def test_normalize_flips_negative_coefficient():
    c = normalize([(-1, "x1")], 0)
    assert c.terms == {"~x1": 1} and c.degree == 1


def test_normalize_keeps_normal_form():
    c = C((2, "~x1"), (3, "x2"), (2, "x3"), ge=5)
    assert c.terms == {"~x1": 2, "x2": 3, "x3": 2} and c.degree == 5


def test_normalize_cancels_opposite_literals():
    # 2 x1 + 1 ~x1 >= 1  ==  1 x1 + 1 >= 1  ==  x1 >= 0
    c = C((2, "x1"), (1, "~x1"), ge=1)
    assert c.terms == {"x1": 1} and c.degree == 0


def test_negate_single_literal():
    assert negate(C((1, "x1"), ge=1)) == C((1, "~x1"), ge=1)


def test_negate_example():
    c = C((2, "~x1"), (3, "x2"), (2, "x3"), ge=5)
    assert negate(c) == C((2, "x1"), (3, "~x2"), (2, "~x3"), ge=3)


def test_negate_falsum_is_tautology():
    assert negate(Constraint({}, 1)).is_tautology()


lits = st.integers(1, 6).flatmap(
    lambda i: st.sampled_from(["x%d" % i, "~x%d" % i]))
raw_cons = st.builds(
    normalize,
    st.lists(st.tuples(st.integers(-4, 4), lits), max_size=5),
    st.integers(-3, 6),
)


@given(raw_cons)
def test_negate_is_involution(c):
    # double negation restores the constraint unless degree clamping
    # collapsed information (negating an over-contradictory constraint)
    if negate(c).is_tautology():
        return
    assert negate(negate(c)) == c


@given(raw_cons, raw_cons)
def test_substitute_distributes_over_addition(c1, c2):
    w = pb.witness_lits({"x1": "x2", "x2": 0, "x3": "~x4"})
    summed = add(c1, c2)
    lhs = substitute(summed, w)
    rhs = add(substitute(c1, w), substitute(c2, w))
    # degree clamping at 0 loses slack, so the law only holds when no
    # intermediate result clamped; degree 0 is the clamp fingerprint
    parts = (summed, lhs, substitute(c1, w), substitute(c2, w))
    if all(p.degree > 0 for p in parts):
        assert lhs == rhs


# ------------------------------------ add and substitute against normalize

def reference_add(c1, c2):
    """:func:`add` as one pass of normalize over both operands' terms."""
    raw = [(a, l) for l, a in c1.terms.items()]
    raw.extend((a, l) for l, a in c2.terms.items())
    return normalize(raw, c1.degree + c2.degree)


def reference_image(witness, lit):
    """:func:`pb.apply_witness_lit` through var_of and is_positive."""
    v = pb.var_of(lit)
    if v not in witness:
        return lit
    img = witness[v]
    if img == 0 or img == 1:
        return img if pb.is_positive(lit) else 1 - img
    return img if pb.is_positive(lit) else neg(img)


def reference_substitute(c, witness):
    """:func:`substitute` as normalize over the images."""
    raw = []
    degree = c.degree
    for lit, a in c.terms.items():
        img = reference_image(witness, lit)
        if img == 1:
            degree -= a
        elif img == 0:
            pass
        else:
            raw.append((a, img))
    return normalize(raw, degree)


def assert_same(got, want):
    # term order too: kept clauses are written in it
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.degree == want.degree


BIG = 2 ** 70
# few variables, and big coefficients that often coincide, so that sums
# cancel exactly, flip polarity and clamp their degree at 0
big_coeffs = st.one_of(st.integers(1, 3), st.sampled_from([BIG, BIG + 1]),
                       st.integers(BIG, 4 * BIG))
few_vars = ["x%d" % i for i in range(1, 5)]
few_lits = st.sampled_from(few_vars + ["~" + v for v in few_vars])
wide_cons = st.builds(normalize, st.lists(st.tuples(big_coeffs, few_lits),
                                          max_size=6),
                      st.one_of(st.integers(0, 4), big_coeffs))
witnesses = st.dictionaries(st.sampled_from(few_vars),
                            st.one_of(st.sampled_from([0, 1]), few_lits))


@settings(max_examples=300)
@given(wide_cons, wide_cons)
@example(C((BIG, "x1"), (1, "x2"), ge=1), C((BIG, "~x1"), ge=0))  # cancel
@example(C((1, "x1"), (2, "x2"), (1, "~x3"), ge=1),               # flips
         C((2, "x4"), (3 * BIG, "~x1"), (5, "x3"), ge=BIG))
@example(C((5, "x1"), ge=2), C((5, "~x1"), (1, "x2"), ge=1))     # clamp
def test_add_is_normalize_of_both_terms(c1, c2):
    assert_same(add(c1, c2), reference_add(c1, c2))


@settings(max_examples=300)
@given(wide_cons, witnesses)
@example(C((1, "x1"), (BIG, "~x2"), (1, "x3"), ge=BIG),          # constants
         {"x1": 0, "x2": 1})
@example(C((1, "x1"), (2, "~x2"), (BIG, "x3"), (1, "~x4"), ge=2),
         {"x1": "x4", "x2": "x4", "x3": "~x4"})                  # three to one
@example(C((3, "x1"), (3, "x2"), (1, "x4"), (1, "x3"), ge=3),    # x3 cancels,
         {"x1": "x3", "x2": "~x3", "x3": "~x3"})                 # then returns
def test_substitute_is_normalize_of_images(c, witness):
    assert_same(substitute(c, pb.witness_lits(witness)),
                reference_substitute(c, witness))


def old_apply_witness_lit(witness, lit):
    """The image of one literal, as substitute looked it up before it read
    a literal map."""
    if not lit.startswith("~"):
        return witness.get(lit, lit)
    img = witness.get(lit[1:])
    if img is None:
        return lit
    if img == 0 or img == 1:
        return 1 - img
    return neg(img)


def old_substitute(c, witness):
    """substitute's body before the literal map: one old_apply_witness_lit
    per term."""
    terms, raw = {}, None
    degree = c.degree
    for lit, a in c.terms.items():
        img = old_apply_witness_lit(witness, lit)
        if img == 1:
            degree -= a
        elif img == 0:
            pass
        elif raw is not None:
            raw.append((a, img))
        elif img in terms or neg(img) in terms:
            raw = [(b, l) for l, b in terms.items()]
            raw.append((a, img))
        else:
            terms[img] = a
    if raw is not None:
        return normalize(raw, degree)
    return Constraint(terms, max(degree, 0))


@settings(max_examples=300)
@given(wide_cons, witnesses)
@example(C((1, "x1"), (BIG, "~x2"), (1, "~x3"), ge=BIG),         # 0/1 images
         {"x1": 1, "x2": 0, "x3": 1})
@example(C((2, "~x1"), (1, "x2"), ge=2), {"x1": "~x2", "x2": "~x1"})
@example(C((1, "~x1"), (2, "x2"), (3, "~x3"), ge=3),             # collide
         {"x1": "x4", "x2": "~x4", "x3": "x4"})
def test_literal_map_substitute_equals_the_old_loop(c, witness):
    want = old_substitute(c, witness)
    lits = pb.witness_lits(witness)
    assert_same(substitute(c, lits), want)
    assert lits == {**witness, **{"~" + v: old_apply_witness_lit(
        witness, "~" + v) for v in witness}}


def reference_negate(c):
    """negate's body before it flipped the terms in place: normalize over
    the flipped terms."""
    total = sum(c.terms.values())
    return normalize([(a, neg(l)) for l, a in c.terms.items()],
                     total - c.degree + 1)


@settings(max_examples=300)
@given(wide_cons)
@example(C((1, "x1"), ge=2))                                     # clamps at 0
@example(C((BIG, "~x1"), (1, "x2"), (3, "~x3"), ge=0))
def test_negate_is_normalize_of_flipped_terms(c):
    assert_same(negate(c), reference_negate(c))


def test_substitute_swap():
    c = C((1, "~x1"), (1, "~x3"), ge=1)
    got = substitute(c, pb.witness_lits({"x1": "x3", "x3": "x1"}))
    assert got == C((1, "~x3"), (1, "~x1"), ge=1)


def test_substitute_to_constant_tautologizes():
    c = C((1, "~s1"), (1, "x1"), (1, "~x3"), ge=1)
    assert substitute(c, pb.witness_lits({"s1": 0})).is_tautology()


def test_substitute_identity():
    c = C((1, "x1"), (1, "~x2"), ge=1)
    assert substitute(c, pb.witness_lits({})) == c


def test_substitute_negated_literal_image():
    # needed for Tseitin-style symmetries mapping x -> ~x
    c = C((2, "x1"), (1, "~x2"), ge=2)
    got = substitute(c, pb.witness_lits({"x1": "~x1"}))
    assert got == C((2, "~x1"), (1, "~x2"), ge=2)


@given(raw_cons)
def test_saturate_preserves_solutions(c):
    sat = saturate(c)
    vs = oracle.vars_of([c])
    for rho in oracle.all_assignments(vs | {"x1"}):
        assert oracle.con_holds(c, rho) == oracle.con_holds(sat, rho)


@given(raw_cons, st.integers(1, 5))
def test_divide_preserves_solutions_after_multiply(c, k):
    # ceil-division is the inverse of multiplication on solution sets
    back = divide(multiply(c, k), k)
    vs = oracle.vars_of([c])
    for rho in oracle.all_assignments(vs | {"x1"}):
        assert oracle.con_holds(c, rho) == oracle.con_holds(back, rho)


@given(raw_cons, st.integers(2, 4))
def test_divide_is_sound(c, k):
    got = divide(c, k)
    assert oracle.implies([c], got)


def test_weaken_removes_term():
    c = C((2, "~x1"), (3, "x2"), ge=5)
    assert weaken(c, "x1") == C((3, "x2"), ge=3)


def test_weaken_absent_variable_is_noop():
    c = C((1, "x1"), ge=1)
    assert weaken(c, "zz") == c


def test_polish_worked_example():
    db = {9: C((2, "~x1"), (3, "x2"), (2, "x3"), ge=5)}
    got = evaluate_polish("9 x2 2 * + x1 w s 2 d".split(), db.__getitem__)
    assert got == C((2, "x2"), (1, "x3"), ge=2)


def test_polish_copy():
    db = {5: C((1, "x1"), ge=1)}
    assert evaluate_polish(["5"], db.__getitem__) == db[5]


# 10^4999, 5,000 digits: past the int <-> str limit CPython 3.11+ sets by
# default, which `old` proofs pass from 14,284 bound variables on
BIG = "1" + "0" * 4999


def test_numbers_past_the_int_str_digit_limit_round_trip():
    n = pb.parse_int(BIG)
    assert n == 10 ** 4999
    assert pb.render(C((n, "x1"), ge=n)) == "+%s x1 >= %s" % (BIG, BIG)
    db = {1: C((1, "x1"), ge=1)}
    assert evaluate_polish(["1", BIG, "*"], db.__getitem__) == C((n, "x1"),
                                                                 ge=n)


def test_polish_stack_underflow():
    with pytest.raises(pb.ConstraintError):
        evaluate_polish(["+"], {}.__getitem__)


def test_polish_leftover_items_rejected():
    db = {1: C((1, "x1"), ge=1)}
    with pytest.raises(pb.ConstraintError):
        evaluate_polish(["1", "1"], db.__getitem__)


def test_polish_nonpositive_multiplier():
    db = {1: C((1, "x1"), ge=1)}
    with pytest.raises(pb.ConstraintError):
        evaluate_polish(["1", "0", "*"], db.__getitem__)


@given(st.lists(st.sampled_from("1 2 + * s d w x1 x2 3".split()), max_size=8))
def test_polish_is_sound_or_rejects(tokens):
    db = {1: C((1, "x1"), (1, "x2"), ge=1),
          2: C((2, "~x1"), (1, "x3"), ge=2)}
    try:
        got = evaluate_polish(tokens, db.__getitem__)
    except (pb.ConstraintError, KeyError):
        return
    assert oracle.implies(list(db.values()), got)


def test_slack_example():
    c = C((2, "~x1"), (3, "x2"), (2, "x3"), ge=5)
    assert oracle.slack(c, {}) == 2


def test_propagate_example():
    c = C((2, "~x1"), (3, "x2"), (2, "x3"), ge=5)
    rho = propagate([c])
    assert rho != CONFLICT and rho["x2"] == 1


def test_propagate_conflict():
    assert propagate([C((1, "x1"), ge=1), C((1, "~x1"), ge=1)]) == CONFLICT


def test_propagate_after_first_round():
    rho = propagate([C((3, "x2"), (2, "x3"), ge=3)])
    assert rho == {"x2": 1}


def test_rup_tautology_accepted_without_hints():
    assert rup_check([], C((1, "~$a3"), (1, "$a3"), ge=1))


def test_rup_falsum_from_contradictory_premises():
    premises = [C((1, "$d6"), ge=1), C((1, "~$d6"), ge=1)]
    assert rup_check(premises, Constraint({}, 1))


def test_rup_rejects_non_implied():
    premises = [C((1, "x1"), (1, "x2"), ge=1)]
    assert not rup_check(premises, C((1, "x1"), ge=1))


@given(raw_cons, raw_cons, raw_cons)
@settings(max_examples=60)
def test_rup_accept_implies_semantic_implication(p1, p2, goal):
    if rup_check([p1, p2], goal):
        assert oracle.implies([p1, p2], goal)
