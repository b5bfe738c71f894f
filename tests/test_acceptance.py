"""End-to-end acceptance gate.

One test per shipped guarantee, each with a pinned runtime budget and
explicit numeric tolerances.  These tests exercise the public entry points
(breaker, checker, bench, cli) the way a release pipeline would.
"""

import itertools
import math
import pathlib
import random
import re
import time

import pytest

from pbsym import bench
from pbsym import breaker
from pbsym import checker
from pbsym import cli
from pbsym import constraints as pb
from pbsym import parsing

import oracle
import render

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN_FORMULA = (DATA / "php32.opb").read_text()
GOLDEN_PROOF = (DATA / "php32_lex.pbp").read_text()

SIGMA = "(x1 x3)(x2 x4)"
TAU = "x5 -> x4 x6 -> x3 x1 -> x6 x2 -> x5 x3 -> x2 x4 -> x1"


def slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def assignments(variables):
    for bits in itertools.product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


# --------------------------------------------------------------------------
# 1. The reference proof is accepted; 50 random single edits are rejected.
# --------------------------------------------------------------------------

def _edit_pool(text):
    """Single-token edits of load-bearing entries: witness values, dom
    degrees, and derivation hint IDs.

    Top-level reification halves (``red +1 ~v ... : v -> 0``) are excluded:
    a fresh reification variable is unconstrained there, so either witness
    value yields another valid proof and rejecting it would be unsound.
    """
    pool = []
    for li, line in enumerate(text.split("\n")):
        top_level_half = line.startswith("red +1 ~") and line.endswith("-> 0;")
        if not top_level_half:
            for m in re.finditer(r"-> (\d)", line):
                pool.append((li, m.start(1), m.end(1),
                             str(1 - int(m.group(1)))))
        for m in re.finditer(r"-> (x\d+)", line):
            pool.append((li, m.start(1), m.end(1), "~" + m.group(1)))
        if line.startswith("dom "):
            for m in re.finditer(r">= (\d+)", line):
                pool.append((li, m.start(1), m.end(1),
                             str(int(m.group(1)) + 1)))
        if line.startswith(("rup", "qed")) and ":" in line:
            off = line.index(":")
            for m in re.finditer(r"(?<![\w$~.-])(-?\d+)(?![\w.])",
                                 line[off:]):
                pool.append((li, off + m.start(1), off + m.end(1),
                             str(int(m.group(1)) + 1)))
    return pool


def test_criterion_1_golden_proof_and_fuzz_rejection():
    t0 = time.perf_counter()
    formula, _ = parsing.parse_opb(GOLDEN_FORMULA)
    doc = parsing.parse_proof(GOLDEN_PROOF)
    verdict, _ = checker.check_document(formula, doc)
    assert verdict == checker.VERIFIED

    pool = _edit_pool(GOLDEN_PROOF)
    assert len(pool) >= 50
    rng = random.Random(1)
    for li, a, b, rep in rng.sample(pool, 50):
        lines = GOLDEN_PROOF.split("\n")
        lines[li] = lines[li][:a] + rep + lines[li][b:]
        with pytest.raises((parsing.ParseError, checker.CheckError)):
            mutated = parsing.parse_proof("\n".join(lines))
            checker.check_document(formula, mutated)
    assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. The emitter reproduces the reference breaking clauses semantically.
# --------------------------------------------------------------------------

EXPECTED_FIRST = """
+1 x3 +1 s1 >= 1 ;
+1 x4 +1 ~s1 +1 s2 >= 1 ;
+1 x1 +1 ~s2 +1 s3 >= 1 ;
+1 ~x1 +1 s1 >= 1 ;
+1 ~x2 +1 ~s1 +1 s2 >= 1 ;
+1 ~x3 +1 ~s2 +1 s3 >= 1 ;
+1 ~x1 +1 x3 >= 1 ;
+1 ~x2 +1 x4 +1 ~s1 >= 1 ;
+1 x1 +1 ~x3 +1 ~s2 >= 1 ;
+1 x2 +1 ~x4 +1 ~s3 >= 1 ;
"""

EXPECTED_SECOND = """
+1 x4 +1 s4 >= 1 ;
+1 x3 +1 ~s4 +1 s5 >= 1 ;
+1 x6 +1 ~s5 +1 s6 >= 1 ;
+1 x5 +1 ~s6 +1 s7 >= 1 ;
+1 x2 +1 ~s7 +1 s8 >= 1 ;
+1 ~x5 +1 s4 >= 1 ;
+1 ~x6 +1 ~s4 +1 s5 >= 1 ;
+1 ~x1 +1 ~s5 +1 s6 >= 1 ;
+1 ~x2 +1 ~s6 +1 s7 >= 1 ;
+1 ~x3 +1 ~s7 +1 s8 >= 1 ;
+1 x4 +1 ~x5 >= 1 ;
+1 x3 +1 ~x6 +1 ~s4 >= 1 ;
+1 ~x1 +1 x6 +1 ~s5 >= 1 ;
+1 ~x2 +1 x5 +1 ~s6 >= 1 ;
+1 x2 +1 ~x3 +1 ~s7 >= 1 ;
+1 x1 +1 ~x4 +1 ~s8 >= 1 ;
"""


def _projection_table(cons, base_vars):
    """For each assignment to base_vars: is there an extension over the
    remaining (fresh) variables satisfying all constraints?"""
    fresh = sorted({v for c in cons for v in c.variables()} - set(base_vars))
    table = []
    for alpha in assignments(base_vars):
        ok = any(all(oracle.con_holds(c, {**alpha, **ext}) for c in cons)
                 for ext in assignments(fresh))
        table.append(ok)
    return table


def test_criterion_2_break_matches_reference_clauses(tmp_path):
    t0 = time.perf_counter()
    opb = tmp_path / "f.opb"
    opb.write_text(GOLDEN_FORMULA)
    syms = tmp_path / "syms.txt"
    syms.write_text(SIGMA + "\n" + TAU + "\n")
    prefix = str(tmp_path / "out")
    assert cli.main(["break", str(opb), str(syms), "-o", prefix,
                     "--selfcheck"]) == 0

    cons, _ = parsing.parse_opb(pathlib.Path(prefix + ".opb").read_text())
    got_first, got_second = cons[9:19], cons[19:35]
    base = ["x%d" % i for i in range(1, 7)]
    for got, expected in ((got_first, EXPECTED_FIRST),
                          (got_second, EXPECTED_SECOND)):
        want, _ = parsing.parse_opb(expected)
        assert len(got) == len(want)
        assert _projection_table(got, base) == _projection_table(want, base)
    assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------
# 3. The order specification pins down exactly the lexicographic relation.
# --------------------------------------------------------------------------

def test_criterion_3_spec_encodes_lex_exactly():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        order = breaker.build_lex_order(n)
        for ub in itertools.product((0, 1), repeat=n):
            for vb in itertools.product((0, 1), repeat=n):
                base = dict(zip(order["left"], ub))
                base.update(zip(order["right"], vb))
                sols = [ext for ext in assignments(order["aux"])
                        if all(oracle.con_holds(c, {**base, **ext})
                               for c, _ in order["spec"])]
                assert len(sols) == 1
                assert ((sols[0]["$d%d" % n] == 1)
                        == oracle.lex_leq(list(ub), list(vb)))
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 4. The order definition emits O(n) lines; the single-constraint
#    alternative needs quadratically many coefficient bytes.
# --------------------------------------------------------------------------

def _coefficient_bytes(con):
    return (sum(len(str(a)) for a in con.terms.values())
            + len(str(con.degree)))


def test_criterion_4_order_definition_scaling():
    t0 = time.perf_counter()
    ns = [10, 100, 1000]
    lines = [render.lex_order_text(n).count("\n") + 1 for n in ns]
    assert all(l <= 20 * n for l, n in zip(lines, ns))
    assert 0.9 <= slope(ns, lines) <= 1.1

    coef_bytes = [sum(_coefficient_bytes(c) for c in
                      breaker.build_big_order(n)["def"])
                  for n in ns]
    assert 1.8 <= slope(ns, coef_bytes) <= 2.2
    assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------------------
# 5. Per-symmetry proof size: O(k) lines for the chained method, superlinear
#    in instance size for the single-constraint method.
# --------------------------------------------------------------------------

def _hole_swap(inst, n):
    mapping = {}
    for i in range(1, n + 1):
        a, b = inst.names["p%d_h1" % i], inst.names["p%d_h2" % i]
        mapping[a], mapping[b] = b, a
    return mapping


def test_criterion_5_per_symmetry_scaling():
    t0 = time.perf_counter()
    ns = [5, 10, 15, 20, 25, 30]
    ks, frags, old_chars = [], [], []
    for n in ns:
        inst = bench.generate("php", (n,))
        sym = _hole_swap(inst, n)
        b = breaker.break_symmetries(inst.constraints, inst.variables, [sym])
        start = max(i for i, l in enumerate(b.lines)
                    if l.startswith("load_order"))
        old = breaker.break_symmetries(inst.constraints, inst.variables,
                                       [sym], method="old")
        ks.append(len(sym))
        frags.append(len(b.lines) - start - 1)
        old_chars.append(old.stats[0]["chars"])

    assert 0.9 <= slope(ks, frags) <= 1.1
    # exactly affine in k: constant marginal cost per support variable
    increments = {(frags[i + 1] - frags[i]) // (ks[i + 1] - ks[i])
                  for i in range(len(ks) - 1)}
    assert len(increments) == 1
    assert slope(ns, old_chars) >= 0.9
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_whole_proof_affine_in_support():
    # one hole swap moves k = 2n of PHP(n)'s n(n + 1) variables, and the
    # order binds only those, so the whole proof, def_order included, has
    # a line count affine in k
    t0 = time.perf_counter()
    points = []
    for n in [5, 10, 15, 20, 25, 30]:
        inst = bench.generate("php", (n,))
        sym = _hole_swap(inst, n)
        b = breaker.break_symmetries(inst.constraints, inst.variables, [sym])
        assert len(b.binding) == len(sym)
        points.append((len(sym), b.text().count("\n")))
    (k0, l0), (k1, l1) = points[0], points[-1]
    assert all((l - l0) * (k1 - k0) == (l1 - l0) * (k - k0)
               for k, l in points)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_every_fragment_affine_in_support():
    # every generator, first or later, after a prefix of fixed variables or
    # not, negation symmetries included: one affine line count in k
    t0 = time.perf_counter()
    points = set()
    for family, params in [("php", (5,)), ("php", (8,)), ("php", (11,)),
                           ("count", (6, 3)), ("tseitin", (3,))]:
        inst = bench.generate(family, params)
        gens = inst.generators
        b = breaker.ProofBuilder(inst.constraints, inst.variables)
        b.begin(gens)
        for sym in gens:
            mark = len(b.lines)
            b.break_symmetry(sym)
            points.add((len(sym), len(b.lines) - mark))
    (k0, l0), (k1, l1) = min(points), max(points)
    assert k0 < k1
    assert all((l - l0) * (k1 - k0) == (l1 - l0) * (k - k0)
               for k, l in points)
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 6. Breaking clauses preserve satisfiability on every small family.
# --------------------------------------------------------------------------

def test_criterion_6_equisatisfiability_suite():
    t0 = time.perf_counter()
    cases = [("php", (3,)), ("tseitin", (2,)), ("count", (4, 3))]
    checked = 0
    for family, params in cases:
        inst = bench.generate(family, params)
        gens = inst.generators
        subsets = ([(g,) for g in gens]
                   + list(itertools.combinations(gens, 2)))
        for subset in subsets:
            b = breaker.break_symmetries(inst.constraints, inst.variables,
                                         list(subset))
            assert oracle.equisat(inst.constraints, b.kept)
            checked += 1
    assert checked >= 8
    assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 7. Accepted proofs leave a weakly valid configuration behind.
# --------------------------------------------------------------------------

def _random_document(rng):
    """A randomized accepted proof: breaker output over a small instance,
    optionally extended with random pol/rup steps."""
    kind = rng.choice(["php", "tseitin", "count4", "count5", "flip"])
    if kind == "php":
        inst = bench.generate("php", (3,))
        sym = rng.choice(inst.generators)
        method = rng.choice(["new", "old"])
    elif kind == "tseitin":
        inst = bench.generate("tseitin", (2,))
        sym = inst.generators[0]
        method = "new"
    elif kind == "count4":
        inst = bench.generate("count", (4, 3))
        sym = rng.choice(inst.generators)
        method = rng.choice(["new", "old"])
    elif kind == "count5":
        inst = bench.generate("count", (5, 3))
        sym = rng.choice(inst.generators)
        method = "new"
    else:
        cons, variables = parsing.parse_opb(
            "+1 x1 +1 x2 >= 1 ;\n+1 ~x1 +1 ~x2 >= 1 ;\n")
        inst = bench.Instance("flip", (), cons, variables, {})
        sym = parsing.parse_symmetry("(x1 ~x1)(x2 ~x2)")
        method = "new"
    b = breaker.break_symmetries(inst.constraints, inst.variables, [sym],
                                 method=method)
    text = b.text()

    if rng.random() < 0.7:
        probe = checker.Checker(inst.constraints)
        probe.run(parsing.parse_proof(text))
        # the top-level constraints live after the proof, by ID
        visible = dict(probe.root.cons)
        extra = []
        for _ in range(rng.randint(1, 4)):
            cid = rng.choice(sorted(visible))
            op = rng.choice(["add", "scale", "sat", "rup"])
            if op == "add":
                other = rng.choice(sorted(visible))
                extra.append("pol %d %d +;" % (cid, other))
            elif op == "scale":
                extra.append("pol %d 2 *;" % cid)
            elif op == "sat":
                extra.append("pol %d s;" % cid)
            else:
                extra.append("rup %s : %d;" % (pb.render(visible[cid]), cid))
        text += "\n".join(extra) + "\n"
    return inst, text


def _check_weak_validity(formula, chk, line=None):
    """Criterion 7's invariant on the state of `chk`; a failure names
    `line`, the step after which it was checked."""
    core = [chk.root.get(cid) for cid in sorted(chk.core_ids)]
    derived = [chk.root.get(cid) for cid in chk._derived_ids()]
    # a bound name is evaluated as a literal, so a `~x` binding is handled
    z = list(chk.z_binding)
    zval = lambda m: [int(oracle.lit_holds(l, m)) for l in z]
    fvars = sorted({v for c in formula for v in c.variables()}
                   | {pb.var_of(l) for l in z})
    allvars = sorted({v for c in core + derived for v in c.variables()}
                     | set(fvars))
    assert len(allvars) <= 17, "oracle is exponential; keep instances small"
    where = "weak validity fails after line %s" % line

    # condition 1: satisfiability of the input implies that of the core
    if oracle.satisfiable(formula, fvars) is not None:
        assert oracle.satisfiable(core, fvars) is not None, where

    # condition 2: every core model is dominated by a full model
    models = [m for m in assignments(allvars)
              if all(oracle.con_holds(c, m) for c in core + derived)]
    if z:
        best = min((zval(m) for m in models), default=None)
    for alpha in assignments(fvars):
        if not all(oracle.con_holds(c, alpha) for c in core):
            continue
        assert models, where
        if z:
            assert oracle.lex_leq(best, zval(alpha)), where


def test_criterion_7_weak_validity_of_random_proofs():
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _ in range(20):
        inst, text = _random_document(rng)
        chk = checker.Checker(inst.constraints)
        verdict = chk.run(parsing.parse_proof(text))
        assert verdict == checker.VERIFIED
        _check_weak_validity(inst.constraints, chk)
    assert time.perf_counter() - t0 < 120.0


def check_each_step(formula, doc):
    """Run `doc` one top-level step at a time against the brute-force
    oracle: an accepted pol or rup constraint follows from the live core
    and derived constraints before it, and every accepted red, dom and
    del range keeps the weak-validity invariant.  Returns the verdict."""
    chk = checker.Checker(formula)
    for step in doc["steps"]:
        before = list(chk.root.cons.values())
        getattr(chk, checker.Checker.STEPS[step["kind"]])(step)
        if step["kind"] in ("pol", "rup"):
            new = chk.root.cons[chk.root.counter[0] - 1]
            assert oracle.implies(before, new), (
                "line %s does not follow" % step["line"])
        elif step["kind"] in ("red", "dom", "del_range"):
            _check_weak_validity(formula, chk, step["line"])
    return chk.conclude()


def test_criterion_7_each_step_is_sound():
    # criterion 7's draws over at most 14 variables at every step.  The
    # PHP(3) and Count(5,3) draws are left to the final-state check above:
    # at some step, some of them reach more variables than the oracle
    # enumerates
    t0 = time.perf_counter()
    rng = random.Random(7)
    checked = 0
    for _ in range(20):
        inst, text = _random_document(rng)
        if inst.family in ("flip", "tseitin") or inst.params == (4, 3):
            assert check_each_step(inst.constraints,
                                   parsing.parse_proof(text)) == checker.VERIFIED
            checked += 1
    assert checked
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.parametrize("name,old,new", [
    pytest.param("load_order_negated", None, None, id="negated"),
    pytest.param("load_order_negated", "load_order lex1 ~x1;",
                 "load_order lex1 x1;", id="negated-control"),
    pytest.param("def_order_undeclared", None, None, id="undeclared"),
    pytest.param("def_order_undeclared", "+1 v1 +1 ~u1 +1 x1 >= 1;",
                 "+1 v1 +1 ~u1 >= 1;", id="undeclared-control"),
])
def test_criterion_7_steps_before_a_rejection_are_sound(name, old, new):
    # proofs of UNSAT for satisfiable formulas, and the same proofs with
    # the order bound or defined as it may be: each is rejected, some after
    # red steps with order goals, and every step accepted before is sound
    formula, _ = parsing.parse_opb((DATA / (name + ".opb")).read_text())
    text = (DATA / (name + ".pbp")).read_text()
    if old is not None:
        text = text.replace(old + "\n", new + "\n")
    with pytest.raises(checker.CheckError):
        check_each_step(formula, parsing.parse_proof(text))


# --------------------------------------------------------------------------
# 8. The lazy-loading instrumentation is observable.
# --------------------------------------------------------------------------

def test_criterion_8_lazy_spec_materialization():
    # a) strengthening steps that never touch bound variables skip the
    #    order goal entirely, so no spec constraint is ever materialized
    formula, _ = parsing.parse_opb("+1 x1 +1 x2 >= 1 ;\n")
    text = (parsing.HEADER + "\n" + render.lex_order_text(2) + "\n"
            + "load_order lex2 x1 x2;\n"
            + "red +1 y1 >= 1 : y1 -> 1;\n")
    verdict, counters = checker.check_document(
        formula, parsing.parse_proof(text))
    assert verdict == checker.VERIFIED
    assert counters["spec_materializations"] == 0
    assert counters["implicit_reflexivity_skips"] == 1

    # b) a dominance subproof citing 10 of the 22 spec constraints by ID
    #    materializes exactly those 10
    formula, _ = parsing.parse_opb(
        "".join("+1 x%d >= 1 ;\n" % i for i in range(1, 7)))
    text = (parsing.HEADER + "\n" + render.lex_order_text(6) + "\n"
            + "load_order lex6 x1 x2 x3 x4 x5 x6;\n"
            + "dom +1 x4 >= 1 : x4 -> x5 x5 -> x4 : subproof\n"
            + "scope leq\nproofgoal #1\n"
            + "pol 8 9 +;\npol 10 11 +;\npol 12 13 +;\n"
            + "pol 14 15 +;\npol 16 17 +;\n"
            + "rup >= 1 : 7 4;\nqed #1 : -1;\nend scope;\n"
            + "scope geq\nproofgoal #2\n"
            + "rup >= 1 : 7 4;\nqed #2 : -1;\nend scope;\nqed dom;\n")
    verdict, counters = checker.check_document(
        formula, parsing.parse_proof(text))
    assert verdict == checker.VERIFIED
    assert counters["spec_materializations"] == 10


# --------------------------------------------------------------------------
# 9. Large-scale benchmark numbers are out of desk-scale reach; the suite
#    substitutes slope and property checks at small sizes instead.
# --------------------------------------------------------------------------

def test_criterion_9_desk_scale_substitutes_in_place():
    # the scaling checks (criteria 4-5) top out at n = 1000 variables and
    # PHP(30); the semantic checks (criteria 3, 6, 7) brute-force at most
    # 17 variables.  Anything larger is covered by the slope fits, not by
    # replaying full-size benchmark runs.
    inst = bench.generate("php", (30,))
    assert len(inst.variables) == 870          # largest emitted instance
    assert len(breaker.build_lex_order(1000)["left"]) == 1000
    with pytest.raises(AssertionError):        # oracle refuses beyond 20 vars
        oracle.equisat(inst.constraints, [])
