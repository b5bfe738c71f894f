import collections
import math
import pathlib

import pytest

from pbsym import bench
from pbsym import breaker
from pbsym import constraints as pb
from pbsym import parsing

import oracle

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------- families

def test_php_counts():
    inst = bench.generate("php", (3,))
    assert inst.nvars() == 6
    assert len(inst.constraints) == 9


def test_php3_equals_fixture():
    inst = bench.generate("php", (3,))
    fixture, _ = parsing.parse_opb((DATA / "php32.opb").read_text())
    assert collections.Counter(inst.constraints) == collections.Counter(fixture)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_php_count_formula(n):
    inst = bench.generate("php", (n,))
    assert inst.nvars() == n * (n - 1)
    assert len(inst.constraints) == n + (n - 1) * math.comb(n, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_rphp_counts(n):
    inst = bench.generate("rphp", (n,))
    assert inst.nvars() == 4 * n * n - 2 * n


def test_clqcl_counts():
    inst = bench.generate("clqcl", (8, 6, 5))
    assert inst.nvars() == math.comb(8, 2) + 6 * 8 + 5 * 8  # 116


def test_count_counts():
    inst = bench.generate("count", (6, 3))
    assert inst.nvars() == math.comb(6, 3)


@pytest.mark.parametrize("n", [2, 3])
def test_tseitin_counts(n):
    inst = bench.generate("tseitin", (n,))
    assert inst.nvars() == 2 * n * (n - 1)


def test_generate_rejects_unknown_family():
    with pytest.raises(bench.BenchError):
        bench.generate("nosuch", (3,))


def test_generate_rejects_bad_params():
    with pytest.raises(bench.BenchError):
        bench.generate("php", (1,))


def test_variable_names_are_sequential():
    inst = bench.generate("php", (3,))
    assert inst.variables == ["x%d" % i for i in range(1, 7)]
    assert inst.names["p1_h1"] == "x1"


# ----------------------------------------------------------------- DIMACS

def test_cnf_round_trip():
    inst = bench.generate("php", (3,))
    text = parsing.render_cnf(inst.constraints, inst.nvars())
    again = parsing.parse_cnf(text)
    assert again == inst.constraints


# ------------------------------------------------------------- generators

CASES = [("php", (4,)), ("rphp", (2,)), ("clqcl", (7, 6, 5)),
         ("count", (5, 3)), ("tseitin", (3,))]


@pytest.mark.parametrize("family,params", CASES)
def test_generators_are_symmetries(family, params):
    inst = bench.generate(family, params)
    gens = inst.generators
    assert gens
    index = breaker.occurrences(inst.constraints)
    whole = collections.Counter(inst.constraints)
    for g in gens:
        assert breaker.verify_symmetry(inst.constraints, g, index)
        assert g
        # the substituted formula, built independently of verify_symmetry
        lits = pb.witness_lits(g)
        assert collections.Counter(
            pb.substitute(c, lits) for c in inst.constraints) == whole


@pytest.mark.parametrize("family,params", CASES + [
    ("count", (3, 3)), ("count", (4, 4)), ("php", (2,)), ("clqcl", (6, 6, 5)),
    ("tseitin", (2,))])
def test_no_generator_moves_nothing(family, params):
    # Count(n, n) has one n-subset, which every element swap maps to
    # itself: it lists no generator rather than n - 1 identities
    gens = bench.generate(family, params).generators
    assert all(gens)
    if family == "count" and params[0] == params[1]:
        assert gens == []


def test_php_generator_counts():
    inst = bench.generate("php", (4,))
    # pigeon swaps (n-1) plus hole swaps (n-2)
    assert len(inst.generators) == 3 + 2


def test_tseitin_generators_are_negation_flips():
    inst = bench.generate("tseitin", (2,))
    gens = inst.generators
    assert len(gens) == 1
    assert all(lit.startswith("~") for lit in gens[0].values())


# ---------------------------------------------------------------- oracles

def test_satisfiability_statuses():
    sat = lambda inst: oracle.satisfiable(inst.constraints) is not None
    assert not sat(bench.generate("php", (3,)))
    assert not sat(bench.generate("rphp", (2,)))
    assert not sat(bench.generate("count", (4, 3)))
    assert sat(bench.generate("tseitin", (2,)))


def test_count_sat_when_divisible():
    assert oracle.satisfiable(
        bench.generate("count", (3, 3)).constraints) is not None


def test_equisat_accepts_sound_breaking():
    inst = bench.generate("php", (3,))
    sym = inst.generators[0]
    b = breaker.break_symmetries(inst.constraints, inst.variables, [sym])
    assert oracle.equisat(inst.constraints, b.kept)


def test_equisat_flags_unsound_clause():
    # demand x1 on a formula whose only models set x1 = 0
    cons, _ = parsing.parse_opb("+1 ~x1 >= 1 ;\n+1 x1 +1 x2 >= 1 ;\n")
    bad = [parsing.parse_opb("+1 x1 >= 1 ;\n")[0][0]]
    assert not oracle.equisat(cons, bad)


def test_equisat_size_guard():
    inst = bench.generate("php", (6,))
    with pytest.raises(AssertionError):
        oracle.equisat(inst.constraints, [])


def test_oracle_lex_basics():
    assert oracle.lex_leq([0, 1, 1], [1, 0, 0])
    assert not oracle.lex_leq([1, 0, 0], [0, 1, 1])
    assert oracle.lex_leq([1, 0], [1, 0])
    with pytest.raises(AssertionError):
        oracle.lex_leq([0], [0, 1])


def test_oracle_lex_total_order():
    import itertools
    points = list(itertools.product((0, 1), repeat=3))
    for a in points:
        for b in points:
            assert oracle.lex_leq(list(a), list(b)) or \
                oracle.lex_leq(list(b), list(a))
            if oracle.lex_leq(list(a), list(b)) and \
                    oracle.lex_leq(list(b), list(a)):
                assert a == b
