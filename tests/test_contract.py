"""Contracted dom scopes against the full order instance.

A dom scope of lex<n> whose witness fixes bound positions feeds the
propagator lex<m> over the m positions it moves
(:func:`pbsym.orders.contract`): under u_i = v_i at a fixed position i,
each $a and $d chain of lex<n> collapses to one name.  With
:func:`pbsym.orders.lex_size` recognizing no lex<n>, every scope builds the
full instance.  Every check here must end
the same on both paths: verdict, reason, line, `rup_calls` and
`implicit_reflexivity_skips`.  Only the spec-row counters differ.
"""

import itertools
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings

from pbsym import bench, breaker, orders, parsing
from pbsym.checker import CheckError, VERIFIED, check_document

from test_breaker import FAMILY_SIZES, _cycle_set
from test_checker import _DIFF_CASES
from test_fuzz import mutated_proofs

DATA = pathlib.Path(__file__).parent / "data"


def _full_path():
    return mock.patch.object(orders, "lex_size", lambda order: None)


def _outcome(formula, text):
    """(how the check ends, spec counters): the verdict, rup_calls and
    implicit_reflexivity_skips, or the rejection's reason and line."""
    try:
        verdict, counters = check_document(formula, parsing.parse_proof(text))
    except CheckError as e:
        return ("rejected", e.reason, e.line), None
    except parsing.ParseError as e:
        return ("malformed", e.line), None
    spec = (counters.pop("spec_materializations"),
            counters.pop("spec_rows_aliased"))
    return (verdict, counters), spec


def _both_paths(formula, text):
    """The outcome of the contracted check and that of the full one."""
    fast = _outcome(formula, text)
    with _full_path():
        full = _outcome(formula, text)
    assert fast[0] == full[0]
    return fast, full


def _broken(inst, syms, method):
    return breaker.break_symmetries(inst.constraints, inst.variables, syms,
                                    method=method).text()


@pytest.mark.parametrize("make,args", _DIFF_CASES)
def test_diff_cases_end_as_the_full_instance(make, args):
    _both_paths(*make(*args))


def _count_cycle_set(inst, n, k):
    """Count(n, k)'s element swap (1 2) and element n-cycle, as witnesses
    that map each k-subset to its image."""
    def witness(pi):
        name = lambda S: inst.names["s" + "_".join(map(str, S))]
        images = ((S, tuple(sorted(map(pi, S))))
                  for S in itertools.combinations(range(1, n + 1), k))
        return {name(S): name(T) for S, T in images if S != T}
    return [witness(lambda e: {1: 2, 2: 1}.get(e, e)),
            witness(lambda e: e % n + 1)]


@pytest.mark.parametrize("method", ["new", "old"])
@pytest.mark.parametrize("family", ["php", "count"])
def test_cycle_sets_end_as_the_full_instance(family, method):
    # generators that fix some bound positions and move long stretches
    if family == "php":
        inst = bench.generate("php", (6,))
        syms = _cycle_set(inst, 6)
    else:
        inst = bench.generate("count", (5, 3))
        syms = _count_cycle_set(inst, 5, 3)
    fast, full = _both_paths(inst.constraints, _broken(inst, syms, method))
    assert fast[0][0] == VERIFIED
    assert (fast[1][1] > 0) == (method == "new")


@pytest.mark.parametrize("method", ["new", "old"])
@pytest.mark.parametrize("gens", ["first", "all"])
@pytest.mark.parametrize("family,params", FAMILY_SIZES)
def test_breaker_proofs_end_as_the_full_instance(family, params, gens,
                                                 method):
    # a scope builds the rows of the positions it moves and counts the
    # others aliased: together, the rows the full instance builds
    inst = bench.generate(family, params)
    syms = inst.generators[:1] if gens == "first" else inst.generators
    fast, full = _both_paths(inst.constraints, _broken(inst, syms, method))
    assert fast[0][0] == VERIFIED
    assert sum(fast[1]) == full[1][0] and full[1][1] == 0


@pytest.mark.parametrize("n,built,aliased", [(5, 484, 608), (8, 1540, 4232)])
def test_php_rows_built_and_aliased(n, built, aliased):
    # `new` on PHP(n), all generators: the full instances build 1092 and
    # 5772 spec rows
    inst = bench.generate("php", (n,))
    fast, full = _both_paths(inst.constraints,
                             _broken(inst, inst.generators, "new"))
    assert fast[1] == (built, aliased)
    assert full[1] == (built + aliased, 0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated_proofs())
def test_mutated_proofs_end_as_the_full_instance(case):
    _both_paths(*case)


def _lexfix(name):
    formula, _ = parsing.parse_opb((DATA / "lexfix.opb").read_text())
    return formula, (DATA / ("lexfix_%s.pbp" % name)).read_text()


# lex4 binds x1 x2 x3 x4 and the dom swaps x1 and x3, so it fixes
# positions 2 and 4: its rows are lex<2> over positions 1 and 3, with aux
# $a1 $a3 and $d1 $d4
@pytest.mark.parametrize("name,ends,aliased", [
    # the lemma names $a2, which lex<2> does not: the full instance
    ("lemma", (VERIFIED,), 0),
    # hinted rups do not use the propagator, and the cited spec row of
    # fixed position 2 is built under its own names
    ("hint", (VERIFIED,), 12),
    # a pol's result is not known before it runs: the full instance
    ("pol", (VERIFIED,), 0),
    # a live top-level row over $a2: the full instance
    ("toppol", (VERIFIED,), 0),
    # $a3 -> $a2 -> $a1, so ~$a3 v ~$a1 does not follow; a row pair that
    # set $a3 to ~$a1 would prove it
    ("bogus", ("rejected", "rup-failed", 68), None),
])
def test_dom_falls_back_where_the_alias_map_does_not_hold(name, ends,
                                                          aliased):
    fast, full = _both_paths(*_lexfix(name))
    assert fast[0][:len(ends)] == ends
    if aliased is not None:
        assert fast[1][1] == aliased


def test_renamed_aux_end_as_the_canonical_order():
    # lexfix_lemma with lex4's aux renamed states no lex<n>: its dom step
    # checks the full instance and ends as the canonical file does
    renamed = _outcome(*_lexfix("renamed"))
    assert renamed == _outcome(*_lexfix("lemma"))
    assert renamed[0][0] == VERIFIED and renamed[1] == (28, 0)


_LEMMA = "rup +1 ~$a2 +1 $a1 >= 1;"


@pytest.mark.parametrize("old,new,ends,contracts", [
    # $d4 is the last $d of lex<2>: the scope contracts
    (_LEMMA, "rup +1 ~$d4 +1 $d1 >= 1;", (VERIFIED,), True),
    (_LEMMA, "rup +1 $d4 >= 1;", ("rejected", "rup-failed", 68), True),
    # $d3 is position 3's $d, which lex<2> names $d4: the full instance
    (_LEMMA, "rup +1 ~$d3 +1 $d1 >= 1;", (VERIFIED,), False),
    (_LEMMA, "rup +1 $d3 >= 1;", ("rejected", "rup-failed", 68), False),
    # a moved position mapped to a constant: the full instance
    ("x1 -> x3 x3 -> x1", "x1 -> 0",
     ("rejected", "undischarged-goal", 65), False),
])
def test_lexfix_variants_end_as_the_full_instance(old, new, ends, contracts):
    formula, text = _lexfix("lemma")
    assert text.count(old) == 1
    text = text.replace(old, new)
    with mock.patch.object(orders, "contract", wraps=orders.contract) as spy:
        fast, full = _both_paths(formula, text)
    assert fast[0][:len(ends)] == ends
    assert spy.called == contracts
