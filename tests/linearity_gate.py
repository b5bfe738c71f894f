"""Gate: checking a `new` proof stays linear in the proof's size.

    PYTHONPATH=src python tests/linearity_gate.py

Breaks PHP(14) and PHP(32) with their pigeon n-cycle (k = 182 and 992
moved variables) by the `new` method, and checks each proof in process,
the two in turn, best of 3.  The check's seconds per proof byte at
PHP(32) must be at most 1.5 times those at PHP(14), else the script exits
1: a scope or the root engine gone quadratic fails it, and the ratio
cancels the host's speed.

It also prints, without gating it, the same ratio for PHP(12) against
PHP(24) broken with all transpositions.  There the core-goal pass of each
`dom` step costs O(n^3) against O(n^2) proof bytes, so the ratio may exceed
the bound.

The file is not collected by pytest, so that tier-1 stays near a minute;
CI runs it as a step of its own.
"""

import sys
import time

from pbsym import bench, breaker, parsing
from pbsym.checker import VERIFIED, check_document

BOUND = 1.5
REPEATS = 3


def pigeon_cycle(inst, n):
    """PHP(n)'s pigeon n-cycle: every pigeon moves to the next one."""
    names = inst.names
    return [{names["p%d_h%d" % (i, j)]: names["p%d_h%d" % (i % n + 1, j)]
             for i in range(1, n + 1) for j in range(1, n)}]


def transpositions(inst, n):
    return inst.generators


def proof(generators, n):
    """PHP(n)'s formula and its `new` proof text under `generators`."""
    inst = bench.generate("php", (n,))
    return inst.constraints, breaker.break_symmetries(
        inst.constraints, inst.variables, generators(inst, n),
        method="new").text()


def check_seconds(formula, text):
    doc = parsing.parse_proof(text)
    t = time.perf_counter()
    verdict, _counters = check_document(formula, doc)
    t = time.perf_counter() - t
    if verdict != VERIFIED:
        raise SystemExit("not verified: %s" % verdict)
    return t


def ratio(generators, small, large):
    """Check seconds per proof byte of PHP(`large`) over those of
    PHP(`small`), each the best of REPEATS checks.  The two sizes are
    checked in turn, so that both see the host in the same state."""
    sizes = (small, large)
    proofs = [proof(generators, n) for n in sizes]
    best = [None, None]
    for _ in range(REPEATS):
        for i, (formula, text) in enumerate(proofs):
            t = check_seconds(formula, text)
            best[i] = t if best[i] is None else min(best[i], t)
    per_byte = []
    for n, (_formula, text), t in zip(sizes, proofs, best):
        size = len(text.encode())
        per_byte.append(t / size)
        print("PHP(%d) %s: %d bytes, check %.3f s, %.3f us/byte"
              % (n, generators.__name__, size, t, t / size * 1e6))
    r = per_byte[1] / per_byte[0]
    print("%s: PHP(%d) / PHP(%d) per byte = %.2f"
          % (generators.__name__, large, small, r))
    return r


def main():
    gated = ratio(pigeon_cycle, 14, 32)
    ratio(transpositions, 12, 24)
    if gated > BOUND:
        print("FAIL: pigeon_cycle ratio %.2f exceeds %.1f" % (gated, BOUND))
        return 1
    print("ok: pigeon_cycle ratio %.2f is at most %.1f" % (gated, BOUND))
    return 0


if __name__ == "__main__":
    sys.exit(main())
