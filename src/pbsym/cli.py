"""Command line entry points.

    pbsym check   <formula> <proof> [--trace] [--json]
    pbsym break   <formula> <symmetries> -o PREFIX [--method new|old]
                  [--selfcheck] [--json]
    pbsym gen     <family> <params...> -o PREFIX
    pbsym compare <family> <start..stop> [--step K] [-o CSV]

Exit codes: 0 success, 1 semantic rejection (bad proof, bad symmetry, or
a formula over a reserved `$` name), 2 I/O or parse failure (input that is
not UTF-8 included) or a bad argument.  Files are read and written as
UTF-8.  A number argument is ASCII ``[+-]?[0-9]+``, as in the formats.
"""

import argparse
import csv
import io
import itertools
import json
import sys
import time

from . import bench
from . import breaker
from . import checker
from . import constraints as pb
from . import parsing

REPORT_SCHEMA = 1


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _IOFailure(str(e))
    except UnicodeDecodeError as e:
        raise _IOFailure("%s is not UTF-8 text: %s at byte %d"
                         % (path, e.reason, e.start))


class _IOFailure(Exception):
    pass


def _number(text):
    """argparse type of a number argument: ASCII ``[+-]?[0-9]+``
    (``constraints.parse_int``), where ``int()`` also reads ``1_0`` and
    non-ASCII digits."""
    num = pb.parse_int(text)
    if num is None:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    return num


def _load_formula(path):
    """The formula's constraints and variables: an OPB file's variables in
    order of first use, None for DIMACS, whose variables only `pbsym
    break` reads (:func:`_cnf_variables`)."""
    text = _read(path)
    if path.lower().endswith(".cnf"):
        return parsing.parse_cnf(text), None
    return parsing.parse_opb(text)


def _cnf_variables(cons):
    """x1 .. x<the largest index the DIMACS clauses `cons` use>."""
    return ["x%d" % i for i in range(1, 1 + max(
        (int(v[1:]) for c in cons for v in c.variables()), default=0))]


def _report(args, payload):
    payload["schema"] = REPORT_SCHEMA
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, val in payload.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    print("%s.%s: %s" % (key, k2, v2))
            else:
                print("%s: %s" % (key, val))


# ------------------------------------------------------------------- check

# steps parsed ahead of the check.  Parsing and checking one step at a time
# made a check of PHP(5) with all generators 5-8% slower than parsing the
# whole proof first; in batches of 32 steps or more it is as fast
# (BENCH_20.json).
_READ_AHEAD = 64


def _read_ahead(steps, clock):
    """Yield from `steps`, parsed _READ_AHEAD at a time, adding the time
    spent parsing them to clock[0]."""
    while True:
        t = time.perf_counter()
        batch = list(itertools.islice(steps, _READ_AHEAD))
        clock[0] += time.perf_counter() - t
        if not batch:
            return
        yield from batch


def _check_text(formula, text, trace=None):
    """Check the proof `text` against `formula` as a stream: steps are
    parsed, checked and dropped in turn, so the check holds the database
    and at most _READ_AHEAD steps, not the proof.

    Returns (verdict, counters, error, parse_s, check_s).  `error` is the
    CheckError that rejected the proof, or None.  A ParseError propagates,
    also one below a rejected step: the rest of the text is read then, so
    malformed input is reported as such wherever it is.  `parse_s` is the
    time spent reading and parsing steps, `check_s` the rest."""
    parse_s = [0.0]
    steps = _read_ahead(parsing.iter_proof(text), parse_s)
    t0 = time.perf_counter()
    verdict = counters = error = None
    try:
        verdict, counters = checker.check_document(
            formula, {"header": parsing.HEADER, "steps": steps}, trace=trace)
    except checker.CheckError as e:
        error = e
        for _ in steps:
            pass
    total = time.perf_counter() - t0
    return verdict, counters, error, parse_s[0], total - parse_s[0]


def cmd_check(args):
    t0 = time.perf_counter()
    formula, _ = _load_formula(args.formula)
    proof_text = _read(args.proof)
    read_s = time.perf_counter() - t0
    trace = [] if args.trace else None
    verdict, counters, error, parse_s, check_s = _check_text(
        formula, proof_text, trace)
    # the notes of the goals discharged before a rejection print too
    for line in trace or ():
        print("trace: %s" % line, file=sys.stderr)
    timings = {"parse_s": round(read_s + parse_s, 6),
               "check_s": round(check_s, 6)}
    if error is not None:
        _report(args, {"verdict": "REJECTED", "error": str(error),
                       "timings": timings})
        return 1
    counters["proof_bytes"] = len(proof_text.encode())
    _report(args, {"verdict": verdict, "counters": counters,
                   "timings": timings})
    return 0


# ------------------------------------------------------------------- break

def _write_streamed(path, chunks):
    """Write an iterable of text chunks as UTF-8 with a buffered writer."""
    with open(path, "w", encoding="utf-8", buffering=1 << 16) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()


def cmd_break(args):
    if args.cp_variant:
        print("warning: --cp-variant is ignored", file=sys.stderr)
    t0 = time.perf_counter()
    formula, variables = _load_formula(args.formula)
    if variables is None:
        variables = _cnf_variables(formula)
    syms = parsing.parse_symmetries(_read(args.symmetries))
    try:
        builder = breaker.break_symmetries(formula, variables, syms,
                                           method=args.method)
    except breaker.BreakError as e:
        _report(args, {"verdict": e.verdict, "error": str(e)})
        return 1
    t1 = time.perf_counter()

    proof_path = args.output + ".pbp"
    _write_streamed(proof_path, (line + "\n" for line in builder.lines))
    # chain variables (s<i>) are not x-indexed, so the augmented formula is
    # written as OPB regardless of the input format
    augmented = list(formula) + list(builder.kept)
    out_path = args.output + ".opb"
    _write_streamed(out_path, ("%s ;\n" % pb.render(c) for c in augmented))
    t2 = time.perf_counter()

    payload = {"verdict": "BROKEN",
               "clauses": len(builder.kept),
               "proof": proof_path, "formula": out_path,
               "binding": " ".join(builder.binding),
               "timings": {"emit_s": round(t1 - t0, 6),
                           "write_s": round(t2 - t1, 6)}}
    if args.selfcheck:
        text = builder.text()
        verdict, counters, error, _, _ = _check_text(formula, text)
        if error is not None:
            payload["verdict"] = "SELFCHECK-FAILED"
            payload["error"] = str(error)
            _report(args, payload)
            return 1
        counters["proof_bytes"] = len(text.encode())
        payload["selfcheck"] = verdict
        payload["counters"] = counters
        payload["timings"]["check_s"] = round(time.perf_counter() - t2, 6)
    _report(args, payload)
    return 0


# --------------------------------------------------------------------- gen

def cmd_gen(args):
    inst = bench.generate(args.family, tuple(args.params))
    gens = inst.generators
    _write_streamed(args.output + ".cnf",
                    [parsing.render_cnf(inst.constraints, inst.nvars())])
    sidecar = {"family": inst.family,
               "params": list(inst.params),
               "variables": inst.names,
               "symmetries": [parsing.render_witness(g) for g in gens]}
    _write_streamed(args.output + ".json",
                    [json.dumps(sidecar, indent=2, sort_keys=True) + "\n"])
    _report(args, {"verdict": "GENERATED",
                   "variables": inst.nvars(),
                   "constraints": len(inst.constraints),
                   "generators": len(gens)})
    return 0


# ----------------------------------------------------------------- compare

def _compare_cell(inst, method):
    """Break and check `inst` with its first generator, if it has one."""
    t0 = time.perf_counter()
    builder = breaker.break_symmetries(inst.constraints, inst.variables,
                                       inst.generators[:1], method=method)
    text = builder.text()
    t1 = time.perf_counter()
    _, _, error, parse_s, check_s = _check_text(inst.constraints, text)
    if error is not None:
        raise error
    return {"proof_bytes": len(text.encode()),
            "emit_s": round(t1 - t0, 6),
            "check_s": round(parse_s + check_s, 6)}


def cmd_compare(args):
    ends = [pb.parse_int(x) for x in args.range.split("..")]
    if len(ends) != 2 or None in ends:
        raise _IOFailure("size range must look like 5..30")
    start, stop = ends
    if start > stop:
        raise _IOFailure("size range %s is empty" % args.range)
    if args.step < 1:
        raise _IOFailure("--step must be at least 1, got %d" % args.step)
    sizes = list(range(start, stop + 1, args.step))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "method", "proof_bytes", "emit_s", "check_s"])
    for n in sizes:
        inst = bench.generate(args.family, (n,))
        for method in ("new", "old"):
            cell = _compare_cell(inst, method)
            writer.writerow([n, method, cell["proof_bytes"],
                             cell["emit_s"], cell["check_s"]])
    text = out.getvalue()
    if args.output:
        _write_streamed(args.output, [text])
    else:
        sys.stdout.write(text)
    return 0


# -------------------------------------------------------------------- main

def build_parser():
    p = argparse.ArgumentParser(prog="pbsym",
                                description="certified symmetry breaking "
                                            "for pseudo-Boolean formulas")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify a proof against a formula")
    c.add_argument("formula")
    c.add_argument("proof")
    c.add_argument("--trace", action="store_true",
                   help="dump goal discharge decisions to stderr")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_check)

    b = sub.add_parser("break", help="emit breaking clauses plus proof")
    b.add_argument("formula")
    b.add_argument("symmetries")
    b.add_argument("-o", "--output", required=True,
                   help="output prefix for .pbp and .opb files")
    b.add_argument("--method", choices=("new", "old"), default="new")
    # accepted and ignored while the benchmark harness still passes it
    b.add_argument("--cp-variant", action="store_true", help=argparse.SUPPRESS)
    b.add_argument("--selfcheck", action="store_true")
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_break)

    g = sub.add_parser("gen", help="generate a crafted benchmark instance")
    g.add_argument("family", choices=sorted(bench.FAMILIES))
    g.add_argument("params", nargs="+", type=_number)
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_gen)

    m = sub.add_parser("compare", help="method comparison CSV over a size range")
    m.add_argument("family", choices=sorted(bench.FAMILIES))
    m.add_argument("range", help="inclusive size range, e.g. 5..30")
    m.add_argument("--step", type=_number, default=5)
    m.add_argument("-o", "--output")
    m.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    # a report escapes what the locale cannot encode, as stderr already does
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_IOFailure, OSError, parsing.ParseError, bench.BenchError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
