"""Workloads, seeded instance relabelling and the gen -> break -> check jobs.

Every program call goes through ``pbsym.cli.main``, the entry point users
run, in this process.  The program only ever sees the files written here.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback


class Job:
    """One break (and check) of one relabelled instance."""

    def __init__(self, label, method, cp_variant, generators, check,
                 family=None):
        self.label = label
        self.method = method
        self.cp_variant = cp_variant
        self.generators = generators      # "first" or "all"
        self.check = check
        self.family = family              # run on this family only

    def runs_on(self, family):
        return self.family in (None, family)

    def break_args(self):
        args = ["--method", self.method]
        if self.cp_variant:
            args.append("--cp-variant")
        return args


class Workload:

    def __init__(self, name, why, instances, jobs, parses=1):
        self.name = name
        self.why = why
        self.instances = instances        # [(family, params)]
        self.jobs = jobs
        self.parses = parses              # timed parses of each proof

    @property
    def checked(self):
        return any(j.check for j in self.jobs)


WORKLOADS = {w.name: w for w in [
    # Sizes are set so that one sample (a check, a break or a parse) takes
    # at most about a second: each run then has many samples to take the
    # fastest from (see FASTEST in run.py).
    Workload("lex-order",
             "PHP(8), first generator, new and new --cp-variant: one "
             "56-variable def_order dominates the check (order validation)",
             [("php", (8,))],
             [Job("new", "new", False, "first", True),
              Job("new-cp", "new", True, "first", True)]),
    Workload("gens-new",
             "PHP(5), all 7 generators, new: dominance subproofs with "
             "hint-free RUP over lazy spec rows carry the check",
             [("php", (5,))],
             [Job("new", "new", False, "all", True)]),
    Workload("gens-old",
             "PHP(5), all 7 generators, old: top-level RUP carries the check "
             "and dominance is light, so an orders/dom change must not move it",
             [("php", (5,))],
             [Job("old", "old", False, "all", True)]),
    Workload("emit",
             "PHP(13), all 23 generators, new and old, parsed but not checked: "
             "the only load where breaker and parser carry the time",
             [("php", (13,))],
             [Job("new", "new", False, "all", False),
              Job("old", "old", False, "all", False)],
             # a break here takes seconds, so parse twice to give load_s
             # more samples in a run
             parses=2),
    # `old` runs on PHP only: its clause carving rejects Tseitin's negation
    # generators ("aggregate clause 1 came out as +1 ~x1 >= 1").
    Workload("smoke",
             "PHP(3) and Tseitin(2), every method: touches every code path "
             "in seconds",
             [("php", (3,)), ("tseitin", (2,))],
             [Job("new", "new", False, "all", True),
              Job("new-cp", "new", True, "first", True),
              Job("old", "old", False, "all", True, family="php")]),
]}

class Counts:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def merge(self, attempted, failed, errors):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[:20 - len(self.errors)])


def call_cli(cli, argv):
    """Run ``pbsym <argv>`` in process; returns (exit code, JSON report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:          # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception:                # a traceback is a failed operation
            code = None
            traceback.print_exc()
    text = out.getvalue()
    try:
        report = json.loads(text) if text.strip() else {}
    except ValueError:
        report = {"unparsed": text[-500:]}
    if err.getvalue():
        report.setdefault("stderr", err.getvalue()[-500:])
    return code, report


# ------------------------------------------------------------- relabelling

def relabel(cnf_text, symmetries, seed):
    """Isomorphic copy of a DIMACS instance: shuffle the clause order and
    the x<i> numbering, and map the generators to match."""
    rng = random.Random(seed)
    header, clauses = None, []
    for line in cnf_text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            header = line.split()
            continue
        clauses.append([int(t) for t in line.split()[:-1]])
    nvars = int(header[2])
    image = list(range(1, nvars + 1))
    rng.shuffle(image)
    perm = dict(zip(range(1, nvars + 1), image))
    mapped = [[perm[abs(l)] if l > 0 else -perm[abs(l)] for l in c]
              for c in clauses]
    rng.shuffle(mapped)
    out = ["p cnf %d %d" % (nvars, len(mapped))]
    out.extend(" ".join(str(l) for l in c) + " 0" for c in mapped)

    def lit(tok):
        neg = tok.startswith("~")
        var = "x%d" % perm[int(tok.lstrip("~")[1:])]
        return "~" + var if neg else var

    syms = [" ".join(t if t == "->" else lit(t) for t in s.split())
            for s in symmetries]
    return "\n".join(out) + "\n", syms


def support_size(sym_text):
    """Moved variables of a `v -> img ...` generator."""
    toks = sym_text.split()
    return sum(1 for i in range(0, len(toks), 3)
               if toks[i] != toks[i + 2])


def setup_instances(cli, workload, seed, workdir, counts):
    """``pbsym gen`` each instance, relabel it by the seed and write the
    formula and symmetry files.  Returns one dict of paths per instance."""
    inputs = []
    for family, params in workload.instances:
        tag = "%s%s" % (family, "_".join(str(p) for p in params))
        prefix = os.path.join(workdir, tag + "_gen")
        code, rep = call_cli(cli, ["gen", family] + [str(p) for p in params]
                             + ["-o", prefix, "--json"])
        if not counts.op(code == 0 and rep.get("verdict") == "GENERATED",
                         "gen %s: %s" % (tag, rep)):
            continue
        with open(prefix + ".cnf") as fh:
            cnf = fh.read()
        with open(prefix + ".json") as fh:
            syms = json.load(fh)["symmetries"]
        cnf, syms = relabel(cnf, syms, "%s/%s" % (seed, tag))
        paths = {"family": family, "tag": tag,
                 "cnf": os.path.join(workdir, tag + ".cnf")}
        with open(paths["cnf"], "w") as fh:
            fh.write(cnf)
        for which, chosen in (("first", syms[:1]), ("all", syms)):
            paths[which] = os.path.join(workdir, "%s_%s.sym" % (tag, which))
            paths[which + "_clauses"] = sum(3 * support_size(s) - 2
                                            for s in chosen)
            with open(paths[which], "w") as fh:
                fh.write("\n".join(chosen) + "\n")
        inputs.append(paths)
    return inputs


# -------------------------------------------------------------------- jobs

class JobSet:
    """Timings and records of one pass over a workload's jobs.

    ``times[metric][job]`` lists that job's samples in this pass for
    ``break_s``, ``load_s`` and ``verify_s``, in wall seconds.  With a
    `reference` (see reference.py) every sample is bracketed by reference
    calls and ``ratios[metric][job]`` lists it in reference calls."""

    def __init__(self, reference=None):
        self.reference = reference
        self.times = {"break_s": {}, "load_s": {}, "verify_s": {}}
        self.ratios = {"break_s": {}, "load_s": {}, "verify_s": {}}
        self.proof_bytes = 0
        self.proof_steps = 0
        self.wall_s = 0.0
        self.records = []

    def timed(self, metric, job, fn):
        """Run `fn()` as a sample of `metric` for `job`; returns its result."""
        if self.reference is None:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        else:
            result, seconds, ratio = self.reference.bracket((metric, job), fn)
            self.ratios[metric].setdefault(job, []).append(ratio)
        self.times[metric].setdefault(job, []).append(seconds)
        return result

    def total(self, metric):
        return sum(sum(ts) for ts in self.times[metric].values())


def run_job_set(cli, parsing, workload, inputs, workdir, counts,
                tracer=None, cheap_phase_s=0.0, check=True, reference=None):
    """One pass: the break and parse phase over all jobs, repeated until it
    has taken `cheap_phase_s` (at least once), then, if `check`, the check
    phase.  On the checked workloads a break and a parse take tens of
    milliseconds against seconds of checking, so repeating them gives their
    timings many more samples."""
    js = JobSet(reference)
    jobs = [(paths, job) for paths in inputs for job in workload.jobs
            if job.runs_on(paths["family"])]
    start = time.perf_counter()
    while True:
        js.proof_bytes = js.proof_steps = 0
        js.records = []
        for paths, job in jobs:
            emit_job(cli, parsing, job, paths, workdir, counts, js,
                     workload.parses)
        if time.perf_counter() - start >= cheap_phase_s:
            break
    if not workload.checked:
        js.times["verify_s"] = js.times["load_s"]
        js.ratios["verify_s"] = js.ratios["load_s"]
    for (paths, job), record in zip(jobs, js.records):
        if check and job.check and record is not None:
            check_job(cli, job, paths, workdir, counts, js, record, tracer)
    return js


def _job_path(workdir, paths, job):
    return os.path.join(workdir, "%s_%s" % (paths["tag"], job.label))


def emit_job(cli, parsing, job, paths, workdir, counts, js, parses=1):
    """``pbsym break`` and `parses` timed parses of its proof; appends the
    job's record (None on failure)."""
    name = "%s/%s" % (paths["tag"], job.label)
    out = _job_path(workdir, paths, job)
    want = paths[job.generators + "_clauses"]
    argv = (["break", paths["cnf"], paths[job.generators], "-o", out]
            + job.break_args() + ["--json"])
    code, rep = js.timed("break_s", name, lambda: call_cli(cli, argv))
    js.records.append(None)
    if not counts.op(code == 0 and rep.get("verdict") == "BROKEN"
                     and rep.get("clauses") == want,
                     "break %s: want %d clauses, got %s" % (name, want, rep)):
        return
    with open(out + ".pbp", "rb") as fh:
        proof = fh.read()
    js.proof_bytes += len(proof)
    record = {"job": name, "sha256": hashlib.sha256(proof).hexdigest(),
              "clauses": rep["clauses"]}

    def load():
        try:
            with open(paths["cnf"]) as fh:
                parsing.parse_cnf(fh.read())
            with open(out + ".pbp") as fh:
                return len(parsing.parse_proof(fh.read())["steps"])
        except Exception as e:           # a parse error or a traceback
            record["parse_error"] = str(e)
            return 0

    steps = min(js.timed("load_s", name, load) for _ in range(parses))
    js.proof_steps += steps
    if counts.op(steps > 0, "parse %s: %s" % (name, record)):
        js.records[-1] = record


def check_job(cli, job, paths, workdir, counts, js, record, tracer=None):
    """``pbsym check`` of the job's proof against its formula."""
    out = _job_path(workdir, paths, job)
    if tracer is not None:
        propagations = tracer.calls["constraints.propagate"]
    argv = ["check", paths["cnf"], out + ".pbp", "--json"]
    code, rep = js.timed("verify_s", record["job"],
                         lambda: call_cli(cli, argv))
    if tracer is not None:
        record["propagate_calls"] = (
            tracer.calls["constraints.propagate"] - propagations)
    counters = rep.get("counters", {})
    record["rup_calls"] = counters.get("rup_calls")
    record["spec_materializations"] = counters.get("spec_materializations")
    counts.op(code == 0 and rep.get("verdict") == "VERIFIED-DERIVATION",
              "check %s: %s" % (record["job"], rep))


# --------------------------------------------------------------- sentinel

SENTINEL_REASON = "reason:qed-not-contradiction"


def sentinel_text(proof):
    """The proof with the line just before the first ``qed #1 : -1;`` after
    the first ``dom`` line removed, or None if there is no such line."""
    lines = proof.split("\n")
    dom = next((i for i, l in enumerate(lines) if l.startswith("dom ")), None)
    if dom is None:
        return None
    for i in range(dom + 1, len(lines)):
        if lines[i].strip() == "qed #1 : -1;":
            return "\n".join(lines[:i - 1] + lines[i:])
    return None


def run_sentinels(cli, workload, inputs, workdir, counts):
    """Each checked job's proof, broken as above, must be rejected with
    ``qed-not-contradiction``."""
    for paths in inputs:
        for job in workload.jobs:
            if not (job.check and job.runs_on(paths["family"])):
                continue
            name = "%s/%s" % (paths["tag"], job.label)
            out = _job_path(workdir, paths, job)
            try:
                with open(out + ".pbp") as fh:
                    text = sentinel_text(fh.read())
            except OSError:
                text = None
            if not counts.op(text is not None,
                             "sentinel %s: no dom/qed #1 line" % name):
                continue
            bad = out + "_sentinel.pbp"
            with open(bad, "w") as fh:
                fh.write(text)
            code, rep = call_cli(cli, ["check", paths["cnf"], bad, "--json"])
            counts.op(code == 1 and rep.get("verdict") == "REJECTED"
                      and SENTINEL_REASON in rep.get("error", ""),
                      "sentinel %s: %s" % (name, rep))
