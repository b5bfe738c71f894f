"""pbsym benchmark: gen -> break -> check through the CLI, end to end and
layer by layer.

    python3 perfbench/run.py --workload gens-new --seed 1 --seconds 25 --trace 0

Run from a source checkout: the program is imported from ``src/`` next to
this directory.  Each run

1. sets up in a fresh interpreter: imports pbsym, runs ``pbsym gen`` for
   the workload's instances, relabels them by ``--seed`` (clause order and
   x<i> numbering) and writes the formula and symmetry files;
2. warms up, untimed: breaks and parses every job once and checks the
   rejection sentinels;
3. in a closed loop, one job at a time, repeats the job set
   (``pbsym break``, a parse of the proof, ``pbsym check``) for ``--seconds``
   and reports, per metric, the sum over the jobs of each job's median
   sample in reference seconds (see REFERENCE below).  Between passes it
   sets up again, so that SETUP_REPS set-ups spread over the run;
   ``setup_s`` is their median, in reference seconds too.

With ``--trace 1`` half of the time is measured as above and half with every
public function of bench, cli, breaker, parsing, orders, checker and
constraints wrapped by :mod:`tracing`; the run prints the per-layer metrics
and the tracing overhead.  End-to-end metrics come only from untraced passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Detail (sample counts, medians,
the per-job determinism record, spans) is printed above it and written under
``.perfbench/`` in the checkout.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import reference                      # noqa: E402
import tracing                        # noqa: E402
import workloads                      # noqa: E402

# a set-up takes about 0.15 s, most of it interpreter start and import;
# single samples scatter by a third on a shared host, and taken back to back
# they all share the host's state of those few seconds
SETUP_REPS = 21
# break and parse are repeated within a pass until they have taken this long
CHEAP_PHASE_S = 0.3
SETUP_TIMEOUT_S = 30

def import_pbsym():
    """Import pbsym from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    pbsym = importlib.import_module("pbsym")
    for name in ("bench", "breaker", "checker", "cli", "constraints",
                 "orders", "parsing"):
        importlib.import_module("pbsym." + name)
    where = os.path.dirname(os.path.abspath(pbsym.__file__))
    if where != os.path.join(SRC, "pbsym"):
        raise ImportError("pbsym was imported from %s" % where)
    return pbsym


# REFERENCE: on a 2-vCPU VM whose host runs other tenants, the same work ran
# up to 2x slower for stretches of seconds to minutes, often longer than a
# run, and the fastest of a run's samples moved with them: ten runs of one
# build spread by 0.26 of their median (IQR).  So every untraced sample is
# bracketed by calls of a fixed reference workload and divided by the mean
# reference call around it (see reference.py).  A reported time is the sum
# over the workload's jobs of each job's median ratio, times
# reference.REFERENCE_CALL_S: seconds on a host that runs one reference call
# in that time.  The wall-clock fastest and median are printed beside it.


def measure(pbsym, workload, inputs, workdir, counts, seconds,
            tracer=None, cheap_phase_s=0.0, setups=None, ref=None):
    """Repeat the job set for `seconds` (at least once); returns the passes.
    Between passes, `setups` catches up with the share of `seconds` gone.
    With `ref`, samples are also taken in reference calls."""
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    if tracer is not None:
        tracer.install(pbsym)
    try:
        while not passes or time.perf_counter() < deadline:
            gc.collect()
            t0 = time.perf_counter()
            js = workloads.run_job_set(pbsym.cli, pbsym.parsing, workload,
                                       inputs, workdir, counts, tracer,
                                       cheap_phase_s, reference=ref)
            js.wall_s = time.perf_counter() - t0
            passes.append(js)
            if setups is not None:
                setups.catch_up((time.perf_counter() - start) / seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return passes


def job_samples(passes, metric, ratios=False):
    """job -> every sample of `metric` for that job over the passes, in wall
    seconds or, with `ratios`, in reference calls."""
    out = {}
    for p in passes:
        for job, ts in (p.ratios if ratios else p.times)[metric].items():
            out.setdefault(job, []).extend(ts)
    return out


def fastest(passes, metric):
    """The job set's wall time from each job's fastest sample."""
    return sum(min(ts) for ts in job_samples(passes, metric).values())


def determinism(passes):
    """Per-job proof hash, clause count and exact-repeat counters, with
    whether every pass produced the same proof bytes."""
    first = [rec for rec in passes[0].records if rec is not None]
    for rec in first:
        hashes = {r["sha256"] for p in passes for r in p.records
                  if r is not None and r["job"] == rec["job"]}
        rec["same_bytes_every_pass"] = len(hashes) == 1
    return first


def per_layer_metrics(setup_tracer, tracer, untraced, traced):
    r = len(traced)
    tot, calls, cnt = tracer.total, tracer.calls, tracer.counts
    per = lambda x: x / r
    m = {}
    m["bench.generate_s"] = setup_tracer.total["bench.generate"]
    m["cli.write_s"] = per(tot["cli._write_streamed"])
    m["breaker.verify_symmetry_s"] = per(tot["breaker.verify_symmetry"])
    m["breaker.verify_symmetry_calls"] = per(calls["breaker.verify_symmetry"])
    m["breaker.order_def_s"] = per(tot["breaker.begin"])
    m["breaker.fragment_s"] = per(tot["breaker.break_symmetry"])
    m["breaker.proof_lines"] = per(cnt["proof_lines"])
    m["breaker.clauses"] = per(cnt["clauses"])
    m["breaker.frag_chars_per_support"] = (
        cnt["frag_chars"] / cnt["frag_support"] if cnt["frag_support"] else 0)
    m["breaker.frag_chars_max_over_first"] = (
        cnt["frag_ratio_sum"] / cnt["frag_ratio_n"]
        if cnt["frag_ratio_n"] else 0)
    m["parsing.parse_formula_s"] = per(tot["parsing.parse_cnf"]
                                       + tot["parsing.parse_opb"])
    m["parsing.parse_proof_s"] = per(tot["parsing.parse_proof"])
    m["parsing.proof_steps"] = per(sum(p.proof_steps for p in traced))
    m["orders.validate_s"] = per(tot["orders.validate"])
    m["orders.verify_specification_s"] = per(
        tot["orders.verify_specification"])
    m["orders.transitivity_s"] = per(tot["orders.check_transitivity"])
    m["orders.reflexivity_s"] = per(tot["orders.check_reflexivity"])
    m["orders.spec_rows"] = per(cnt["spec_rows"])
    m["orders.spec_thunks"] = per(cnt["spec_thunks"])
    for kind in tracing.STEP_KINDS:
        m["checker.step_%s_s" % kind] = per(tot["checker.step_" + kind])
        m["checker.step_%s_count" % kind] = per(calls["checker.step_" + kind])
    for key in ("rup_calls", "spec_materializations",
                "implicit_reflexivity_skips"):
        m["checker." + key] = per(cnt[key])
    m["checker.spec_materialized_share"] = (
        cnt["spec_materializations"] / cnt["spec_thunks"]
        if cnt["spec_thunks"] else 0)
    seen, rup = tracer.red_goal_counts()
    m["checker.red_goals"] = per(seen)
    m["checker.red_goals_rup_share"] = rup / seen if seen else 0
    rc = calls["constraints.rup_check"]
    m["constraints.rup_check_s"] = per(tot["constraints.rup_check"])
    m["constraints.rup_check_calls"] = per(rc)
    m["constraints.rup_success_share"] = cnt["rup_success"] / rc if rc else 0
    m["constraints.propagate_s"] = per(tot["constraints.propagate"])
    m["constraints.propagate_calls"] = per(calls["constraints.propagate"])
    m["constraints.propagate_db_rows"] = per(cnt["propagate_db_rows"])
    m["constraints.substitute_s"] = per(tot["constraints.substitute"])
    m["constraints.substitute_calls"] = per(calls["constraints.substitute"])

    self_times = tracer.layer_self_times()
    top = sum(end - start for _n, start, end, parent in tracer.spans
              if parent == -1)
    for layer in ("cli", "breaker", "parsing", "orders", "checker",
                  "constraints"):
        m["self.%s_s" % layer] = per(self_times[layer])
    m["self.harness_s"] = per(sum(p.wall_s for p in traced) - top)

    # break_s and load_s do not include the checker's own parse
    inclusive = tracer.layer_inclusive_times(outside="cli.cmd_check")
    v_untraced = fastest(untraced, "verify_s")
    v_traced = fastest(traced, "verify_s")
    break_load = per(sum(p.total("break_s") + p.total("load_s")
                         for p in traced))
    m["trace.verify_untraced_s"] = v_untraced
    m["trace.verify_traced_s"] = v_traced
    m["trace.overhead_s"] = v_traced - v_untraced
    m["trace.passes"] = r
    verify = per(sum(p.total("verify_s") for p in traced))
    m["share.def_order_of_verify"] = m["checker.step_def_order_s"] / verify
    m["share.dom_of_verify"] = m["checker.step_dom_s"] / verify
    m["share.rup_of_verify"] = m["checker.step_rup_s"] / verify
    m["share.breaker_parsing_of_break_load"] = (
        per(inclusive["breaker"] + inclusive["parsing"]) / break_load)
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.startswith("share.") \
            or name.endswith("_over_first"):
        return "ratio"
    if name.endswith("_per_support"):
        return "B/var"
    return "count"


def setup_child(workload, seed, directory):
    """Body of one timed set-up process: import pbsym, generate, relabel
    and write the inputs, then list them in inputs.json."""
    pbsym = import_pbsym()
    counts = workloads.Counts()
    inputs = workloads.setup_instances(pbsym.cli, workload, seed, directory,
                                       counts)
    with open(os.path.join(directory, "inputs.json"), "w") as fh:
        json.dump(inputs, fh)
    print(json.dumps({"attempted": counts.attempted, "failed": counts.failed,
                      "errors": counts.errors}))
    return 0


class SetUps:
    """Timed set-ups, each in a fresh interpreter so that every sample pays
    interpreter start, import and generation.  A set-up that fails or hangs
    is a failed operation and gives no sample."""

    def __init__(self, args, workdir, counts, ref):
        self.args, self.workdir, self.counts = args, workdir, counts
        self.ref = ref
        self.times = []           # wall seconds
        self.ratios = []          # in reference calls
        self.attempted = 0
        self.hung = False

    def run_one(self):
        """One set-up; returns the inputs it wrote, or None if it failed."""
        d = os.path.join(self.workdir, "setup%d" % self.attempted)
        self.attempted += 1
        os.makedirs(d)
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", self.args.workload, "--seed",
                str(self.args.seed), "--setup-into", d]
        try:
            proc, elapsed, ratio = self.ref.bracket(
                "setup_s", lambda: subprocess.run(
                    argv, capture_output=True, text=True,
                    timeout=SETUP_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            # killed and reaped by subprocess.run; the next would hang too
            self.hung = True
            self.counts.op(False, "setup %s: no result within %d s"
                           % (d, SETUP_TIMEOUT_S))
            return None
        try:
            child = json.loads(proc.stdout.splitlines()[-1])
            with open(os.path.join(d, "inputs.json")) as fh:
                inputs = json.load(fh)
        except (IndexError, ValueError, OSError):
            self.counts.op(False, "setup %s: exit %d: %s"
                           % (d, proc.returncode, proc.stderr[-500:]))
            return None
        self.counts.merge(child["attempted"], child["failed"], child["errors"])
        if child["failed"]:
            return None
        self.times.append(elapsed)
        self.ratios.append(ratio)
        return inputs

    def catch_up(self, share):
        """Set up until `share` of SETUP_REPS have been attempted."""
        while not self.hung and self.attempted < min(share, 1) * SETUP_REPS:
            self.run_one()


def no_result(counts):
    """Report a run that could not set up: correct is false, no metrics."""
    for err in counts.errors:
        print("FAILED " + err)
    print(json.dumps({"correct": False, "attempted": max(counts.attempted, 1),
                      "failed": max(counts.failed, 1), "metrics": {}}))
    return 1


def main(argv=None):
    t_start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "pbsym", "cli.py")):
        print("error: no pbsym sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_into:
        return setup_child(workload, args.seed, args.setup_into)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "run-%d" % os.getpid())
    os.makedirs(workdir)
    counts = workloads.Counts()
    tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    try:
        if args.trace:
            # one set-up in this process, traced for bench.generate_s
            pbsym = import_pbsym()
            setup_tracer = tracing.Tracer(t_start)
            setup_tracer.install(pbsym)
            try:
                inputs = workloads.setup_instances(
                    pbsym.cli, workload, args.seed, workdir, counts)
            finally:
                setup_tracer.uninstall()
            if counts.failed:
                return no_result(counts)
        else:
            ref = reference.Reference()
            setups = SetUps(args, workdir, counts, ref)
            inputs = setups.run_one()
            if inputs is None:
                return no_result(counts)
            pbsym = import_pbsym()

        # ---- warm-up (untimed): break and parse every job, then check the
        # rejection sentinels, which also warms up the checker
        jobdir = os.path.join(workdir, "jobs")
        os.makedirs(jobdir)
        workloads.run_job_set(pbsym.cli, pbsym.parsing, workload, inputs,
                              jobdir, counts, check=False)
        workloads.run_sentinels(pbsym.cli, workload, inputs, jobdir, counts)

        # ---- measured passes
        if args.trace:
            untraced = measure(pbsym, workload, inputs, jobdir, counts,
                               args.seconds / 2)
            tracer = tracing.Tracer(t_start)
            traced = measure(pbsym, workload, inputs, jobdir, counts,
                             args.seconds / 2, tracer)
            passes = traced
            samples = {"verify_untraced_s": job_samples(untraced, "verify_s"),
                       "verify_traced_s": job_samples(traced, "verify_s")}
            ratios = {}
            metrics = per_layer_metrics(setup_tracer, tracer, untraced,
                                        traced)
            for t, kind in ((setup_tracer, "setup"), (tracer, "jobs")):
                t.write_spans(os.path.join(
                    OUT, "spans-%s-%s.jsonl" % (tag, kind)))
            report = {k: (v, unit_of(k)) for k, v in metrics.items()}
        else:
            passes = measure(pbsym, workload, inputs, jobdir, counts,
                             args.seconds, cheap_phase_s=CHEAP_PHASE_S,
                             setups=setups, ref=ref)
            setups.catch_up(1)
            timed = ("setup_s", "break_s", "load_s", "verify_s")
            samples = {m: job_samples(passes, m) for m in timed[1:]}
            samples["setup_s"] = {"setup": setups.times}
            ratios = {m: job_samples(passes, m, ratios=True)
                      for m in timed[1:]}
            ratios["setup_s"] = {"setup": setups.ratios}
            print("reference call: %.6f s mean wall over %d calls, "
                  "reported as %.6f s" % (ref.seconds / ref.calls, ref.calls,
                                          reference.REFERENCE_CALL_S))
            report = {}
            for name in timed:
                value = reference.REFERENCE_CALL_S * sum(
                    statistics.median(rs) for rs in ratios[name].values())
                wall = samples[name].values()
                n = sum(len(ts) for ts in wall)
                report[name] = (value, "s")
                print("%-12s %14.6f s    median of n=%d samples in reference "
                      "seconds; wall fastest %.6f, median %.6f"
                      % (name, value, n, sum(min(ts) for ts in wall),
                         sum(statistics.median(ts) for ts in wall)))
            pipeline = report["break_s"][0] + report["verify_s"][0]
            report["pipeline_s"] = (pipeline, "s")
            print("%-12s %14.6f s    break_s + verify_s" % ("pipeline_s",
                                                           pipeline))
            # deterministic for a seed, so any pass will do
            report["proof_bytes"] = (passes[-1].proof_bytes, "B")
            print("%-12s %14d B" % ("proof_bytes", passes[-1].proof_bytes))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report["peak_rss_mb"] = (peak, "MiB")
            print("%-12s %14.3f MiB" % ("peak_rss_mb", peak))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "passes": len(passes), "machine": {
                  "nproc": os.cpu_count(),
                  "python": platform.python_version()},
              "fail_rate": counts.failed / max(counts.attempted, 1),
              "errors": counts.errors,
              "jobs": determinism(passes),
              "samples": samples, "reference_ratios": ratios}
    with open(os.path.join(OUT, "record-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for rec in record["jobs"]:
        print("job " + json.dumps(rec, sort_keys=True))
    for err in counts.errors:
        print("FAILED " + err)
    if args.trace:
        for name in sorted(report):
            print("%-44s %16.6f %s" % (name, report[name][0], report[name][1]))
        print("tracing overhead: traced verify_s - untraced verify_s = "
              "%.6f s" % metrics["trace.overhead_s"])
    print("seed %d, %d passes, fail_rate %.6f (%d of %d ops failed)"
          % (args.seed, len(passes), record["fail_rate"], counts.failed,
             counts.attempted))
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(report.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
