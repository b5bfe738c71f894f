"""In-memory span tracer that wraps pbsym's public functions from outside.

The program is not changed: :meth:`Tracer.install` replaces module and
class attributes with timing wrappers and :meth:`Tracer.uninstall` puts the
originals back.  pbsym calls these functions through module attributes
(``pb.rup_check``, ``ordmod.validate``), module globals (``propagate``
inside ``rup_check``) or ``self.step_*``, so every call is seen.

Each call becomes a span ``(name, start, end, parent)``; a span's self time
is its duration minus the time covered by its child spans.  Spans stay in
memory and are written out by :meth:`Tracer.write_spans` at the end.
"""

import json
import time
from collections import defaultdict

STEP_KINDS = ("pol", "rup", "red", "dom", "def_order", "load_order", "delete")

# (layer, owner attribute path, functions) wrapped in a traced run;
# cli._write_streamed gives break's file writes (cli.write_s)
TRACED = [
    ("bench", "bench", ["generate"]),
    ("cli", "cli", ["cmd_gen", "cmd_break", "cmd_check", "_write_streamed"]),
    ("breaker", "breaker", ["verify_symmetry", "break_symmetries"]),
    ("breaker", "breaker.ProofBuilder", ["begin", "break_symmetry"]),
    ("parsing", "parsing", ["parse_cnf", "parse_opb", "parse_proof"]),
    ("orders", "orders", ["validate", "verify_specification",
                          "check_transitivity", "check_reflexivity",
                          "spec_instance"]),
    ("checker", "checker", ["check_document"]),
    ("checker", "checker.Checker", ["step_" + k for k in STEP_KINDS]),
    ("constraints", "constraints", ["rup_check", "propagate", "substitute"]),
]


def _owner(pbsym, path):
    obj = pbsym
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans and per-function totals while installed."""

    def __init__(self, clock_origin):
        self.origin = clock_origin
        self.spans = []            # (name, start, end, parent index or -1)
        self.stack = []            # [span index, child time] of open calls
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)   # counters read from arguments/results
        self.red_notes = []
        self._saved = []

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name, fn):
        tracer = self
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if observe is not None:
                args, kwargs = observe(args, kwargs, None, before=True)
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                tracer.spans[index] = (name, start - tracer.origin,
                                       end - tracer.origin,
                                       parent[0] if parent else -1)
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
            if observe is not None:
                observe(args, kwargs, result, before=False)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, pbsym):
        for layer, path, names in TRACED:
            owner = _owner(pbsym, path)
            for fname in names:
                original = owner.__dict__[fname]
                self._saved.append((owner, fname, original))
                setattr(owner, fname,
                        self._wrap("%s.%s" % (layer, fname), original))

    def uninstall(self):
        while self._saved:
            owner, fname, original = self._saved.pop()
            setattr(owner, fname, original)

    # ------------------------------------------------- argument observers

    def _observe_constraints_propagate(self, args, kwargs, result, before):
        if before:
            cons = args[0] if args else kwargs["constraints"]
            if not isinstance(cons, list):
                cons = list(cons)
                args = (cons,) + tuple(args[1:])
            self.counts["propagate_db_rows"] += len(cons)
        return args, kwargs

    def _observe_constraints_rup_check(self, args, kwargs, result, before):
        if not before and result:
            self.counts["rup_success"] += 1
        return args, kwargs

    def _observe_orders_spec_instance(self, args, kwargs, result, before):
        if not before:
            self.counts["spec_thunks"] += len(result)
        return args, kwargs

    def _observe_orders_verify_specification(self, args, kwargs, result,
                                             before):
        if before:
            spec = args[0] if args else kwargs["spec"]
            self.counts["spec_rows"] += len(spec)
        return args, kwargs

    def _observe_checker_check_document(self, args, kwargs, result, before):
        if before:
            # collect goal-discharge notes; the CLI passes trace=None
            kwargs = dict(kwargs)
            notes = []
            kwargs["trace"] = notes
            self.red_notes.append(notes)
            return args, kwargs
        _verdict, counters = result
        for key in ("rup_calls", "spec_materializations",
                    "implicit_reflexivity_skips"):
            self.counts[key] += counters[key]
        return args, kwargs

    def _observe_breaker_break_symmetries(self, args, kwargs, result, before):
        if not before:
            stats = result.stats
            self.counts["proof_lines"] += len(result.lines)
            self.counts["clauses"] += len(result.kept)
            self.counts["frag_chars"] += sum(s["chars"] for s in stats)
            self.counts["frag_support"] += sum(s["support"] for s in stats)
            if stats and stats[0]["chars"]:
                later = max((s["chars"] for s in stats[1:]),
                            default=stats[0]["chars"])
                self.counts["frag_ratio_sum"] += later / stats[0]["chars"]
                self.counts["frag_ratio_n"] += 1
        return args, kwargs

    # ------------------------------------------------------------ output

    def layer_self_times(self):
        out = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def _under(self, index, name):
        while index != -1:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def layer_inclusive_times(self, outside=None):
        """Per layer, the duration of spans not nested in the same layer,
        leaving out spans nested in a span named `outside`."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            layer = name.split(".", 1)[0]
            if parent != -1 and self.spans[parent][0].startswith(layer + "."):
                continue
            if outside is None or not self._under(parent, outside):
                out[layer] += end - start
        return out

    def red_goal_counts(self):
        seen = rup = 0
        for notes in self.red_notes:
            for note in notes:
                if note.startswith("goal "):
                    seen += 1
                    if note.endswith(": rup"):
                        rup += 1
        return seen, rup

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": round(start, 9),
                                     "end": round(end, 9),
                                     "parent": parent}) + "\n")
