"""The proof state machine.

Maintains the configuration (core set, derived set, loaded order, z-binding,
ID-indexed constraint database, scope stack) and executes proof steps.
Constraint IDs increase monotonically and are never reused; deletion only
removes visibility.  Subproof scopes get their own frame whose local
constraints become invisible once the scope is closed.
"""

import itertools

from . import constraints as pb
from . import orders as ordmod

UNSAT = "UNSAT"
VERIFIED = "VERIFIED-DERIVATION"


class CheckError(Exception):
    def __init__(self, message, line=None, goal=None, reason="invalid-step"):
        self.line = line
        self.goal = goal
        self.reason = reason
        prefix = "line:%s goal:%s reason:%s" % (
            line if line is not None else "-",
            goal if goal is not None else "-", reason)
        super().__init__("%s %s" % (prefix, message))


class _Thunk:
    """A lazily materialized spec constraint."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def force(self, state):
        if state is not None:
            state.counters["spec_materializations"] += 1
        return self.fn()


def _is_falsum(c):
    return not c.terms and c.degree >= 1


class Frame:
    """One visibility scope.  The ID counter may be shared with the parent
    (subproofs continue the global numbering) or local (def_order blocks
    restart at 1)."""

    def __init__(self, state=None, parent=None, counter=None):
        self.state = state or (parent.state if parent else None)
        self.parent = parent
        self.cons = {}
        self.deleted = set()
        self.counter = counter or (parent.counter if parent else [1])

    def alloc(self):
        cid = self.counter[0]
        self.counter[0] += 1
        return cid

    def add(self, con):
        cid = self.alloc()
        self.cons[cid] = con
        return cid

    def get(self, cid, line=None):
        f = self
        while f is not None:
            if cid in f.deleted:
                break
            if cid in f.cons:
                val = f.cons[cid]
                if isinstance(val, _Thunk):
                    val = val.force(self.state)
                    f.cons[cid] = val
                return val
            f = f.parent
        raise CheckError("constraint %d is not visible here" % cid,
                         line=line, reason="invisible-id")

    def resolve_id(self, cid):
        return self.counter[0] + cid if cid < 0 else cid

    def get_rel(self, cid, line=None):
        return self.get(self.resolve_id(cid), line)

    def visible(self):
        """All visible constraints as id -> Constraint (materializes thunks)."""
        out = {}
        deleted = set()
        f = self
        while f is not None:
            deleted |= f.deleted
            for cid in f.cons:
                if cid not in deleted and cid not in out:
                    out[cid] = self.get(cid)
            f = f.parent
        return out


def _run_rup(state, frame, goal, hints, line):
    if state is not None:
        state.counters["rup_calls"] += 1
    if hints is not None:
        db = {}
        for h in hints:
            rid = frame.resolve_id(h)
            db[rid] = frame.get(rid, line)
    else:
        db = frame.visible()
    return pb.rup_check(db, goal)


def _frame_pol(state, frame, step):
    line = step["line"]
    try:
        con = pb.evaluate_polish(step["tokens"],
                                 lambda cid: frame.get_rel(cid, line))
    except pb.ConstraintError as e:
        raise CheckError(str(e), line=line, reason="bad-polish")
    frame.add(con)


def _frame_rup(state, frame, step):
    if not _run_rup(state, frame, step["constraint"], step["hints"],
                    step["line"]):
        raise CheckError("RUP did not reach a conflict for %s"
                         % pb.render(step["constraint"]),
                         line=step["line"], reason="rup-failed")
    frame.add(step["constraint"])


_SUBPROOF_STEPS = {"pol": _frame_pol, "rup": _frame_rup}


def _run_simple_steps(state, frame, steps):
    for step in steps:
        handler = _SUBPROOF_STEPS.get(step["kind"])
        if handler is None:
            raise CheckError("step %r not allowed inside a subproof"
                             % step["kind"], line=step["line"],
                             reason="invalid-step")
        handler(state, frame, step)


def _qed(state, frame, qed_hint, line, goal_key):
    if qed_hint is not None:
        con = frame.get_rel(qed_hint, line)
        if not con.is_contradiction():
            raise CheckError("cited constraint %s is not contradictory"
                             % pb.render(con), line=line, goal=goal_key,
                             reason="qed-not-contradiction")
    elif not _run_rup(state, frame, pb.FALSUM, None, line):
        raise CheckError("no contradiction at qed", line=line,
                         goal=goal_key, reason="qed-failed")


def _prove_goals(state, frame, goals, blocks, label, line, auto=None):
    """Prove `goals` (key -> constraint) in subframes of `frame`: each
    proofgoal block, in textual order, adds the negation of the pending
    goal of its key (none for falsum), runs its steps and ends in the qed;
    a goal left without a block must be a tautology or pass `auto(key,
    goal)`.  `line` is cited for a goal left undischarged."""
    pending = dict(goals)
    for block in blocks:
        key = block["key"]
        if key not in pending:
            raise CheckError("proofgoal %s is not pending in %s" % (key, label),
                             line=block["line"], goal=key,
                             reason="unknown-goal")
        g = Frame(parent=frame)
        goalcon = pending.pop(key)
        if not _is_falsum(goalcon):
            g.add(pb.negate(goalcon))
        _run_simple_steps(state, g, block["steps"])
        _qed(state, g, block["qed_hint"], block["line"], key)
    for key, goalcon in pending.items():
        if not (goalcon.is_tautology() or (auto and auto(key, goalcon))):
            raise CheckError("goal %s undischarged in %s" % (key, label),
                             line=line, goal=key, reason="undischarged-goal")


def run_obligation(premises, goals, blocks, label):
    """Run the proofgoal blocks of a reflexivity/transitivity subproof.

    Premises get IDs 1..len(premises) in a frame of their own; goal #k is
    proved by the block of that key with :func:`_prove_goals`, the runner
    dominance scopes use, and needs none if it is a tautology.
    """
    frame = Frame()
    for p in premises:
        frame.add(p)
    _prove_goals(None, frame, {"#%d" % k: g for k, g in enumerate(goals, 1)},
                 blocks, label, None)


class Checker:
    """Checks one proof document against one formula."""

    def __init__(self, formula):
        self.root = Frame(state=self)
        self.core_ids = set()
        for c in formula:
            self.core_ids.add(self.root.add(c))
        self.orders = {}
        self.loaded = ordmod.TRIVIAL
        self.z_binding = []
        self.counters = {"spec_materializations": 0,
                         "implicit_reflexivity_skips": 0,
                         "rup_calls": 0,
                         "proof_bytes": 0}
        self.trace = None  # optional list collecting goal discharge decisions

    # -------------------------------------------------------------- helpers

    def _note(self, msg):
        if self.trace is not None:
            self.trace.append(msg)

    def _check_rule_constraint(self, c, w, line):
        aux = [v for v in c.variables() if pb.is_aux_var(v)]
        if aux:
            raise CheckError("constraint mentions order-aux variables %s"
                             % sorted(aux), line=line, reason="aux-in-constraint")
        for var, img in w.items():
            if pb.is_aux_var(var):
                raise CheckError("witness maps order-aux variable %s" % var,
                                 line=line, reason="aux-in-witness")
            if isinstance(img, str) and pb.is_aux_var(pb.var_of(img)):
                raise CheckError("witness image %s is an order-aux variable" % img,
                                 line=line, reason="aux-in-witness")

    def _derived_ids(self):
        return [cid for cid in self.root.cons
                if cid not in self.core_ids and cid not in self.root.deleted]

    def _witness_images(self, w):
        return [pb.apply_witness_lit(w, zv) for zv in self.z_binding]

    # ---------------------------------------------------------------- steps

    def step_pol(self, step):
        _frame_pol(self, self.root, step)

    def step_rup(self, step):
        _frame_rup(self, self.root, step)

    def step_red(self, step):
        c, w, line = step["constraint"], step["witness"], step["line"]
        self._check_rule_constraint(c, w, line)
        visible = self.root.visible()
        negc = pb.negate(c)
        premise_keys = {con.key() for con in visible.values()}
        premise_keys.add(negc.key())
        left, order_goals = None, []
        if set(w).isdisjoint(self.z_binding):
            self.counters["implicit_reflexivity_skips"] += 1
        else:
            left = self._witness_images(w)
            order_goals = [("#%d" % k, og) for k, og in enumerate(
                ordmod.order_instance(self.loaded, left, self.z_binding), 1)]
        db = {}

        def rup_db():
            # built on the first RUP, which materializes the spec premises
            # of the order goals
            if not db:
                db.update(visible)
                db["neg-c"] = negc
                if left is not None:
                    for i, fn in enumerate(ordmod.spec_instance(
                            self.loaded, left, self.z_binding)):
                        db[("spec", i)] = _Thunk(fn).force(self)
            return db

        for key, goal in itertools.chain(pb.redundance_goals(visible, c, w),
                                         order_goals):
            if goal is None:
                how = "untouched by witness"
            else:
                how = pb.discharge(goal, premise_keys, rup_db)
                if how in ("rup", None):
                    self.counters["rup_calls"] += 1
                if how is None:
                    raise CheckError("goal %s not derivable" % pb.render(goal),
                                     line=line, goal=key,
                                     reason="undischarged-goal")
            self._note("goal %s: %s" % (key, how))

        self.root.add(c)

    def step_dom(self, step):
        c, w, line = step["constraint"], step["witness"], step["line"]
        if self.loaded.n == 0:
            raise CheckError("dominance requires a loaded non-trivial order",
                             line=line, reason="no-order")
        self._check_rule_constraint(c, w, line)
        left = self._witness_images(w)
        if all(l == z for l, z in zip(left, self.z_binding)):
            raise CheckError("witness acts as identity on the z-binding",
                             line=line, reason="identity-witness")

        sub = Frame(parent=self.root)
        sub.add(pb.negate(c))

        # --- leq scope: S(z|w, z) premises; goals C|w plus each order constraint
        leqf = Frame(parent=sub)
        for fn in ordmod.spec_instance(self.loaded, left, self.z_binding):
            leqf.add(_Thunk(fn))
        # goals by key: "#k" for the order constraints, the ID for core ones;
        # an order goal without a block may be discharged by hint-free RUP
        pending = {"#%d" % k: og for k, og in enumerate(
            ordmod.order_instance(self.loaded, left, self.z_binding), 1)}
        falsum_key = "#%d" % (len(pending) + 1)
        core_keys = {self.root.get(cid).key() for cid in self.core_ids
                     if cid not in self.root.deleted}
        for cid in sorted(self.core_ids):
            goal = pb.substitute(self.root.get(cid), w)
            if goal.is_tautology() or goal.key() in core_keys:
                self._note("core goal %d: auto" % cid)
            else:
                pending[cid] = goal
        _prove_goals(self, leqf, pending, step["leq"], "leq scope", line,
                     lambda key, goal: isinstance(key, str)
                     and _run_rup(self, leqf, goal, None, line))

        # --- geq scope: S(z, z|w) and O(z, z|w) premises; single falsum goal
        geqf = Frame(parent=sub)
        for fn in ordmod.spec_instance(self.loaded, self.z_binding, left):
            geqf.add(_Thunk(fn))
        for og in ordmod.order_instance(self.loaded, self.z_binding, left):
            geqf.add(og)
        _prove_goals(self, geqf, {falsum_key: pb.FALSUM}, step["geq"],
                     "geq scope", line)

        self.root.add(c)

    def step_def_order(self, step):
        try:
            order = ordmod.OrderDefinition(
                step["name"], step["left"], step["right"], step["aux"],
                step["spec"], step["def"])
            ordmod.validate(order, step["transitivity"], step["reflexivity"])
        except ordmod.OrderError as e:
            raise CheckError(str(e), line=step["line"], reason="bad-order")
        self.orders[step["name"]] = order

    def step_load_order(self, step):
        name, zvars, line = step["name"], step["vars"], step["line"]
        order = self.orders.get(name)
        if order is None or not order.validated:
            raise CheckError("order %r is not defined and validated" % name,
                             line=line, reason="unknown-order")
        if len(zvars) != order.n:
            raise CheckError("order %s needs %d variables, got %d"
                             % (name, order.n, len(zvars)),
                             line=line, reason="arity-mismatch")
        if self._derived_ids():
            raise CheckError("cannot change order with a non-empty derived set",
                             line=line, reason="derived-not-empty")
        self.loaded = order
        self.z_binding = list(zvars)

    def step_delete(self, step):
        line = step["line"]
        for cid in range(step["start"], step["stop"]):
            if cid in self.core_ids:
                raise CheckError("cannot delete core constraint %d" % cid,
                                 line=line, reason="core-delete")
            if cid in self.root.cons:
                self.root.deleted.add(cid)
            # IDs that were never assigned at top level (or are already
            # invisible) are skipped: visibility is a set.

    def step_output(self, step):
        """An output section carries no obligation."""

    def step_conclusion(self, step):
        claim = " ".join(step["value"]).upper()
        if claim == "UNSAT" and self.conclude() != UNSAT:
            raise CheckError("conclusion UNSAT but no contradiction "
                             "was derived", line=step["line"],
                             reason="bad-conclusion")

    def conclude(self):
        for cid, con in self.root.cons.items():
            if cid in self.root.deleted or isinstance(con, _Thunk):
                continue
            if con.is_contradiction():
                return UNSAT
        return VERIFIED

    # ----------------------------------------------------------------- main

    # step kind -> method name; looked up on the instance for every step
    STEPS = {"pol": "step_pol", "rup": "step_rup", "red": "step_red",
             "dom": "step_dom", "def_order": "step_def_order",
             "load_order": "step_load_order", "del_range": "step_delete",
             "output": "step_output", "conclusion": "step_conclusion"}

    def run(self, doc):
        for step in doc["steps"]:
            name = self.STEPS.get(step["kind"])
            if name is None:
                raise CheckError("unsupported step kind %r" % step["kind"],
                                 line=step.get("line"), reason="invalid-step")
            getattr(self, name)(step)
        return self.conclude()


def check_document(formula, doc, proof_bytes=0, trace=None):
    """Convenience wrapper: returns (verdict, counters)."""
    chk = Checker(formula)
    chk.trace = trace
    verdict = chk.run(doc)
    chk.counters["proof_bytes"] = proof_bytes
    return verdict, chk.counters
