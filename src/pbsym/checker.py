"""The proof state machine.

Maintains the configuration (core set, derived set, loaded order, z-binding,
ID-indexed constraint database, scope stack) and executes proof steps.
Constraint IDs increase monotonically and are never reused, so deleting a
constraint drops it from the database.  Subproof scopes get their own frame
whose local constraints become invisible once the scope is closed.

Hint-free RUP runs on one incremental :class:`constraints.Propagator` per
frame chain, owned by the chain's root frame: it holds what the frames on
the chain hold, and leaving a frame undoes that frame's constraints.  The
checker's root engine lives for the whole check: a `del range` that
removes an entry the engine holds undoes it to that entry's mark, and the
live entries after it are fed again, so a `del` costs O(rows after it).

:func:`redundance` is the redundance rule, for ``red`` steps over the root
frame and for ``def_order`` spec rows over a root frame of their own.
"""

import bisect
import functools
import itertools
from collections import Counter, defaultdict

from . import constraints as pb
from . import orders as ordmod
from . import parsing

UNSAT = "UNSAT"
VERIFIED = "VERIFIED-DERIVATION"


class CheckError(Exception):
    def __init__(self, message, line=None, goal=None, reason="invalid-step"):
        super().__init__(message)
        self.message = message
        self.line = line
        self.goal = goal
        self.reason = reason

    def __str__(self):
        return "line:%s goal:%s reason:%s %s" % (
            self.line if self.line is not None else "-",
            self.goal if self.goal is not None else "-",
            self.reason, self.message)


def _is_falsum(c):
    return not c.terms and c.degree >= 1


class Frame:
    """One visibility scope, given its `premises` when built.  `cons` maps
    each ID to its Constraint.  The ID counter may be shared with the
    parent (subproofs continue the global numbering) or local (def_order
    blocks restart at 1).  A frame runs the steps of
    :data:`parsing.SUBPROOF_STEPS` on itself, as its `step_<kind>` methods.

    `ids` lists every ID added, in order, and never shrinks.  A root frame
    (no parent) owns the propagator of its chain, built on the first
    hint-free RUP, and `synced`: one `[frame, mark, len(frame.ids)]` per
    frame whose entries the propagator holds, root first.  The mark is the
    engine's before the frame's first entry, and the count says how many
    of `ids` were fed; a frame's rows all come after its parent's, so
    undoing to a frame's mark drops it and the frames synced after it.
    A :class:`RootFrame` also keeps a mark per entry it feeds."""

    def __init__(self, state=None, parent=None, counter=None, premises=()):
        self.state = state or (parent.state if parent else None)
        self.parent = parent
        self.counter = counter or (parent.counter if parent else [1])
        self.engine = self.synced = None
        # what `add` does, for all premises at once
        cids = range(self.counter[0], self.counter[0] + len(premises))
        self.counter[0] = cids.stop
        self.cons, self.ids = dict(zip(cids, premises)), list(cids)

    def add(self, con):
        cid = self.counter[0]
        self.counter[0] += 1
        self.cons[cid] = con
        self.ids.append(cid)
        return cid

    def _read(self, cid, con):
        """`con`, the entry of `cid` in this frame, as a Constraint."""
        return con

    def get(self, cid, line=None, written=None):
        """The constraint of ID `cid`; an error names it as `written`."""
        f = self
        while f is not None:
            con = f.cons.get(cid)
            if con is not None:
                return f._read(cid, con)
            f = f.parent
        raise CheckError("constraint %s is not visible here" % (written or cid),
                         line=line, reason="invisible-id")

    def get_rel(self, cid, line=None):
        """The constraint a proof cites as `cid`, which counts back from the
        next ID if negative; an error names `cid` and that ID."""
        if cid >= 0:
            return self.get(cid, line)
        at = self.counter[0] + cid
        return self.get(at, line, "%d (ID %d)" % (cid, at))

    def propagator(self):
        """The chain's propagator, brought to hold exactly the constraints
        visible here (builds every spec row in scope).  Frames synced
        earlier but no longer on the chain are undone, and entries added
        since the last sync are added."""
        chain = []
        f = self
        while f is not None:
            chain.append(f)
            f = f.parent
        chain.reverse()
        root = chain[0]
        if root.engine is None:
            root.engine, root.synced = pb.Propagator(), []
        root._rewind()
        engine, synced = root.engine, root.synced
        # the synced frames still on the chain and unchanged stay
        both = min(len(synced), len(chain))
        k = 0
        while (k < both and synced[k][0] is chain[k]
               and synced[k][2] == len(chain[k].ids)):
            k += 1
        # a frame that has grown keeps its mark: the frames synced after
        # it are undone, then its new entries are added
        grown = k < both and synced[k][0] is chain[k]
        drop = k + 1 if grown else k
        if drop < len(synced):
            engine.undo(synced[drop][1])
            del synced[drop:]
        if grown:
            chain[k]._feed(engine, synced[k][2])
            synced[k][2] = len(chain[k].ids)
            k += 1
        for f in chain[k:]:
            synced.append([f, engine.mark(), len(f.ids)])
            f._feed(engine, 0)
        return engine

    def _feed(self, engine, start):
        """Add the live entries of `ids` from the `start`-th on to `engine`,
        in O(len(ids) - start)."""
        for cid in self.ids[start:]:
            con = self.cons.get(cid)
            if con is not None:
                engine.add(self._read(cid, con))

    def _rewind(self):
        """Nothing to undo: only a root frame's entries are removed."""

    def step_pol(self, step):
        line = step["line"]
        try:
            con = pb.evaluate_polish(step["tokens"],
                                     lambda cid: self.get_rel(cid, line))
        except pb.ConstraintError as e:
            raise CheckError(str(e), line=line, reason="bad-polish")
        self.add(con)

    def step_rup(self, step):
        if not _run_rup(self, step["constraint"], step["hints"], step["line"]):
            raise CheckError("RUP did not reach a conflict for %s"
                             % pb.render(step["constraint"]),
                             line=step["line"], reason="rup-failed")
        self.add(step["constraint"])


class ScopeFrame(Frame):
    """A dom scope's frame: the spec rows of `order` under u -> left and
    v -> right, then with `with_defs` the order constraints `defs`.  A spec
    row's entry is its index until a hint, pol, qed or the propagator reads
    it; then the row is substituted and counted in `spec_materializations`.
    With `moved`, the propagator gets the `rows` :func:`orders.contract`
    builds for those positions in place of the spec rows, and the literal
    map `lits` of u and v is built at the first spec row read: a scope
    whose steps cite no spec row costs O(len(rows)), not O(n)."""

    def __init__(self, parent, order, left, right, moved, with_defs=False):
        self.order, self.sides, self.rows = order, (left, right), None
        if moved is None:
            self.lits, self.defs = ordmod.bind(order, left, right)
        else:
            self.rows = ordmod.contract(len(left), moved, left, right)
            counters = parent.state.counters
            counters["spec_materializations"] += len(self.rows)
            counters["spec_rows_aliased"] += (len(order["spec"])
                                              - len(self.rows))
            # lex<n>'s order constraint names $d_n alone: its own image
            self.lits, self.defs = None, order["def"]
        super().__init__(parent=parent, premises=[
            *range(len(order["spec"])), *(self.defs if with_defs else ())])

    def _read(self, cid, con):
        if isinstance(con, int):
            if self.lits is None:
                self.lits, _ = ordmod.bind(self.order, *self.sides)
            self.state.counters["spec_materializations"] += 1
            con = self.cons[cid] = pb.substitute(
                self.order["spec"][con][0], self.lits)
        return con

    def _feed(self, engine, start):
        if self.rows is not None and not start:
            for con in self.rows:
                engine.add(con)
            start = len(self.order["spec"])
        super()._feed(engine, start)


class RootFrame(Frame):
    """The checker's top-level frame.  Besides its entries, all of them
    Constraints, it keeps `occ`, each variable's live IDs in ID order, and
    `live`, the multiset of live constraints; two IDs may hold equal
    constraints, so deleting one leaves the other a premise.

    Once the propagator is built, `marks[i]` is its mark from just before
    the `i`-th entry of `ids` was fed (None if that entry was gone by
    then), one per entry fed, and `cut` is the position in `ids` of the
    earliest removed entry the propagator still holds, if any."""

    def __init__(self, state):
        super().__init__(state=state)
        self.occ = defaultdict(dict)   # variable -> {ID: None}
        self.live = Counter()
        self.marks = []
        self.cut = None

    def add(self, con):
        cid = super().add(con)
        for v in con.variables():
            self.occ[v][cid] = None
        self.live[con] += 1
        return cid

    def remove(self, cid):
        """Drop the entry of `cid`, if there is one.  The propagator cannot
        drop a row, so if it holds the entry, `cut` goes down to it and the
        next :meth:`propagator` call undoes the engine to there."""
        con = self.cons.pop(cid, None)
        if con is None:
            return
        for v in con.variables():
            del self.occ[v][cid]
        self.live[con] -= 1
        if not self.live[con]:
            del self.live[con]
        # IDs increase, so `ids` is sorted; an entry live until now and
        # fed is in the engine
        pos = bisect.bisect_left(self.ids, cid)
        if pos < len(self.marks) and (self.cut is None or pos < self.cut):
            self.cut = pos

    def _feed(self, engine, start):
        """As :meth:`Frame._feed`, taking the mark of each entry before
        adding it."""
        marks, cons = self.marks, self.cons
        for cid in self.ids[start:]:
            con = cons.get(cid)
            if con is None:
                marks.append(None)
            else:
                marks.append(engine.mark())
                engine.add(con)

    def _rewind(self):
        """Undo the engine to the mark of the entry at `cut`, drop the
        frames synced above the root, and leave the root synced up to the
        cut, so the sync that follows feeds the live entries after it.

        Sound because the engine then holds the live entries before the
        cut, in ID order: each was live when fed, and removing any of them
        would have lowered the cut to it.  What follows is fed in ID order
        too, so the engine is a fresh one fed the live rows; and the
        unit-propagation fixpoint, or the conflict, does not depend on the
        order rows were added in anyway."""
        cut = self.cut
        if cut is None:
            return
        self.engine.undo(self.marks[cut])
        del self.marks[cut:], self.synced[1:]
        self.synced[0][2] = cut
        self.cut = None

    def touched(self, variables):
        """(ID, constraint) of each entry over one of `variables`, in ID
        order."""
        ids = set()
        for v in variables:
            ids.update(self.occ.get(v, ()))
        return [(cid, self.cons[cid]) for cid in sorted(ids)]


def _run_rup(frame, goal, hints, line):
    if frame.state is not None:
        frame.state.counters["rup_calls"] += 1
    if hints is None:
        return frame.propagator().rup(goal)
    return pb.rup_check([frame.get_rel(h, line) for h in hints], goal)


def _run_simple_steps(frame, steps):
    for step in steps:
        if step["kind"] not in parsing.SUBPROOF_STEPS:
            raise CheckError("step %r not allowed inside a subproof"
                             % step["kind"], line=step["line"],
                             reason="invalid-step")
        getattr(frame, "step_" + step["kind"])(step)


def _qed(frame, qed_hint, line, goal_key):
    if qed_hint is not None:
        try:
            con = frame.get_rel(qed_hint, line)
        except CheckError as e:
            e.goal = goal_key
            raise
        if not con.is_contradiction():
            raise CheckError("cited constraint %s is not contradictory"
                             % pb.render(con), line=line, goal=goal_key,
                             reason="qed-not-contradiction")
    elif not _run_rup(frame, pb.FALSUM, None, line):
        raise CheckError("no contradiction at qed", line=line,
                         goal=goal_key, reason="qed-failed")


def _prove_goals(frame, goals, blocks, label, line, auto=None):
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
        goalcon = pending.pop(key)
        premises = () if _is_falsum(goalcon) else [pb.negate(goalcon)]
        g = Frame(parent=frame, premises=premises)
        _run_simple_steps(g, block["steps"])
        _qed(g, block["qed_hint"], block["line"], key)
    for key, goalcon in pending.items():
        if not (goalcon.is_tautology() or (auto and auto(key, goalcon))):
            raise CheckError("goal %s undischarged in %s" % (key, label),
                             line=line, goal=key, reason="undischarged-goal")


def run_obligation(premises, goals, blocks, label):
    """Run the proofgoal blocks of a reflexivity/transitivity subproof.

    Premises get IDs 1..len(premises) in a frame of their own and no
    checker state, so no spec row is counted; goal #k is proved by the
    block of that key with :func:`_prove_goals`, the runner dominance
    scopes use, and needs none if it is a tautology.  A goal left
    undischarged cites no line; `Checker.step_def_order` adds its own.
    """
    frame = Frame(premises=premises)
    _prove_goals(frame, {"#%d" % k: g for k, g in enumerate(goals, 1)},
                 blocks, label, None)


def redundance(root, c, w, order_goals=(), spec=None, trace=None):
    """Derive `c` under the witness `w` and add it to the root frame
    `root`; else return (key, goal) of the first goal that fails.

    Goals: G|w keyed by ID for each live entry G over a witness variable
    (the others are their own images), c|w keyed "self", `order_goals`.
    One holds as a tautology, a syntactic premise (a live entry or not(c))
    or by RUP: over the touched entries plus not(c) first, and only if that
    fails over a scope above `root` holding not(c) and the rows `spec()`
    builds, where not(goal) may propagate far; those rows are built, and
    counted in the `spec_materializations` of the root's `state`, with the
    scope.  RUP is monotone, so the verdict is the scope's; each RUP goal
    counts once in the state's `rup_calls`.  `trace` gets "goal KEY: HOW"
    per goal that holds.  not(c) and the touched premises are listed at the
    first goal that is no tautology, as many `red` steps have none."""
    touched, lits = root.touched(w), pb.witness_lits(w)
    goals = itertools.chain(
        ((cid, pb.substitute(g, lits)) for cid, g in touched),
        [("self", pb.substitute(c, lits))], order_goals)
    negc = scope = None
    for key, goal in goals:
        if goal.is_tautology():
            how = "tautology"
        else:
            if negc is None:
                negc = pb.negate(c)
                local = [g for _cid, g in touched] + [negc]
            if goal in root.live or goal == negc:
                how = "syntactic premise"
            else:
                how = "rup"
                if root.state is not None:
                    root.state.counters["rup_calls"] += 1
                if not pb.rup_check(local, goal):
                    if scope is None:
                        rows = spec() if spec else []
                        scope = Frame(parent=root, counter=[1],
                                      premises=[negc, *rows])
                        if rows:
                            scope.state.counters[
                                "spec_materializations"] += len(rows)
                    if not scope.propagator().rup(goal):
                        return key, goal
        if trace is not None:
            trace.append("goal %s: %s" % (key, how))
    root.add(c)


def spec_rule():
    """:func:`redundance` over a fresh root frame without checker state, so
    no counter moves: the `derive` that :func:`orders.validate` takes."""
    return functools.partial(redundance, RootFrame(None))


def _refuse_aux(c, line, reason):
    aux = [v for v in c.variables() if pb.is_aux_var(v)]
    if aux:
        raise CheckError("constraint %s mentions order-aux variables %s"
                         % (pb.render(c), sorted(aux)), line=line,
                         reason=reason)


class Checker:
    """Checks one proof document against one formula."""

    def __init__(self, formula):
        self.root = RootFrame(self)
        # core constraints cannot be deleted, so both sets stay valid
        self.core_ids, self.core = set(), set()
        for c in formula:
            self.core_ids.add(self.root.add(c))
            self.core.add(c)
        # `$` names are reserved for order-auxiliary variables, which the
        # spec rows of dom scopes constrain; the refusal names the first
        # core constraint over one, in ID order
        if any(pb.is_aux_var(v) for v in self.root.occ):
            for c in self.root.cons.values():
                _refuse_aux(c, None, "aux-in-formula")
        self.orders = {}
        self.loaded = ordmod.TRIVIAL
        # `bound` holds the names of `z_binding`, so a `red` step tests
        # its witness in O(|w|)
        self.z_binding, self.bound = [], frozenset()
        self.shape = None   # the loaded order's lex_size (0: none), once read
        self.counters = {"spec_materializations": 0, "spec_rows_aliased": 0,
                         "implicit_reflexivity_skips": 0,
                         "rup_calls": 0}
        self.trace = None  # optional list collecting goal discharge decisions

    # -------------------------------------------------------------- helpers

    def _check_rule_constraint(self, c, w, line):
        _refuse_aux(c, line, "aux-in-constraint")
        for var, img in w.items():
            if pb.is_aux_var(var):
                raise CheckError("witness maps order-aux variable %s" % var,
                                 line=line, reason="aux-in-witness")
            if isinstance(img, str) and pb.is_aux_var(pb.var_of(img)):
                raise CheckError("witness image %s is an order-aux variable" % img,
                                 line=line, reason="aux-in-witness")

    def _derived_ids(self):
        return [cid for cid in self.root.cons if cid not in self.core_ids]

    def _witness_images(self, w):
        # bound names are plain variables
        return [w.get(zv, zv) for zv in self.z_binding]

    # ---------------------------------------------------------------- steps

    def step_pol(self, step):
        self.root.step_pol(step)

    def step_rup(self, step):
        self.root.step_rup(step)

    def step_red(self, step):
        c, w, line = step["constraint"], step["witness"], step["line"]
        self._check_rule_constraint(c, w, line)
        spec, order_goals = None, []
        if self.bound.isdisjoint(w):
            self.counters["implicit_reflexivity_skips"] += 1
        else:
            lits, ogs = ordmod.bind(self.loaded, self._witness_images(w),
                                    self.z_binding)
            spec = functools.partial(ordmod.spec_instance, self.loaded, lits)
            order_goals = [("#%d" % k, og) for k, og in enumerate(ogs, 1)]
        failed = redundance(self.root, c, w, order_goals, spec, self.trace)
        if failed is not None:
            key, goal = failed
            raise CheckError("goal %s not derivable" % pb.render(goal),
                             line=line, goal=key, reason="undischarged-goal")

    def step_dom(self, step):
        c, w, line = step["constraint"], step["witness"], step["line"]
        if not self.loaded["left"]:
            raise CheckError("dominance requires a loaded non-trivial order",
                             line=line, reason="no-order")
        self._check_rule_constraint(c, w, line)
        left = self._witness_images(w)
        fixed = [l == z for l, z in zip(left, self.z_binding)]
        if all(fixed):
            raise CheckError("witness acts as identity on the z-binding",
                             line=line, reason="identity-witness")
        moved = self._moved(step, left, fixed)

        sub = Frame(parent=self.root, premises=[pb.negate(c)])

        # --- leq scope: S(z|w, z) premises; goals C|w plus each order constraint
        leqf = ScopeFrame(sub, self.loaded, left, self.z_binding, moved)
        # goals by key: "#k" for the order constraints, the ID for core ones;
        # an order goal without a block may be discharged by hint-free RUP
        pending = {"#%d" % k: og for k, og in enumerate(leqf.defs, 1)}
        falsum_key = "#%d" % (len(pending) + 1)
        # a core constraint the witness does not touch is its own image
        lits = pb.witness_lits(w)
        for cid, con in self.root.touched(w):
            if cid not in self.core_ids:
                continue
            goal = pb.substitute(con, lits)
            if goal.is_tautology() or goal in self.core:
                if self.trace is not None:
                    self.trace.append("core goal %d: auto" % cid)
            else:
                pending[cid] = goal
        _prove_goals(leqf, pending, step["leq"], "leq scope", line,
                     lambda key, goal: isinstance(key, str)
                     and _run_rup(leqf, goal, None, line))

        # --- geq scope: S(z, z|w) and O(z, z|w) premises; single falsum goal
        geqf = ScopeFrame(sub, self.loaded, self.z_binding, left, moved,
                          with_defs=True)
        _prove_goals(geqf, {falsum_key: pb.FALSUM}, step["geq"],
                     "geq scope", line)

        self.root.add(c)

    def _moved(self, step, left, fixed):
        """The positions a dom step's witness moves, given its images
        `left` of the bound names and the positions `fixed` it fixes; None
        for the full instance: no lex<n> is loaded (:func:`orders.lex_size`),
        the witness fixes no position or maps a moved one to 0/1, a scope
        step is a pol (its result is unknown until it runs), or a scope step
        or a live top-level entry names an aux variable that the rows of
        :func:`orders.contract` do not."""
        steps = [s for b in step["leq"] + step["geq"] for s in b["steps"]]
        if not any(fixed) or any(s["kind"] != "rup" for s in steps):
            return None
        if self.shape is None:
            self.shape = ordmod.lex_size(self.loaded) or 0
        moved = [p for p, fix in enumerate(fixed) if not fix]
        if not self.shape or any(not isinstance(left[p], str) for p in moved):
            return None
        gone = set(self.loaded["aux"]).difference(
            *ordmod.contracted_aux(self.shape, moved))
        if any(self.root.occ.get(x) for x in gone) or any(
                not gone.isdisjoint(s["constraint"].variables())
                for s in steps):
            return None
        return moved

    def step_def_order(self, step):
        try:
            ordmod.validate(step, run_obligation, spec_rule())
        except ordmod.OrderError as e:
            raise CheckError(str(e), line=step["line"], reason="bad-order")
        except CheckError as e:
            if e.line is None:  # an obligation goal left without a block
                e.line = step["line"]
            raise
        self.orders[step["name"]] = step

    def step_load_order(self, step):
        name, zvars, line = step["name"], step["vars"], step["line"]
        order = self.orders.get(name)
        if order is None:
            raise CheckError("order %r is not defined and validated" % name,
                             line=line, reason="unknown-order")
        if len(zvars) != len(order["left"]):
            raise CheckError("order %s needs %d variables, got %d"
                             % (name, len(order["left"]), len(zvars)),
                             line=line, reason="arity-mismatch")
        # `red` and `dom` compare witness variables with the bound names
        bad = [z for z in zvars if not pb.is_positive(z) or pb.is_aux_var(z)]
        if bad:
            raise CheckError("bound names %s are not plain variables" % bad,
                             line=line, reason="bad-binding")
        if self._derived_ids():
            raise CheckError("cannot change order with a non-empty derived set",
                             line=line, reason="derived-not-empty")
        self.loaded, self.shape = order, None
        self.z_binding, self.bound = list(zvars), frozenset(zvars)

    def step_delete(self, step):
        line = step["line"]
        # IDs at or above the counter were never assigned, and none below 1
        start = max(step["start"], 1)
        stop = min(step["stop"], self.root.counter[0])
        for cid in range(start, stop):
            if cid in self.core_ids:
                raise CheckError("cannot delete core constraint %d" % cid,
                                 line=line, reason="core-delete")
            # IDs are never reused, so the entry can go; IDs never assigned
            # at top level, or already removed, are skipped
            self.root.remove(cid)

    def step_output(self, step):
        """An output section carries no obligation."""

    def step_conclusion(self, step):
        """An UNSAT claim must hold, and `UNSAT : ID` must cite a visible
        top-level contradiction.  Other claims are not checked."""
        line = step["line"]
        # `UNSAT:1` is `UNSAT : 1`
        toks = " ".join(step["value"]).replace(":", " : ").split()
        if not toks or toks[0].upper() != UNSAT:
            return
        if len(toks) == 1:
            held = self.conclude() == UNSAT
        else:
            cid = pb.parse_int(toks[2]) if len(toks) == 3 else None
            held = (toks[1] == ":" and cid is not None
                    and self.root.get_rel(cid, line).is_contradiction())
        if not held:
            raise CheckError("no contradiction backs conclusion %s"
                             % " ".join(toks), line=line,
                             reason="bad-conclusion")

    def conclude(self):
        if any(con.is_contradiction() for con in self.root.cons.values()):
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


def check_document(formula, doc, trace=None):
    """Check `doc` against `formula`; returns (verdict, counters).
    `doc["steps"]` may be any iterable of steps, such as the stream of
    :func:`parsing.iter_proof`: each step is checked as it comes."""
    chk = Checker(formula)
    chk.trace = trace
    verdict = chk.run(doc)
    return verdict, chk.counters
