"""Delete relaxation via a lifted Datalog program, and the restriction
transform that turns the FF heuristic into an action-set heuristic.

Each action schema contributes one rule per add effect (head = add atom, body =
preconditions); static atoms are preloaded facts and the state supplies the
remaining facts per evaluation. Reachability runs as a fixpoint in unit-cost
layers, recording one best (first, lowest-layer) achiever per derived atom; the
FF value is the number of distinct actions in the plan extracted by chasing
achievers back from the goal.

The achiever of an atom is the first rule binding that derives it in its layer,
so the order in which bindings are enumerated is part of the result. That
order is: rules in program order, then seed position, then seed atom in commit
order, then the remaining body atoms most-bound first (ties by position), each
over its matches in commit order. Evaluation is compiled so that it finds the
same first bindings while enumerating far fewer:

* Join plans. The most-bound-first order depends only on which variables are
  bound, i.e. on the rule and the seed position, so one plan per (rule, seed
  position) is built with the program. Successor generation shares the rule
  type `lifted._Rule` and the planner `lifted._join_steps`, which writes each
  plan as Python source, compiled on the plan's first run; the tasks of a
  domain share the plan (`_written`), and so its function. The source has
  one nested loop per step over the matches of the step's index key
  (already bound or constant positions), 16 loops to a function, as
  CPython nests at most 20 blocks in one; the loop binds new variable
  slots, and tests repeated variables and the equality literals that
  become fully bound there. A step's index lookup sits in the outermost
  loop of its function that has bound its key, or at the function's top,
  so it runs once per binding of its key, not once per binding of the
  loops between. Each completion is written into the plan too: it records
  the head's layer and its achiever, the rule with the binding, and
  appends the head's (pred, object ids) pair, the predicate written into
  the text, to the layer's new atoms, which the next layer's fill reads as
  they are, with no call and no decoding per derived atom; the adds of B
  and the gate carry their pairs too (`Numbering.adds_of`). Index lists are
  filled in commit order, so a multi-column key yields exactly the
  matches, in the same order, that filtering any one-column list would.
  The seed atom is step 0, matched against an index of the previous
  layer's atoms keyed by its constants.

  A plan caps the values of a variable v that only inequalities read:
  v is bound at step d, is not in the head, no atom joined after step d
  reads it, k inequality literals compare it with variables bound after
  step d, and a step after d binds a head variable. Fix the binding of
  every other variable bound up to step d, v's group. The later steps
  enumerate the same bindings whatever v is, and each of them rules out at
  most k values of v, so the first k + 1 values of v in a group meet each
  later binding with a value that passes its k tests: they find the first
  achiever of every head that a later value could find, and a later value
  only probes heads that are already known. The plan counts the values of
  v per group and skips each after the first k + 1, which keeps every first
  achiever and the commit order. In warehouse-like's `move`, `on(?b,?to)`
  seeded by Δ`on(?b,?from)` or Δ`clear(?b)` caps `?from` per `?b` (k = 1),
  and `clear(?from)` seeded by Δ`clear(?to)` caps `?to` (k = 2, an empty
  group); blocksworld's `clear(?x)` seeded by Δ`clear(?y)` in `stack`
  caps `?y` (k = 0). Where the head is bound by step d, the `known` probe
  prunes each later value once the head is derived, and no step is capped.
* Semi-naive seeding. With seed position k, body atoms before k match only
  atoms committed before the previous layer. A binding skipped this way has
  an atom from the previous layer at some position j < k, so it was already
  enumerated with seed j earlier in the same rule and layer, and its head was
  recorded then; skipping it leaves every first achiever in place. At layer 1
  every fact is new, so only seed position 0 runs; layer 1 runs even when
  layer 0 is empty, for a rule with an empty body. A program lists its
  rules with the plans of each kind of layer once: seed 0 at layer 1,
  every plan at an opening layer (below), all but the opening plan at a
  later one. A ground rule runs through its plans too, and fires at its
  highest body layer + 1.
* Head cut-off. Once a plan has bound every head variable, a head that is
  already derived (in the layers the plan is given as `known`) prunes the
  branch, and a head just derived by the branch's first completion ends
  the branch, by `break` out of each loop below the head's step. Every
  skipped completion would have derived an atom that already has its
  achiever.
* Goal cut-off. `@goal` is recorded once, as soon as every goal atom is
  reached: before layer 1 in a goal state, after the adds of B at layer 1,
  never inside B, as the gate follows the adds of B[0], or at the layer L
  that gives the last goal atom its achiever. It goes to layer L + 1 with
  the goal rule as its achiever, where the goal rule would derive it; no
  layer runs the goal rule, as no rule body reads `@goal`. The heuristic
  values stop the fixpoint there, and answer layer L without running it:
  before a layer's rules run, each goal atom not yet reached is probed.
  A probe is the plan of a rule whose head unifies with the goal atom, with
  the same steps over the same index tables, each head variable tested
  where it is bound against a pseudo-constant slot after the rule's slots
  that holds the goal atom's value; it has no `known`, so no head cut-off
  and no cap, and its first completion raises `lifted._Stop` with its
  binding. The probes of a goal atom go through the rules in program order
  and the plans of the layer's kind in seed order, so the first binding
  that they find is the first binding of the layer that derives the atom,
  its first achiever. If every goal atom gets one, each is recorded at the
  layer with it, `@goal` above them, and the fixpoint returns; otherwise
  the layer runs. A layer that runs thus never reaches every goal atom.
  Extraction starts at `@goal`: each goal atom has its first achiever, and
  every atom that extraction visits below a goal atom has a strictly lower
  layer, and those layers are complete, so the stop cannot change h.
  `relaxed_reach` runs on to the full fixpoint and probes nothing, and
  records `@goal` after the rule that reached the last goal atom; a dead
  end runs to the end, as no layer's probes ever find every goal atom.

Static facts and `@object` facts are indexed once per program; each call
indexes the state's atoms (and again the static facts of a static predicate
that the state extends) and then each layer's derived atoms. The indexing
is compiled as well, by the fill that the successor query's index uses
(`lifted._fill_source`): a function written as source with one branch per
predicate and its keys written out, and compiled once per domain
(`_written`), so every task of a domain shares it. A program has one fill
of its _ALL and _DELTA tables and one of its _OLD tables. Achievers are
stored as (rule, binding) and expanded into action and body atoms only for
the atoms that extraction visits.

Atoms are ints throughout the fixpoint (`Numbering`). A task's objects are
numbered once, by declaration index, and an atom's key is its predicate id
plus the number of predicate ids times the mixed-radix code of its object
ids, with the number of objects as radix. The code is injective, so
equality tests, `known` probes and the count of distinct actions mean what
they meant over names. The index tables hold tuples of object ids, and a
plan computes a head's key as a weighted sum, each loop adding the terms of
the values that it binds. The radix is an argument of the plan, not part of
its text, so the tasks of a domain share every plan, and a domain's later
tasks do not write the plans again (`_written`). A state's atom ids map to
keys through a table of the program's, filled as ids are first seen from
the (pred, object ids) form of each atom that `Task.intern` makes. Names
come back only where they are read: extraction expands the achievers that
it visits into body keys and (schema, object ids) actions, each body key a
sum of ints, the body atom's predicate id plus its binding's values times
the weights that the program keeps per rule. A `ReachResult` holds keys
only; the tests' oracles decode them. The enumeration order is
the one over names, so every first achiever, counter and h is the same: the
state is iterated as given, each table is filled in commit order, and the
adds of B are keyed in schema order.

The action-set variant evaluates the transformed task in which a fresh 0-ary
gate `@epsilon` guards every original schema and only the actions of the
given set B open it; B enters at evaluation, not into the program. Each
action of B is applicable, so it fires at layer 1 only: layer 1 runs no
rule, and gives each add atom not yet reached the first action of B that
adds it as achiever, which extraction counts as it is, and the gate after
the adds of B[0]. Schema rules run from layer 2 on, never with B empty.
A gate body atom would be every plan's last join step and match once; only
the plan it seeds is needed: the rule's last, opening plan, which binds the
body from the atoms older than the previous layer, at layer 2 only, after
the seed plans unless they derived a ground head. Extraction pushes the gate
with the body of each schema rule achiever, so B[0] is counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from . import lifted
from .lifted import (OBJ, PartialAction, State, _fill_source, _is_var, _query_body, _Rule, _Stop,
                     instantiations, is_applicable)
from .pddl import Task

INF = float("inf")

EPSILON = "@epsilon"
GOAL = "@goal"
# the predicate ids of the internal predicates, first: the keys of the gate
# and of the goal are their ids, in every task
_INTERNAL = (OBJ, GOAL, EPSILON)
GOAL_KEY, GATE = 1, 2
# the gate's (key, (pred, object ids) pair), as `Numbering.adds_of` lists adds
_OPEN = [(GATE, (EPSILON, ()))]

# index table kinds: every atom so far, atoms older than the previous layer,
# and the previous layer's atoms (at layer 1, every layer-0 atom)
_ALL, _OLD, _DELTA = 0, 1, 2

# what a schema rule's plan takes after (tables, binding), and what it does
# with each head that it derives: the head's layer, its achiever, and its
# (pred, object ids) pair in the layer's list of new atoms, as the next
# layer's fill reads it; `n` is the task's key radix
_PLAN_ARGS = ("known", "achievers", "new", "layer", "rule", "n")
_DERIVE = """known[h] = layer
achievers[h] = (rule, {binding})
new.append(({pred}, {head}))"""

# the layers of each kind, as slices of a rule's plans: seed 0 at layer 1,
# every plan at an opening layer, all but the opening plan at a later one
_CUTS = (slice(1), slice(None), slice(-1))


def _key_weights(p: int, arity: int) -> list:
    """The sources of the weights of an atom's object ids in its key, as
    `Numbering.key` computes it: p, p*n, p*n*n, ..., with `p` the number of
    predicate ids and the radix `n` a name."""
    return ["*".join([str(p)] + ["n"] * i) for i in range(arity)]


class Numbering:
    """The fixpoint keys of a task's atoms, one numbering per program, so
    that its tables go with the program. Objects are numbered by
    declaration index, predicates by their id in `preds` (the internal
    ones first, then the task's in order), and an atom's key is its
    predicate id plus `p` times the mixed-radix code of its object ids,
    radix `n`: injective, so keys compare as the atoms do. `atoms` maps an
    atom id to its (key, (pred, object ids) pair), made on first use, and
    `adds` an action's key to its adds' (key, pair) entries in schema
    order."""

    def __init__(self, task: Task):
        self.task = task
        self.preds = _INTERNAL + tuple(pred.name for pred in task.predicates)
        self.pid = {pred: i for i, pred in enumerate(self.preds)}
        self.arity = (1, 0, 0) + tuple(pred.arity for pred in task.predicates)
        self.p = len(self.preds)
        self.n = max(len(task.objects), 1)
        self.atoms = _AtomKeys(self)
        self.adds: dict = {}

    def key(self, pred: str, args) -> int:
        """The key of pred over the object ids args."""
        code = 0
        for arg in reversed(args):
            code = code * self.n + arg
        return self.pid[pred] + self.p * code

    def adds_of(self, action: PartialAction) -> list:
        """The (key, (pred, object ids) pair) of each of a ground action's
        add atoms, in schema order."""
        entries = self.adds.get(action._key)
        if entries is None:
            index = self.task.object_index
            binding = dict(zip(action.schema.params, action.args))
            pairs = [(add.pred, tuple(index[binding.get(a, a)] for a in add.args))
                     for add in action.schema.add]
            entries = self.adds[action._key] = [(self.key(*pair), pair) for pair in pairs]
        return entries


class _AtomKeys(dict):
    """Atom id -> (key, the task's (pred, object ids) form of the atom),
    made on first use, as `graphs.atom_vertices` is."""

    def __init__(self, numbering: Numbering):
        super().__init__()
        self.numbering = numbering

    def __missing__(self, i: int) -> tuple:
        atom = self.numbering.task.id_atoms[i]
        entry = self[i] = (self.numbering.key(*atom), atom)
        return entry


class _BodyTerms(dict):
    """Rule -> each body atom's predicate id and its (binding slot, weight)
    terms, made on first use: over a binding of the rule, the predicate id
    plus the sum of the terms' weights times their slots' values is the
    atom's key, as `Numbering.key` computes it."""

    def __init__(self, numbering: Numbering):
        super().__init__()
        self.pid = numbering.pid
        self.weights = [numbering.p * numbering.n ** j for j in range(max(numbering.arity))]

    def __missing__(self, rule: _Rule) -> list:
        slot, weights = rule.slots.__getitem__, self.weights
        terms = self[rule] = [(self.pid[pred], list(zip(map(slot, args), weights)))
                              for pred, args in rule.body]
        return terms


def _table(table_ids: dict, k: int, i: int, pred: str, positions: tuple) -> int:
    """The id of the table of body atom i of a plan seeded at position k,
    one per (predicate, key positions, kind)."""
    kind = _DELTA if i == k else _OLD if i < k else _ALL
    return table_ids.setdefault((pred, positions, kind), len(table_ids))


def _probe(rule: _Rule, table, first: int) -> lifted._Plan:
    """The probe of the plan of rule seeded at body atom `first`: the same
    steps over the same index tables, each head variable tested, where it is
    bound, against a pseudo-constant slot after the rule's slots, which the
    goal atom fills (`_pinned`). It has no `known`, so no head cut-off and
    no cap, and its first completion raises `_Stop` with the binding of the
    rule's slots."""
    # a pseudo-constant's term holds a space, which no PDDL name does
    pins = {v: f"= {v}" for v in rule.head[1] if _is_var(v)}
    slots = dict(rule.slots)
    slots.update((pin, len(rule.slots) + i) for i, pin in enumerate(pins.values()))
    eqs = rule.eqs + tuple((v, pin, True) for v, pin in pins.items())
    return lifted._join_steps(rule.body, eqs, slots, {a for a in slots if not _is_var(a)}, table,
                              rule.head, None, (), f"raise _Stop({{binding}}[:{len(rule.slots)}])",
                              first)


def _pinned(rule: _Rule, pred: str, ids: tuple, index: dict):
    """The values of rule's head variables, in order of first appearance, in
    the atom pred(ids) of object ids, or None if the head does not unify
    with it."""
    if rule.head[0] != pred:
        return None
    values: dict = {}
    for a, i in zip(rule.head[1], ids):
        want = values.setdefault(a, i) if _is_var(a) else index[a]
        if want != i:
            return None
    return tuple(values.values())


@lru_cache(maxsize=64)
def _written(schemas: tuple, preds: tuple, loops: int) -> tuple:
    """The schema rules of a program, with their join plans; their probes,
    one list per rule; its index tables' ids by (predicate, key positions,
    kind); and its two compiled fills. The texts depend only on the
    schemas, the predicates by id, `preds`, and `loops`, the loops per
    function, so the tasks of a domain share them and write them once.

    A live rule gets one plan per seed position: step 0 binds the seed atom
    from the atoms new in the previous layer, the later steps the other
    body atoms in the order of `lifted._join_steps`; then the opening plan,
    with every body atom from the atoms older than the previous layer. Each
    plan has its probe (`_probe`), which looks up the plan's tables."""
    pid = {pred: i for i, pred in enumerate(preds)}
    table_ids: dict = {}
    rules, probes = [], []
    for schema in schemas:
        body = _query_body(schema)
        for add in schema.add:
            rule = _Rule(add, body, schema.equalities, schema)
            seeds = range(len(rule.body) + 1) if rule.live else ()
            key = (str(pid[add.pred]), _key_weights(len(preds), len(add.args)))
            rule.plans = [rule.plan(partial(_table, table_ids, k), key, _PLAN_ARGS, _DERIVE,
                                    first=k) for k in seeds]
            rules.append(rule)
            probes.append([_probe(rule, partial(_table, table_ids, k), k) for k in seeds])
    # the fill of the _ALL and _DELTA tables, and that of the _OLD tables
    fills = [lifted._define(_fill_source((table, tid) for table, tid in table_ids.items()
                                         if (table[2] == _OLD) == old), "index fill", "fill")
             for old in (False, True)]
    return (rules, probes, table_ids, *fills)


class EmptyActionSet(Exception):
    pass


@dataclass
class ReachResult:
    """Fixpoint output, by key: the unit-cost layer of every reached atom,
    and one achiever per derived atom, stored as the (rule, binding of
    object ids) that derived it, or as (action, None) for an action of the
    set B."""

    key_layers: dict
    key_achievers: dict


class DatalogProgram:
    """Datalog view of a task, shared by h_ff and its restricted variant."""

    def __init__(self, task: Task):
        self.task = task
        self.numbering = keys = Numbering(task)
        rules, probes, self._table_ids, self._fill_new, self._fill_old = _written(
            task.schemas, keys.preds, lifted._LOOPS_PER_FUNCTION)
        goal = _Rule((GOAL, ()), [task.atom(g) for g in sorted(task.goal)], (), None)
        self.rules: list[_Rule] = rules + [goal]

        self._bodies = _BodyTerms(keys)
        # per schema rule: its binding template with object ids, and the key
        # of its head if ground, else None
        index = task.object_index
        run = []
        for rule in rules:
            pred, args = rule.head
            head = None if any(map(_is_var, args)) else keys.key(pred, [index[a] for a in args])
            run.append((rule, tuple(None if v is None else index[v] for v in rule.template), head))
        # no layer runs the goal rule: once every goal key is reached,
        # `@goal` is recorded with the goal rule's binding as its achiever
        self._goal_achiever = (goal, tuple(index[c] for c in goal.template))
        # the rules with the plans that each kind of layer runs
        self._runs = [[entry + (plans,) for entry in run if (plans := entry[0].plans[cut])]
                      for cut in _CUTS]
        # per goal key, each rule whose head unifies with the goal atom, in
        # program order, with its probes and their binding: the rule's
        # template and then the goal atom's values of the head variables;
        # per kind of layer, each goal key's probes of the plans that the
        # kind runs, rules in program order and plans in seed order
        goal_atoms = [keys.atoms[i] for i in sorted(task.goal)]
        self._goal = [key for key, _ in goal_atoms]
        pinned = [[(rule, template + values, rule_probes)
                   for (rule, template, _), rule_probes in zip(run, probes)
                   if (values := _pinned(rule, *pair, index)) is not None]
                  for _, pair in goal_atoms]
        self._probes = [{key: [(probe, b, rule) for rule, b, rule_probes in entries
                               for probe in rule_probes[cut]]
                         for key, entries in zip(self._goal, pinned)} for cut in _CUTS]

        static = [keys.atoms[i] for i in sorted(task.static_atoms)]
        self.base_facts: list[tuple] = [pair for _, pair in static]
        self.base_facts.extend((OBJ, (i,)) for i in range(len(task.objects)))
        self._base_layers = dict.fromkeys([key for key, _ in static], 0)
        self._base_layers.update((keys.key(OBJ, (i,)), 0) for i in range(len(task.objects)))
        self._static = {p.name for p in task.predicates if p.is_static} | {OBJ}

        # index tables: one per (predicate, key positions, kind); a table
        # maps a key to the matching atoms' object ids in commit order
        self._tables: list = [{} for _ in self._table_ids]
        self._fill_new(self.base_facts, self._tables)
        self._fill_old(self.base_facts, self._tables)
        self._fluent_tables = [
            tid for (pred, _, _), tid in self._table_ids.items() if pred not in self._static
        ]
        self._delta_tables = [
            tid for (_, _, kind), tid in self._table_ids.items() if kind == _DELTA
        ]

    def dump(self) -> str:
        return "\n".join(r.text() for r in self.rules) + "\n"

    # -- fixpoint -----------------------------------------------------------

    def _fixpoint(self, state: State, chosen=None, full=False) -> ReachResult:
        """Layers and achievers of the program from state; `chosen` is None or
        the action set B of the restriction transform, all applicable in
        state. Once every goal atom is reached, before layer 1, by a rule or
        by the adds of B, `@goal` is recorded at the next layer. Unless
        `full` asks for every layer, the fixpoint stops there, and probes
        each layer before it runs: if every goal atom not yet reached has
        an achiever in it, they are recorded and the layer does not run."""
        keys = self.numbering
        layers = dict(self._base_layers)
        achievers: dict = {}
        tables = list(self._tables)
        for tid in self._fluent_tables:
            tables[tid] = {}
        layer = 0

        # layer-0 atoms indexed per call: the state's, plus the static facts
        # of any static predicate the state extends
        fresh: list = []
        extended: set = set()
        for key, pair in map(keys.atoms.__getitem__, state):
            if key in layers:
                continue
            pred = pair[0]
            if pred in self._static and pred not in extended:
                extended.add(pred)
                for (p, _, _), tid in self._table_ids.items():
                    if p == pred:
                        tables[tid] = {}
                fresh.extend(f for f in self.base_facts if f[0] == pred)
            layers[key] = 0
            fresh.append(pair)

        # the goal keys not yet reached
        goals = [key for key in self._goal if key not in layers]

        def record():
            goals.clear()
            layers[GOAL_KEY] = layer + 1
            achievers[GOAL_KEY] = self._goal_achiever

        if not goals:
            record()
            if not full:
                return ReachResult(layers, achievers)
        self._fill_new(fresh, tables)

        n = keys.n
        # the first layer of the schema rules; with B, it opens them
        first = 1 if chosen is None else 2 if chosen else INF
        while True:
            layer += 1
            new = []
            kind = None if layer < first else 0 if layer == 1 else 1 if layer == first else 2
            runs = () if kind is None else self._runs[kind]
            if goals and runs and not full:
                # if the layer reaches every goal atom, its probes find each
                # one's first achiever, and it does not run
                goals[:] = [key for key in goals if key not in layers]
                found = self._first_achievers(self._probes[kind], goals, tables)
                if found is not None:
                    for key, achiever in found:
                        layers[key] = layer
                        achievers[key] = achiever
                    record()
                    return ReachResult(layers, achievers)
            for rule, template, head, plans in runs:
                if head is None or head not in layers:
                    for plan in plans:
                        # skip a plan whose first table is empty (a plan
                        # without steps has none); a plan is True only once
                        # it has derived a ground head
                        if ((plan.table is None or tables[plan.table])
                                and plan.run(tables, template, layers, achievers, new, layer,
                                             rule, n)):
                            break
                    if full and goals and all(map(layers.__contains__, goals)):
                        # the rule reached the last goal atom
                        record()
            if layer == 1 and chosen:
                # B is applicable in the state: each action fires here only,
                # and B[0] opens the gate after its adds; the goal waits for
                # the end of B
                for action in chosen:
                    for head, pair in keys.adds_of(action) + _OPEN:
                        if head not in layers:
                            layers[head] = layer
                            achievers[head] = (action, None)
                            new.append(pair)
                if goals and all(map(layers.__contains__, goals)):
                    record()
                    if not full:
                        return ReachResult(layers, achievers)
            if not new:
                return ReachResult(layers, achievers)
            # the previous layer's atoms become old; this layer's, delta
            self._fill_old(fresh, tables)
            for tid in self._delta_tables:
                tables[tid] = {}
            fresh = new
            self._fill_new(fresh, tables)

    @staticmethod
    def _first_achievers(probes: dict, goals: list, tables: list):
        """The first achiever in the layer about to run of each goal key in
        goals, as (key, achiever) pairs, from its probes in order; None once
        a goal key has none."""
        found = []
        for key in goals:
            for probe, b, rule in probes[key]:
                if probe.table is None or tables[probe.table]:
                    try:
                        probe.run(tables, b)
                    except _Stop as stop:
                        found.append((key, (rule, stop.args[0])))
                        break
            else:
                return None
        return found

    # -- heuristic values -----------------------------------------------------

    def _extract(self, reach: ReachResult) -> float:
        layers, achievers = reach.key_layers, reach.key_achievers
        if GOAL_KEY not in layers:
            return INF
        gated = GATE in layers
        actions = set()
        seen = set()
        stack = [GOAL_KEY]
        while stack:
            key = stack.pop()
            if key in seen or layers[key] == 0:
                continue
            seen.add(key)
            source, binding = achievers[key]
            if binding is None:
                # an action of B: its preconditions are all at layer 0
                actions.add(source)
                continue
            for key, terms in self._bodies[source]:
                for slot, weight in terms:
                    key += weight * binding[slot]
                stack.append(key)
            action_key = source.action_of(binding)
            if action_key is not None:
                actions.add(action_key)
                if gated:
                    stack.append(GATE)
        return len(actions)

    def relaxed_reach(self, state: State, actions=None) -> ReachResult:
        """Layers and achievers of the full fixpoint, optionally with the
        action set B."""
        if actions is None:
            return self._fixpoint(state, full=True)
        return self._fixpoint(state, self._chosen(state, actions), full=True)

    def h_ff(self, state: State) -> float:
        """Relaxed-plan size, 0 iff the goal already holds, inf on dead ends."""
        return self._extract(self._fixpoint(state))

    def _chosen(self, state: State, actions) -> list:
        """The action set B as a list, each action checked applicable in state."""
        actions = list(actions)
        for action in actions:
            if not is_applicable(self.task, state, action):
                raise ValueError(f"{action!r} is not applicable in the state")
        return actions

    def h_ff_restricted(self, state: State, actions) -> float:
        """FF value of the B-restricted task; B enters only this call's
        fixpoint, so interleaved evaluations cannot interfere."""
        actions = list(actions)
        if not actions:
            if self.task.is_goal(state):
                return 0
            raise EmptyActionSet("no actions given and the goal does not hold")
        return self._extract(self._fixpoint(state, self._chosen(state, actions)))


# ---------------------------------------------------------------------------
# heuristic callables for the search module

class FFHeuristic:
    """State-space FF heuristic: state -> float."""

    def __init__(self, task: Task):
        self.program = DatalogProgram(task)

    def __call__(self, state: State) -> float:
        return self.program.h_ff(state)


class RestrictedFFHeuristic:
    """Action-set FF heuristic: (state, partial action rho) -> float, with B
    the applicable instantiations of rho."""

    def __init__(self, task: Task):
        self.task = task
        self.program = DatalogProgram(task)

    def __call__(self, state: State, rho: PartialAction) -> float:
        actions = list(instantiations(self.task, state, rho))
        if not actions:
            # a node without applicable instantiations is a dead end
            return 0 if self.task.is_goal(state) else INF
        # instantiations yields only applicable actions: no check needed
        return self.program._extract(self.program._fixpoint(state, actions))
