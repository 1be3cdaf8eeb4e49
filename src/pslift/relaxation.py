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
  plan as Python source, compiled on the plan's first run and shared by
  every plan with the same text, so every task of a domain shares it. The
  source has one nested loop per step over the matches of the step's index
  key (already bound or constant positions), 16 loops to a function, as
  CPython nests at most 20 blocks in one; the loop binds new variable
  slots, and tests repeated variables and the equality literals that
  become fully bound there. A step's index lookup sits in the outermost
  loop of its function that has bound its key, or at the function's top,
  so it runs once per binding of its key, not once per binding of the
  loops between. Each completion is written into the plan too: it records
  the head's layer and its achiever, the rule with the binding, and
  appends the head to the layer's new atoms, with no call per derived
  atom. Index lists are filled in commit order, so a multi-column key
  yields exactly the matches, in the same order, that filtering any
  one-column list would. The seed atom is step 0, matched against an index
  of the previous layer's atoms keyed by its constants.
* Semi-naive seeding. With seed position k, body atoms before k match only
  atoms committed before the previous layer. A binding skipped this way has
  an atom from the previous layer at some position j < k, so it was already
  enumerated with seed j earlier in the same rule and layer, and its head was
  recorded then; skipping it leaves every first achiever in place. At layer 1
  every fact is new, so only seed position 0 runs.
* Head cut-off. Once a plan has bound every head variable, a head that is
  already derived (in the layers the plan is given as `known`) prunes the
  branch, and a head just derived by the branch's first completion ends
  the branch, by `break` out of each loop below the head's step. Every
  skipped completion would have derived an atom that already has its
  achiever.
* Goal cut-off. The heuristic values stop the fixpoint as soon as every
  goal atom is reached: before layer 1 in a goal state, after the rule of
  layer L that gives the last goal atom its achiever, or after all of B at
  layer 1, never inside B, as the gate follows the adds of B[0]. The
  rest of layer L and its index fills are skipped, and `@goal` is recorded
  at layer L + 1 with the goal rule as its achiever, where the goal rule
  would have derived it. A pointer to the first goal atom not yet reached
  makes each check O(1) amortised. Extraction starts at `@goal`. Each goal
  atom already has its first achiever, which never changes once set, and
  every atom that extraction visits below a goal atom has a strictly lower
  layer, and those layers are complete, so the stop cannot change h.
  `relaxed_reach` runs to the full fixpoint, and so does a dead end, as it
  never reaches every goal atom.
* Fully ground rules (the goal rule, and schemas without parameters) fire
  at the first layer that has all their body atoms, which is exactly when a
  join would have bound them first.

Static facts and `@object` facts are indexed once per program; each call
indexes the state's atoms (and again the static facts of a static predicate
that the state extends) and then each layer's derived atoms. The indexing
is compiled as well, by the fill that the successor query's index uses
(`lifted._fill_source`): a function written as source with one branch per
predicate and its keys written out, and compiled once per text, so every
task of a domain shares it. A program has one fill of its _ALL and _DELTA
tables and one of its _OLD tables. Achievers are stored as (rule,
binding) and expanded into action and body atoms only for the atoms that
extraction visits.

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
it visits into body keys and (schema, object ids) actions, and
`ReachResult.layers` and `.achievers` name the keys for tests and oracles. The enumeration order is
the one over names, so every first achiever, counter and h is the same: the
state is iterated as given, each table is filled in commit order, and the
adds of B are keyed in schema order.

The action-set variant evaluates the transformed task in which a fresh 0-ary
gate `@epsilon` guards every original schema and only the actions of the
given set B open it; B enters at evaluation, not into the program. Each
action of B is applicable, so it fires at layer 1 only: layer 1 runs the
goal rule, then gives each add atom not yet reached the first action of B
that adds it as achiever, which extraction counts as it is, and the gate
after the adds of B[0]. Schema rules run from layer 2 on, never with B empty.
A gate body atom would be every plan's last join step and match once; only
the plan it seeds is needed: the rule's last, opening plan, which binds the
body from the atoms older than the previous layer, at layer 2 only, after
the seed plans unless they derived a ground head. Extraction pushes the gate
with the body of each schema rule achiever, so B[0] is counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from . import lifted
from .lifted import (OBJ, PartialAction, State, _compiled_fill, _fill_source, _is_var,
                     _query_body, _Rule, instantiations, is_applicable)
from .pddl import Task

INF = float("inf")

EPSILON = "@epsilon"
GOAL = "@goal"
# the predicate ids of the internal predicates, first: the keys of the gate
# and of the goal are their ids, in every task
_INTERNAL = (OBJ, GOAL, EPSILON)
GOAL_KEY, GATE = 1, 2

# index table kinds: every atom so far, atoms older than the previous layer,
# and the previous layer's atoms (at layer 1, every layer-0 atom)
_ALL, _OLD, _DELTA = 0, 1, 2

# what a schema rule's plan takes after (tables, binding), and what it does
# with each head that it derives: the head's layer, its achiever and its
# place in the layer's list of new atoms; `n` is the task's key radix
_PLAN_ARGS = ("known", "achievers", "new", "layer", "rule", "n")
_DERIVE = "known[h] = layer\nachievers[h] = (rule, {binding})\nnew.append(h)"


def _key_weights(p: int, arity: int) -> list:
    """The sources of the weights of an atom's object ids in its key, as
    `Numbering.key` computes it: p, p*n, p*n*n, ..., with `p` the number of
    predicate ids and the radix `n` a name."""
    return ["*".join([str(p)] + ["n"] * i) for i in range(arity)]


class Numbering(dict):
    """The fixpoint keys of a task's atoms, one numbering per program, so
    that its tables go with the program. Objects are numbered by
    declaration index, predicates by their id in `preds` (the internal
    ones first, then the task's in order), and an atom's key is its
    predicate id plus `p` times the mixed-radix code of its object ids,
    radix `n`: injective, so keys compare as the atoms do. As a dict it
    maps each key asked about to its (pred, object ids) pair, decoded on
    first use; `atoms` maps an atom id to its (key, pair), made on first
    use, and `adds` an action's key to its add keys in schema order."""

    def __init__(self, task: Task):
        super().__init__()
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

    def __missing__(self, key: int) -> tuple:
        code, pid = divmod(key, self.p)
        args = []
        for _ in range(self.arity[pid]):
            code, arg = divmod(code, self.n)
            args.append(arg)
        pair = self[key] = (self.preds[pid], tuple(args))
        return pair

    def name(self, key: int) -> tuple:
        """The (pred, object names) atom of a key."""
        pred, args = self[key]
        return pred, tuple(self.task.objects[arg] for arg in args)

    def adds_of(self, action: PartialAction) -> list:
        """The keys of a ground action's add atoms, in schema order."""
        keys = self.adds.get(action._key)
        if keys is None:
            index = self.task.object_index
            binding = dict(zip(action.schema.params, action.args))
            keys = self.adds[action._key] = [
                self.key(add.pred, [index[binding.get(a, a)] for a in add.args])
                for add in action.schema.add]
        return keys


class _AtomKeys(dict):
    """Atom id -> (key, the task's (pred, object ids) form of the atom),
    made on first use, as `graphs.atom_vertices` is."""

    def __init__(self, numbering: Numbering):
        super().__init__()
        self.numbering = numbering

    def __missing__(self, i: int) -> tuple:
        numbering = self.numbering
        atom = numbering.task.id_atoms[i]
        key = numbering.key(*atom)
        entry = self[i] = (key, numbering.setdefault(key, atom))
        return entry


def _table(table_ids: dict, k: int, i: int, pred: str, positions: tuple) -> int:
    """The id of the table of body atom i of a plan seeded at position k,
    one per (predicate, key positions, kind)."""
    kind = _DELTA if i == k else _OLD if i < k else _ALL
    return table_ids.setdefault((pred, positions, kind), len(table_ids))


@lru_cache(maxsize=64)
def _written(schemas: tuple, preds: tuple, loops: int) -> tuple:
    """The schema rules of a program, with their join plans; its index
    tables' ids by (predicate, key positions, kind); and its two compiled
    fills. The plans' texts depend only on the schemas, the predicates by
    id, `preds`, and `loops`, the loops per function, so the tasks of a
    domain share them and write them once.

    A live rule with variables gets one plan per seed position: step 0
    binds the seed atom from the atoms new in the previous layer, the later
    steps the other body atoms in the order of `lifted._join_steps`; then
    the opening plan, with every body atom from the atoms older than the
    previous layer."""
    pid = {pred: i for i, pred in enumerate(preds)}
    table_ids: dict = {}
    rules = []
    for schema in schemas:
        body = _query_body(schema)
        for add in schema.add:
            rule = _Rule(add, body, schema.equalities, schema)
            if not rule.ground and rule.live:
                key = (str(pid[add.pred]), _key_weights(len(preds), len(add.args)))
                rule.plans = [rule.plan(partial(_table, table_ids, k), key, _PLAN_ARGS, _DERIVE,
                                        first=k) for k in range(len(rule.body) + 1)]
            rules.append(rule)
    # the fill of the _ALL and _DELTA tables, and that of the _OLD tables
    fills = [_compiled_fill(_fill_source((table, tid) for table, tid in table_ids.items()
                                         if (table[2] == _OLD) == old)) for old in (False, True)]
    return (rules, table_ids, *fills)


class EmptyActionSet(Exception):
    pass


@dataclass
class ReachResult:
    """Fixpoint output, by key: the unit-cost layer of every reached atom,
    and one achiever per derived atom, stored as the (rule, binding of
    object ids) that derived it, or as (action, None) for an action of the
    set B. `layers` and `achievers` name them: by (pred, args) atom, with
    each binding's objects by name, made on first read."""

    numbering: Numbering
    key_layers: dict
    key_achievers: dict

    @cached_property
    def layers(self) -> dict:
        name = self.numbering.name
        return {name(key): layer for key, layer in self.key_layers.items()}

    @cached_property
    def achievers(self) -> dict:
        name, objects = self.numbering.name, self.numbering.task.objects
        return {name(key): (source, binding if binding is None else
                            tuple(None if v is None else objects[v] for v in binding))
                for key, (source, binding) in self.key_achievers.items()}


class DatalogProgram:
    """Datalog view of a task, shared by h_ff and its restricted variant."""

    def __init__(self, task: Task):
        self.task = task
        self.numbering = keys = Numbering(task)
        rules, self._table_ids, self._fill_new, self._fill_old = _written(
            task.schemas, keys.preds, lifted._LOOPS_PER_FUNCTION)
        goal_body = [task.atom(g) for g in sorted(task.goal)]
        self.rules: list[_Rule] = rules + [_Rule((GOAL, ()), goal_body, (), None)]

        # per rule: its binding template with object ids; the key of its
        # head if ground, else None; the keys of its body if ground, else
        # None; and, for extraction, each body atom's (pred, slots)
        index = task.object_index
        self._run: list = []
        self._bodies: dict = {}
        for rule in self.rules:
            template = tuple(None if v is None else index[v] for v in rule.template)

            def key_of(atom):
                pred, args = atom
                return keys.key(pred, [template[rule.slots[a]] for a in args])

            head = None if any(map(_is_var, rule.head[1])) else key_of(rule.head)
            self._run.append((rule, template, head,
                              [key_of(atom) for atom in rule.body] if rule.ground else None))
            self._bodies[rule] = [(pred, [rule.slots[a] for a in args])
                                  for pred, args in rule.body]

        self.base_facts: list[tuple] = [keys.atoms[i][1] for i in sorted(task.static_atoms)]
        self.base_facts.extend((OBJ, (i,)) for i in range(len(task.objects)))
        self._base_layers = {keys.key(pred, args): 0 for pred, args in self.base_facts}
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
        state. Unless `full` asks for every layer, the fixpoint stops once
        every goal atom is reached, before layer 1, after a rule or after all
        of B, and records `@goal` at the next layer (`_cut`)."""
        keys = self.numbering
        layers = dict(self._base_layers)
        achievers: dict = {}
        tables = list(self._tables)
        for tid in self._fluent_tables:
            tables[tid] = {}
        goal = self._run[-1][3]
        todo = 0

        def reached() -> bool:
            # the goal keys before `todo` are reached, and stay so
            nonlocal todo
            if full:
                return False
            while todo < len(goal) and goal[todo] in layers:
                todo += 1
            return todo == len(goal)

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
        if reached():
            return self._cut(layers, achievers, 0)
        self._fill_new(fresh, tables)

        new: list = []
        layer = 0
        n = keys.n
        pending = bool(layers)
        # the first layer of the schema rules; with B, it opens them
        first = 1 if chosen is None else 2 if chosen else INF

        def derive(source, head, binding):
            layers[head] = layer
            achievers[head] = (source, binding)
            new.append(head)

        while pending:
            layer += 1
            new = []
            # seed 0 at layer 1; the opening plan only at an opening layer
            stop = 1 if layer == 1 else None if layer == first else -1
            for rule, template, head, body in self._run if layer >= first else self._run[-1:]:
                if body is not None:
                    if head not in layers and rule.live:
                        for key in body:
                            found = layers.get(key)
                            if found is None or found >= layer:
                                break
                        else:
                            derive(rule, head, template)
                elif rule.plans and (head is None or head not in layers):
                    for plan in rule.plans[:stop]:
                        # skip a plan whose first table is empty; a plan is
                        # True only once it has derived a ground head
                        if tables[plan.table] and plan.run(tables, template, layers, achievers,
                                                           new, layer, rule, n):
                            break
                if reached():
                    return self._cut(layers, achievers, layer)
            if layer == 1 and chosen:
                # B is applicable in the state: each action fires here only
                for action in chosen:
                    for head in keys.adds_of(action):
                        if head not in layers:
                            derive(action, head, None)
                    if GATE not in layers:
                        derive(action, GATE, None)
                if reached():
                    return self._cut(layers, achievers, layer)

            pending = bool(new)
            if pending:
                # the previous layer's atoms become old; this layer's, delta
                self._fill_old(fresh, tables)
                for tid in self._delta_tables:
                    tables[tid] = {}
                fresh = list(map(keys.__getitem__, new))
                self._fill_new(fresh, tables)

        return ReachResult(keys, layers, achievers)

    def _cut(self, layers: dict, achievers: dict, layer: int) -> ReachResult:
        """The result of a fixpoint stopped in `layer`: `@goal` at the next
        layer, with the goal rule as its achiever."""
        rule, template, _, _ = self._run[-1]
        layers[GOAL_KEY] = layer + 1
        achievers[GOAL_KEY] = (rule, template)
        return ReachResult(self.numbering, layers, achievers)

    # -- heuristic values -----------------------------------------------------

    def _extract(self, reach: ReachResult) -> float:
        layers, achievers = reach.key_layers, reach.key_achievers
        if GOAL_KEY not in layers:
            return INF
        gated = GATE in layers
        key_of = self.numbering.key
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
            stack.extend(key_of(pred, [binding[slot] for slot in slots])
                         for pred, slots in self._bodies[source])
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
