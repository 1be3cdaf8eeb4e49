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
  type `lifted._Rule`, the planner `lifted._join_steps` and the executor
  `lifted._descend`, the one backtracking join. Each step of a plan names the
  index key (already bound or constant positions), the positions that bind
  new variable slots, repeated-variable checks, and the equality literals
  that become fully bound there. Index lists are filled in commit order, so a
  multi-column key yields exactly the matches, in the same order, that
  filtering any one-column list would. The seed atom is step 0, matched
  against an index of the previous layer's atoms keyed by its constants.
* Semi-naive seeding. With seed position k, body atoms before k match only
  atoms committed before the previous layer. A binding skipped this way has
  an atom from the previous layer at some position j < k, so it was already
  enumerated with seed j earlier in the same rule and layer, and its head was
  recorded then; skipping it leaves every first achiever in place. At layer 1
  every fact is new, so only seed position 0 runs.
* Head cut-off. Once a plan has bound every head variable, a head that is
  already derived prunes the branch, and a head just derived by the branch's
  first completion ends the branch. Every skipped completion would have
  derived an atom that already has its achiever.
* Goal cut-off. The heuristic values stop the fixpoint after the layer L
  that derives `@goal`. The goal rule is ground and the last rule, so it
  fires at layer L only after every other rule of layer L has run, and only
  when every goal atom is below L; at layer 1, B is applied after the rules,
  so all of layer 1 runs before the stop. Extraction visits only atoms
  below L, and each of them got its first achiever by the end of its own
  layer, so later layers cannot change h. `relaxed_reach` runs to the full
  fixpoint, and so does a dead end, as it never derives `@goal`.
* Fully ground rules (the goal rule, and schemas without parameters) fire
  at the first layer that has all their body atoms, which is exactly when a
  join would have bound them first.

Static facts and `@object` facts are indexed once per program; each call
indexes only the state and the derived atoms. Achievers are stored as (rule,
binding) and expanded into action and body atoms only for the atoms that
extraction visits.

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
from functools import partial

from .lifted import (OBJ, PartialAction, State, _descend, _fill, _key_getter, _query_body,
                     _Rule, instantiations, is_applicable)
from .pddl import Task

INF = float("inf")

EPSILON = "@epsilon"
GOAL = "@goal"
_INTERNAL = {EPSILON, GOAL, OBJ}
GATE = (EPSILON, ())
GOAL_KEY = (GOAL, ())

# index table kinds: every atom so far, atoms older than the previous layer,
# and the previous layer's atoms (at layer 1, every layer-0 atom)
_ALL, _OLD, _DELTA = 0, 1, 2


class EmptyActionSet(Exception):
    pass


@dataclass
class ReachResult:
    """Fixpoint output: the unit-cost layer of every reached atom, and one
    achiever per derived atom, stored as the (rule, binding) that derived
    it, or as (action, None) for an action of the set B."""

    layers: dict
    achievers: dict

    @property
    def atoms(self) -> frozenset:
        """The fluent atoms reached, plus the gate when B was given."""
        return frozenset(
            key for key in self.layers if key[0] == EPSILON or key[0] not in _INTERNAL
        )


class DatalogProgram:
    """Datalog view of a task, shared by h_ff and its restricted variant."""

    def __init__(self, task: Task):
        self.task = task
        self.rules: list[_Rule] = []
        for schema in task.schemas:
            body = _query_body(schema)
            for add in schema.add:
                self.rules.append(_Rule(add, body, schema.equalities, schema))
        goal_body = [task.atom(g) for g in sorted(task.goal)]
        self.rules.append(_Rule((GOAL, ()), goal_body, (), None))

        self.base_facts: list[tuple] = [task.atom(i) for i in sorted(task.static_atoms)]
        self.base_facts.extend((OBJ, (o,)) for o in task.objects)
        self._base_layers = dict.fromkeys(self.base_facts, 0)
        self._static = {p.name for p in task.predicates if p.is_static} | {OBJ}

        # index tables: one per (predicate, key positions, kind); a table
        # maps a key to the matching atoms' args in commit order
        self._table_ids: dict = {}
        # pred -> [(table id, key getter)], of _ALL and _DELTA and of _OLD tables
        self._new_tables_of: dict[str, list] = {}
        self._old_tables_of: dict[str, list] = {}
        for rule in self.rules:
            self._compile(rule)
        self._tables: list = [{} for _ in self._table_ids]
        _fill(self.base_facts, self._new_tables_of, self._tables)
        _fill(self.base_facts, self._old_tables_of, self._tables)
        self._fluent_tables = [
            tid for (pred, _, _), tid in self._table_ids.items() if pred not in self._static
        ]
        self._delta_tables = [
            tid for (_, _, kind), tid in self._table_ids.items() if kind == _DELTA
        ]

    def dump(self) -> str:
        return "\n".join(r.text() for r in self.rules) + "\n"

    # -- compilation ----------------------------------------------------------

    def _table(self, k, i, pred, positions) -> int:
        kind = _DELTA if i == k else _OLD if i < k else _ALL
        key = (pred, positions, kind)
        tid = self._table_ids.get(key)
        if tid is None:
            tid = self._table_ids[key] = len(self._table_ids)
            tables_of = self._old_tables_of if kind == _OLD else self._new_tables_of
            tables_of.setdefault(pred, []).append((tid, _key_getter(positions)))
        return tid

    def _compile(self, rule: _Rule) -> None:
        """One plan per seed position: step 0 binds the seed atom from the
        atoms new in the previous layer, the later steps the other body atoms
        in the order of `lifted._join_steps`; then the opening plan, with
        every body atom from the atoms older than the previous layer."""
        if rule.ground or not rule.live:
            return
        rule.plans = [rule.plan(partial(self._table, k), first=k) for k in range(len(rule.body) + 1)]

    # -- fixpoint -----------------------------------------------------------

    def _fixpoint(self, state: State, chosen=None, full=False) -> ReachResult:
        """Layers and achievers of the program from state; `chosen` is None or
        the action set B of the restriction transform, all applicable in
        state. The fixpoint stops after the layer that derives the goal, which
        is all that extraction reads, unless `full` asks for every layer."""
        task = self.task
        layers = dict(self._base_layers)
        achievers: dict = {}
        tables = list(self._tables)
        for tid in self._fluent_tables:
            tables[tid] = {}

        # layer-0 atoms indexed per call: the state's, plus the static facts
        # of any static predicate the state extends
        fresh: list = []
        extended: set = set()
        for key in map(task.atom, state):
            if key in layers:
                continue
            pred = key.pred
            if pred in self._static and pred not in extended:
                extended.add(pred)
                for tables_of in (self._new_tables_of, self._old_tables_of):
                    for tid, _ in tables_of.get(pred, ()):
                        tables[tid] = {}
                fresh.extend(f for f in self.base_facts if f[0] == pred)
            layers[key] = 0
            fresh.append(key)
        _fill(fresh, self._new_tables_of, tables)

        new: list = []
        layer = 0
        pending = bool(layers)
        # the first layer of the schema rules; with B, it opens them
        first = 1 if chosen is None else 2 if chosen else INF

        def derive(source, head, binding):
            layers[head] = layer
            achievers[head] = (source, binding)
            new.append(head)

        def fire(head, b):
            # a head derived by the rule that runs now
            derive(rule, head, tuple(b))

        while pending:
            layer += 1
            new = []
            # seed 0 at layer 1; the opening plan only at an opening layer
            stop = 1 if layer == 1 else None if layer == first else -1
            for rule in self.rules if layer >= first else self.rules[-1:]:
                if rule.ground:
                    if rule.head in layers or not rule.live:
                        continue
                    for key in rule.body:
                        found = layers.get(key)
                        if found is None or found >= layer:
                            break
                    else:
                        derive(rule, rule.head, tuple(rule.template))
                    continue
                if not rule.plans or (rule.plans[0].head_at == 0 and rule.head in layers):
                    continue
                b = list(rule.template)
                for plan in rule.plans[:stop]:
                    # skip a plan whose first table is empty; _descend is
                    # True only once it has derived a ground head
                    if tables[plan.steps[0][0]] and _descend(plan, 0, b, tables, layers, fire):
                        break
            if layer == 1 and chosen:
                # B is applicable in the state: each action fires here only
                for action in chosen:
                    binding = dict(zip(action.schema.params, action.args))
                    for add in action.schema.add:
                        head = (add.pred, tuple(binding.get(a, a) for a in add.args))
                        if head not in layers:
                            derive(action, head, None)
                    if GATE not in layers:
                        derive(action, GATE, None)

            pending = bool(new) and (full or GOAL_KEY not in layers)
            if pending:
                # the previous layer's atoms become old; this layer's, delta
                _fill(fresh, self._old_tables_of, tables)
                for tid in self._delta_tables:
                    tables[tid] = {}
                _fill(new, self._new_tables_of, tables)
                fresh = new

        return ReachResult(layers, achievers)

    # -- heuristic values -----------------------------------------------------

    def _extract(self, reach: ReachResult) -> float:
        if GOAL_KEY not in reach.layers:
            return INF
        gated = GATE in reach.layers
        actions = set()
        seen = set()
        stack = [GOAL_KEY]
        while stack:
            key = stack.pop()
            if key in seen or reach.layers[key] == 0:
                continue
            seen.add(key)
            source, binding = reach.achievers[key]
            if binding is None:
                # an action of B: its preconditions are all at layer 0
                actions.add(source)
                continue
            action_key = source.action_of(binding)
            stack.extend(source.body_of(binding))
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
