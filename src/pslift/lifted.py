"""Lifted task semantics: states, and the partial action tree.

A partial action is a schema with a prefix of its parameters instantiated; the
root (no schema chosen) is `ROOT`, and a full one is the ground action that
search applies (`GroundAction` only adds an arity check). Children extend the
prefix by one object and are pruned exactly: a child is produced only if at
least one applicable ground action completes it. Nothing here ever grounds the
whole task.

The preconditions of a schema form its successor rule, a `_Rule` like the
relaxation's Datalog rules, with head (schema name, parameters). It is
compiled once per task and schema into one join plan by the planner
(`_join_steps`) and run by the backtracking executor (`_descend`) that the
Datalog rules run on too, once per state over an index of the state and the
static atoms. The executor's head cut-off and first-completion exit change
nothing for this query. Every binding slot is a parameter or a constant, and
an index table lists each atom once, so two join paths give two parameter
tuples and no head is cut as already derived. The task keeps the index of the
last state asked about, builds each index table on first use, and sorts the
join's result once by object declaration index: actions come in schema order,
then lexicographically by declaration index, the order on which the search's
counters and the restricted FF value depend. That one list fixes the state's
partial action tree: a prefix's completions are a run of its parent's list.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .pddl import ActionSchema, Task

State = frozenset  # frozenset[int] of fluent atom ids


class NotApplicable(Exception):
    pass


class PartialAction:
    """A schema with its first k parameters, `args`, instantiated; ROOT has
    no schema. A full partial action (k = the schema's arity) is the ground
    action that search applies."""

    __slots__ = ("schema", "args", "_key", "_hash")

    def __init__(self, schema: ActionSchema | None, args: tuple[str, ...] = ()):
        if schema is None and args:
            raise ValueError("the root partial action has no prefix")
        if schema is not None and len(args) > len(schema.params):
            raise ValueError("prefix longer than parameter list")
        self.schema = schema
        self.args = args
        self._key = key = (schema.name if schema else None, args)
        self._hash = hash(key)

    @property
    def name(self) -> str | None:
        return self._key[0]

    @property
    def prefix(self) -> tuple[str, ...]:
        return self.args

    @property
    def is_root(self) -> bool:
        return self.schema is None

    @property
    def is_full(self) -> bool:
        return self.schema is not None and len(self.args) == len(self.schema.params)

    def specificity(self) -> int:
        return 0 if self.schema is None else len(self.args) + 1

    def __eq__(self, other):
        return isinstance(other, PartialAction) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.schema is None:
            return "<root>"
        shown = self.args + ("*",) * (len(self.schema.params) - len(self.args))
        return f"({' '.join((self.schema.name,) + shown)})"


class GroundAction(PartialAction):
    """A schema instantiated with one object per parameter: a full partial
    action, checked for its arity."""

    __slots__ = ()

    def __init__(self, schema: ActionSchema, args: tuple[str, ...]):
        if len(args) != len(schema.params):
            raise ValueError(f"{schema.name} expects {len(schema.params)} args")
        super().__init__(schema, args)


ROOT = PartialAction(None, ())


def decompose(action: PartialAction) -> list[PartialAction]:
    """[ROOT, A(*..*), A(o1,*..), ..., a] with strictly increasing specificity."""
    steps: list[PartialAction] = [ROOT]
    for k in range(len(action.args) + 1):
        steps.append(PartialAction(action.schema, action.args[:k]))
    return steps


# ---------------------------------------------------------------------------
# conjunctive queries, shared with the relaxation: a body of (pred, args) atoms
# over binding slots, joined through index tables that map the values at an
# atom's bound positions to the args of the matching atoms, and a head atom

OBJ = "@object"


def _is_var(arg: str) -> bool:
    return arg.startswith("?")


def _query_body(schema: ActionSchema) -> list:
    """The preconditions of a schema, plus an `@object` atom for each
    parameter that no precondition mentions, so that a join binds every
    parameter."""
    body = list(schema.pre)
    seen = {v for a in schema.pre for v in a.args}
    body.extend((OBJ, (p,)) for p in schema.params if p not in seen)
    return body


# key of a table without key positions: 0 for any sequence, from a C-level
# callable, which is cheaper to call than a Python function
_no_key = ().count


def _key_getter(idx):
    """Index key of a sequence at positions idx: 0, a value or a tuple."""
    return itemgetter(*idx) if idx else _no_key


def _tuple_getter(idx):
    """The tuple of a sequence's items at positions idx."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    if not idx:
        return lambda seq: ()
    return itemgetter(*idx)


@lru_cache(maxsize=1024)
def _eqs_test(eqs):
    """A test of equality literals ((slot, slot, want_equal), ...) on a
    binding, compiled to one expression; None when there are none. Cached,
    as every program of a domain asks for the same few tests."""
    if not eqs:
        return None
    test = " and ".join(f"b[{x}] {'==' if want else '!='} b[{y}]" for x, y, want in eqs)
    return eval(f"lambda b: {test}")


def _binder(args, bound, slots):
    """(positions to bind, positions to compare) for the terms of an atom not
    in `bound`; the first occurrence of a variable binds it."""
    binds, same, first = [], [], {}
    for pos, a in enumerate(args):
        if a not in bound:
            if a in first:
                same.append((pos, first[a]))
            else:
                first[a] = pos
                binds.append((pos, slots[a]))
    return binds, same


class _Plan:
    """A join plan. A step is (table id, key getter over the binding, [(arg
    position, slot)] to bind, [(position, position)] that must be equal,
    test of the equality literals that become fully bound there, or None).
    The head is (pred, head_args(binding)), with every head term bound after
    `head_at` steps (0: the head is ground)."""

    __slots__ = ("steps", "n", "head_at", "pred", "head_args")

    def __init__(self, steps, head_at, pred, head_args):
        self.steps = steps
        self.n = len(steps)
        self.head_at = head_at
        self.pred = pred
        self.head_args = head_args


def _join_steps(body, eqs, slots, bound, table, head, first=None) -> _Plan:
    """Join plan of a query with the terms in `bound` known and head atom
    `head`, (pred, terms): body atom `first` first, if given, then the
    others most-bound first (counting bound argument positions), ties by
    position. `slots` maps terms to binding slots; `table(i, pred, keyed)`
    is the id of the index table that body atom i looks up by its argument
    positions `keyed`."""
    steps, head_at = [], 0
    todo = list(range(len(body)))
    while todo:
        i = min(todo, key=lambda i: (i != first, -sum(a in bound for a in body[i][1]), i))
        todo.remove(i)
        pred, args = body[i]
        keyed = tuple(pos for pos, a in enumerate(args) if a in bound)
        binds, same = _binder(args, bound, slots)
        after = bound.union(args)
        test = _eqs_test(tuple(
            (slots[x], slots[y], want) for x, y, want in eqs
            if x in after and y in after and not (x in bound and y in bound)))
        steps.append((
            table(i, pred, keyed),
            _key_getter([slots[args[pos]] for pos in keyed]),
            binds, same, test,
        ))
        if not bound.issuperset(head[1]):
            head_at += 1
        bound = after
    return _Plan(steps, head_at, head[0], _tuple_getter([slots[a] for a in head[1]]))


def _descend(plan, d, b, tables, known, derive) -> bool:
    """Bind body atoms d.. of plan in binding b, with `tables` by table id,
    and call derive(head, b) on each completion. Once the head is bound, a
    head in `known` prunes the branch, and below that point the first
    completion ends it: True when a head was derived there."""
    tid, key_of, binds, same, eqs = plan.steps[d]
    matches = tables[tid].get(key_of(b))
    if matches is None:
        return False
    head_at = plan.head_at
    d += 1
    last = d == plan.n
    for args in matches:
        for pos, slot in binds:
            b[slot] = args[pos]
        if same and any(args[p] != args[q] for p, q in same):
            continue
        if eqs is not None and not eqs(b):
            continue
        if d == head_at:
            head = (plan.pred, plan.head_args(b))
            if head in known:
                continue
            if last:
                derive(head, b)
            else:
                _descend(plan, d, b, tables, known, derive)
        elif last:
            derive((plan.pred, plan.head_args(b)), b)
            return True
        elif _descend(plan, d, b, tables, known, derive) and d > head_at:
            return True
    return False


def _fill(atoms, tables_of, tables) -> None:
    """Append the args of (pred, args) atoms to the index tables of their
    predicate; `tables_of` maps a predicate to its [(table id, key getter)]."""
    for pred, args in atoms:
        for tid, key_of in tables_of.get(pred, ()):
            table = tables[tid]
            key = key_of(args)
            matches = table.get(key)
            if matches is None:
                table[key] = [args]
            else:
                matches.append(args)


class _Rule:
    """A rule with its variables and constants laid out as binding slots:
    variables first (in order of first appearance in the body), then
    constants. A binding is a sequence indexed by slot."""

    __slots__ = ("head", "body", "eqs", "schema", "slots", "template",
                 "ground", "live", "body_args", "param_args", "plans")

    def __init__(self, head, body, eqs, schema):
        self.head = tuple(head)   # (pred, args) with '?' vars or constants
        self.body = tuple(body)
        self.eqs = tuple(eqs)
        self.schema = schema      # ActionSchema for schema rules, else None

        terms = [a for _, args in self.body for a in args]
        terms = dict.fromkeys(terms + list(head[1]) + [t for x, y, _ in self.eqs for t in (x, y)])
        variables = [a for a in terms if _is_var(a)]
        constants = [a for a in terms if not _is_var(a)]
        self.slots = {a: i for i, a in enumerate(variables + constants)}
        self.template = [None] * len(variables) + constants
        self.ground = not variables
        if any(_is_var(a) and not any(a in args for _, args in self.body)
               for a in head[1]):
            raise ValueError(f"head variable missing from the body: {self.text()}")

        slot = self.slots.__getitem__
        self.body_args = [(p, _tuple_getter([slot(a) for a in args]))
                          for p, args in self.body]
        self.param_args = (_tuple_getter([slot(p) for p in schema.params])
                           if schema is not None else None)
        self.live = all((x == y) == want for x, y, want in self.eqs
                        if not _is_var(x) and not _is_var(y))
        self.plans: list = []     # the join plans of the rule, set by its user

    def plan(self, table, first=None) -> _Plan:
        """`_join_steps` of the rule, with its constants bound from the start."""
        constants = {a for a in self.slots if not _is_var(a)}
        return _join_steps(self.body, self.eqs, self.slots, constants, table, self.head, first)

    def text(self) -> str:
        def fmt(a):
            pred, args = a
            return f"{pred}({','.join(args)})" if args else pred

        body = [fmt(b) for b in self.body]
        for x, y, want in self.eqs:
            body.append(f"{x}{'=' if want else '!='}{y}")
        rhs = ", ".join(body) if body else "true"
        return f"{fmt(self.head)} :- {rhs}."

    # -- lazy achiever expansion ---------------------------------------------

    def action_of(self, binding):
        if self.schema is not None:
            return (self.schema.name, self.param_args(binding))
        return None

    def body_of(self, binding) -> list:
        return [(p, args(binding)) for p, args in self.body_args]


class _StateIndex:
    """The args of the atoms of `state | static atoms`, `@object` included,
    grouped by predicate in the order the union iterates them; the index
    tables built from them on first use, keyed by (predicate, key
    positions); and the sorted completions of each prefix asked about and
    of its siblings, keyed by (schema name, prefix)."""

    __slots__ = ("state", "groups", "tables", "completions")

    def __init__(self, task: Task, state: State):
        self.state = state
        groups: dict = {OBJ: [(o,) for o in task.objects]}
        # a state may hold static atoms too; the union lists each atom once
        for pred, args in map(task.atom, state | task.static_atoms):
            group = groups.get(pred)
            if group is None:
                groups[pred] = [args]
            else:
                group.append(args)
        self.groups = groups
        self.tables: dict = {}
        self.completions: dict = {}


def _state_index(task: Task, state: State) -> _StateIndex:
    """The index of state, kept on the task for the last state asked about.
    States are immutable, so an equal state may reuse it."""
    index = task._info_cache.get("@state_index")
    if index is None or (index.state is not state and index.state != state):
        index = task._info_cache["@state_index"] = _StateIndex(task, state)
    return index


def _completions(task: Task, state: State, schema: ActionSchema, prefix: tuple[str, ...]) -> list:
    """The full argument tuples that extend prefix to an action applicable in
    state, sorted lexicographically by object declaration index. A prefix's
    list is the run of its parent's list with its last object at that
    position; the parent's list is sorted, so the runs are contiguous and one
    pass caches all siblings. Lists are cached with the state's index and
    shared by every caller, so callers must not mutate them."""
    index = _state_index(task, state)
    cache = index.completions
    key = (schema.name, prefix)
    out = cache.get(key)
    if out is None:
        if prefix:
            parent = prefix[:-1]
            runs = groupby(_completions(task, state, schema, parent), itemgetter(len(parent)))
            for o, run in runs:
                cache[schema.name, parent + (o,)] = list(run)
            out = cache.setdefault(key, [])
        else:
            out = cache[key] = _join(task, index, schema)
            order = task.object_index.__getitem__
            out.sort(key=lambda args: tuple(map(order, args)))
    return out


def _join(task: Task, index: _StateIndex, schema: ActionSchema) -> list:
    """The applicable argument tuples of schema, by running its successor
    rule over the index; the plan's table ids index `names`."""
    query = task._info_cache.get(("@rule", schema.name))
    if query is None:
        rule = _Rule((schema.name, schema.params), _query_body(schema), schema.equalities, schema)
        names: dict = {}
        rule.plans = [rule.plan(lambda i, pred, keyed: names.setdefault((pred, keyed), len(names)))]
        query = task._info_cache["@rule", schema.name] = (rule, list(names))
    rule, names = query
    if not rule.live:
        return []
    plan = rule.plans[0]
    b = list(rule.template)
    if not plan.steps:
        return [plan.head_args(b)]
    tables = []
    for name in names:
        table = index.tables.get(name)
        if table is None:
            # one table of one predicate: a plain loop, about 3x cheaper
            # than `_fill` with its per-predicate table lists
            table = index.tables[name] = {}
            key_of = _key_getter(name[1])
            for args in index.groups.get(name[0], ()):
                key = key_of(args)
                matches = table.get(key)
                if matches is None:
                    table[key] = [args]
                else:
                    matches.append(args)
        tables.append(table)
    out: list = []
    _descend(plan, 0, b, tables, (), lambda head, _: out.append(head[1]))
    return out


# ---------------------------------------------------------------------------
# public operations

def unsatisfied(task: Task, state: State, action: PartialAction) -> str | None:
    """The first precondition (neither in state nor static) or equality
    literal of action that fails, described; None if action is applicable."""
    binding = dict(zip(action.schema.params, action.args))
    for atom in action.schema.pre:
        args = tuple(binding.get(a, a) for a in atom.args)
        i = task.find(atom.pred, args)
        if i is None or (i not in state and i not in task.static_atoms):
            return f"precondition {atom.pred}({','.join(args)})"
    for x, y, want in action.schema.equalities:
        xv, yv = binding.get(x, x), binding.get(y, y)
        if (xv == yv) != want:
            return f"equality {xv} {'=' if want else '!='} {yv}"
    return None


def is_applicable(task: Task, state: State, action: PartialAction) -> bool:
    """True iff every precondition holds in state (or statically) and the
    equality literals are satisfied."""
    return unsatisfied(task, state, action) is None


def ground_effects(task: Task, action: PartialAction) -> tuple[list[int], list[int]]:
    """Interned (add ids, delete ids) of a ground action."""
    binding = dict(zip(action.schema.params, action.args))
    adds = [task.intern(a.pred, tuple(binding.get(x, x) for x in a.args))
            for a in action.schema.add]
    dels = [task.intern(a.pred, tuple(binding.get(x, x) for x in a.args))
            for a in action.schema.delete]
    return adds, dels


def _apply_effects(task: Task, state: State, action: PartialAction) -> State:
    adds, dels = ground_effects(task, action)
    return (state - frozenset(dels)) | frozenset(adds)


def apply(task: Task, state: State, action: PartialAction) -> State:
    """(state minus deletes) union adds; raises NotApplicable on bad input."""
    if not is_applicable(task, state, action):
        raise NotApplicable(repr(action))
    return _apply_effects(task, state, action)


def children(task: Task, state: State, rho: PartialAction) -> list[PartialAction]:
    """Applicable one-step extensions of rho in the partial action tree.

    For ROOT these are the schemas with at least one applicable instantiation;
    otherwise the prefix grows by one object. A child is returned only when
    some applicable ground action completes it, and the order follows schema /
    object declaration order. Fully instantiated input yields [].
    """
    if rho.is_root:
        return [PartialAction(s, ()) for s in task.schemas if _completions(task, state, s, ())]
    if rho.is_full:
        return []
    k = len(rho.args)
    objects = dict.fromkeys(args[k] for args in _completions(task, state, rho.schema, rho.args))
    return [PartialAction(rho.schema, rho.args + (o,)) for o in objects]


def n_applicable(task: Task, state: State) -> int:
    """|A_s|, the number of ground actions applicable in state."""
    return sum(len(_completions(task, state, s, ())) for s in task.schemas)


def instantiations(task: Task, state: State, rho: PartialAction):
    """Yield the applicable ground actions extending rho (all of A_s for ROOT),
    in schema order, then lexicographically by object declaration index."""
    for schema in task.schemas if rho.is_root else (rho.schema,):
        for args in _completions(task, state, schema, rho.args):
            yield PartialAction(schema, args)
