"""Lifted task semantics: states, and the partial action tree.

A partial action is a schema with a prefix of its parameters instantiated; the
root (no schema chosen) is `ROOT`, and a full one is the ground action that
search applies; a plan file's lines become full partial actions, their arity
checked where they are read (`search.parse_plan`). Children extend the prefix
by one object and are pruned exactly: a child is produced only if at least
one applicable ground action completes it. Nothing here ever grounds the
whole task.

The preconditions of a schema form its successor rule, a `_Rule` like the
relaxation's Datalog rules, with head (schema name, parameters). It is
planned by the planner (`_join_steps`) that plans the Datalog rules too,
into nested loops written as Python source and compiled once per domain, so
every task of a domain shares them, and it runs once per state over an
index of the state and the static atoms, by object id, as the Datalog
fixpoint does: the tables hold the (pred, object ids) forms that
`Task.intern` makes. The caller gives the plan's completion as text: here
each completion appends the head's parameter ids to the plan's output list,
with no call per completion, and as the plan is given no set of known
heads, it cuts no head as already derived and caps no variable. Its
first-completion exit changes nothing for this query: every binding slot is
a parameter or a constant, and an index table lists each atom once, so two
join paths give two parameter tuples. The task keeps the index of the last
state asked about, filled when made by one compiled fill per domain
(`_fill_source` writes every index fill), and sorts each join's result once
as int tuples, then names it: actions come in schema order, then
lexicographically by declaration index, the order on which the search's
counters and the restricted FF value depend. That one list fixes the
state's partial action tree: a prefix's completions are a run of its
parent's list.

Effects. `ground_effects` grounds an action's add and delete atoms the
first time the task asks for them and keeps the two frozensets in the
task's cache under the action's (schema name, args) key; the schema name
is part of the key because schemas such as pickup(x) and putdown(x) share
their args. Applying an action, splitting B's effects and the AOAG key of a
singleton B all read them from there. Atom ids are given in the order that
atoms are first interned, and the first grounding of an action interns its
atoms as every grounding did before the cache, while a cached one interns
nothing that its first grounding did not; so the cache moves no atom id.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
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


def _tuple_getter(idx):
    """The tuple of a sequence's items at positions idx."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    if not idx:
        return lambda seq: ()
    return itemgetter(*idx)


def _tuple_text(names) -> str:
    """Python source of the tuple of names."""
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


# CPython compiles at most 20 nested blocks into one function, so a plan
# writes its loops into functions of at most this many
_LOOPS_PER_FUNCTION = 16


class _Stop(Exception):
    """Raised by a plan's completion text to end the plan's run at once,
    through every nested function, with what the completion hands back as
    its argument: a relaxation probe's first binding (`relaxation._probe`).
    `_define` gives every text the name."""


def _define(source: str, kind: str, name: str):
    """The function `name` that source defines, with `_Stop` in its
    namespace. Each text gets its own file name, `<kind hash>`: cProfile
    reports one entry for all the functions that share file, line and
    name."""
    namespace: dict = {"_Stop": _Stop}
    exec(compile(source, f"<{kind} {hash(source) & 0xFFFFFFFF:08x}>", "exec"), namespace)
    return namespace[name]


def _fill_source(tables) -> str:
    """Source of `fill(atoms, tables)`, which appends the object ids of each
    (pred, object ids) atom to the index tables of its predicate, in the
    atoms' order; `tables` holds ((pred, key positions, ...), table id)
    pairs, the items of a dict of table ids. Each predicate is one branch,
    with its keys written out."""
    tables_of: dict = {}
    for (pred, positions, *_), tid in tables:
        tables_of.setdefault(pred, []).append((tid, positions))
    lines = ["def fill(atoms, tables):"]
    lines += [f" t{tid} = tables[{tid}]" for entries in tables_of.values() for tid, _ in entries]
    lines.append(" for pred, args in atoms:")
    branch = "if"
    for pred, entries in tables_of.items():
        lines.append(f"  {branch} pred == {pred!r}:")
        branch = "elif"
        for tid, positions in entries:
            key = [f"args[{pos}]" for pos in positions]
            key = "0" if not key else key[0] if len(key) == 1 else _tuple_text(key)
            lines += [f"   m = t{tid}.get({key})", "   if m is None:",
                      f"    t{tid}[{key}] = [args]", "   else:", "    m.append(args)"]
    if not tables_of:
        lines.append("  pass")
    return "\n".join(lines) + "\n"


class _Plan:
    """A join plan, as the source of `join(tables, b, *args)`: one nested
    `for` loop per step over the matches in index table `tables[id]` of the
    step's key, with slot values as locals, the constant slots read from
    the binding b. Each step binds the new variables of its atom and tests
    its repeated variables and the equality literals that become fully
    bound there. A step's lookup and its empty check sit in the outermost
    loop that has bound its key; a missing key skips that loop's branch.
    Once the head is bound, by the step that binds its last variable or
    from the start if it is ground, its key, if the caller gives one, is
    `h`; the key is a weighted sum of the head's values, and each step adds
    the terms of the values that it binds to the sum of the loops above.
    With `known` among the args, a head in `known` prunes the branch, and
    a step may cap the values of a variable that only inequalities read
    (`_join_steps`). Each completion runs the caller's completion text,
    which may end the whole run by raising `_Stop`, and below the head's
    step the first completion ends the branch. `join` returns True only
    when it has completed a ground head. Past `_LOOPS_PER_FUNCTION` steps,
    the innermost loop calls a function with the loops that follow, which
    returns True when a completion ends a branch above it. `table` is the
    id of the first step's table, None without steps. `run` is the
    function, compiled on first use."""

    def __init__(self, source, table):
        self.source = source
        self.table = table

    @cached_property
    def run(self):
        return _define(self.source, "join plan", "join")


def _join_steps(body, eqs, slots, bound, table, head, head_key, args, complete,
                first=None) -> _Plan:
    """Join plan of a query with the terms in `bound` known and head atom
    `head`, (pred, terms): body atom `first` first, if given, then the
    others most-bound first (counting bound argument positions), ties by
    position. `slots` maps terms to binding slots; `table(i, pred, keyed)`
    is the id of the index table that body atom i looks up by its argument
    positions `keyed`. `head_key` is None or the (base, weights) sources of
    the head's key `h`: base + weights[0]*value 0 + weights[1]*value 1 +
    ...; each weight that is not a literal is computed once per function
    call.
    The plan's function takes `tables, b, *args`, and each completion runs
    the lines of `complete`, which may read the head's key as `h` and name
    the head's predicate as `{pred}`, the tuple of the head's values as
    `{head}` and the binding tuple as `{binding}`, and may raise `_Stop`.
    The plan's source is written here, step by step.

    With `known` among the args, where a completion records its head, a
    step caps one variable v that it binds, if v is not in the head, no
    later atom reads v, only inequalities compare v with the variables of
    later steps, k of them, and a later step binds a head variable: for
    each binding of the variables bound up to the step other than v, v's
    group, the step lets through the first k + 1 values of v that pass its
    tests and skips the rest. The later steps do not depend on v, and each
    of their bindings rules out at most k values, so a value after the
    first k + 1 would only find heads that are already known (see the
    `relaxation` module docstring). The enclosing loops bind each group's
    earlier variables once, so the count is made before the step's loop, a
    dict by the values of the step's other variables, or an int without
    any."""
    n, head_at = len(body), 0
    given = sorted(slots[a] for a in bound)
    loops = []   # per step: table id, key, unpacking targets, tests, slots bound before
    binder = {}  # slot -> the step that binds it
    keys = []    # per step: the slots of its key
    todo = list(range(n))
    while todo:
        i = min(todo, key=lambda i: (i != first, -sum(a in bound for a in body[i][1]), i))
        todo.remove(i)
        pred, terms = body[i]
        keyed = tuple(pos for pos, a in enumerate(terms) if a in bound)
        tid = table(i, pred, keyed)
        # the unpacking targets of the atom's terms: a new variable's slot,
        # a temporary to compare for a repeated one, `_` for a bound one
        targets, tests, new = [], [], set()
        for pos, a in enumerate(terms):
            if a in bound:
                targets.append("_")
            elif a in new:
                targets.append(f"r{pos}")
                tests.append(f"r{pos} != s{slots[a]}")
            else:
                new.add(a)
                binder[slots[a]] = len(loops)
                targets.append(f"s{slots[a]}")
        after = bound.union(terms)
        tests += [f"s{slots[x]} {'!=' if want else '=='} s{slots[y]}" for x, y, want in eqs
                  if x in after and y in after and not (x in bound and y in bound)]
        # a table without key positions lists its atoms under 0
        key = [f"s{slots[terms[pos]]}" for pos in keyed]
        keys.append([slots[terms[pos]] for pos in keyed])
        loops.append((tid, "0" if not key else key[0] if len(key) == 1 else _tuple_text(key),
                      _tuple_text(targets) if new else "_", tests,
                      sorted(slots[a] for a in bound)))
        if not bound.issuperset(head[1]):
            head_at += 1
        bound = after

    # the capped steps: step d -> (k, the slots that its atom binds besides
    # v's), for the first variable v in slot order that step d binds, that
    # is not in the head, that no later atom reads and that only
    # inequalities compare with later variables, k of them, where a later
    # step binds a head variable and the completion records heads in `known`
    caps = {}
    step = {a: binder[slots[a]] for a in slots if slots[a] in binder}
    for d in range(head_at - 1 if "known" in args else 0):
        fresh = [a for a in step if step[a] == d]
        for v in fresh:
            # a later atom that reads v has it at a key position
            wants = [want for x, y, want in eqs if v in (x, y) and step.get(y if x == v else x, d) > d]
            if (v not in head[1] and not any(slots[v] in key for key in keys[d + 1:])
                    and not any(wants)):
                caps[d] = (len(wants), [slots[a] for a in fresh if a != v])
                break

    # the terms of the head's key by the step that binds their value, -1
    # for a value bound from the start, and the locals of their weights
    terms: dict = {}
    weights = []
    for pos, a in enumerate(head[1] if head_key else ()):
        weight = head_key[1][pos]
        if not weight.isdigit():
            weights.append(f" w{pos} = {weight}")
            weight = f"w{pos}"
        terms.setdefault(binder.get(slots[a], -1), []).append(f"{weight}*s{slots[a]}")
    values = _tuple_text([f"s{slots[a]}" for a in head[1]])
    binding = _tuple_text([f"s{slot}" if term in bound else "None" for term, slot in slots.items()])
    complete = complete.format(binding=binding, head=values, pred=repr(head[0])).splitlines()
    args = list(args)
    h_arg = ["h"] if head_key else []
    lines = []
    # loops a..z-1 go into one function, `join` for the first ones and
    # `join{a}` for the later ones, called from the innermost loop before
    # with the bound slots, and h once it is bound. `join{a}` returns True
    # when a completion ends its caller's loop too: when the head is ground
    # or bound before loop a - 1.
    for a in range(0, max(n, 1), _LOOPS_PER_FUNCTION):
        z = min(a + _LOOPS_PER_FUNCTION, n)
        if a == 0:
            lines.append(f"def join({', '.join(['tables', 'b'] + args)}):")
            lines += [f" s{slot} = b[{slot}]" for slot in given]
        else:
            params = ["tables"] + args + h_arg * (head_at <= a)
            lines.append(f"def join{a}({', '.join(params + [f's{s}' for s in loops[a][4]])}):")
        # each step's lookup goes to the outermost loop of this function
        # that has bound its key, a - 1 standing for the function's top
        at: dict = {}
        for d in range(a, z):
            e = max([binder[s] for s in keys[d] if binder.get(s, -1) >= a], default=a - 1)
            at.setdefault(e, []).append(d)
        lines += [f" t{tid} = tables[{tid}]"
                  for tid in dict.fromkeys(loops[d][0] for d in range(a, z))]
        # the key's sum over the values bound before this function's loops
        if head_key and a < max(head_at, 1):
            lines += weights
            total = " + ".join([head_key[0]] + [t for d in range(-1, a) for t in terms.get(d, ())])
            if head_at == 0:
                lines.append(f" h = {total}")
            elif " " in total:
                lines.append(f" k = {total}")
                total = "k"

        def lookups(d, pad, miss):
            for e in at.get(d, ()):
                tid, key = loops[e][:2]
                lines.extend([f"{pad}m{e} = t{tid}.get({key})", f"{pad}if m{e} is None:",
                              f"{pad} {miss}"])

        lookups(a - 1, " ", "return False")
        for d in range(a, z):
            pad = " " * (d - a + 1)
            _, _, targets, tests, _ = loops[d]
            k, group = caps.get(d, (None, None))
            if k is not None:
                lines.append(f"{pad}c{d} = {'{}' if group else 0}")
            lines.append(f"{pad}for {targets} in m{d}:")
            if tests:
                lines += [f"{pad} if {' or '.join(tests)}:", f"{pad}  continue"]
            if group:
                # the values of v so far in this group
                g = _tuple_text([f"s{s}" for s in group]) if len(group) > 1 else f"s{group[0]}"
                lines += [f"{pad} c = c{d}.get({g}, 0)", f"{pad} if c > {k}:", f"{pad}  continue",
                          f"{pad} c{d}[{g}] = c + 1"]
            elif k is not None:
                lines += [f"{pad} if c{d} > {k}:", f"{pad}  continue", f"{pad} c{d} += 1"]
            if d in terms and d < head_at:
                # the key's sum over the values bound so far
                total = " + ".join([total] + terms[d])
                lines.append(f"{pad} {'h' if d + 1 == head_at else f'k{d}'} = {total}")
                total = f"k{d}"
            if d + 1 == head_at and "known" in args:
                lines += [f"{pad} if h in known:", f"{pad}  continue"]
            lookups(d, pad + " ", "continue")
        pad = " " * (z - a + 1)
        if z == n:
            lines += [pad + line for line in complete]
        else:
            params = ["tables"] + args + h_arg * (head_at <= z)
            call = f"join{z}({', '.join(params + [f's{s}' for s in loops[z][4]])})"
            if not (head_at == 0 or head_at < z):
                lines.append(pad + call)
            else:
                lines.append(f"{pad}if {call}:")
                pad += " "
        if head_at == 0 or head_at < a:
            lines.append(f"{pad}return True")
        elif head_at < z:
            # the first completion below the head's step ends its branch: each
            # loop from there to the head's step breaks, through `for`-`else`
            lines.append(f"{pad}break")
            for d in range(z - 2, head_at - 1, -1):
                lines += [f"{' ' * (d - a + 2)}else:", f"{' ' * (d - a + 3)}continue",
                          f"{' ' * (d - a + 2)}break"]
        lines.append(" return False")
    return _Plan("\n".join(lines) + "\n", loops[0][0] if loops else None)


class _Rule:
    """A rule with its variables and constants laid out as binding slots:
    variables first (in order of first appearance in the body), then
    constants. A binding is a sequence indexed by slot."""

    __slots__ = ("head", "body", "eqs", "schema", "slots", "template",
                 "live", "param_args", "plans")

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
        if any(_is_var(a) and not any(a in args for _, args in self.body)
               for a in head[1]):
            raise ValueError(f"head variable missing from the body: {self.text()}")

        slot = self.slots.__getitem__
        self.param_args = (_tuple_getter([slot(p) for p in schema.params])
                           if schema is not None else None)
        self.live = all((x == y) == want for x, y, want in self.eqs
                        if not _is_var(x) and not _is_var(y))
        self.plans: list = []     # the join plans of the rule, set by its user

    def plan(self, table, key, args, complete, first=None) -> _Plan:
        """`_join_steps` of the rule, with its constants bound from the start."""
        constants = {a for a in self.slots if not _is_var(a)}
        return _join_steps(self.body, self.eqs, self.slots, constants, table, self.head,
                           key, args, complete, first)

    def text(self) -> str:
        def fmt(a):
            pred, args = a
            return f"{pred}({','.join(args)})" if args else pred

        body = [fmt(b) for b in self.body]
        for x, y, want in self.eqs:
            body.append(f"{x}{'=' if want else '!='}{y}")
        rhs = ", ".join(body) if body else "true"
        return f"{fmt(self.head)} :- {rhs}."

    def action_of(self, binding):
        """(schema name, the binding's parameter values), None for a rule
        without a schema."""
        if self.schema is not None:
            return (self.schema.name, self.param_args(binding))
        return None


class _StateIndex:
    """The successor query's index tables of `state | static atoms`,
    `@object` included, by table id; and the sorted completions of each
    prefix asked about and of its siblings, keyed by (schema name, prefix)."""

    __slots__ = ("state", "tables", "completions")

    def __init__(self, task: Task, state: State):
        self.state = state
        _, tables, fill, objects = _successors(task)
        self.tables = [{} for _ in tables]
        fill(objects, self.tables)
        # a state may hold static atoms too; the union lists each atom once
        fill(map(task.id_atoms.__getitem__, state | task.static_atoms), self.tables)
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
            name = task.objects.__getitem__
            out = cache[key] = [tuple(map(name, ids)) for ids in sorted(_join(task, index, schema))]
    return out


@lru_cache(maxsize=64)
def _query(schemas: tuple, loops: int) -> tuple:
    """The successor rules of a domain's schemas by name, each with its
    plan, which appends the tuple of each completion's parameter ids to
    `out`; the (pred, key positions) of their index tables by id, one
    table for each, whichever schemas share it; and the tables' compiled
    fill. The texts depend only on the schemas and on `loops`, the loops
    per function, so the tasks of a domain share them and write them once."""
    table_ids: dict = {}

    def table(i, pred, keyed):
        return table_ids.setdefault((pred, keyed), len(table_ids))

    rules = {}
    for schema in schemas:
        rule = _Rule((schema.name, schema.params), _query_body(schema), schema.equalities, schema)
        rule.plans = [rule.plan(table, None, ("out",), "out.append({head})")]
        rules[schema.name] = rule
    return rules, list(table_ids), _define(_fill_source(table_ids.items()), "index fill", "fill")


def _successors(task: Task) -> tuple:
    """The task's successor query: (schema name -> (rule, binding template
    with its constants as object ids), the (pred, key positions) of each
    index table, their fill, the `@object` atoms), made once per task."""
    query = task._info_cache.get("@successors")
    if query is None:
        rules, tables, fill = _query(task.schemas, _LOOPS_PER_FUNCTION)
        index = task.object_index
        runs = {name: (rule, [None if v is None else index[v] for v in rule.template])
                for name, rule in rules.items()}
        objects = [(OBJ, (i,)) for i in range(len(task.objects))]
        query = task._info_cache["@successors"] = (runs, tables, fill, objects)
    return query


def _join(task: Task, index: _StateIndex, schema: ActionSchema) -> list:
    """The applicable parameter id tuples of schema, in the order the plan
    of its successor rule enumerates them over the index."""
    rule, template = _successors(task)[0][schema.name]
    if not rule.live:
        return []
    out: list = []
    rule.plans[0].run(index.tables, template, out)
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


def ground_effects(task: Task, action: PartialAction) -> tuple[frozenset, frozenset]:
    """Interned (add ids, delete ids) of a ground action, grounded once per
    task (see the module docstring): the first call interns the adds and
    then the deletes, each in schema order."""
    effects = task._info_cache.get(action._key)
    if effects is None:
        binding = dict(zip(action.schema.params, action.args))
        adds = [task.intern(a.pred, tuple(binding.get(x, x) for x in a.args))
                for a in action.schema.add]
        dels = [task.intern(a.pred, tuple(binding.get(x, x) for x in a.args))
                for a in action.schema.delete]
        effects = task._info_cache[action._key] = (frozenset(adds), frozenset(dels))
    return effects


def _apply_effects(task: Task, state: State, action: PartialAction) -> State:
    adds, dels = ground_effects(task, action)
    return (state - dels) | adds


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
