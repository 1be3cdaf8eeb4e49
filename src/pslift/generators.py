"""Small, solvable-by-construction instance generators for desk-scale runs.

Goals come from a random walk: the generator builds an initial configuration,
walks applicable actions for a while, and extracts goal atoms from the state it
reached, so each emitted instance is solvable by the walk itself. Everything is
driven by one seeded RNG, so a (family, parameters, seed) triple always yields
identical files.
"""

from __future__ import annotations

import random

from .lifted import ROOT, _apply_effects, instantiations
from .pddl import Task, load_task

BLOCKSWORLD_DOMAIN = """\
(define (domain blocksworld)
  (:requirements :strips)
  (:predicates (on ?x ?y) (ontable ?x) (clear ?x) (handempty) (holding ?x))
  (:action pickup
    :parameters (?x)
    :precondition (and (clear ?x) (ontable ?x) (handempty))
    :effect (and (holding ?x) (not (ontable ?x)) (not (clear ?x)) (not (handempty))))
  (:action putdown
    :parameters (?x)
    :precondition (and (holding ?x))
    :effect (and (ontable ?x) (clear ?x) (handempty) (not (holding ?x))))
  (:action stack
    :parameters (?x ?y)
    :precondition (and (holding ?x) (clear ?y))
    :effect (and (on ?x ?y) (clear ?x) (handempty) (not (holding ?x)) (not (clear ?y))))
  (:action unstack
    :parameters (?x ?y)
    :precondition (and (on ?x ?y) (clear ?x) (handempty))
    :effect (and (holding ?x) (clear ?y) (not (on ?x ?y)) (not (clear ?x)) (not (handempty))))
)
"""

WAREHOUSE_DOMAIN = """\
(define (domain warehouse)
  (:requirements :strips :typing :equality :negative-preconditions)
  (:types box stack - object)
  (:predicates (on ?b - box ?x - object) (clear ?x - object) (marked ?b - box) (gone ?b - box))
  (:action move
    :parameters (?b - box ?from - object ?to - object)
    :precondition (and (on ?b ?from) (clear ?b) (clear ?to)
                       (not (= ?from ?to)) (not (= ?b ?to)))
    :effect (and (on ?b ?to) (clear ?from) (not (on ?b ?from)) (not (clear ?to))))
  (:action remove
    :parameters (?b - box ?from - object)
    :precondition (and (marked ?b) (on ?b ?from) (clear ?b))
    :effect (and (gone ?b) (clear ?from) (not (on ?b ?from)) (not (clear ?b))))
)
"""

FERRY_DOMAIN = """\
(define (domain ferry)
  (:requirements :strips :typing :equality :negative-preconditions)
  (:types car location - object)
  (:predicates (at-ferry ?l - location) (at ?c - car ?l - location)
               (aboard ?c - car) (empty-ferry))
  (:action sail
    :parameters (?from - location ?to - location)
    :precondition (and (at-ferry ?from) (not (= ?from ?to)))
    :effect (and (at-ferry ?to) (not (at-ferry ?from))))
  (:action board
    :parameters (?c - car ?l - location)
    :precondition (and (at ?c ?l) (at-ferry ?l) (empty-ferry))
    :effect (and (aboard ?c) (not (at ?c ?l)) (not (empty-ferry))))
  (:action debark
    :parameters (?c - car ?l - location)
    :precondition (and (aboard ?c) (at-ferry ?l))
    :effect (and (at ?c ?l) (empty-ferry) (not (aboard ?c))))
)
"""


def _at_least(name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, not {value}")


def _problem_text(name: str, domain: str, objects: list[str], init: list[str], goal: list[str]) -> str:
    lines = [f"(define (problem {name})", f"  (:domain {domain})"]
    lines.append(f"  (:objects {' '.join(objects)})")
    lines.append("  (:init " + "\n         ".join(init) + ")")
    lines.append("  (:goal (and " + " ".join(goal) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _walk(task: Task, steps: int, rng: random.Random, prefer: str | None = None):
    """Apply `steps` random applicable actions; actions whose schema name is
    `prefer` are taken whenever one is applicable."""
    state = task.initial_state
    for _ in range(steps):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        if prefer is not None:
            preferred = [a for a in actions if a.schema.name == prefer]
            if preferred:
                state = _apply_effects(task, state, rng.choice(preferred))
                continue
        state = _apply_effects(task, state, rng.choice(actions))
    return state


def _atoms_of(task: Task, state, pred: str) -> list[str]:
    out = []
    for i in sorted(state):
        a = task.atom(i)
        if a.pred == pred:
            out.append(a.to_sexpr())
    return out


def _random_towers(blocks: list[str], rng: random.Random) -> list[list[str]]:
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    towers: list[list[str]] = [[]]
    for b in shuffled:
        if towers[-1] and rng.random() < 0.5:
            towers.append([])
        towers[-1].append(b)
    return [t for t in towers if t]


def _tower_init(towers: list[list[str]]) -> list[str]:
    init = ["(handempty)"]
    for tower in towers:
        init.append(f"(ontable {tower[0]})")
        for below, above in zip(tower, tower[1:]):
            init.append(f"(on {above} {below})")
        init.append(f"(clear {tower[-1]})")
    return init


def gen_blocksworld(blocks: int = 4, seed: int = 0, goal_atoms: int | None = None,
                    name: str = "blocksworld") -> tuple[str, str]:
    """Random towers; the goal is the `on` relation of a random walk's end
    state (optionally sampled down to `goal_atoms` atoms)."""
    _at_least("blocks", blocks, 1)
    _at_least("goal_atoms", goal_atoms or 0, 0)
    rng = random.Random(f"bw|{blocks}|{seed}")
    names = [f"b{i}" for i in range(1, blocks + 1)]
    init = _tower_init(_random_towers(names, rng))
    problem_name = f"{name}-n{blocks}-s{seed}"

    for attempt in range(25):
        prob = _problem_text(problem_name, "blocksworld", names, init, ["(handempty)"])
        task = load_task(BLOCKSWORLD_DOMAIN, prob)
        end = _walk(task, 2 * blocks + 2 + attempt, rng)
        if any(task.atom(i).pred == "holding" for i in end):
            continue  # walk ended mid-move; retry with a longer walk
        goal = _atoms_of(task, end, "on")
        if goal:
            break
    else:
        goal = [f"(ontable {names[0]})"]
    if goal_atoms is not None and len(goal) > goal_atoms:
        goal = sorted(rng.sample(goal, goal_atoms))
    return BLOCKSWORLD_DOMAIN, _problem_text(problem_name, "blocksworld", names, init, goal)


def gen_blocksworld_large(blocks: int = 30, goal_atoms: int = 2, seed: int = 0) -> tuple[str, str]:
    """Many blocks, tiny goal: only a handful of blocks matter."""
    return gen_blocksworld(blocks, seed, goal_atoms=goal_atoms, name="blocksworld-large")


def gen_warehouse(stacks: int = 6, boxes: int | None = None, marked: int = 2,
                  seed: int = 0) -> tuple[str, str]:
    """Stacks of boxes; tops move between stacks in one action, so branching is
    quadratic in the stack count. Marked boxes must leave the warehouse."""
    _at_least("stacks", stacks, 1)
    _at_least("marked", marked, 1)
    if boxes is None:
        boxes = 2 * stacks
    if boxes < stacks:
        raise ValueError("need at least one box per stack")
    box_names = [f"b{i}" for i in range(1, boxes + 1)]
    stack_names = [f"s{i}" for i in range(1, stacks + 1)]
    objects = [f"{b} - box" for b in box_names] + [f"{s} - stack" for s in stack_names]

    for attempt in range(20):
        rng = random.Random(f"wh|{stacks}|{boxes}|{marked}|{seed}|{attempt}")
        shuffled = list(box_names)
        rng.shuffle(shuffled)
        piles: list[list[str]] = [[b] for b in shuffled[:stacks]]
        for b in shuffled[stacks:]:
            piles[rng.randrange(stacks)].append(b)
        init = []
        for pile, stack in zip(piles, stack_names):
            init.append(f"(on {pile[0]} {stack})")
            for below, above in zip(pile, pile[1:]):
                init.append(f"(on {above} {below})")
            init.append(f"(clear {pile[-1]})")
        marked_boxes = sorted(rng.sample(box_names, min(marked, boxes)))
        init.extend(f"(marked {b})" for b in marked_boxes)

        problem_name = f"warehouse-k{stacks}-b{boxes}-s{seed}"
        walk_prob = _problem_text(problem_name, "warehouse", objects, init, ["(clear b1)"])
        task = load_task(WAREHOUSE_DOMAIN, walk_prob)
        end = _walk(task, 4 * boxes, rng, prefer="remove")
        removed = [b for b in marked_boxes
                   if task.find("gone", (b,)) is not None
                   and task.find("gone", (b,)) in end]
        if removed:
            init_final = [a for a in init
                          if not (a.startswith("(marked") and a.split()[1][:-1] not in removed)]
            goal = [f"(gone {b})" for b in removed]
            return WAREHOUSE_DOMAIN, _problem_text(problem_name, "warehouse",
                                                   objects, init_final, goal)
    raise RuntimeError("could not generate a solvable warehouse instance")


def gen_ferry(cars: int = 3, locations: int = 3, seed: int = 0) -> tuple[str, str]:
    _at_least("cars", cars, 0)
    _at_least("locations", locations, 1)
    rng = random.Random(f"ferry|{cars}|{locations}|{seed}")
    car_names = [f"c{i}" for i in range(1, cars + 1)]
    loc_names = [f"l{i}" for i in range(1, locations + 1)]
    objects = [f"{c} - car" for c in car_names] + [f"{l} - location" for l in loc_names]
    init = ["(empty-ferry)", f"(at-ferry {rng.choice(loc_names)})"]
    init.extend(f"(at {c} {rng.choice(loc_names)})" for c in car_names)

    problem_name = f"ferry-c{cars}-l{locations}-s{seed}"
    prob = _problem_text(problem_name, "ferry", objects, init, ["(empty-ferry)"])
    task = load_task(FERRY_DOMAIN, prob)
    end = _walk(task, 6 * cars + 6, rng)
    goal = _atoms_of(task, end, "at")
    if not goal:
        goal = _atoms_of(task, end, "at-ferry")
    return FERRY_DOMAIN, _problem_text(problem_name, "ferry", objects, init, goal)


FAMILIES = {
    "blocksworld": gen_blocksworld,
    "blocksworld-large": gen_blocksworld_large,
    "warehouse-like": gen_warehouse,
    "ferry-like": gen_ferry,
}


def generate(family: str, seed: int = 0, **params) -> tuple[str, str]:
    """Domain and problem text for one instance of the named family."""
    fn = FAMILIES.get(family)
    if fn is None:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    return fn(seed=seed, **params)


def generate_task(family: str, seed: int = 0, **params) -> Task:
    domain, problem = generate(family, seed=seed, **params)
    return load_task(domain, problem)
