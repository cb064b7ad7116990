"""Workloads: seeded inputs, the timed calls on them and their checks.

Each workload is a fixed catalog of instance classes (the same for every
seed, so every seed carries the same cost mix).  The workload seed draws
what varies inside a class: the order of the tensor factors, the order of
the weight entries, the path elements, and the order of the operations.
Reordering factors or weight entries leaves the graded count unchanged,
so every input still has a known answer, but it changes every memo key
and all the work on the path side.  `check` runs the fixed stream of the
default `kostka check` and ignores the seed (see build_check).

Inputs are plain tuples generated here without calling kostka; each timed
call parses them with the package's own JSON constructors, as the CLI does.
Every call is checked against a code path that does not share its answer;
a `check` call checks itself and passes when it finds no violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, prod
from typing import Any, Callable

# Fixed seed of the instance catalogs; the workload seed never changes it.
CATALOG_SEED = 0

# rc-poly leaves out weights with more witness tableaux than this.  The
# next sizes up (630 and 2,520 for n = 5) take 2 to 16 s per fermionic call.
RC_POLY_WITNESS_CAP = 500
RC_POLY_PER_CLASS = 2

# energy leaves out (1,1)^9 weights with more paths than this:
# mu = (4,4,1), (5,2,2), (4,3,2) and (3,3,3) take 1.2 to 3.5 s per call,
# and a run needs three rounds of the catalog to average out the host.
ENERGY_PATH_CAP = 600
ENERGY_MIXED = 40

MAP_SPECS = (
    (3, ((1, 3), (2, 2), (1, 1), (2, 1))),
    (3, ((2, 1), (1, 2), (2, 2), (1, 1))),
    (4, ((1, 2), (2, 1), (2, 2), (1, 1))),
    (4, ((3, 1), (1, 2), (2, 1), (1, 1))),
    (4, ((2, 2), (1, 3), (1, 1))),
    (4, ((1, 1), (3, 1), (1, 2), (2, 1))),
)
MAP_PER_SPEC = 50

# The default `kostka check` stream: 50 specs from its random generator
# with seed 0 (n <= 4, at most 6 boxes), then every spec of at most 4 boxes.
CHECK_RANDOM = 50
CHECK_MAX_N = 4
CHECK_MAX_BOXES = 6
CHECK_SWEEP_BOXES = 4


@dataclass(frozen=True)
class Item:
    """Timed calls that are checked together.

    Each call takes the imported kostka package and returns its output;
    check takes the package and the list of outputs and says whether they
    are right.  A call that raises, or a check that fails or raises, counts
    every call of the item as failed.
    """

    calls: tuple[tuple[str, Callable[[Any], Any]], ...]
    check: Callable[[Any, list], bool]


# ---------------------------------------------------------------------------
# combinatorial helpers (independent of kostka)
# ---------------------------------------------------------------------------

def partitions(total: int, max_parts: int, largest: int | None = None):
    """Partitions of total with at most max_parts parts, largest first."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def padded(mu, n: int) -> tuple[int, ...]:
    return tuple(mu) + (0,) * (n - len(mu))


def witness_count(weight) -> int:
    """Number of lower-bound witness tableaux of a weight: a product of
    binomials of the column heights c_k = weight[k] + ... + weight[n-1]."""
    heights = [sum(weight[k:]) for k in range(1, len(weight))]
    heights = [heights[0] if heights else 0] + heights
    return prod(comb(heights[k - 1], heights[k]) for k in range(1, len(heights)))


def random_rectangles(rng: random.Random, n: int, boxes: int, max_width: int):
    """Rectangles (height, width) filling exactly `boxes` cells."""
    factors = []
    budget = boxes
    while budget:
        options = [(r, s) for r in range(1, n) for s in range(1, max_width + 1)
                   if r * s <= budget]
        choice = rng.choice(options)
        factors.append(choice)
        budget -= choice[0] * choice[1]
    return tuple(factors)


def rect_tableaux(r: int, s: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of every column-strict r x s tableau over 1..n."""
    columns = list(combinations(range(1, n + 1), r))
    out = []

    def extend(chosen):
        if len(chosen) == s:
            out.append(tuple(tuple(col[j] for col in chosen) for j in range(r)))
            return
        for col in columns:
            if not chosen or all(a <= b for a, b in zip(chosen[-1], col)):
                extend(chosen + [col])

    extend([])
    return out


def check_stream_specs() -> list[tuple[int, tuple]]:
    """The specs of the default `kostka check`, in its order.

    Replays the command's generator draw for draw (same random calls on a
    Random seeded with 0), then its exhaustive sweep.
    """
    rng = random.Random(0)
    specs = []
    for _ in range(CHECK_RANDOM):
        n = rng.randint(2, CHECK_MAX_N)
        factors = []
        budget = CHECK_MAX_BOXES
        while True:
            options = [(r, s) for r in range(1, n) for s in range(1, budget + 1)
                       if r * s <= budget]
            if not options or rng.random() < 0.25:
                break
            choice = rng.choice(options)
            factors.append(choice)
            budget -= choice[0] * choice[1]
        specs.append((n, tuple(factors)))
    cap = CHECK_SWEEP_BOXES
    for n in range(2, CHECK_MAX_N + 1):
        shapes = [(r, s) for r in range(1, n) for s in range(1, cap + 1) if r * s <= cap]

        def extend(factors, used):
            specs.append((n, factors))
            for r, s in shapes:
                if used + r * s <= cap:
                    extend(factors + ((r, s),), used + r * s)

        extend((), 0)
    return specs


def _spec(k, n: int, factors):
    return k.CrystalSpec.from_json({'n': n, 'factors': factors})


def _shuffled(rng: random.Random, seq) -> tuple:
    return tuple(rng.sample(list(seq), len(seq)))


# ---------------------------------------------------------------------------
# rc-poly: rigged-configuration side, enumeration against the fermionic sum
# ---------------------------------------------------------------------------

def rc_poly_catalog() -> list[tuple[int, tuple, tuple]]:
    """(n, factors, mu) for n in {4, 5}, 8 to 10 boxes, mu a partition."""
    rng = random.Random(CATALOG_SEED)
    out = []
    for n in (4, 5):
        for boxes in (8, 9, 10):
            for mu in partitions(boxes, n):
                mu = padded(mu, n)
                if witness_count(mu) > RC_POLY_WITNESS_CAP:
                    continue
                for _ in range(RC_POLY_PER_CLASS):
                    out.append((n, random_rectangles(rng, n, boxes, boxes), mu))
    return out


def _rc_enum(n, factors, mu):
    return lambda k: k.rc_polynomial(_spec(k, n, factors), mu)


def _fermionic(n, factors, mu):
    return lambda k: k.fermionic_polynomial(_spec(k, n, factors), mu)


def _same(k, outputs) -> bool:
    return outputs[0] == outputs[1]


def build_rc_poly(rng: random.Random, rounds: int) -> list[Item]:
    catalog = rc_poly_catalog()
    items = []
    for _ in range(rounds):
        batch = []
        for n, factors, mu in catalog:
            factors = _shuffled(rng, factors)
            tag = f'n={n} {list(factors)} mu={list(mu)}'
            calls = [(f'rc-enum {tag}', _rc_enum(n, factors, mu)),
                     (f'fermionic {tag}', _fermionic(n, factors, mu))]
            if rng.random() < 0.5:
                calls.reverse()
            batch.append(Item(tuple(calls), _same))
        items += _shuffled(rng, batch)
    return items


# ---------------------------------------------------------------------------
# energy: path side, tail energy against the fermionic sum
# ---------------------------------------------------------------------------

def energy_catalog() -> list[tuple[int, tuple, tuple]]:
    """(n, factors, mu): single boxes with n = 3, and mixed small
    rectangles with n = 4 and 10 boxes."""
    out = []
    for k in (7, 8, 9):
        for mu in partitions(k, 3):
            mu = padded(mu, 3)
            if factorial(k) // prod(factorial(m) for m in mu) <= ENERGY_PATH_CAP:
                out.append((3, ((1, 1),) * k, mu))
    rng = random.Random(CATALOG_SEED)
    weights = [padded(mu, 4) for mu in partitions(10, 4)]
    for _ in range(ENERGY_MIXED):
        out.append((4, random_rectangles(rng, 4, 10, 2), rng.choice(weights)))
    return out


def _path_poly(n, factors, weight):
    return lambda k: k.path_polynomial(_spec(k, n, factors), weight)


def _matches_fermionic(n, factors, mu):
    return lambda k, outputs: outputs[0] == k.fermionic_polynomial(_spec(k, n, factors), mu)


def build_energy(rng: random.Random, rounds: int) -> list[Item]:
    catalog = energy_catalog()
    items = []
    for _ in range(rounds):
        batch = []
        for n, factors, mu in catalog:
            factors = _shuffled(rng, factors)
            weight = _shuffled(rng, mu)
            label = f'paths n={n} {list(factors)} w={list(weight)}'
            batch.append(Item(((label, _path_poly(n, factors, weight)),),
                              _matches_fermionic(n, factors, mu)))
        items += _shuffled(rng, batch)
    return items


# ---------------------------------------------------------------------------
# map: the bijection both ways and the operators on configurations
# ---------------------------------------------------------------------------

def _map_op(element):
    """phi, then phi-inv after the admissibility test, then f and e at
    every residue (as `kostka map` and `kostka op` do)."""
    def call(k):
        path = k.Path.from_json(element)
        rc = k.path_to_rc(path)
        admissible = rc.is_admissible()
        back = k.rc_to_path(rc)
        residues = range(1, element['n'])
        return (admissible, back, [k.rccrystal.f(rc, a) for a in residues],
                [k.rccrystal.e(rc, a) for a in residues])
    return call


def _map_check(element):
    """phi-inv(phi(p)) == p, and the operators commute with phi."""
    def check(k, outputs):
        admissible, back, lowered, raised = outputs[0]
        path = k.Path.from_json(element)
        if not admissible or back != path:
            return False
        for a in range(1, element['n']):
            for image, moved in ((lowered[a - 1], path.f(a)), (raised[a - 1], path.e(a))):
                expected = None if moved is None else k.path_to_rc(moved)
                if image != expected:
                    return False
        return True
    return check


def build_map(rng: random.Random, rounds: int) -> list[Item]:
    crystals = {(r, s, n): rect_tableaux(r, s, n)
                for n, factors in MAP_SPECS for r, s in factors}
    items = []
    for _ in range(rounds):
        batch = []
        for n, factors in MAP_SPECS:
            for _ in range(MAP_PER_SPEC):
                order = _shuffled(rng, factors)
                element = {'n': n, 'factors': [list(f) for f in order],
                           'tableaux': [rng.choice(crystals[(r, s, n)]) for r, s in order]}
                label = f'map n={n} {element["tableaux"]}'
                batch.append(Item(((label, _map_op(element)),), _map_check(element)))
        items += _shuffled(rng, batch)
    return items


# ---------------------------------------------------------------------------
# check: the property suite, one spec at a time
# ---------------------------------------------------------------------------

def _check_spec(n, factors):
    return lambda k: k.cli.check_spec(_spec(k, n, factors))


def _passed(k, outputs) -> bool:
    return outputs[0] is None


def build_check(rng: random.Random, rounds: int) -> list[Item]:
    """The command's specs in one fixed interleaving; the seed is unused.

    `kostka check` runs a fixed stream, and so does this workload.  Drawing
    the random specs from the seed, as `kostka check --seed` does, moves
    the run time by a third from seed to seed (25 s against 33 s for seeds
    0 and 1); reordering factors or calls moves the median latency and the
    peak memory by a tenth to a quarter.  The random specs and the sweep are
    interleaved evenly so that the cheap calls around the median are spread
    over the whole run, not bunched in its last seconds.
    """
    specs = check_stream_specs()
    drawn, sweep = specs[:CHECK_RANDOM], specs[CHECK_RANDOM:]
    order = sorted(range(len(specs)), key=lambda i: (
        (i + 0.5) / len(drawn) if i < len(drawn)
        else (i - len(drawn) + 0.5) / len(sweep)))
    items = []
    for _ in range(rounds):
        for index in order:
            n, factors = specs[index]
            label = f'check n={n} {list(factors)}'
            items.append(Item(((label, _check_spec(n, factors)),), _passed))
    return items


# name -> (item maker, wall seconds one round takes, output checks included, at
# the seed commit and the reference host speed of hostspeed.py).  A run makes
# seconds / that many rounds, rounded, and at least one.
WORKLOADS = {
    'rc-poly': (build_rc_poly, 4.2),
    'energy': (build_energy, 8.0),
    'map': (build_map, 1.4),
    'check': (build_check, 25.0),
}


def build(workload: str, seed: int, seconds: float) -> list[Item]:
    """The seed's fixed item list, sized to about `seconds` of work."""
    make_items, round_seconds = WORKLOADS[workload]
    rounds = max(1, int(seconds / round_seconds + 0.5))
    return make_items(random.Random(f'{workload}:{seed}'), rounds)
