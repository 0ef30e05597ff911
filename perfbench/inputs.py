"""Seeded input generation for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed,
so the same seed yields the same chains.  Sizes are drawn stratified
(one draw per size band) so that the total work of a set moves little
from seed to seed, while shapes, aspect ratios and orders still vary.
The program under test only ever receives the generated position lists.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.chains import (crenellation, perturb, random_chain,
                          rectangle_ring, square_ring, staircase_ring,
                          stairway_octagon)

Chain = List[Tuple[int, int]]


def _ring(n: int, rng: random.Random) -> Chain:
    # n = 2(w-1) + 2(h-1): pick an aspect, solve for the other side
    half = max(4, n // 2)
    w = rng.randint(max(2, half // 4), max(2, half - half // 4))
    return rectangle_ring(w + 1, max(2, half - w + 1))


def _stairway(n: int, rng: random.Random) -> Chain:
    if n < 160 or rng.random() < 0.3:
        steps = rng.randint(1, 3)
        return stairway_octagon(max(3, (n - 8 * steps) // 4), steps)
    run, rise, band = rng.randint(3, 7), rng.randint(3, 7), rng.randint(6, 13)
    # the outline grows by a fixed number of robots per step
    n1 = len(staircase_ring(1, run, rise, band))
    per_step = len(staircase_ring(2, run, rise, band)) - n1
    return staircase_ring(1 + max(0, -(-(n - n1) // per_step)), run, rise,
                          band)


def _blob(n: int, rng: random.Random) -> Chain:
    return random_chain(n, rng)


def _perturbed(n: int, rng: random.Random) -> Chain:
    mutations = max(2, n // 25)
    return perturb(square_ring(max(3, n // 4 + 1)), mutations, rng)


def _crenellated(n: int, rng: random.Random) -> Chain:
    base = rng.randint(2, 13)
    return crenellation(max(2, (n - 2 * base) // 6), 1, base)


#: the five input families of the solo and stream workloads
FAMILIES = {
    "ring": _ring,
    "stairway": _stairway,
    "blob": _blob,
    "perturbed": _perturbed,
    "crenellation": _crenellated,
}


def _stratified(lo: int, hi: int, count: int, rng: random.Random) -> List[int]:
    width = (hi - lo) / count
    return [int(lo + width * (i + rng.random())) for i in range(count)]


def solo_chains(seed: int, per_family: int = 25,
                n_lo: int = 50, n_hi: int = 500) -> List[Chain]:
    """``5 * per_family`` single chains, n stratified over [n_lo, n_hi)."""
    rng = random.Random(seed)
    out = []
    for make in FAMILIES.values():
        out += [make(n, rng) for n in _stratified(n_lo, n_hi, per_family,
                                                  rng)]
    rng.shuffle(out)
    return out


#: stream mix: (family, share, n range) — mean n about 75
STREAM_MIX = (
    ("ring", 0.40, (8, 64)),
    ("blob", 0.20, (40, 240)),
    ("perturbed", 0.15, (24, 140)),
    ("crenellation", 0.15, (30, 160)),
    ("stairway", 0.10, (40, 180)),
)


def stream_chains(seed: int, count: int = 4000,
                  shapes_per_family: int = 200) -> List[Chain]:
    """A mixed-size stream: many small rings plus long-running blobs.

    Each family contributes ``shapes_per_family`` distinct shapes
    (stratified sizes), drawn with repetition to fill its share; this
    keeps generation cheap without changing the size mix.
    """
    rng = random.Random(seed)
    out = []
    for family, share, (lo, hi) in STREAM_MIX:
        make = FAMILIES[family]
        k = round(count * share)
        shapes = [make(n, rng) for n in _stratified(
            lo, hi, min(k, shapes_per_family), rng)]
        out += shapes + [rng.choice(shapes) for _ in range(k - len(shapes))]
    rng.shuffle(out)
    return out


def service_rings() -> List[Chain]:
    """Every rectangle ring with sides of 3..16 grid points (n 8..60)."""
    return [rectangle_ring(w, h) for w in range(3, 17) for h in range(3, 17)]


def service_order(seed: int, shapes: int, count: int) -> List[int]:
    """Which ring each submission sends: shuffled rounds of the whole
    set, so any stretch of the schedule holds the same mix of sizes."""
    rng = random.Random(seed)
    order: List[int] = []
    while len(order) < count:
        deck = list(range(shapes))
        rng.shuffle(deck)
        order += deck
    return order[:count]
