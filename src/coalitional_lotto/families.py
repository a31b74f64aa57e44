"""Named families of games, through which the seeded corpora are drawn.

The paper's claims are shares of games, so a measurement names a family
and a seed.  Each family is a function of the generator it draws from, and
a seed reproduces its corpus bit for bit.

Per-game families draw one game per call from any generator with
``uniform(lo, hi)``: ``rng.SplitMix64``, which ``verify`` uses because its
draws are the same on every platform, or ``random.Random``.

* ``box``        -- uniform over ``BOX``^4, the ``verify`` sampling box;
* ``log``        -- valuations and budgets log-uniform over ``LOG``;
* ``wide``       -- the same over ``WIDE``;
* ``extreme``    -- the same over ``EXTREME``;
* ``r5``         -- region R5 (``x1 + x2 < 1``), valuations over 1e-3..1e3;
* ``ridge``      -- box games off the equal-ratio ridge by a factor
  ``1 +- g``, ``g`` log-uniform over 1e-9..1e-3;
* ``near_ridge`` -- valuations and budgets over 1e-2..1e2, the ratio gap
  log-uniform over 1e-11..1e-3, on either side;
* ``stratified`` -- games of a given region, ``STRATA`` budgets and
  valuations over 1e-1..1e1;
* ``log_box`` and ``at_gap`` -- the draws behind ``log`` and ``ridge``,
  for other ranges and gaps.

The decade families take a ``numpy.random.Generator`` and draw a whole
corpus at once, as an array of rows ``(phi1, phi2, x1, x2)``: every
parameter is ``10 ** uniform(lo, hi)`` (``decades``), over the whole
positive float range for ``float_range``.  ``games`` turns the rows into
games.
"""

from __future__ import annotations

import math
from functools import partial

from .core import GameInstance
from .mutual import Region, classify_region

# Each parameter of a box game is uniform over this range.
BOX = (0.05, 3.0)
# Log-uniform ranges ``(valuations, budgets)``.
LOG = ((1e-3, 1e3), (1e-3, 1e2))
WIDE = ((1e-6, 1e6), (1e-4, 1e4))
EXTREME = ((1e-12, 1e12), (1e-9, 1e9))
# Uniform ranges of ``(x1, x2)`` in each region; a stratified draw is
# redrawn until the game lands in its region.
STRATA = {
    Region.R1: ((1.0, 4.0), (1.0, 4.0)),
    Region.R2: ((1.0, 4.0), (0.02, 1.0)),
    Region.R3: ((0.02, 1.0), (1.0, 4.0)),
    Region.R4: ((0.02, 1.0), (0.02, 1.0)),
    Region.R5: ((0.02, 1.0), (0.02, 1.0)),
}


def log_uniform(rng, lo: float, hi: float) -> float:
    """One value log-uniform over ``lo..hi``: ``exp`` of a uniform logarithm."""
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def box(rng) -> GameInstance:
    """A game with every parameter uniform over ``BOX``, drawn in order."""
    return GameInstance(*(rng.uniform(*BOX) for _ in range(4)))


def log_box(rng, ranges) -> GameInstance:
    """A game with both valuations, then both budgets, log-uniform over ``ranges``."""
    (phi_lo, phi_hi), (x_lo, x_hi) = ranges
    phi1, phi2 = log_uniform(rng, phi_lo, phi_hi), log_uniform(rng, phi_lo, phi_hi)
    return GameInstance(phi1, phi2, log_uniform(rng, x_lo, x_hi), log_uniform(rng, x_lo, x_hi))


# ``log_box`` over each named range.
log = partial(log_box, ranges=LOG)
wide = partial(log_box, ranges=WIDE)
extreme = partial(log_box, ranges=EXTREME)


def r5(rng) -> GameInstance:
    """A game of region R5: ``x1`` log-uniform over 1e-4..1, ``x2`` a uniform
    share of ``1 - x1``, then both valuations log-uniform over 1e-3..1e3."""
    x1 = log_uniform(rng, 1e-4, 1.0)
    x2 = (1.0 - x1) * rng.uniform(1e-4, 1.0)
    return GameInstance(log_uniform(rng, 1e-3, 1e3), log_uniform(rng, 1e-3, 1e3), x1, x2)


def _off_ridge(phi1: float, x1: float, x2: float, gap: float) -> GameInstance:
    """The game whose ratio ``x2 / phi2`` is ``x1 / phi1`` over ``1 + gap``."""
    return GameInstance(phi1, phi1 * x2 / x1 * (1.0 + gap), x1, x2)


def at_gap(rng, gap: float) -> GameInstance:
    """A box game off the ridge by ``gap``: ``phi1``, ``x1`` and ``x2`` uniform over
    ``BOX``, and ``phi2`` set so that ``x2 / phi2`` is ``x1 / phi1 / (1 + gap)``."""
    phi1, x1, x2 = (rng.uniform(*BOX) for _ in range(3))
    return _off_ridge(phi1, x1, x2, gap)


def ridge(rng) -> GameInstance:
    """A box game, with ``phi2`` then set off the ridge by a gap log-uniform over
    1e-9..1e-3 on a side picked by ``rng.choice``, which the generator needs too."""
    phi1, _, x1, x2 = (rng.uniform(*BOX) for _ in range(4))
    gap = log_uniform(rng, 1e-9, 1e-3) * rng.choice((-1.0, 1.0))
    return _off_ridge(phi1, x1, x2, gap)


def near_ridge(rng) -> GameInstance:
    """A game whose ratio gap ``g`` is log-uniform over 1e-11..1e-3.

    ``phi1``, ``x1`` and ``x2`` are log-uniform over 1e-2..1e2, and ``phi2``
    sets the ratio ``x2 / phi2`` to ``x1 / phi1`` over ``1 - g`` or times
    ``1 - g``, each with probability one half.
    """
    phi1, x1, x2 = (log_uniform(rng, 1e-2, 1e2) for _ in range(3))
    gap = log_uniform(rng, 1e-11, 1e-3)
    r2 = x1 / phi1 * (1.0 / (1.0 - gap) if rng.uniform(0.0, 1.0) < 0.5 else 1.0 - gap)
    return GameInstance(phi1, x2 / r2, x1, x2)


def stratified(rng, region: Region, on_ridge: bool) -> GameInstance:
    """A game of ``region``: budgets uniform over its ``STRATA`` ranges, then
    valuations ``10 ** uniform(-1, 1)``, redrawn until ``classify_region``
    agrees.  ``on_ridge`` sets ``phi2`` to ``phi1 * x2 / x1``."""
    x1_range, x2_range = STRATA[region]
    while True:
        x1, x2 = rng.uniform(*x1_range), rng.uniform(*x2_range)
        phi1 = 10.0 ** rng.uniform(-1.0, 1.0)
        phi2 = 10.0 ** rng.uniform(-1.0, 1.0)
        if on_ridge:
            phi2 = phi1 * x2 / x1
        g = GameInstance(phi1, phi2, x1, x2)
        if classify_region(g) is region:
            return g


def decades(gen, lo: float, hi: float, count: int):
    """``count`` rows of parameters, each ``10 ** uniform(lo, hi)`` from ``gen``."""
    return 10.0 ** gen.uniform(lo, hi, (count, 4))


def float_range(gen, count: int):
    """``decades`` over the whole positive float range, 1e-323..1e308."""
    return decades(gen, -323.0, 308.0, count)


def games(params) -> list[GameInstance]:
    """The game of each row ``(phi1, phi2, x1, x2)`` of an array."""
    return [GameInstance(*row) for row in params.tolist()]
