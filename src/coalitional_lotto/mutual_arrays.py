"""The budget and joint mutual-benefit verdicts over arrays of games.

A sweep decides one predicate at every node of a plane.  The exact budget
verdict and the joint verdict of ``mutual`` are elementwise arithmetic:
piece edges, candidates and witness crossings are roots of fixed
quadratics, and each game has a bounded number of them.  ``budget_exists``
and ``joint_exists`` therefore decide a whole ``batch.GameArrays`` at once,
in a padded ``(games, columns)`` layout with NaN in the absent lanes, and
validate every candidate or witness in one payoff call.  They take their
forms from ``mutual`` (``edge_quadratics``, ``candidate_forms``,
``around_ridge``, ``gap_crossing``, ``gap_quadratic``), classify through
``batch.case_of``, and return ``exists`` only: game by game it equals the
one-game verdict's (``tests/test_mutual.py`` and
``scripts/route_census.py`` check that).  Witnesses, routes and flags stay
with the one-game verdicts, which ``analyze_game`` uses.
"""

from __future__ import annotations

import numpy as np

from . import batch
from .adversary import CASE_RTOL
from .batch import GameArrays
from .collective import max_collective_payoff
from .core import Mechanism
from .mutual import around_ridge, candidate_forms, edge_quadratics, gap_crossing, gap_quadratic
from .search import RIDGE_RTOL, min_gain, transfer_interval

__all__ = ["budget_exists", "joint_exists"]


def _positive_root_pairs(a, b, c) -> np.ndarray:
    """``mutual._positive_roots`` elementwise: both roots on a last axis, NaN where absent."""
    d = b * b - 4.0 * a * c
    r = -0.5 * (b + np.copysign(np.sqrt(d), b))
    roots = np.stack(np.broadcast_arrays(r / a, c / r), axis=-1)
    real = (a != 0.0) & (d >= 0.0) & (r != 0.0)
    return np.where(real[..., None] & (roots > 0.0), roots, np.nan)


def _case_edge_columns(big_x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``mutual._case_edges`` per game: four columns, NaN where absent."""
    z = np.concatenate([_positive_root_pairs(*q) for q in edge_quadratics(big_x, rho)], axis=-1)
    return np.where(z < rho[:, None], z, np.nan)


def _candidate_columns(index, phi_w, phi_s, base_gap, big_x) -> np.ndarray:
    """``mutual._piece_candidates`` per piece: nine columns, NaN where absent.

    The case-2 columns hold values only on case-2 pieces, the case-3 columns
    only on case-3 pieces.
    """
    k = np.sqrt(phi_w * phi_s)
    columns = []
    for case in (2, 3):
        points, quads = candidate_forms(case, phi_w, phi_s, base_gap, big_x, k)
        zs = [np.broadcast_to(p, index.shape)[..., None] for p in points]
        zs += [_positive_root_pairs(*quad) for quad in quads]
        columns.append(np.where((index == case)[..., None], np.concatenate(zs, axis=-1), np.nan))
    return np.concatenate(columns, axis=-1)


def budget_exists(games: GameArrays) -> np.ndarray:
    """``budget_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    Row ``i`` holds game ``i``'s 15 breaks of the scalar verdict: the
    interval ends, the ridge, the sliver ends, the case-4 band ends and four
    case edges on each side.  Breaks outside the feasible interval are NaN;
    sorting each row and dropping zero-width pieces leaves the scalar
    verdict's pieces.  Each piece is classified at its midpoint by
    ``batch.case_of``; its ends and the roots of ``candidate_forms`` are its
    candidates.  Every candidate of a piece off the ridge sliver is checked
    by ``batch.require_feasible`` and scored in one payoff call.
    """
    # Masked lanes (absent roots, pieces past the breaks) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
        lo, hi = transfer_interval(games, Mechanism.BUDGET)
        phi1, phi2, x1, x2 = games
        big_x = games.total_budget
        q_ridge = np.sqrt(phi1 / phi2)
        q_lo = np.sqrt((x1 - hi) / (x2 + hi))
        q_hi = np.sqrt((x1 - lo) / (x2 + lo))
        sliver = around_ridge(q_ridge, 2.0 * RIDGE_RTOL)
        breaks = np.column_stack(
            (
                q_lo,
                q_hi,
                q_ridge,
                *sliver,
                *around_ridge(q_ridge, 1.001 * CASE_RTOL),
                _case_edge_columns(big_x, q_ridge),
                1.0 / _case_edge_columns(big_x, 1.0 / q_ridge),
            )
        )
        inside = (q_lo[:, None] <= breaks) & (breaks <= q_hi[:, None])
        qs = np.sort(np.where(inside, breaks, np.nan), axis=1)
        qa, qb = qs[:, :-1], qs[:, 1:]
        q_mid = 0.5 * (qa + qb)
        b2 = big_x[:, None] / (1.0 + q_mid * q_mid)
        index, swapped = batch.case_of(phi1[:, None], phi2[:, None], big_x[:, None] - b2, b2)
        on_ridge = (sliver[0][:, None] < q_mid) & (q_mid < sliver[1][:, None])
        off = (qa < qb) & ~on_ridge
        # A break is an end of the pieces on both sides of it.
        end_ok = np.zeros(qs.shape, dtype=bool)
        end_ok[:, :-1] |= off
        end_ok[:, 1:] |= off

        # The off-sliver pieces, one per row, and their interior candidates.
        piece_rows = np.nonzero(off)[0]
        qa, qb, index, swapped = qa[off], qb[off], index[off], swapped[off]
        phi1p, phi2p = phi1[piece_rows], phi2[piece_rows]
        base1p, base2p = base1[piece_rows], base2[piece_rows]
        zs = _candidate_columns(
            index,
            np.where(swapped, phi2p, phi1p),
            np.where(swapped, phi1p, phi2p),
            np.where(swapped, base2p - base1p, base1p - base2p),
            big_x[piece_rows],
        )
        inner = np.where(swapped[:, None], 1.0 / zs, zs)
        inner_ok = (qa[:, None] < inner) & (inner < qb[:, None])
        rows = np.concatenate((np.nonzero(end_ok)[0], piece_rows[np.nonzero(inner_ok)[0]]))
        q = np.concatenate((qs[end_ok], inner[inner_ok]))

        taus = np.minimum(np.maximum(big_x[rows] / (1.0 + q * q) - x2[rows], lo[rows]), hi[rows])
        candidates = games.take(rows)
        batch.require_feasible(candidates, taus, 0.0)
        u1, u2 = batch.payoffs_at_transfers(candidates, taus, 0.0)
    d1 = u1 - base1[rows]
    d2 = u2 - base2[rows]
    # ``min(d1, d2)`` as the scalar verdict takes it.
    score = np.where(d2 < d1, d2, d1)
    exists = np.zeros(len(phi1), dtype=bool)
    exists[rows[score > min_gain(games)[rows]]] = True
    return exists


def joint_exists(games: GameArrays) -> np.ndarray:
    """``joint_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    The surplus test, then ``mutual._gap_witness`` per game: each case's
    crossing of ``gap_crossing`` is solved elementwise, and the first in the
    scalar order that lies inside ``(0, Phi)`` and that ``batch.case_of``
    confirms is the witness.  All witnesses are validated in one payoff
    call.
    """
    # Masked lanes (absent roots, cases out of order) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
        gain = min_gain(games)
        surplus = max_collective_payoff(games) - (base1 + base2)
        rows = np.flatnonzero(~(surplus <= 2.0 * gain))
        phi1, phi2, x1, x2 = games.take(rows)
        swapped = x2 / phi2 < x1 / phi1
        base1, base2 = base1[rows], base2[rows]
        lead = np.where(swapped, base2 - base1, base1 - base2)
        big_phi = (phi1 + phi2)[:, None]
        big_x = (x1 + x2)[:, None]
        gap = 2.0 * RIDGE_RTOL
        lead = lead[:, None]
        # The crossings of cases 1 to 4, one column each.
        quad = gap_quadratic(big_phi, big_x, gap, lead)
        crossings = [
            gap_crossing(1, big_phi, big_x, gap, lead),
            gap_crossing(2, big_phi, big_x, gap, lead),
            np.fmin.reduce(_positive_root_pairs(*quad), axis=-1),
            gap_crossing(4, big_phi, big_x, gap, lead),
        ]
        # Case 3 needs X < 1 and case 4 X >= 1; case 1 comes last, for rich w.
        order = np.where(big_x < 1.0, (3, 2, 1), (2, 1, 4))
        p = np.take_along_axis(np.concatenate(crossings, axis=1), order - 1, axis=1)
        xw = (1.0 - gap) * big_x * p / (big_phi - gap * p)
        index, _ = batch.case_of(p, big_phi - p, xw, big_x - xw)
        match = (0.0 < p) & (p < big_phi) & (index == order)
        found = match.any(axis=1)
        pick = (np.flatnonzero(found), np.argmax(match, axis=1)[found])
        swapped = swapped[found]
        taus = np.where(swapped, x2[found], x1[found]) - xw[pick]
        nus = np.where(swapped, phi2[found], phi1[found]) - p[pick]
        taus = np.where(swapped, -taus, taus)
        nus = np.where(swapped, -nus, nus)
        rows = rows[found]
        witnesses = games.take(rows)
        batch.require_feasible(witnesses, taus, nus)
        u1, u2 = batch.payoffs_at_transfers(witnesses, taus, nus)
    gain = gain[rows]
    base1, base2 = base1[found], base2[found]
    exists = np.zeros(len(games.phi1), dtype=bool)
    exists[rows[(u1 - base1 > gain) & (u2 - base2 > gain)]] = True
    return exists
