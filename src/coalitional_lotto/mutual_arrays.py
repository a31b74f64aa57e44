"""The three mutual-benefit verdicts over arrays of games.

A sweep decides one predicate at every node of a plane.  The verdicts of
``mutual`` are elementwise arithmetic: piece edges, candidates and witness
crossings are roots of fixed quadratics, and each game has a bounded number
of them.  ``budget_exists``, ``contest_exists`` and ``joint_exists``
therefore decide a whole ``batch.GameArrays`` at once, in a padded
``(games, columns)`` layout with NaN in the absent lanes, and validate every
candidate or witness in one payoff call.  The budget and contest verdicts
share one line engine, ``_line_exists``, the array form of
``mutual._line_verdict``.  They take their forms from ``mutual``
(``edge_quadratics``, ``candidate_forms``, ``contest_candidate_forms``,
``moved_valuation``, ``contest_sides``, ``around_ridge``,
``gap_crossing``, ``gap_quadratic``) and ``collective.ridge_transfer``,
classify and orient through ``batch.case_of``, and return ``exists`` only:
game by game it equals the one-game verdict's (``tests/test_mutual.py`` and
``scripts/route_census.py`` check that).  Witnesses, routes and flags stay
with the one-game verdicts, which ``analyze_game`` uses.
"""

from __future__ import annotations

import numpy as np

from . import batch
from .adversary import CASE_RTOL
from .batch import GameArrays
from .collective import ridge_transfer
from .core import Mechanism
from .mutual import (
    around_ridge,
    candidate_forms,
    contest_candidate_forms,
    contest_sides,
    edge_quadratics,
    gap_crossing,
    gap_quadratic,
    moved_valuation,
    surplus_rules_out,
)
from .search import RIDGE_RTOL, contest_ends, min_gain, transfer_interval

__all__ = ["budget_exists", "contest_exists", "joint_exists"]


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


def _form_columns(forms, index, cases) -> np.ndarray:
    """Candidates of ``forms(case)`` on the pieces of each of ``cases``, NaN elsewhere.

    ``forms(case)`` returns ``candidate_forms``-style points and quadratics
    over the pieces; a point that is not positive is dropped, as the scalar
    verdicts drop it.
    """
    columns = []
    for case in cases:
        points, quads = forms(case)
        zs = [np.broadcast_to(p, index.shape)[..., None] for p in points]
        zs += [_positive_root_pairs(*quad) for quad in quads]
        zs = np.concatenate(zs, axis=-1)
        columns.append(np.where((index == case)[..., None] & (zs > 0.0), zs, np.nan))
    return np.concatenate(columns, axis=-1)


def _line_exists(games, baseline, ends, breaks, sliver, classify, candidates, transfer):
    """``mutual._line_verdict(...).exists`` for every game of ``games``, over arrays.

    Row ``i`` holds game ``i``'s ``breaks`` in the line's coordinate; those
    outside ``ends`` are dropped, and sorting each row and dropping
    zero-width pieces leaves the scalar verdict's pieces.  ``classify(mid)``
    gives each piece's ``(index, swapped)`` from its midpoint, ``(games,
    pieces)`` shaped; ``candidates(rows, index, swapped)`` the interior
    candidates of the pieces of games ``rows``, one row per piece; and
    ``transfer(rows, c)`` the ``(tau, nu)`` at coordinates ``c`` of games
    ``rows``.  Every end and candidate of a piece off the ridge ``sliver``
    is checked by ``batch.require_feasible`` and scored in one payoff call.
    """
    base1, base2 = baseline
    lo, hi = ends
    inside = (lo[:, None] <= breaks) & (breaks <= hi[:, None])
    cs = np.sort(np.where(inside, breaks, np.nan), axis=1)
    ca, cb = cs[:, :-1], cs[:, 1:]
    mid = 0.5 * (ca + cb)
    index, swapped = classify(mid)
    on_ridge = (sliver[0][:, None] < mid) & (mid < sliver[1][:, None])
    off = (ca < cb) & ~on_ridge
    # A break is an end of the pieces on both sides of it.
    end_ok = np.zeros(cs.shape, dtype=bool)
    end_ok[:, :-1] |= off
    end_ok[:, 1:] |= off

    # The off-sliver pieces, one per row, and their interior candidates.
    piece_rows = np.nonzero(off)[0]
    ca, cb = ca[off], cb[off]
    inner = candidates(piece_rows, index[off], swapped[off])
    inner_ok = (ca[:, None] < inner) & (inner < cb[:, None])
    rows = np.concatenate((np.nonzero(end_ok)[0], piece_rows[np.nonzero(inner_ok)[0]]))
    c = np.concatenate((cs[end_ok], inner[inner_ok]))

    taus, nus = transfer(rows, c)
    scored = games.take(rows)
    batch.require_feasible(scored, taus, nus)
    u1, u2 = batch.payoffs_at_transfers(scored, taus, nus)
    d1 = u1 - base1[rows]
    d2 = u2 - base2[rows]
    # ``min(d1, d2)`` as the scalar verdict takes it.
    score = np.where(d2 < d1, d2, d1)
    exists = np.zeros(len(games.phi1), dtype=bool)
    exists[rows[score > min_gain(games)[rows]]] = True
    return exists


def budget_exists(games: GameArrays) -> np.ndarray:
    """``budget_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    Row ``i`` holds game ``i``'s 15 breaks in ``q``: the interval ends, the
    ridge, the sliver ends, the case-4 band ends and four case edges on
    each side.  An empty interval gives NaN ends and no piece.
    """
    # Masked lanes (absent roots, pieces past the breaks) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        baseline = batch.payoffs_at_transfers(games, 0.0, 0.0)
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

        def classify(q_mid):
            b2 = big_x[:, None] / (1.0 + q_mid * q_mid)
            return batch.case_of(phi1[:, None], phi2[:, None], big_x[:, None] - b2, b2)

        def candidates(rows, index, swapped):
            phi_w = np.where(swapped, phi2[rows], phi1[rows])
            phi_s = np.where(swapped, phi1[rows], phi2[rows])
            base1, base2 = baseline[0][rows], baseline[1][rows]
            base_gap = np.where(swapped, base2 - base1, base1 - base2)
            k = np.sqrt(phi_w * phi_s)
            zs = _form_columns(
                lambda case: candidate_forms(case, phi_w, phi_s, base_gap, big_x[rows], k),
                index,
                (2, 3),
            )
            return np.where(swapped[:, None], 1.0 / zs, zs)

        def transfer(rows, q):
            taus = big_x[rows] / (1.0 + q * q) - x2[rows]
            return np.minimum(np.maximum(taus, lo[rows]), hi[rows]), 0.0

        return _line_exists(
            games, baseline, (q_lo, q_hi), breaks, sliver, classify, candidates, transfer
        )


def _contest_side_columns(phi_w, phi_s, x_w, x_s, sign) -> np.ndarray:
    """``mutual._side_breaks`` per game: four columns, NaN where absent."""
    rho = np.sqrt(x_w / x_s)
    k = np.sqrt(x_w * x_s)
    zs = np.column_stack(
        (
            around_ridge(rho, 2.0 * RIDGE_RTOL)[1],
            around_ridge(rho, 1.001 * CASE_RTOL)[1],
            *(np.where(z > rho, z, np.nan) for z in (1.0 / k, (1.0 - x_s) / k)),
        )
    )
    return sign * moved_valuation(zs, phi_w[:, None], phi_s[:, None])


def contest_exists(games: GameArrays) -> np.ndarray:
    """``contest_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    Row ``i`` holds game ``i``'s 11 breaks in ``nu``: the line's ends, the
    ridge transfer, and on each weak side the sliver end, the case-4 band
    end and two case edges.  Each piece's candidates come from
    ``contest_candidate_forms`` on its weak side, moved back to ``nu``.
    """
    # Masked lanes (absent roots, pieces past the breaks) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        baseline = batch.payoffs_at_transfers(games, 0.0, 0.0)
        lo, hi = contest_ends(games)
        phi1, phi2, x1, x2 = games
        below, above = (_contest_side_columns(*side) for side in contest_sides(games))
        breaks = np.column_stack((lo, hi, ridge_transfer(games), below, above))
        sliver = below[:, 0], above[:, 0]

        def classify(nu_mid):
            p1, p2 = phi1[:, None] - nu_mid, phi2[:, None] + nu_mid
            return batch.case_of(p1, p2, x1[:, None], x2[:, None])

        def candidates(rows, index, swapped):
            def side(one, two):
                return np.where(swapped, two[rows], one[rows])

            phi_w, phi_s, x_w, x_s = side(phi1, phi2), side(phi2, phi1), side(x1, x2), side(x2, x1)
            base1, base2 = baseline[0][rows], baseline[1][rows]
            base_gap = np.where(swapped, base2 - base1, base1 - base2)
            big_phi = games.total_valuation[rows]
            k = np.sqrt(x_w * x_s)
            c1 = batch.one_v_one_vec(1.0, x_w, 1.0)
            zs = _form_columns(
                lambda case: contest_candidate_forms(case, x_w, x_s, base_gap, big_phi, k, c1),
                index,
                (1, 2, 3, 4),
            )
            sign = np.where(swapped, -1.0, 1.0)[:, None]
            return sign * moved_valuation(zs, phi_w[:, None], phi_s[:, None])

        def transfer(rows, nu):
            return 0.0, nu

        return _line_exists(
            games, baseline, (lo, hi), breaks, sliver, classify, candidates, transfer
        )


def joint_exists(games: GameArrays) -> np.ndarray:
    """``joint_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    The surplus test (``mutual.surplus_rules_out``), then
    ``mutual._gap_witness`` per game: each case's crossing of
    ``gap_crossing`` is solved elementwise, and the first in the scalar
    order that lies inside ``(0, Phi)`` and that ``batch.case_of`` confirms
    is the witness.  All witnesses are validated in one payoff call.
    """
    # Masked lanes (absent roots, cases out of order) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
        gain = min_gain(games)
        rows = np.flatnonzero(~surplus_rules_out(games, (base1, base2)))
        phi1, phi2, x1, x2 = games.take(rows)
        swapped = batch.case_of(phi1, phi2, x1, x2)[1]
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
