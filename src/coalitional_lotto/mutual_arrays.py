"""The three mutual-benefit verdicts over arrays of games.

A sweep decides one predicate at every node of a plane.  The verdicts of
``mutual`` are elementwise arithmetic: piece edges, candidates and witness
crossings are roots of fixed quadratics, and each game has a bounded number
of them.  ``budget_exists``, ``contest_exists`` and ``joint_exists``
therefore decide a whole ``batch.GameArrays`` at once and validate every
candidate or witness in one payoff call.  The budget and contest verdicts
share one line engine, ``_line_exists``, the array form of
``mutual._line_verdict``.  It sorts each game's breaks into one row, NaN
past the last, then classifies and solves only the pieces it scores: one
flat entry per piece off the ridge sliver, and each case's candidates on
that case's pieces alone.  The verdicts take their forms from ``mutual``
(``edge_quadratics``, ``candidate_forms``, ``contest_candidate_forms``,
``moved_valuation``, ``contest_sides``, ``around_ridge``, ``gap_crossing``,
``gap_quadratic``) and ``collective.ridge_transfer``, classify and orient
through ``batch.case_of``, and return ``exists`` only: game by game it
equals the one-game verdict's (``tests/test_mutual.py`` and
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


def _case_candidates(forms, index, cases, args):
    """Candidates of ``forms(case, *args)`` on the pieces of each of ``cases``.

    ``forms`` returns ``candidate_forms``-style points and quadratics; it is
    evaluated once per case, on that case's pieces only, with each of
    ``args`` (one value per piece) taken at them.  Returns flat ``(piece,
    z)`` arrays, one pair per candidate.  A point that is not positive, or
    a root that is absent, is dropped, as the scalar verdicts drop it.
    """
    pieces, zs = [], []
    for case in cases:
        sel = np.flatnonzero(index == case)
        points, quads = forms(case, *(arg[sel] for arg in args))
        z = [np.broadcast_to(p, sel.shape)[:, None] for p in points]
        z += [_positive_root_pairs(*quad) for quad in quads]
        z = np.concatenate(z, axis=1)
        at, col = np.nonzero(z > 0.0)
        pieces.append(sel[at])
        zs.append(z[at, col])
    return np.concatenate(pieces), np.concatenate(zs)


def _line_exists(games, baseline, ends, breaks, sliver, classify, candidates, transfer):
    """``mutual._line_verdict(...).exists`` for every game of ``games``, over arrays.

    Row ``i`` holds game ``i``'s ``breaks`` in the line's coordinate; those
    outside ``ends`` are dropped, and sorting each row and dropping
    zero-width pieces leaves the scalar verdict's pieces.  Only the pieces
    off the ridge ``sliver`` are classified and solved, one entry per
    piece: ``classify(rows, mid)`` gives the ``(index, swapped)`` of the
    pieces of games ``rows`` around midpoints ``mid``;
    ``candidates(rows, index, swapped)`` their interior candidates as flat
    ``(piece, c)`` pairs; and ``transfer(rows, c)`` the ``(tau, nu)`` at
    coordinates ``c`` of games ``rows``.  Every end and candidate of those
    pieces is checked by ``batch.require_feasible`` and scored in one
    payoff call.
    """
    base1, base2 = baseline
    lo, hi = ends
    inside = (lo[:, None] <= breaks) & (breaks <= hi[:, None])
    cs = np.sort(np.where(inside, breaks, np.nan), axis=1)
    ca, cb = cs[:, :-1], cs[:, 1:]
    mid = 0.5 * (ca + cb)
    on_ridge = (sliver[0][:, None] < mid) & (mid < sliver[1][:, None])
    off = (ca < cb) & ~on_ridge
    # A break is an end of the pieces on both sides of it.
    end_ok = np.zeros(cs.shape, dtype=bool)
    end_ok[:, :-1] |= off
    end_ok[:, 1:] |= off

    # The off-sliver pieces, one entry each, and their interior candidates.
    piece_rows = np.nonzero(off)[0]
    ca, cb = ca[off], cb[off]
    index, swapped = classify(piece_rows, mid[off])
    pieces, inner = candidates(piece_rows, index, swapped)
    inner_ok = (ca[pieces] < inner) & (inner < cb[pieces])
    rows = np.concatenate((np.nonzero(end_ok)[0], piece_rows[pieces[inner_ok]]))
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
    # Masked lanes (absent roots, lanes past a row's last break) hold NaN or inf.
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

        def classify(rows, q_mid):
            b2 = big_x[rows] / (1.0 + q_mid * q_mid)
            return batch.case_of(phi1[rows], phi2[rows], big_x[rows] - b2, b2)

        def candidates(rows, index, swapped):
            phi_w = np.where(swapped, phi2[rows], phi1[rows])
            phi_s = np.where(swapped, phi1[rows], phi2[rows])
            base1, base2 = baseline[0][rows], baseline[1][rows]
            base_gap = np.where(swapped, base2 - base1, base1 - base2)
            k = np.sqrt(phi_w * phi_s)
            pieces, zs = _case_candidates(
                candidate_forms, index, (2, 3), (phi_w, phi_s, base_gap, big_x[rows], k)
            )
            return pieces, np.where(swapped[pieces], 1.0 / zs, zs)

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
    # Masked lanes (absent roots, lanes past a row's last break) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        baseline = batch.payoffs_at_transfers(games, 0.0, 0.0)
        lo, hi = contest_ends(games)
        phi1, phi2, x1, x2 = games
        below, above = (_contest_side_columns(*side) for side in contest_sides(games))
        breaks = np.column_stack((lo, hi, ridge_transfer(games), below, above))
        sliver = below[:, 0], above[:, 0]

        def classify(rows, nu_mid):
            return batch.case_of(phi1[rows] - nu_mid, phi2[rows] + nu_mid, x1[rows], x2[rows])

        def candidates(rows, index, swapped):
            def side(one, two):
                return np.where(swapped, two[rows], one[rows])

            phi_w, phi_s, x_w, x_s = side(phi1, phi2), side(phi2, phi1), side(x1, x2), side(x2, x1)
            base1, base2 = baseline[0][rows], baseline[1][rows]
            base_gap = np.where(swapped, base2 - base1, base1 - base2)
            big_phi = games.total_valuation[rows]
            k = np.sqrt(x_w * x_s)
            c1 = batch.one_v_one_vec(1.0, x_w, 1.0)
            pieces, zs = _case_candidates(
                contest_candidate_forms, index, (1, 2, 3, 4), (x_w, x_s, base_gap, big_phi, k, c1)
            )
            sign = np.where(swapped[pieces], -1.0, 1.0)
            return pieces, sign * moved_valuation(zs, phi_w[pieces], phi_s[pieces])

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
