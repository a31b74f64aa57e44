"""The three mutual-benefit verdicts over arrays of games.

A sweep decides one predicate at every node of a plane.  The verdicts of
``mutual`` are elementwise arithmetic: piece edges, candidates and witness
crossings are roots of fixed quadratics, and each game has a bounded number
of them.  ``budget_exists``, ``contest_exists`` and ``joint_exists``
therefore decide a whole ``batch.GameArrays`` at once and validate every
candidate or witness in one payoff call.  Every rule comes from ``mutual``,
which writes each once for a game or a ``GameArrays`` (``budget_breaks``,
``contest_breaks``, ``positive_roots``, ``candidate_forms``,
``contest_candidate_forms``, ``moved_valuation``, ``gap_witness``,
``surplus_rules_out``); this module keeps only what serves a block of
games.  The budget and contest verdicts share one line engine,
``_line_exists``, the array form of ``mutual._line_verdict``.  It stacks
each game's breaks into one row, sorts it, NaN past the last, then
classifies and solves only the pieces it scores: one flat entry per piece
off the ridge sliver, and each case's candidates on that case's pieces
alone (``_case_candidates``).  The verdicts classify and orient through
``batch.case_of`` and return ``exists`` only: game by game it equals the
one-game verdict's (``tests/test_mutual.py`` and
``scripts/route_census.py`` check that).  Witnesses, routes and flags stay
with the one-game verdicts, which ``analyze_game`` uses.
"""

from __future__ import annotations

import numpy as np

from . import batch
from .batch import GameArrays
from .core import Mechanism
from .mutual import (
    budget_breaks,
    candidate_forms,
    contest_breaks,
    contest_candidate_forms,
    gap_witness,
    moved_valuation,
    positive_roots,
    surplus_rules_out,
)
from .search import contest_ends, min_gain, transfer_interval

__all__ = ["budget_exists", "contest_exists", "joint_exists"]


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
        z = [np.broadcast_to(p, sel.shape) for p in points]
        z += [root for quad in quads for root in positive_roots(*quad)]
        z = np.column_stack(z)
        at, col = np.nonzero(z > 0.0)
        pieces.append(sel[at])
        zs.append(z[at, col])
    return np.concatenate(pieces), np.concatenate(zs)


def _line_exists(games, baseline, ends, sliver, breaks, classify, candidates, transfer):
    """``mutual._line_verdict(...).exists`` for every game of ``games``, over arrays.

    ``ends``, ``sliver`` and ``breaks`` are the arrays of ``budget_breaks``
    or ``contest_breaks``, one element per game.  Row ``i`` holds game
    ``i``'s breaks in the line's coordinate; those outside ``ends`` are
    dropped, and sorting each row and dropping zero-width pieces leaves the
    one-game verdict's pieces.  Only the pieces off the ridge ``sliver`` are
    classified and solved, one entry per piece: ``classify(rows, mid)``
    gives the ``(index, swapped)`` of the pieces of games ``rows`` around
    midpoints ``mid``; ``candidates(rows, index, swapped)`` their interior
    candidates as flat ``(piece, c)`` pairs; and ``transfer(rows, c)`` the
    ``(tau, nu)`` at coordinates ``c`` of games ``rows``.  Every end and
    candidate of those pieces is checked by ``batch.require_feasible`` and
    scored in one payoff call.
    """
    base1, base2 = baseline
    lo, hi = ends
    breaks = np.column_stack(breaks)
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
        ends, sliver, breaks = budget_breaks(games, lo, hi)
        phi1, phi2, x1, x2 = games
        big_x = games.total_budget

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
            games, baseline, ends, sliver, breaks, classify, candidates, transfer
        )


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
        ends, sliver, breaks = contest_breaks(games, *contest_ends(games))
        phi1, phi2, x1, x2 = games

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
            games, baseline, ends, sliver, breaks, classify, candidates, transfer
        )


def joint_exists(games: GameArrays) -> np.ndarray:
    """``joint_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    The surplus test (``mutual.surplus_rules_out``), then ``mutual.gap_witness``
    over the games it leaves; all witnesses are validated in one payoff
    call.
    """
    # Masked lanes (absent roots, crossings outside the curve) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
        rows = np.flatnonzero(~surplus_rules_out(games, (base1, base2)))
        taus, nus, index, _ = gap_witness(games.take(rows), (base1[rows], base2[rows]))
        found = index > 0
        rows, taus, nus = rows[found], taus[found], nus[found]
        witnesses = games.take(rows)
        batch.require_feasible(witnesses, taus, nus)
        u1, u2 = batch.payoffs_at_transfers(witnesses, taus, nus)
        gain = min_gain(games)[rows]
    exists = np.zeros(len(games.phi1), dtype=bool)
    exists[rows[(u1 - base1[rows] > gain) & (u2 - base2[rows] > gain)]] = True
    return exists
