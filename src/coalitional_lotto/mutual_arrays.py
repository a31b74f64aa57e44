"""The three mutual-benefit verdicts over arrays of games.

A sweep decides one predicate at every node of a plane.  The verdicts of
``mutual`` are elementwise arithmetic: piece edges, candidates and witness
crossings are roots of fixed quadratics, and each game has a bounded number
of them.  ``budget_exists``, ``contest_exists`` and ``joint_exists``
therefore decide a whole ``batch.GameArrays`` at once and validate every
candidate or witness in one payoff call.  Every rule comes from ``mutual``
and ``search``, which write each once for a game or a ``GameArrays``
(``search.line_ends``, ``search.line_sides``, ``line_breaks``,
``positive_roots``, the candidate forms, ``search.moved_amount``,
``gap_witness``, ``surplus_rules_out``, ``capped_rules_out``,
``valuation_room``); this module keeps only what serves a block of games.
The budget and contest verdicts share one line engine, ``_line_exists``,
the array form of ``mutual._line_verdict``: both lines run in the transfer
itself.  It builds lines only for the games that the one-game verdict's
rule-out tests leave, stacks each such game's breaks into one row, sorts
it, NaN past the last, then classifies and solves only the pieces it
scores: one flat entry per piece off the ridge sliver, and each case's
candidates on that case's pieces alone (``_case_candidates``).  The
verdicts classify and orient through ``batch.case_of`` and return
``exists`` only: game by game it equals the one-game verdict's
(``tests/test_mutual.py`` and ``scripts/route_census.py`` check that).
Witnesses, routes and flags stay with the one-game verdicts, which
``analyze_game`` uses.
"""

from __future__ import annotations

import numpy as np

from . import batch
from .batch import GameArrays
from .collective import max_collective_payoff
from .core import Mechanism, root_product
from .mutual import (
    budget_candidate_forms,
    capped_rules_out,
    contest_candidate_forms,
    gap_witness,
    line_breaks,
    positive_roots,
    surplus_rules_out,
    valuation_room,
)
from .search import line_ends, line_sides, min_gain, moved_amount

__all__ = ["budget_exists", "contest_exists", "joint_exists"]


def _case_candidates(forms, index, args):
    """Candidates of ``forms(case, *args)`` on the pieces of each case.

    ``forms`` returns ``budget_candidate_forms``-style points and
    quadratics; it is evaluated once per case, on that case's pieces only,
    with each of ``args`` (one value per piece) taken at them, and a case
    with no forms adds nothing.  Returns flat ``(piece, z)`` arrays, one
    pair per candidate.  A point that is not positive, or a root that is
    absent, is dropped, as the scalar verdicts drop it.
    """
    pieces, zs = [], []
    for case in (1, 2, 3, 4):
        sel = np.flatnonzero(index == case)
        points, quads = forms(case, *(arg[sel] for arg in args))
        z = [np.broadcast_to(p, sel.shape) for p in points]
        z += [root for quad in quads for root in positive_roots(*quad)]
        if not z:
            continue
        z = np.column_stack(z)
        at, col = np.nonzero(z > 0.0)
        pieces.append(sel[at])
        zs.append(z[at, col])
    return np.concatenate(pieces), np.concatenate(zs)


def _line_exists(games: GameArrays, mechanism: Mechanism) -> np.ndarray:
    """The one-game budget or contest verdict's ``exists`` for every game of ``games``.

    A game that ``mutual.surplus_rules_out`` rules out, or on a budget line
    ``mutual.capped_rules_out``, is absent; lines are built for the others
    only.  Each such game's row holds its breaks of ``mutual.line_breaks``,
    15 on a budget line and 11 on a contest line: the line's ends, the
    ridge, and on each weak side the sliver end, the case-4 band end and its
    four or two case edges.  Those outside the ends are dropped, and sorting
    each row and dropping zero-width pieces leaves the one-game verdict's
    pieces.  Only the pieces off the ridge sliver are classified and
    solved, one entry per piece, and on a contest line only those whose
    ends leave both players valuation room (``mutual.valuation_room``,
    taken row-wise): no point of another holds a mutual gain.  Every end
    and candidate of those pieces is checked by ``batch.require_feasible``
    and scored in one payoff call.
    """
    budget = mechanism is Mechanism.BUDGET
    exists = np.zeros(len(games.phi1), dtype=bool)
    # Masked lanes (absent roots, lanes past a row's last break) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
        ruled_out = surplus_rules_out(games, (base1, base2), max_collective_payoff(games))
        if budget:
            ruled_out |= capped_rules_out(games, (base1, base2))
        left = np.flatnonzero(~ruled_out)
        games, base1, base2 = games.take(left), base1[left], base2[left]
        lo, hi = line_ends(games, mechanism)
        one, two = sides = line_sides(games, mechanism)
        sliver, breaks = line_breaks(games, mechanism, sides, lo, hi)
        breaks = np.column_stack(breaks)
        inside = (lo[:, None] <= breaks) & (breaks <= hi[:, None])
        vs = np.sort(np.where(inside, breaks, np.nan), axis=1)
        va, vb = vs[:, :-1], vs[:, 1:]
        mid = 0.5 * (va + vb)
        on_ridge = (sliver[0][:, None] < mid) & (mid < sliver[1][:, None])
        off = (va < vb) & ~on_ridge
        if not budget:
            columns = GameArrays(*(field[:, None] for field in games))
            off &= valuation_room(columns, (base1[:, None], base2[:, None]))(va, vb)
        # A break is an end of the pieces on both sides of it.
        end_ok = np.zeros(vs.shape, dtype=bool)
        end_ok[:, :-1] |= off
        end_ok[:, 1:] |= off

        # The off-sliver pieces, one entry each, classified where their
        # midpoints move the game.
        piece_rows = np.nonzero(off)[0]
        va, vb, mid = va[off], vb[off], mid[off]
        phi1, phi2, x1, x2 = (field[piece_rows] for field in games)
        if budget:
            index, swapped = batch.case_of(phi1, phi2, x1 - mid, x2 + mid)
        else:
            index, swapped = batch.case_of(phi1 - mid, phi2 + mid, x1, x2)
        # Each piece's weak side, and the candidates of its case there.
        m_w, m_s, k_w, k_s, base_gap = (
            np.where(swapped, b[piece_rows], a[piece_rows])
            for a, b in zip((*one[:4], base1 - base2), (*two[:4], base2 - base1))
        )
        forms = budget_candidate_forms if budget else contest_candidate_forms
        pieces, zs = _case_candidates(
            forms, index, (k_w, k_s, base_gap, m_w + m_s, root_product(k_w, k_s))
        )
        sign = np.where(swapped[pieces], -1.0, 1.0)
        inner = sign * moved_amount(zs, m_w[pieces], m_s[pieces])
        inner_ok = (va[pieces] < inner) & (inner < vb[pieces])
        rows = np.concatenate((np.nonzero(end_ok)[0], piece_rows[pieces[inner_ok]]))
        v = np.concatenate((vs[end_ok], inner[inner_ok]))

        taus, nus = (v, 0.0) if budget else (0.0, v)
        scored = games.take(rows)
        batch.require_feasible(scored, taus, nus)
        u1, u2 = batch.payoffs_at_transfers(scored, taus, nus)
        d1 = u1 - base1[rows]
        d2 = u2 - base2[rows]
        # ``min(d1, d2)`` as the scalar verdict takes it.
        score = np.where(d2 < d1, d2, d1)
        gain = min_gain(games)[rows]
    exists[left[rows[score > gain]]] = True
    return exists


def budget_exists(games: GameArrays) -> np.ndarray:
    """``budget_mutual_exists(g).exists`` for every game of ``games``, over arrays."""
    return _line_exists(games, Mechanism.BUDGET)


def contest_exists(games: GameArrays) -> np.ndarray:
    """``contest_mutual_exists(g).exists`` for every game of ``games``, over arrays."""
    return _line_exists(games, Mechanism.CONTEST)


def joint_exists(games: GameArrays) -> np.ndarray:
    """``joint_mutual_exists(g).exists`` for every game of ``games``, over arrays.

    The surplus test (``mutual.surplus_rules_out``), then ``mutual.gap_witness``
    over the games it leaves; all witnesses are validated in one payoff
    call.
    """
    # Masked lanes (absent roots, crossings outside the curve) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
        optimum = max_collective_payoff(games)
        rows = np.flatnonzero(~surplus_rules_out(games, (base1, base2), optimum))
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
