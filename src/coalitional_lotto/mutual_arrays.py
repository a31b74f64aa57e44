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
The budget and contest verdicts share one line engine, the array form of
``mutual._line_verdict``: both lines run in the transfer itself.
``_cut_lines`` builds lines only for the games that the one-game verdict's
rule-out tests leave, stacks each such game's breaks into one row, sorts
it, NaN past the last, and marks the pieces; ``_scores`` classifies and
solves only the pieces it is given, one flat entry per piece, with each
case's candidates on that case's pieces alone (``_case_candidates``), and
scores them in one payoff call.  ``_line_exists``, behind
``budget_exists`` and ``contest_exists``, scores the pieces off the ridge
sliver and returns ``exists`` only.  ``line_flags`` returns ``exists`` and
``near_boundary`` for ``verify``: the thin margin of each game's best score
off the sliver and, in a second pass over the absent games alone, the
knife-edge of a benefit found only on the sliver.  The verdicts classify
and orient through ``batch.case_of``; game by game each flag equals the
one-game verdict's (``tests/test_mutual.py`` and
``scripts/route_census.py`` check that).  Witnesses and routes stay with
the one-game verdicts, which ``analyze_game`` uses.
"""

from __future__ import annotations

from typing import NamedTuple

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
from .search import line_ends, line_sides, min_gain, moved_amount, thin_margin

__all__ = ["budget_exists", "contest_exists", "joint_exists", "line_flags"]


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


class _Lines(NamedTuple):
    """The lines of the games that the rule-out tests leave, cut into pieces.

    ``left`` holds those games' rows in the block, and ``games`` and
    ``baseline`` their parameters and ``(b1, b2)``.  Row ``i`` of ``vs``
    holds game ``i``'s breaks, sorted, NaN past the last; piece ``j`` runs
    from ``vs[i, j]`` to ``vs[i, j + 1]`` around ``mid[i, j]``.  ``usable``
    marks the pieces of nonzero width, on a contest line only those whose
    ends leave both players valuation room, and ``on_ridge`` those inside
    the ridge sliver.
    """

    left: np.ndarray
    games: GameArrays
    baseline: tuple
    sides: tuple
    vs: np.ndarray
    mid: np.ndarray
    usable: np.ndarray
    on_ridge: np.ndarray


def _cut_lines(games: GameArrays, mechanism: Mechanism) -> _Lines:
    """The budget or contest lines of ``games`` that the verdict builds, cut into pieces.

    A game that ``mutual.surplus_rules_out`` rules out, or on a budget line
    ``mutual.capped_rules_out``, is absent; lines are built for the others
    only.  Each such game's row holds its breaks of ``mutual.line_breaks``,
    15 on a budget line and 11 on a contest line: the line's ends, the
    ridge, and on each weak side the sliver end, the case-4 band end and its
    four or two case edges.  Those outside the ends are dropped, and sorting
    each row and dropping zero-width pieces leaves the one-game verdict's
    pieces.  On a contest line only the pieces whose ends leave both
    players valuation room (``mutual.valuation_room``, taken row-wise) are
    usable: no point of another holds a mutual gain.
    """
    budget = mechanism is Mechanism.BUDGET
    base1, base2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
    ruled_out = surplus_rules_out(games, (base1, base2), max_collective_payoff(games))
    if budget:
        ruled_out |= capped_rules_out(games, (base1, base2))
    left = np.flatnonzero(~ruled_out)
    games, base1, base2 = games.take(left), base1[left], base2[left]
    lo, hi = line_ends(games, mechanism)
    sides = line_sides(games, mechanism)
    sliver, breaks = line_breaks(games, mechanism, sides, lo, hi)
    breaks = np.column_stack(breaks)
    inside = (lo[:, None] <= breaks) & (breaks <= hi[:, None])
    vs = np.sort(np.where(inside, breaks, np.nan), axis=1)
    va, vb = vs[:, :-1], vs[:, 1:]
    mid = 0.5 * (va + vb)
    on_ridge = (sliver[0][:, None] < mid) & (mid < sliver[1][:, None])
    usable = va < vb
    if not budget:
        columns = GameArrays(*(field[:, None] for field in games))
        usable &= valuation_room(columns, (base1[:, None], base2[:, None]))(va, vb)
    return _Lines(left, games, (base1, base2), sides, vs, mid, usable, on_ridge)


def _scores(lines: _Lines, mechanism: Mechanism, pieces: np.ndarray):
    """The smaller payoff delta at every point that the verdict scores on ``pieces``.

    ``pieces`` marks pieces of ``lines``.  Only those are classified and
    solved, one entry per piece, classified where their midpoints move the
    game; every end and candidate inside them is checked by
    ``batch.require_feasible`` and scored in one payoff call.  Returns
    ``(rows, score)``: each point's row in ``lines`` and its score.
    """
    budget = mechanism is Mechanism.BUDGET
    games, (base1, base2), (one, two), vs = lines.games, lines.baseline, lines.sides, lines.vs
    # A break is an end of the pieces on both sides of it.
    end_ok = np.zeros(vs.shape, dtype=bool)
    end_ok[:, :-1] |= pieces
    end_ok[:, 1:] |= pieces

    piece_rows = np.nonzero(pieces)[0]
    va, vb, mid = vs[:, :-1][pieces], vs[:, 1:][pieces], lines.mid[pieces]
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
    at, zs = _case_candidates(
        forms, index, (k_w, k_s, base_gap, m_w + m_s, root_product(k_w, k_s))
    )
    sign = np.where(swapped[at], -1.0, 1.0)
    inner = sign * moved_amount(zs, m_w[at], m_s[at])
    inner_ok = (va[at] < inner) & (inner < vb[at])
    rows = np.concatenate((np.nonzero(end_ok)[0], piece_rows[at[inner_ok]]))
    v = np.concatenate((vs[end_ok], inner[inner_ok]))

    taus, nus = (v, 0.0) if budget else (0.0, v)
    scored = games.take(rows)
    batch.require_feasible(scored, taus, nus)
    u1, u2 = batch.payoffs_at_transfers(scored, taus, nus)
    d1 = u1 - base1[rows]
    d2 = u2 - base2[rows]
    # ``min(d1, d2)`` as the scalar verdict takes it.
    return rows, np.where(d2 < d1, d2, d1)


def _line_exists(games: GameArrays, mechanism: Mechanism) -> np.ndarray:
    """The one-game budget or contest verdict's ``exists`` for every game of ``games``.

    The pieces of ``_cut_lines`` off the ridge sliver are scored
    (``_scores``); a game exists where one of its points beats the gain
    floor.
    """
    exists = np.zeros(len(games.phi1), dtype=bool)
    # Masked lanes (absent roots, lanes past a row's last break) hold NaN or inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lines = _cut_lines(games, mechanism)
        rows, score = _scores(lines, mechanism, lines.usable & ~lines.on_ridge)
        gain = min_gain(lines.games)[rows]
    exists[lines.left[rows[score > gain]]] = True
    return exists


def line_flags(games: GameArrays, mechanism: Mechanism) -> tuple[np.ndarray, np.ndarray]:
    """The one-game budget or contest verdict's ``(exists, near_boundary)``, per game.

    The pieces off the ridge sliver are scored as in ``_line_exists``, and
    each game's best score is taken.  Where it beats the gain floor the
    verdict exists, and ``near_boundary`` is ``search.thin_margin`` of that
    score.  Otherwise the sliver's usable pieces are scored in a second
    pass, for those games only: a game that a point there benefits is the
    flagged ``ridge-knife-edge``, absent and near a boundary.
    """
    exists = np.zeros(len(games.phi1), dtype=bool)
    near = np.zeros(len(games.phi1), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lines = _cut_lines(games, mechanism)
        rows, score = _scores(lines, mechanism, lines.usable & ~lines.on_ridge)
        # ``fmax`` passes over NaN scores, as the scalar comparisons do.
        best = np.full(len(lines.left), -np.inf)
        np.fmax.at(best, rows, score)
        gain = min_gain(lines.games)
        found = best > gain
        flagged = thin_margin(lines.games, best)
        # The sliver is searched only when no transfer off it benefits both.
        sliver = lines.usable & lines.on_ridge & ~found[:, None]
        if sliver.any():
            rows, score = _scores(lines, mechanism, sliver)
            flagged[rows[score > gain[rows]]] = True
    exists[lines.left] = found
    near[lines.left] = flagged
    return exists, near


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
