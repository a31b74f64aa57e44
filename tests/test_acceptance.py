"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them live).  The random-game populations are seeded through the
package's portable generator, so every run checks identical games.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from coalitional_lotto import families
from coalitional_lotto.adversary import adversary_value, best_response, classify_case, player_payoffs
from coalitional_lotto.analysis import analyze_game
from coalitional_lotto.collective import max_collective_payoff
from coalitional_lotto.core import GameInstance, Transfer, one_v_one_payoff, swap_indices
from coalitional_lotto.mutual import (
    Mechanism,
    budget_mutual_exists,
    contest_mutual_exists,
    joint_mutual_exists,
)
from coalitional_lotto.oracle import (
    GridSpec,
    grid_best_responses,
    grid_max_collectives,
    grid_mutual_search,
    grid_mutual_searches,
)
from coalitional_lotto.rng import SplitMix64
from coalitional_lotto.sweep import Predicate, SweepSpec, run_sweep, sample_games

DIAMOND = GameInstance(12.0, 10.0, 0.4, 1.6)
REPO_ROOT = Path(__file__).resolve().parents[1]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_golden_game_transfers_and_runtime():
    rep = analyze_game(DIAMOND)  # warm caches before timing
    t0 = time.perf_counter()
    rep = analyze_game(DIAMOND)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    tau_err = abs(rep.collective.optimal_budget.tau - (-15.2 / 22.0))
    nu_err = abs(rep.collective.optimal_contest.nu - 7.6)
    ok = tau_err < 1e-9 and nu_err < 1e-9 and elapsed_ms < 10.0
    report(
        "criterion 1",
        ok,
        f"tau_err={tau_err:.2e} nu_err={nu_err:.2e} runtime={elapsed_ms:.2f}ms",
    )


def test_criterion_2_collective_maxima_equality():
    games = sample_games(1000, seed=20240201)
    joint_spec = GridSpec(201)  # 201 per axis keeps the run single-threaded fast
    worst = 0.0
    t0 = time.perf_counter()
    closed = [max_collective_payoff(g) for g in games]
    for mech in Mechanism:
        spec = joint_spec if mech is Mechanism.JOINT else None
        for grid, best in zip(grid_max_collectives(games, mech, spec), closed):
            worst = max(worst, abs(grid - best) / abs(best))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report("criterion 2", ok, f"worst_rel_err={worst:.2e} runtime={elapsed:.1f}s")


def test_criterion_3_maximum_collective_closed_forms():
    from coalitional_lotto.collective import (
        collective_payoff,
        optimal_budget_transfer,
        optimal_contest_transfer,
    )

    errs = []
    # combined budget >= 1: three mechanisms all reach (3/4) * 22
    g = DIAMOND
    errs.append(abs(max_collective_payoff(g) - 16.5))
    errs.append(abs(collective_payoff(g, optimal_budget_transfer(g)) - 16.5))
    errs.append(abs(collective_payoff(g, optimal_contest_transfer(g)) - 16.5))
    # combined budget < 1: second branch gives 5.5
    g2 = GameInstance(12, 10, 0.2, 0.3)
    errs.append(abs(max_collective_payoff(g2) - 5.5))
    errs.append(abs(collective_payoff(g2, optimal_budget_transfer(g2)) - 5.5))
    errs.append(abs(collective_payoff(g2, optimal_contest_transfer(g2)) - 5.5))
    worst = max(errs)
    report("criterion 3", worst < 1e-9, f"worst_abs_err={worst:.2e}")


def test_criterion_4_best_response_matches_grid():
    games = sample_games(1000, seed=20240404)
    worst_pair = (0.0, 0.0)
    ok = True
    for g, grid in zip(games, grid_best_responses(games)):
        closed = best_response(g)
        alloc_err = abs(closed.xa1 - grid.xa1)
        if alloc_err <= 1e-6:
            continue
        value_err = abs(
            adversary_value(g, closed.xa1, closed.xa2)
            - adversary_value(g, grid.xa1, grid.xa2)
        )
        if value_err > 1e-9:
            ok = False
            worst_pair = max(worst_pair, (alloc_err, value_err))
    report("criterion 4", ok, f"worst_offender={worst_pair}")


def test_criterion_5_contest_oracle_agreement_and_calibration_report():
    games = sample_games(1000, seed=20240505)
    disagreements = 0
    unflagged = 0
    for g, oracle in zip(games, grid_mutual_searches(games, Mechanism.CONTEST)):
        analytic = contest_mutual_exists(g)
        if analytic.exists != oracle.exists:
            disagreements += 1
            if not (analytic.near_boundary or oracle.near_boundary):
                unflagged += 1
    agreement = 1.0 - disagreements / len(games)
    report_path = REPO_ROOT / "calibration" / "typo_resolution.md"
    text = report_path.read_text() if report_path.exists() else ""
    documented = all(site in text for site in ("c2", "sqrt33", "sqrt77", "sqrt45", "c14"))
    ok = agreement >= 0.99 and unflagged == 0 and documented
    report(
        "criterion 5",
        ok,
        f"agreement={agreement:.3f} unflagged={unflagged} report={documented}",
    )


def test_criterion_6_transfer_set_structure():
    # one pinned game per subset, each verified against the grid oracle
    exemplars = {
        "both": DIAMOND,
        "tau_only": GameInstance(12, 10, 1.25, 0.75),
        "nu_only_x1_gt_1": GameInstance(12, 10, 1.2, 2.0),
        "joint_only": GameInstance(12, 10, 0.95, 0.95),
    }
    want = {
        "both": (True, True),
        "tau_only": (True, False),
        "nu_only_x1_gt_1": (False, True),
        "joint_only": (False, False),
    }
    ok = exemplars["nu_only_x1_gt_1"].x1 > 1
    details = []
    for name, g in exemplars.items():
        budget = budget_mutual_exists(g).exists
        contest = contest_mutual_exists(g).exists
        o_budget = grid_mutual_search(g, Mechanism.BUDGET).exists
        o_contest = grid_mutual_search(g, Mechanism.CONTEST).exists
        joint = joint_mutual_exists(g).exists
        expected = want[name]
        good = (budget, contest) == expected == (o_budget, o_contest) and joint
        ok = ok and good
        details.append(f"{name}:{'ok' if good else 'BAD'}")
    games = sample_games(1000, seed=20240606)
    joint_rate = sum(joint_mutual_exists(g).exists for g in games) / len(games)
    ok = ok and joint_rate >= 0.995
    report("criterion 6", ok, f"{' '.join(details)} joint_rate={joint_rate:.3f}")


def test_criterion_7_conservation_and_swap_symmetry():
    rng = SplitMix64(20240707)
    worst_cons = 0.0
    for _ in range(100_000):
        phi = rng.uniform(1e-3, 100.0)
        xp = rng.uniform(0.0, 10.0)
        xa = rng.uniform(0.0, 10.0)
        pair = one_v_one_payoff(phi, xp, xa)
        worst_cons = max(worst_cons, abs(pair.u_player + pair.u_adversary - phi) / phi)
    worst_swap = 0.0
    for _ in range(10_000):
        g = families.box(rng)
        t = Transfer(
            rng.uniform(-0.9 * g.x2, 0.9 * g.x1), rng.uniform(-0.9 * g.phi2, 0.9 * g.phi1)
        )
        u1, u2 = player_payoffs(g, t)
        s1, s2 = player_payoffs(swap_indices(g), Transfer(-t.tau, -t.nu))
        scale = max(1.0, g.total_valuation)
        worst_swap = max(worst_swap, abs(s1 - u2) / scale, abs(s2 - u1) / scale)
    ok = worst_cons <= 1e-12 and worst_swap <= 1e-10
    report("criterion 7", ok, f"conservation={worst_cons:.2e} swap={worst_swap:.2e}")


def test_criterion_8_figure_scale_sweeps():
    axes = (("x1", 0.02, 3.0), ("x2", 0.02, 3.0))
    fixed = {"phi1": 12.0, "phi2": 10.0}
    t0 = time.perf_counter()
    results = {}
    for pred in (
        Predicate.CASE,
        Predicate.MUTUAL_BUDGET,
        Predicate.MUTUAL_CONTEST,
        Predicate.MUTUAL_JOINT,
    ):
        spec = SweepSpec(fixed=fixed, axes=axes, steps=300, predicate=pred)
        results[pred] = run_sweep(spec)
    elapsed = time.perf_counter() - t0

    # spot checks at the grid node nearest the running example (0.4, 1.6)
    grid = np.linspace(0.02, 3.0, 300)
    i = int(np.argmin(np.abs(grid - 0.4)))
    j = int(np.argmin(np.abs(grid - 1.6)))
    node = i * 300 + j
    case_at_node = results[Predicate.CASE].values[node]
    in_all_three = all(
        results[p].values[node] == 1
        for p in (Predicate.MUTUAL_BUDGET, Predicate.MUTUAL_CONTEST, Predicate.MUTUAL_JOINT)
    )
    # the exact example game (not just the nearest node)
    diamond_ok = (
        str(classify_case(DIAMOND)) == "C2_1le2"
        and budget_mutual_exists(DIAMOND).exists
        and contest_mutual_exists(DIAMOND).exists
        and joint_mutual_exists(DIAMOND).exists
    )
    # qualitative structure: all case families appear; joint covers almost
    # everything; budget and contest regions are proper nonempty subsets
    labels = set(results[Predicate.CASE].values)
    joint_frac = sum(results[Predicate.MUTUAL_JOINT].values) / 90000
    budget_frac = sum(results[Predicate.MUTUAL_BUDGET].values) / 90000
    contest_frac = sum(results[Predicate.MUTUAL_CONTEST].values) / 90000
    structure_ok = (
        {"C1_1le2", "C1_1gt2", "C2_1le2", "C2_1gt2", "C3_1le2", "C3_1gt2"} <= labels
        and joint_frac > 0.95
        and 0.0 < budget_frac < joint_frac
        and 0.0 < contest_frac < joint_frac
    )
    ok = (
        elapsed < 300.0
        and case_at_node == "C2_1le2"
        and in_all_three
        and diamond_ok
        and structure_ok
    )
    report(
        "criterion 8",
        ok,
        f"runtime={elapsed:.0f}s case@node={case_at_node} all3@node={in_all_three} "
        f"fracs(b/c/j)={budget_frac:.2f}/{contest_frac:.2f}/{joint_frac:.2f}",
    )
