"""Each family of the catalogue: its first games are pinned, and its games keep to its domain."""

import hashlib
import random

import numpy as np
import pytest

from coalitional_lotto import families
from coalitional_lotto.mutual import REGIONS, Region, classify_region
from coalitional_lotto.rng import SplitMix64


def first(name: str, count: int) -> list:
    """A family's first ``count`` games at seed 7, from the generator its callers use."""
    if name == "float_range":
        return families.games(families.float_range(np.random.default_rng(7), count))
    if name == "decades":
        return families.games(families.decades(np.random.default_rng(7), -12.0, 12.0, count))
    rng = random.Random(7) if name in ("log", "wide", "extreme", "r5", "ridge") else SplitMix64(7)
    if name == "stratified":
        return [families.stratified(rng, r, i % 4 == 3) for r in REGIONS for i in range(count // 5)]
    if name == "at_gap":
        # Gaps of 2.05e-6..5e-6 on alternate sides, each drawn before its game.
        signs = (-1.0 if i % 2 == 0 else 1.0 for i in range(count))
        return [families.at_gap(rng, rng.uniform(2.05e-6, 5e-6) * s) for s in signs]
    return [getattr(families, name)(rng) for _ in range(count)]


# sha256 of the ``repr`` of each family's first 50 games, recorded from the
# draws that the family replaced when the catalogue was made, so a draw
# changes only on purpose.
PINNED = {
    "box": "8933a1a9c99af4879fd6ceee1ccce2c3c6d8b8dc0c213314ed02c8cbea3a4ec7",
    "log": "2db5dd5c47f688f3d77134ffcea503bda594cc261aec31b69db76cedb2273759",
    "wide": "1d67a2fc593d6e8266bbac37c477e947c3ce26b85d82879ea2c31bbbed94369c",
    "extreme": "3fd247068cdcaa841cd9396b5b3224c24676c6fba8f96b95def096e70a519c08",
    "r5": "3ad080b34c56018d1d4a77c105da594e89ac838729a46434c7e4c6331a59c24e",
    "ridge": "15721fa75655b83c29189e309c533487d3265fc90fea1709c310112ea03b7610",
    "near_ridge": "a856c36228601286e2495ce9e168c72ea2a652c0eafecd31d115fc0c928955f4",
    "stratified": "a0dce90bb31933025374eaa12960fb6d47db48ef0a9dd720cda1095f99aca6ed",
    "at_gap": "dc92f0de3ff32459a18f3587a70ebb7480ae8253c9bd4be1fc6a310b6428f22e",
    "float_range": "9c53021d6a590ff0163adf9bb9922d2cff97f6d12345ff01e79b8cc11cb0b446",
    "decades": "8c95cbc7fe6cbcda9d37ab72f8589f2a4fc7f6cab479fdd4f4e82292e25de5f9",
}


@pytest.mark.parametrize("name", list(PINNED))
def test_first_games_are_pinned(name):
    assert hashlib.sha256(repr(first(name, 50)).encode()).hexdigest() == PINNED[name]


def test_r5_games_lie_in_r5():
    for g in first("r5", 2000):
        assert g.x1 + g.x2 < 1.0 and classify_region(g) is Region.R5, g


def test_stratified_games_lie_in_their_regions():
    regions = [classify_region(g) for g in first("stratified", 2000)]
    assert regions == [r for r in REGIONS for _ in range(400)]


@pytest.mark.parametrize("name,lo,hi", [("ridge", 1e-9, 1e-3), ("near_ridge", 1e-11, 1e-3)])
def test_ridge_gaps_lie_in_their_ranges(name, lo, hi):
    # The gap ``1 - r_small / r_large`` of the two ratios ``x_i / phi_i``,
    # off by a few ulps of rounding: 4e-5 of a gap of 1e-11.
    sides = set()
    for g in first(name, 2000):
        r1, r2 = g.x1 / g.phi1, g.x2 / g.phi2
        assert lo * (1.0 - 1e-4) <= 1.0 - min(r1, r2) / max(r1, r2) <= hi * (1.0 + 1e-4), g
        sides.add(r1 < r2)
    assert sides == {False, True}
