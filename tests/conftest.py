import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from coalitional_lotto.core import GameInstance

DATA_DIR = Path(__file__).parent / "data"

# Every run draws the same hypothesis examples: each test's seed comes from
# a hash of the test itself, and no example database replays past failures.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

# The running example: player 1 rich in contests but budget-poor, player 2
# the reverse.  Sits in every transfer-benefit set at once.
DIAMOND = GameInstance(12.0, 10.0, 0.4, 1.6)


@pytest.fixture
def diamond() -> GameInstance:
    return DIAMOND


@pytest.fixture(scope="session")
def golden_oracle() -> dict:
    return json.loads((DATA_DIR / "golden_oracle.json").read_text())


@pytest.fixture(scope="session")
def analyze_golden() -> list[dict]:
    """The pinned one-game verdicts: the game and the ``repr`` of each verdict."""
    lines = (DATA_DIR / "analyze_golden.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


@pytest.fixture(scope="session")
def float_range_games() -> list[GameInstance]:
    """4,000 games with every parameter ``10 ** uniform(-323, 308)``, from ``default_rng(11)``.

    The whole float range: 53 of them have both ratios ``x_i / phi_i``
    underflowing to 0.
    """
    params = 10.0 ** np.random.default_rng(11).uniform(-323.0, 308.0, (4000, 4))
    return [GameInstance(*row) for row in params.tolist()]

