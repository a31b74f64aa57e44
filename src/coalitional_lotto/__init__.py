"""Alliance transfer analysis for two-player-vs-adversary General Lotto games.

Two players fight a common adversary on separate sets of contests.  Before
the adversary splits its unit budget between the two fronts, the players may
transfer budget, contest valuation, or both.  This package computes the
adversary's best response, both players' equilibrium payoffs, the existence
of mutually beneficial transfers, and the transfers maximizing the players'
collective payoff, each backed by an independent grid-search oracle.
"""

from .core import GameInstance, Transfer
from .analysis import analyze_game

__version__ = "0.1.0"

__all__ = ["GameInstance", "Transfer", "analyze_game"]
