"""Equilibrium toolkit for two-player sequential games.

Finite trees are solved by backward induction; infinite games given as
finite cyclic graphs or stage-parametric shape families are verified with
a convergence-plus-one-deviation check over positional (memoryless)
profiles.  Dedicated modules cover escalation from composed equilibrium
beliefs, exact constant-sum matrix games, a text format for every game
kind, and a command-line front end.
"""

from .core import (
    DEFAULT_PLAYERS,
    FiniteGame,
    GameError,
    InvalidPlay,
    Leaf,
    MalformedGame,
    Node,
    NotTwoPlayer,
    ShapeMismatch,
    induced_play,
    leaf,
    node,
    outcome_of,
    subgame_at,
)
from .cyclic import (
    Converges,
    CyclicGame,
    CyclicNode,
    Diverges,
    SearchSpaceTooLarge,
    UnknownNode,
    check_spe_cyclic,
    enumerate_positional_spe,
    induced_outcome,
    unfold,
)
from .escalation import (
    BeliefNotEquilibrium,
    BeliefPair,
    Escalates,
    FixedIndex,
    NoEquilibria,
    SimTrace,
    SplitMix64,
    Terminates,
    Uniform,
    compose_beliefs,
    detect_escalation,
    simulate,
)
from .finite import (
    Enumeration,
    SpeReport,
    TiePolicy,
    Violation,
    check_spe,
    enumerate_equilibria,
    solve,
)
from .matrix import MatrixGame, MixedProfile, best_response_value, matrix_game, solve_constant_sum
from .parametric import (
    AffineValue,
    ConvergesAffine,
    Divergent,
    InvalidValue,
    ParametricGame,
    Shape,
    UnknownShape,
    affine,
    affine_leq,
    check_spe_param,
    dollar_auction,
    enumerate_stationary_spe,
    induced_outcome_param,
    instantiate,
)
from .dsl import GameDoc, ParseError, Unwritable, ValidationError, parse, serialize, to_dot

__version__ = "0.1.0"
