"""Equilibrium toolkit for two-player sequential games.

Finite trees are solved by backward induction; infinite games given as
finite cyclic graphs or stage-parametric shape families are verified with
a convergence-plus-one-deviation check over positional (memoryless)
profiles.  Dedicated modules cover escalation from composed equilibrium
beliefs, exact constant-sum matrix games, a text format for every game
kind, and a command-line front end.

The names below load on first use (PEP 562): ``import seqgames`` imports
no submodule, and ``seqgames.solve`` imports only ``core`` and ``finite``.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "DEFAULT_PLAYERS FiniteGame GameError InvalidPlay Leaf LimitExceeded MalformedGame Node"
        " NotTwoPlayer ShapeMismatch induced_play leaf node outcome_of subgame_at"
    ),
    "cyclic": "CyclicGame CyclicNode UnknownNode enumerate_positional_spe",
    "escalation": (
        "BeliefNotEquilibrium BeliefPair Escalates FixedIndex NoEquilibria SimTrace SplitMix64"
        " Terminates Uniform compose_beliefs detect_escalation simulate"
    ),
    "finite": "Enumeration SpeReport TiePolicy Violation check_spe enumerate_equilibria solve",
    "matrix": "MatrixGame MixedProfile best_response_value matrix_game solve_constant_sum",
    "parametric": (
        "AffineValue ConvergesAffine Divergent InvalidValue ParametricGame SearchSpaceTooLarge Shape"
        " UnknownShape affine affine_leq check_spe_param dollar_auction enumerate_stationary_spe"
        " induced_outcome_param instantiate"
    ),
    "dsl": "GameDoc ParseError Unwritable ValidationError parse serialize to_dot",
}

# Each public name and the submodule that defines it; a submodule's own name maps to None.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update(dict.fromkeys(_EXPORTS))

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import the submodule behind ``name`` and keep the value, so the next
    lookup finds it without calling here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{_HOME[name] or name}"
    __import__(qualified)  # an import statement's path, which ``-X importtime`` logs
    module = sys.modules[qualified]
    value = module if _HOME[name] is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
