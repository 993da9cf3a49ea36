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
        " NotTwoPlayer ShapeMismatch SpeReport Violation induced_play leaf node outcome_of subgame_at"
    ),
    "cyclic": "enumerate_positional_spe",
    "escalation": (
        "BeliefNotEquilibrium BeliefPair EscalationClass Escalates FixedIndex NoEquilibria SimTrace SplitMix64"
        " Terminates Uniform compose_beliefs detect_escalation escalation_classes simulate"
    ),
    "finite": "Enumeration TiePolicy check_spe enumerate_equilibria solve",
    "matrix": "MatrixGame MixedProfile best_response_value matrix_game solve_constant_sum",
    "parametric": (
        "AffineValue ConvergesAffine CyclicGame CyclicNode Divergent InvalidValue ParametricGame"
        " SearchSpaceTooLarge Shape UnknownShape affine affine_leq check_spe_param dollar_auction"
        " enumerate_stationary_spe induced_outcome_param instantiate"
    ),
    "dsl": "GameDoc ParseError Unwritable ValidationError parse serialize to_dot",
}

# Each public name and the submodule that defines it; a submodule's own name maps to None.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update(dict.fromkeys(_EXPORTS))

__all__ = sorted(_HOME)


def _loader(namespace: dict, homes: dict) -> tuple:
    """PEP 562 ``__getattr__`` and ``__dir__`` for the globals ``namespace``: each name in ``homes`` is
    imported from its submodule (None: the submodule itself) by ``__import__``, which ``-X importtime``
    logs, and kept in ``namespace``."""

    def __getattr__(name: str) -> object:
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        qualified = f"{__name__}.{homes[name] or name}"
        __import__(qualified)
        module = sys.modules[qualified]
        return namespace.setdefault(name, module if homes[name] is None else getattr(module, name))

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__


__getattr__, __dir__ = _loader(globals(), _HOME)
