"""Infinite games represented as finite cyclic graphs.

A ``CyclicGame`` is a directed graph of decision nodes whose edges point at
other nodes or at payoff leaves; it stands for the infinite tree obtained by
unrolling it forever.  Strategies are positional: one chosen edge per node,
independent of history.  A profile is accepted as an equilibrium when its
induced play converges from every node and no one-shot deviation improves
the deviating owner's payoff; a deviation whose continuation diverges ranks
strictly below every convergent outcome, because divergent play never
reaches a payoff.

A cyclic game is the stage-parametric game whose payoffs all have slope 0,
so the analyses here are thin adapters over ``parametric``: each runs on
the game's cached ``embedding``, words its messages in the game's own
terms (``POINT``, ``CHOICE``, ``PROFILE``) and hands back ``int`` payoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

from .core import FiniteGame, Leaf, OutcomeVector
from .finite import SpeReport, Violation
from .parametric import (  # DEFAULT_SEARCH_BOUND and SearchSpaceTooLarge are re-exported
    DEFAULT_SEARCH_BOUND,
    Divergent,
    ParametricGame,
    SearchSpaceTooLarge,
    UnknownShape,
    check_spe_param,
    check_stationary,
    from_cyclic,
    induced_outcome_param,
    instantiate,
    instantiate_profile,
)
from .parametric import enumerate_stationary_spe as enumerate_positional_spe  # one enumerator, either kind

#: A node name is not defined in the game.
UnknownNode = UnknownShape


@dataclass(frozen=True)
class CyclicNode:
    owner: int
    edges: tuple[tuple[str, Union[str, Leaf]], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.edges)


@dataclass(frozen=True)
class CyclicGame:
    nodes: Mapping[str, CyclicNode]
    start: str

    # The game kind (see ``Leaf.KIND``), and how messages name a decision point,
    # a choice there and a profile.
    KIND, POINT, CHOICE, PROFILE = "cyclic", "node", "edge", "positional"

    def __post_init__(self) -> None:
        self.embedding  # built with the game, whose constructor raises UnknownNode for a dangling reference

    @cached_property
    def embedding(self) -> ParametricGame:
        """The slope-0 parametric game every analysis runs on, built with the
        game and kept: a game's nodes are not to be changed once it is built."""
        return from_cyclic(self)


#: One chosen edge label per node name.
PositionalProfile = Mapping[str, str]


def _cyclic(game: CyclicGame, instead: str) -> CyclicGame:
    if not isinstance(game, CyclicGame):  # stage-0 values hold at every stage only at slope 0
        raise TypeError(f"expected a CyclicGame, got {type(game).__name__}; use parametric.{instead}")
    return game


@dataclass(frozen=True)
class Converges:
    path: tuple[str, ...]
    outcome: OutcomeVector


#: Play never reaches a leaf: the lasso ``stem`` then ``cycle`` of nodes.
Diverges = Divergent

InducedResult = Union[Converges, Diverges]


def induced_outcome(
    game: CyclicGame, profile: PositionalProfile, from_node: str | None = None
) -> InducedResult:
    """Follow the profile's choices from ``from_node`` (default: start).

    Choices are positional, so revisiting a node proves divergence; the
    returned lasso splits the visited nodes at the first repeat.
    """
    result = induced_outcome_param(_cyclic(game, "induced_outcome_param"), profile, from_node)
    if isinstance(result, Divergent):
        return result
    return Converges(result.path, tuple(v.const for v in result.outcome))


def check_spe_cyclic(game: CyclicGame, profile: PositionalProfile) -> SpeReport:
    """Equilibrium check: convergence from every node plus one-shot deviations.

    The report lists nodes from which the profile diverges; when none exist,
    each node's alternatives are priced by deviating once and resuming the
    profile (a divergent continuation can never improve on a payoff).
    """
    report = check_spe_param(_cyclic(game, "check_spe_param"), profile)
    violations = tuple(
        Violation(v.where, v.action, v.profile_value.const, v.deviation_value.const)
        for v in report.violations
    )
    return SpeReport(violations, report.divergences)


def unfold(game: CyclicGame, depth: int, terminal: OutcomeVector) -> FiniteGame:
    """Unroll the graph from the start into a tree of ``depth`` decision layers.

    Leaf edges stay leaves at any layer; a decision node that would appear
    at layer ``depth + 1`` is replaced by ``Leaf(terminal)``.
    """
    _cyclic(game, "instantiate")
    if depth < 1:
        raise ValueError("depth must be positive")
    return instantiate(game.embedding, depth, terminal)


def unfold_profile(
    game: CyclicGame, profile: PositionalProfile, depth: int
) -> dict[tuple[str, ...], str]:
    """Restrict a positional profile to the tree built by ``unfold``.

    Every decision node of the unfolded tree corresponds to a graph node;
    the restriction plays the positional choice there.  Independent of the
    terminal used to cut the unfolding.
    """
    _cyclic(game, "instantiate_profile")
    if depth < 1:
        check_stationary(game, profile)  # a bad profile is reported before a bad depth
        raise ValueError("depth must be positive")
    return instantiate_profile(game, profile, depth)
