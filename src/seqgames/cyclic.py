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
the game's cached ``embedding`` and hands back ``int`` payoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

from .core import FiniteGame, Leaf, OutcomeVector, ShapeMismatch
from .finite import SpeReport, Violation
from .parametric import (  # DEFAULT_SEARCH_BOUND and SearchSpaceTooLarge are re-exported
    DEFAULT_SEARCH_BOUND,
    Divergent,
    ParametricGame,
    SearchSpaceTooLarge,
    UnknownShape,
    _require_space,
    check_spe_param,
    enumerate_stationary_spe,
    from_cyclic,
    induced_outcome_param,
    instantiate,
    instantiate_profile,
)

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

    @cached_property
    def embedding(self) -> ParametricGame:
        """The slope-0 parametric game every analysis runs on, built on first
        use and kept: a game's nodes are not to be changed once it is built."""
        return from_cyclic(self)


#: One chosen edge label per node name.
PositionalProfile = Mapping[str, str]


@dataclass(frozen=True)
class Converges:
    path: tuple[str, ...]
    outcome: OutcomeVector


#: Play never reaches a leaf: the lasso ``stem`` then ``cycle`` of nodes.
Diverges = Divergent

InducedResult = Union[Converges, Diverges]


def check_positional(game: CyclicGame, profile: PositionalProfile) -> None:
    if set(profile) != set(game.nodes):
        raise ShapeMismatch("profile must choose exactly one edge per node")
    for name, node in game.nodes.items():
        if profile[name] not in node.labels():
            raise ShapeMismatch(f"choice {profile[name]!r} at {name!r} is not an edge label")


def induced_outcome(
    game: CyclicGame, profile: PositionalProfile, from_node: str | None = None
) -> InducedResult:
    """Follow the profile's choices from ``from_node`` (default: start).

    Choices are positional, so revisiting a node proves divergence; the
    returned lasso splits the visited nodes at the first repeat.
    """
    name = game.start if from_node is None else from_node
    if name not in game.nodes:
        raise UnknownNode(name)
    check_positional(game, profile)
    result = induced_outcome_param(game.embedding, profile, name)
    if isinstance(result, Divergent):
        return result
    return Converges(result.path, tuple(v.const for v in result.outcome))


def check_spe_cyclic(game: CyclicGame, profile: PositionalProfile) -> SpeReport:
    """Equilibrium check: convergence from every node plus one-shot deviations.

    The report lists nodes from which the profile diverges; when none exist,
    each node's alternatives are priced by deviating once and resuming the
    profile (a divergent continuation can never improve on a payoff).
    """
    check_positional(game, profile)
    report = check_spe_param(game.embedding, profile)
    violations = tuple(
        Violation(v.where, v.action, v.profile_value.const, v.deviation_value.const)
        for v in report.violations
    )
    return SpeReport(violations, report.divergences)


def enumerate_positional_spe(
    game: CyclicGame, bound: int = DEFAULT_SEARCH_BOUND
) -> list[PositionalProfile]:
    """Brute-force all positional profiles and keep the equilibria.

    Profiles are generated in canonical order: node declaration order, edge
    order within each node.
    """
    _require_space(game.embedding, bound, "positional")
    return enumerate_stationary_spe(game.embedding, bound)


def unfold(game: CyclicGame, depth: int, terminal: OutcomeVector) -> FiniteGame:
    """Unroll the graph from the start into a tree of ``depth`` decision layers.

    Leaf edges stay leaves at any layer; a decision node that would appear
    at layer ``depth + 1`` is replaced by ``Leaf(terminal)``.
    """
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
    check_positional(game, profile)
    if depth < 1:
        raise ValueError("depth must be positive")
    return instantiate_profile(game.embedding, profile, depth)
