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
so this module is the representation only.  Every analysis is a
``parametric`` function that takes either kind: it runs on the game's
cached ``embedding``, words its messages in the game's own terms
(``POINT``, ``CHOICE``, ``PROFILE``) and reports ``AffineValue`` payoffs,
which for a cyclic game have slope 0 and are the same at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

from .core import Leaf
from .parametric import (  # DEFAULT_SEARCH_BOUND and SearchSpaceTooLarge are re-exported
    DEFAULT_SEARCH_BOUND,
    ParametricGame,
    SearchSpaceTooLarge,
    UnknownShape,
    from_cyclic,
)

# The benchmark harness still calls these by their cyclic names; each is its parametric twin.
from .parametric import check_spe_param as check_spe_cyclic
from .parametric import enumerate_stationary_spe as enumerate_positional_spe
from .parametric import induced_outcome_param as induced_outcome
from .parametric import instantiate as unfold

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
