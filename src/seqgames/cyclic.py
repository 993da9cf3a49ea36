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
so ``CyclicGame`` is a ``ParametricGame`` that refuses a sloped payoff.  The
reader builds a cyclic document's ``Shape``s directly; code builds a node's
with ``CyclicNode``, where an edge to a ``Leaf`` becomes a slope-0
``AffineLeaf`` and an edge to a node name an ``Advance``.  Every
analysis is a ``parametric`` function; it words its messages in the game's
own terms (``POINT``, ``CHOICE``, ``PROFILE``) and reports ``AffineValue``
payoffs, which for a cyclic game are the same at every stage.
"""

from __future__ import annotations

from .core import Leaf, MalformedGame
from .parametric import (  # DEFAULT_SEARCH_BOUND and SearchSpaceTooLarge are re-exported
    DEFAULT_SEARCH_BOUND,
    Advance,
    AffineLeaf,
    ParametricGame,
    SearchSpaceTooLarge,
    Shape,
    UnknownShape,
    affine,
)

# The benchmark harness still calls these by their cyclic names; each is its parametric twin.
from .parametric import check_spe_param as check_spe_cyclic
from .parametric import enumerate_stationary_spe as enumerate_positional_spe
from .parametric import induced_outcome_param as induced_outcome
from .parametric import instantiate as unfold

#: A node name is not defined in the game.
UnknownNode = UnknownShape


def CyclicNode(owner: int, edges: tuple[tuple[str, str | Leaf], ...]) -> Shape:
    """The ``Shape`` of a decision node whose edges point at a ``Leaf`` or a node name."""
    return Shape(owner, tuple(
        (label, AffineLeaf(tuple(map(affine, target.outcome))) if isinstance(target, Leaf) else Advance(target))
        for label, target in edges
    ))


class CyclicGame(ParametricGame):
    """A parametric game whose payoffs all have slope 0, named as a graph of nodes and edges."""

    KIND, POINT, CHOICE, PROFILE = "cyclic", "node", "edge", "positional"

    def __post_init__(self) -> None:
        """The ``ParametricGame`` checks, then ``MalformedGame`` for the first payoff,
        in declaration and edge order, whose slope is not 0."""
        super().__post_init__()
        for name, shape in self.shapes.items():
            for label, target in shape.moves:
                if isinstance(target, AffineLeaf) and any(value.slope for value in target.outcome):
                    raise MalformedGame(f"edge {label!r} at {name!r} has a payoff with a nonzero slope")
