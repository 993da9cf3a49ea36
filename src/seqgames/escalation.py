"""Escalation from composed equilibrium beliefs.

Each player privately believes the whole game will follow one equilibrium
profile.  Composing the beliefs takes, at every decision point, the owner's
own action from the owner's own belief.  When each player's belief has the
*other* player eventually giving up, the composition prescribes perpetual
continuation: play diverges even though each single step is prescribed by
an equilibrium.  ``simulate`` runs memoryless agents that re-select a
belief from the equilibrium set at every turn and never learn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .core import GameError, OutcomeVector
from .cyclic import CyclicGame, check_positional, enumerate_positional_spe
from .parametric import (
    AffineLeaf,
    Divergent,
    ParametricGame,
    check_spe_param,
    check_stationary,
    enumerate_stationary_spe,
    induced_outcome_param,
)

Profile = Mapping[str, str]


class BeliefNotEquilibrium(GameError):
    def __init__(self, player: int) -> None:
        self.player = player
        super().__init__(f"player {player}'s belief fails the equilibrium check")


class NoEquilibria(GameError):
    """The game has no positional/stationary equilibrium to believe in."""


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a tiny, portable, seedable 64-bit generator.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes the new
    state with two xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9
    and 0x94D049BB133111EB) and a final 31-bit xor-shift.  ``below(k)``
    reduces by modulo, which is exact for power-of-two k.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


@dataclass(frozen=True)
class BeliefPair:
    """One full-game equilibrium belief per player, over the same game."""

    belief_of_a: Profile
    belief_of_b: Profile


@dataclass(frozen=True)
class Escalates:
    witness: Divergent  # the lasso: stem, then the cycle repeated forever


@dataclass(frozen=True)
class Terminates:
    stage: int
    outcome: OutcomeVector


EscalationVerdict = Union[Escalates, Terminates]


@dataclass(frozen=True)
class Uniform:
    """Re-select a belief uniformly at random at every turn."""


@dataclass(frozen=True)
class FixedIndex:
    """Pin each player to one belief index for the whole run."""

    indices: tuple[int, int]


BeliefSelectionPolicy = Union[Uniform, FixedIndex]


@dataclass(frozen=True)
class SimStep:
    stage: int
    mover: int
    belief_index: int
    action: str


@dataclass(frozen=True)
class SimTrace:
    seed: int
    steps: tuple[SimStep, ...]
    outcome: OutcomeVector | None

    @property
    def horizon_hit(self) -> bool:
        return self.outcome is None


def _engine_game(game: CyclicGame | ParametricGame) -> ParametricGame:
    """The parametric game the analyses run on: a cyclic game's embedding."""
    return game.embedding if isinstance(game, CyclicGame) else game


def _kind_checks(game: CyclicGame | ParametricGame):
    """The profile validator and enumerator whose messages name the game's
    own points (nodes and positional profiles, or shapes and stationary)."""
    if isinstance(game, CyclicGame):
        return check_positional, enumerate_positional_spe
    return check_stationary, enumerate_stationary_spe


def _check_belief(game: CyclicGame | ParametricGame, belief: Profile) -> None:
    _kind_checks(game)[0](game, belief)


def compose_beliefs(game: CyclicGame | ParametricGame, beliefs: BeliefPair) -> dict[str, str]:
    """Effective profile: the owner's own action from the owner's own belief."""
    _check_belief(game, beliefs.belief_of_a)
    _check_belief(game, beliefs.belief_of_b)
    per_player = (beliefs.belief_of_a, beliefs.belief_of_b)
    return {name: per_player[shape.owner][name] for name, shape in _engine_game(game).shapes.items()}


def detect_escalation(
    game: CyclicGame | ParametricGame,
    beliefs: BeliefPair,
    require_equilibria: bool = True,
) -> EscalationVerdict:
    """Run the composed beliefs from the start position.

    Divergence is escalation; convergence terminates at the stage of the
    first abandoning move, with the concrete outcome.  With
    ``require_equilibria`` set, each belief must pass the applicable
    equilibrium check first.
    """
    engine = _engine_game(game)
    if require_equilibria:
        for player, belief in enumerate((beliefs.belief_of_a, beliefs.belief_of_b)):
            _check_belief(game, belief)
            if not check_spe_param(engine, belief).ok:
                raise BeliefNotEquilibrium(player)
    result = induced_outcome_param(engine, compose_beliefs(game, beliefs))
    if isinstance(result, Divergent):
        return Escalates(result)
    return Terminates(
        stage=result.steps - 1,  # every move before the leaf advanced one stage
        outcome=tuple(value.at(0) for value in result.outcome),
    )


def equilibrium_beliefs(game: CyclicGame | ParametricGame) -> list[Profile]:
    """The belief universe for ``simulate``: all positional/stationary
    equilibria of the game, in canonical enumeration order."""
    return list(_kind_checks(game)[1](game))


def simulate(
    game: CyclicGame | ParametricGame,
    horizon: int,
    seed: int,
    selection: BeliefSelectionPolicy = Uniform(),
    equilibria: list[Profile] | None = None,
) -> SimTrace:
    """Play memoryless agents for at most ``horizon`` turns.

    At every turn the mover selects a belief among the game's equilibria
    (afresh: nothing is remembered) and plays their own action in it.  The
    run stops at the first leaf or when the horizon is hit.  Traces are a
    pure function of (seed, policy, horizon).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    beliefs = equilibrium_beliefs(game) if equilibria is None else list(equilibria)
    if not beliefs:
        raise NoEquilibria("no equilibrium beliefs available")
    for belief in beliefs:
        _check_belief(game, belief)
    if isinstance(selection, FixedIndex):
        for index in selection.indices:
            if not 0 <= index < len(beliefs):
                raise ValueError(f"belief index {index} is out of range for {len(beliefs)} beliefs")
    rng = SplitMix64(seed)

    def pick(mover: int) -> int:
        if isinstance(selection, FixedIndex):
            return selection.indices[mover]
        return rng.below(len(beliefs))

    steps: list[SimStep] = []
    engine = _engine_game(game)
    name = engine.start
    stage = 0
    for _turn in range(horizon):
        shape = engine.shapes[name]
        index = pick(shape.owner)
        action = beliefs[index][name]
        steps.append(SimStep(stage, shape.owner, index, action))
        target = shape.target(action)
        if isinstance(target, AffineLeaf):
            return SimTrace(seed, tuple(steps), tuple(v.at(stage) for v in target.outcome))
        name = target.shape
        stage += 1
    return SimTrace(seed, tuple(steps), None)
