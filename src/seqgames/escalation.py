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

from collections.abc import Mapping

from .core import GameError, InvalidArgument, OutcomeVector, Record
from .parametric import Divergent, ParametricGame, _walk, check_spe_param, enumerate_stationary_spe

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


class BeliefPair(Record):
    """One full-game equilibrium belief per player, over the same game."""

    belief_of_a: Profile
    belief_of_b: Profile


class Escalates(Record):
    witness: Divergent  # the lasso: stem, then the cycle repeated forever


class Terminates(Record):
    stage: int
    outcome: OutcomeVector


EscalationVerdict = Escalates | Terminates


class Uniform(Record):
    """Re-select a belief uniformly at random at every turn."""


class FixedIndex(Record):
    """Pin each player to one belief index for the whole run."""

    indices: tuple[int, int]


BeliefSelectionPolicy = Uniform | FixedIndex


class SimStep(Record):
    stage: int
    mover: int
    belief_index: int
    action: str


class SimTrace(Record):
    seed: int
    steps: tuple[SimStep, ...]
    outcome: OutcomeVector | None

    @property
    def horizon_hit(self) -> bool:
        return self.outcome is None


def compose_beliefs(game: ParametricGame, beliefs: BeliefPair) -> dict[str, str]:
    """Effective profile: the owner's own action from the owner's own belief."""
    game.check_profile(beliefs.belief_of_a)
    game.check_profile(beliefs.belief_of_b)
    per_player = (beliefs.belief_of_a, beliefs.belief_of_b)
    return {name: per_player[shape.owner][name] for name, shape in game.shapes.items()}


def detect_escalation(
    game: ParametricGame,
    beliefs: BeliefPair,
    require_equilibria: bool = True,
) -> EscalationVerdict:
    """Run the composed beliefs from the start position.

    Divergence is escalation; convergence terminates at the stage of the
    first abandoning move, with the concrete outcome.  With
    ``require_equilibria`` set, each belief must pass the equilibrium check
    first.  The walk composes the beliefs shape by shape as play reaches them.
    """
    if not require_equilibria:
        game.check_profile(beliefs.belief_of_a)
        game.check_profile(beliefs.belief_of_b)
    elif not check_spe_param(game, beliefs.belief_of_a).ok:  # validates the belief first
        raise BeliefNotEquilibrium(0)
    elif not check_spe_param(game, beliefs.belief_of_b).ok:
        raise BeliefNotEquilibrium(1)
    path, end = _walk(game, (beliefs.belief_of_a, beliefs.belief_of_b), game.start)
    if end.__class__ is int:
        return Escalates(Divergent(tuple(path[:end]), tuple(path[end:])))
    (first, second), stage = end.outcome, len(path) - 1  # every move before the leaf advanced one stage
    return Terminates(stage, (first.const + first.slope * stage, second.const + second.slope * stage))


def simulate(
    game: ParametricGame,
    horizon: int,
    seed: int,
    selection: BeliefSelectionPolicy = Uniform(),
    equilibria: list[Profile] | None = None,
) -> SimTrace:
    """Play memoryless agents for at most ``horizon`` turns.

    At every turn the mover selects a belief among the game's equilibria
    (``equilibria``, by default all of them in ``enumerate_stationary_spe``
    order), afresh, since nothing is remembered, and plays their own action
    in it.  The run stops at the first leaf or when the horizon is hit.
    Traces are a pure function of (seed, policy, horizon), each an ``int``.
    """
    for field, value in (("horizon", horizon), ("seed", seed)):
        if value.__class__ is not int:  # a float or str fails only later, and a bool is no count
            raise InvalidArgument(f"{field} must be an int, got {value!r}")
    if horizon < 0:
        raise InvalidArgument("horizon must be nonnegative")
    beliefs = enumerate_stationary_spe(game) if equilibria is None else list(equilibria)
    if not beliefs:
        raise NoEquilibria("no equilibrium beliefs available")
    for belief in () if equilibria is None else beliefs:  # enumerated profiles are valid by construction
        game.check_profile(belief)
    if isinstance(selection, FixedIndex):
        if len(selection.indices) != 2:
            raise InvalidArgument(f"FixedIndex needs one belief index per player, got {len(selection.indices)}")
        for index in selection.indices:
            if not 0 <= index < len(beliefs):
                raise InvalidArgument(f"belief index {index} is out of range for {len(beliefs)} beliefs")
    rng = SplitMix64(seed)

    def pick(mover: int) -> int:
        if isinstance(selection, FixedIndex):
            return selection.indices[mover]
        return rng.below(len(beliefs))

    steps: list[SimStep] = []
    shapes, targets = game.shapes, game.targets
    name = game.start
    stage = 0
    for _turn in range(horizon):
        owner = shapes[name].owner
        index = pick(owner)
        action = beliefs[index][name]
        steps.append(SimStep(stage, owner, index, action))
        target = targets[name][action]
        if target.LEAF:
            return SimTrace(seed, tuple(steps), tuple(v.at(stage) for v in target.outcome))
        name = target.shape
        stage += 1
    return SimTrace(seed, tuple(steps), None)
