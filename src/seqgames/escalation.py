"""Escalation from composed equilibrium beliefs.

Each player privately believes the whole game will follow one equilibrium
profile.  Composing the beliefs takes, at every decision point, the owner's
own action from the owner's own belief.  When each player's belief has the
*other* player eventually giving up, the composition prescribes perpetual
continuation: play diverges even though each single step is prescribed by
an equilibrium.  ``detect_escalation`` judges a pair of beliefs on the
game's walk tree, which ``escalation_classes`` reads to group every pair by
composed walk.  ``simulate`` runs memoryless agents that re-select a
belief from the equilibrium set at every turn and never learn.
"""

from __future__ import annotations

from collections.abc import Mapping

from .core import GameError, InvalidArgument, OutcomeVector, Record
from .parametric import Divergent, ParametricGame, check_spe_param, enumerate_stationary_spe

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


def _refuse(game: object, *beliefs: object) -> None:
    """``InvalidArgument`` naming the type of a ``game`` that is no ``ParametricGame``, or of ``beliefs`` given
    that are no ``BeliefPair``: called once a call has failed, so a valid call pays nothing."""
    if not isinstance(game, ParametricGame):
        raise InvalidArgument(f"game must be a ParametricGame, not {type(game).__name__}")
    for pair in beliefs:
        if not isinstance(pair, BeliefPair):
            raise InvalidArgument(f"beliefs must be a BeliefPair, not {type(pair).__name__}")


def _beliefs(game: ParametricGame, equilibria: list[Profile] | None) -> list[Profile]:
    """``equilibria``, each checked to fit ``game``, or by default all of the game's in ``enumerate_stationary_spe``
    order; ``NoEquilibria`` when there are none."""
    try:
        beliefs = enumerate_stationary_spe(game) if equilibria is None else list(equilibria)
        if not beliefs:
            _refuse(game)
            raise NoEquilibria("no equilibrium beliefs available")
        for belief in () if equilibria is None else beliefs:  # enumerated profiles are valid by construction
            game.check_profile(belief)
    except AttributeError:
        _refuse(game)
        raise
    return beliefs


def compose_beliefs(game: ParametricGame, beliefs: BeliefPair) -> dict[str, str]:
    """Effective profile: the owner's own action from the owner's own belief."""
    try:
        per_player = (beliefs.belief_of_a, beliefs.belief_of_b)
        game.check_profile(per_player[0])
        game.check_profile(per_player[1])
    except AttributeError:
        _refuse(game, beliefs)
        raise
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
    first.  Then the composed walk steps down the game's walk tree
    (``ParametricGame.walk_tree``), one shape at a time, each move read from
    its owner's belief, to the verdict at its end; a walk the tree does not
    hold yet is walked once and hung on it.  Every pair whose composed walk
    is the same gets the same verdict record.
    """
    try:
        per_player = (beliefs.belief_of_a, beliefs.belief_of_b)
        if not require_equilibria:
            game.check_profile(per_player[0])
            game.check_profile(per_player[1])
        elif not check_spe_param(game, per_player[0]).ok:  # validates the belief first
            raise BeliefNotEquilibrium(0)
        elif not check_spe_param(game, per_player[1]).ok:
            raise BeliefNotEquilibrium(1)
    except AttributeError:
        _refuse(game, beliefs)
        raise
    node = game.walk_tree
    try:
        while node.__class__ is dict:
            node = node[per_player[node[1]][node[0]]]
    except KeyError:  # a walk the tree does not hold yet: the beliefs are valid, so only a child is missing
        return _grow(game, per_player)
    return node


def _grow(game: ParametricGame, per_player: tuple[Profile, Profile]) -> EscalationVerdict:
    """Hang the composed walk of ``per_player`` (valid beliefs) on the game's walk tree and return its verdict.

    One pass down the walk, with a ``seen`` table of the shapes on it so far, as ``parametric._walk`` keeps:
    it steps into each child the tree holds and hangs each one it lacks, a node per shape reached, then the
    verdict record; linear in the walk, whatever the tree held before.
    """
    shapes, targets = game.shapes, game.targets
    node, path, seen = game.walk_tree, [], {}
    while node.__class__ is dict:
        name = node[0]
        seen[name] = len(path)
        path.append(name)
        label = per_player[node[1]][name]
        if label not in node:
            target = targets[name][label]
            if target.LEAF:
                (first, second), stage = target.outcome, len(path) - 1  # every move before the leaf advanced a stage
                stop = Terminates(stage, (first.const + first.slope * stage, second.const + second.slope * stage))
                return node.setdefault(label, stop)
            if target.shape in seen:
                stem, cycle = path[:seen[target.shape]], path[seen[target.shape]:]
                return node.setdefault(label, Escalates(Divergent(tuple(stem), tuple(cycle))))
            node[label] = {0: target.shape, 1: shapes[target.shape].owner}
        node = node[label]
    return node  # the verdict a concurrent call hung on this walk first


class EscalationClass(Record):
    """The pairs of beliefs (Alice's index, Bertrand's index) whose composed walks are one walk, and its verdict."""

    indices_of_a: tuple[int, ...]
    indices_of_b: tuple[int, ...]
    verdict: EscalationVerdict


def escalation_classes(game: ParametricGame, equilibria: list[Profile] | None = None) -> list[EscalationClass]:
    """Every ordered pair of beliefs, grouped by composed walk: the table of ``detect_escalation`` in rectangles.

    The beliefs are ``equilibria`` (each must fit the game, as in ``simulate``), by default all of the game's
    in ``enumerate_stationary_spe`` order; they are not checked to be equilibria.  One depth-first walk of the
    game's walk tree splits, at each node, its owner's belief indices by the label each picks there, so the
    rectangles come out disjoint, covering every pair, in depth-first order with labels in move order; each
    holds Alice's and Bertrand's indices, sorted, and the verdict record ``detect_escalation`` returns for
    every pair in it.
    """
    beliefs = _beliefs(game, equilibria)
    everyone = tuple(range(len(beliefs)))
    classes: list[EscalationClass] = []
    stack = [(game.walk_tree, [everyone, everyone])]
    while stack:
        node, indices = stack.pop()
        if node.__class__ is not dict:
            classes.append(EscalationClass(indices[0], indices[1], node))
            continue
        name, owner = node[0], node[1]
        picks: dict[str, list[int]] = {}
        for index in indices[owner]:
            picks.setdefault(beliefs[index][name], []).append(index)
        for label in reversed(game.labels[name]):  # popped in move order
            if label in picks:
                split = indices.copy()
                split[owner] = tuple(picks[label])
                if label not in node:
                    _grow(game, (beliefs[split[0][0]], beliefs[split[1][0]]))
                stack.append((node[label], split))
    return classes


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
    beliefs = _beliefs(game, equilibria)
    if isinstance(selection, FixedIndex):
        if len(selection.indices) != 2:
            raise InvalidArgument(f"FixedIndex needs one belief index per player, got {len(selection.indices)}")
        for index in selection.indices:
            if index.__class__ is not int:  # a float or str fails only later, and a bool is no index
                raise InvalidArgument(f"belief index must be an int, got {index!r}")
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
