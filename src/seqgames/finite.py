"""Backward induction on finite two-player trees.

``solve`` returns one equilibrium profile under a tie policy,
``enumerate_equilibria`` returns every equilibrium (one per combination of
tie resolutions) and ``check_spe`` verifies a candidate profile by testing
one-shot deviations at every decision node, reachable or not.  For finite
trees the one-shot test coincides with arbitrary strategy deviations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .core import (
    FiniteGame,
    PlayLine,
    TreeProfile,
    chosen_branches,
    require_two_players,
)

DEFAULT_CAP = 1024


class TiePolicy(Enum):
    """Deterministic resolution of payoff ties, in branch order."""

    FIRST_BRANCH = "first"
    LAST_BRANCH = "last"


@dataclass(frozen=True)
class Violation:
    """A one-shot deviation that strictly improves the node owner's utility.

    ``where`` is a node path for tree games and a node or shape name for
    graph games; the two value fields are ints there and affine values for
    stage-parametric games.
    """

    where: Union[PlayLine, str]
    action: str
    profile_value: object
    deviation_value: object


@dataclass(frozen=True)
class SpeReport:
    violations: tuple[Violation, ...] = ()
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences


@dataclass(frozen=True)
class Enumeration:
    profiles: tuple[TreeProfile, ...]
    truncated: bool


def solve(game: FiniteGame, ties: TiePolicy = TiePolicy.FIRST_BRANCH) -> TreeProfile:
    """Compute one backward-induction profile.

    Equilibrium values are computed bottom-up in a single pass; at every
    node the owner's best branch is chosen, ties resolved by ``ties``.
    """
    require_two_players(game)
    index = game.index
    paths, labels, children, owners = index.paths, index.labels, index.children, index.owners
    values = index.outcomes.copy()
    first = ties is TiePolicy.FIRST_BRANCH
    profile: dict[PlayLine, str] = {}
    for node in index.postorder:
        owner = owners[node]
        kids = children[node]
        scores = [values[child][owner] for child in kids]  # type: ignore[index]
        best = max(scores)
        pick = scores.index(best) if first else len(scores) - 1 - scores[::-1].index(best)
        profile[paths[node]] = labels[node][pick]  # type: ignore[index]
        values[node] = values[kids[pick]]
    return profile


def enumerate_equilibria(game: FiniteGame, cap: int = DEFAULT_CAP) -> Enumeration:
    """Enumerate all backward-induction profiles in canonical branch order.

    A profile is included when, at every node, its choice maximizes the
    owner's utility among the branch values induced by the profile below.
    The result is truncated at ``cap`` profiles, flagged rather than failed:
    tie sets multiply, so the full set can be exponential.

    Each node keeps at most ``cap + 1`` entries ``(value, pick, combo)``:
    the value, the chosen branch and one entry per child.  Entries refer to
    their children's entries instead of copying them.  Profile dicts are
    built only for the returned entries of the root, each from the one
    before by rewriting the subtrees whose entries changed.
    """
    require_two_players(game)
    if cap < 1:
        raise ValueError("cap must be positive")
    index = game.index
    paths, labels, children, owners = index.paths, index.labels, index.children, index.owners
    entries: list = [None if outcome is None else [(outcome, None, ())] for outcome in index.outcomes]
    for node in index.postorder:
        owner = owners[node]
        kids = children[node]
        out: list = []
        for combo in itertools.product(*(entries[child] for child in kids)):
            scores = [entry[0][owner] for entry in combo]
            best = max(scores)
            for pick, score in enumerate(scores):
                if score == best:
                    out.append((combo[pick][0], pick, combo))
            if len(out) > cap:
                break
        # Keeping one extra entry lets the caller detect truncation; any
        # subtree overflow implies at least as many profiles at the root.
        entries[node] = out[: cap + 1]
        for child in kids:
            entries[child] = None
    items = entries[0]
    profiles: list[TreeProfile] = []
    profile: dict[PlayLine, str] = {}
    # The entry whose choices ``profile`` shows at each node.  An entry
    # shares its children's entries, so the same entry means the same
    # choices in its whole subtree: each profile copies the one before and
    # rewrites only the subtrees whose entries differ.  The first profile
    # visits every decision node in preorder, which fixes the key order.
    shown: list = [None] * len(paths)
    for root_entry in items[:cap]:
        profile = profile.copy()
        stack = [(0, root_entry)] if children[0] else []  # a leaf game has one empty profile
        while stack:
            node, entry = stack.pop()
            shown[node] = entry
            _value, pick, combo = entry
            profile[paths[node]] = labels[node][pick]
            for child, sub in zip(reversed(children[node]), reversed(combo)):
                if sub[1] is not None and shown[child] is not sub:
                    stack.append((child, sub))
        profiles.append(profile)
    return Enumeration(tuple(profiles), truncated=len(items) > cap)


def check_spe(game: FiniteGame, profile: TreeProfile) -> SpeReport:
    """Test the one-shot deviation property at every decision node.

    For each node, the owner's utility of following the profile is compared
    against each single deviation followed by the profile; any strict
    improvement is reported.  The profile's value at every node is computed
    bottom-up once, so each deviation is read in constant time.
    """
    require_two_players(game)
    picks = chosen_branches(game, profile)
    index = game.index
    paths, labels, children, owners = index.paths, index.labels, index.children, index.owners
    values = index.outcomes.copy()
    for node in index.postorder:
        values[node] = values[children[node][picks[node]]]  # type: ignore[index]
    violations: list[Violation] = []
    for node, pick in enumerate(picks):
        if pick is None:
            continue
        owner = owners[node]
        base = values[node][owner]  # type: ignore[index]
        names = labels[node]
        chosen = names[pick]
        for label, child in zip(names, children[node]):
            if label == chosen:
                continue
            deviation = values[child][owner]  # type: ignore[index]
            if deviation > base:
                violations.append(Violation(paths[node], label, base, deviation))  # type: ignore[arg-type]
    return SpeReport(tuple(violations))
