"""Backward induction on finite two-player trees.

``solve`` returns one equilibrium profile under a tie policy,
``enumerate_equilibria`` returns every equilibrium (one per combination of
tie resolutions) and ``check_spe`` verifies a candidate profile by testing
one-shot deviations at every decision node, reachable or not.  For finite
trees the one-shot test coincides with arbitrary strategy deviations.
"""

from __future__ import annotations

from enum import Enum

from .core import (
    DEFAULT_CAP, FiniteGame, InvalidArgument, PlayLine, Record, SpeReport, TreeProfile, Violation, chosen_branches,
    require_two_players,
)


class TiePolicy(Enum):
    """Deterministic resolution of payoff ties, in branch order."""

    FIRST_BRANCH = "first"
    LAST_BRANCH = "last"


class Enumeration(Record):
    profiles: tuple[TreeProfile, ...]
    truncated: bool


def solve(game: FiniteGame, ties: TiePolicy = TiePolicy.FIRST_BRANCH) -> TreeProfile:
    """Compute one backward-induction profile.

    Equilibrium values are computed bottom-up in a single pass; at every
    node the owner's best branch is chosen, ties resolved by ``ties`` (a
    ``TiePolicy`` or its value).
    """
    require_two_players(game)
    index = game.index
    paths, labels, children, owners = index.paths, index.labels, index.children, index.owners
    values = index.outcomes.copy()
    try:
        last = TiePolicy(ties) is TiePolicy.LAST_BRANCH  # a member or its value
    except ValueError as error:  # Enum's own, which a caller catching GameError would miss
        raise InvalidArgument(str(error)) from None
    profile: dict[PlayLine, str] = {}
    for node in index.postorder:
        owner, kids = owners[node], children[node]
        pick = position = 0
        top = values[kids[0]][owner]  # type: ignore[index]
        for child in kids:
            score = values[child][owner]  # type: ignore[index]
            if score > top or last and score == top:
                pick, top = position, score
            position += 1
        profile[paths[node]] = labels[node][pick]  # type: ignore[index]
        values[node] = values[kids[pick]]
    return profile


def enumerate_equilibria(game: FiniteGame, cap: int = DEFAULT_CAP) -> Enumeration:
    """Enumerate all backward-induction profiles in canonical branch order.

    A profile is included when, at every node, its choice maximizes the
    owner's utility among the branch values induced by the profile below.
    The result is truncated at ``cap`` profiles, flagged rather than failed:
    tie sets multiply, so the full set can be exponential.

    The canonical order takes the product of the children's profiles in
    branch order, then the node's best branches in branch order.  Every
    subtree's choices fill a block of fixed length in ``index.postorder``
    that ends at its root, so this is the lexicographic order of the branch
    positions read in postorder, and one depth-first search lists it.  One
    backward pass, the one ``solve`` makes, gives the first profile and lists
    the nodes with a tie at or below them; no other node ever picks again.
    A node scores its branches in one loop that keeps the first best branch
    and counts the branches tied with it, and is listed when that count
    passes one or when the last node listed is its descendant.  Each further
    profile moves the last listed node with a best branch left to its next
    one; those after it take their first best branch under the new values.
    The profile before is copied and only the changed choices are
    rewritten, so the work is the pass plus the nodes each profile re-scores.
    """
    require_two_players(game)
    if cap.__class__ is not int:  # a float cap is never reached, and a bool is no count
        raise InvalidArgument(f"cap must be an int, got {cap!r}")
    if cap < 1:
        raise InvalidArgument("cap must be positive")
    index = game.index
    paths, labels, children, owners = index.paths, index.labels, index.children, index.owners
    values = index.outcomes.copy()
    picks: list = [None] * len(values)
    multi: list[int] = []  # the nodes with a tie at or below them, in postorder; no other node picks again
    ties: list[int] = []  # the positions in ``multi`` of the nodes with a best branch left, in order
    for node in index.postorder:
        owner, kids = owners[node], children[node]
        pick = position = count = 0  # ``count`` branches score ``top``
        top = values[kids[0]][owner]  # type: ignore[index]
        for child in kids:
            score = values[child][owner]  # type: ignore[index]
            if score > top:
                pick, top, count = position, score, 1
            elif score == top:
                count += 1
            position += 1
        picks[node] = pick
        values[node] = values[kids[pick]]
        if count > 1:
            ties.append(len(multi))
        elif not multi or multi[-1] < node:  # a listed descendant would be the last listed, after ``node`` in preorder
            continue
        multi.append(node)
    # The first profile, keyed in preorder; a leaf game has one empty profile.
    profile = {path: names[pick] for path, names, pick in zip(paths, labels, picks) if path is not None}
    profiles = [profile]
    while ties:
        if len(profiles) == cap:
            return Enumeration(tuple(profiles), truncated=True)
        t = ties[-1]
        profile = profile.copy()
        for at in range(t, len(multi)):  # nothing before ``t`` has moved since ``multi[t]`` was pushed
            node = multi[at]
            owner, kids = owners[node], children[node]
            # ``multi[t]`` scores only the branches after its pick: its children are as when it picked,
            # and some of those branches tie with its value, the best, so the first of them is its next.
            pick = position = start = picks[node] + 1 if at == t else 0
            count = 0
            top = values[kids[start]][owner]  # type: ignore[index]
            for child in kids[start:]:
                score = values[child][owner]  # type: ignore[index]
                if score > top:
                    pick, top, count = position, score, 1
                elif score == top:
                    count += 1
                position += 1
            if at == t and count == 1:  # no best branch left after this one
                ties.pop()
            elif at > t and count > 1:
                ties.append(at)
            values[node] = values[kids[pick]]
            if pick != picks[node]:
                picks[node] = pick
                profile[paths[node]] = labels[node][pick]  # type: ignore[index]
        profiles.append(profile)
    return Enumeration(tuple(profiles), truncated=False)


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
        for position, child in enumerate(children[node]):
            deviation = values[child][owner]  # type: ignore[index]
            if deviation > base and position != pick:
                violations.append(Violation(paths[node], labels[node][position], base, deviation))  # type: ignore[arg-type]
    return SpeReport(tuple(violations))
