"""Backward induction on finite two-player trees.

``solve`` returns one equilibrium profile under a tie policy,
``enumerate_equilibria`` returns every equilibrium (one per combination of
tie resolutions) and ``check_spe`` verifies a candidate profile by testing
one-shot deviations at every decision node, reachable or not.  For finite
trees the one-shot test coincides with arbitrary strategy deviations.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .core import FiniteGame, PlayLine, Record, TreeProfile, chosen_branches, require_two_players

DEFAULT_CAP = 1024


class TiePolicy(Enum):
    """Deterministic resolution of payoff ties, in branch order."""

    FIRST_BRANCH = "first"
    LAST_BRANCH = "last"


class Violation(Record):
    """A one-shot deviation that strictly improves the node owner's utility.

    ``where`` is a node path for tree games and a node or shape name for
    graph games; the two value fields are ints for tree games and affine
    values for graph games (of slope 0 for a cyclic game).
    """

    where: Union[PlayLine, str]
    action: str
    profile_value: object
    deviation_value: object


class SpeReport(Record):
    violations: tuple[Violation, ...] = ()
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences


class Enumeration(Record):
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

    A node's entries ``(value, pick, combo)`` follow ``itertools.product``
    over its children's entries, one per best branch of each combination.
    One backward pass, shaped like ``solve``, fixes every node's first entry
    (the first-branch profile) and finds the nodes that have more.  A node
    makes more entries only when the root needs another profile, turning an
    odometer over those children, in doubling batches of at most ``cap + 1``
    run from an explicit stack.  So the work is the backward pass plus the
    entries of the returned profiles.  Each profile copies the one before
    and rewrites only the subtrees whose entry changed.
    """
    require_two_players(game)
    if cap < 1:
        raise ValueError("cap must be positive")
    index = game.index
    paths, labels, children, owners = index.paths, index.labels, index.children, index.owners
    values = index.outcomes.copy()
    picks: list = [None] * len(values)
    multi: set[int] = set()  # the nodes with more than one entry: those with a tie at or below them
    for node in index.postorder:
        owner = owners[node]
        kids = children[node]
        scores = [values[child][owner] for child in kids]  # type: ignore[index]
        best = max(scores)
        pick = picks[node] = scores.index(best)
        values[node] = values[kids[pick]]
        if scores.count(best) > 1 or not multi.isdisjoint(kids):
            multi.add(node)
    # The first profile, keyed in preorder; a leaf game has one empty profile.
    profile = {path: names[pick] for path, names, pick in zip(paths, labels, picks) if path is not None}
    if 0 not in multi:
        return Enumeration((profile,), truncated=False)
    limit = cap + 1  # one entry past the cap tells truncation; no node ever needs more
    entries: list = [None] * len(paths)  # the entries each multi node has made so far
    odometers: dict = {}  # node: owner, positions and nodes of its multi children, combo, branch values, scores
    finished: set[int] = set()  # the nodes that have made all their entries
    stack = [(0, limit)]  # (node, how many entries it is to have unless it finishes first)
    while stack:
        node, target = stack[-1]
        made = entries[node]
        if made is None:  # reached for the first time: every multi child at its first entry
            owner, kids = owners[node], children[node]
            spots = [k for k, child in enumerate(kids) if child in multi]
            vals = [values[child] for child in kids]
            odometers[node] = owner, spots, [kids[k] for k in spots], [0] * len(spots), vals, [v[owner] for v in vals]
            made = entries[node] = []
        owner, spots, spot_kids, combo, vals, scores = odometers[node]
        while len(made) < target:
            if made:  # the last multi child with an entry left takes its next one
                p = len(combo) - 1
                while p >= 0:
                    kid = spot_kids[p]
                    got = entries[kid] or (None,)  # a child not reached yet has its first entry
                    i = combo[p] + 1
                    if i < len(got) or (kid not in finished and i < limit):
                        break
                    p -= 1
                else:
                    finished.add(node)
                    stack.pop()
                    break
                if i == len(got):  # the child makes more entries first
                    stack.append((kid, min(2 * i, limit)))
                    break
                for q in range(p, len(combo)):  # the children after it start over
                    combo[q] = i if q == p else 0
                    value = vals[spots[q]] = got[i][0] if q == p else values[spot_kids[q]]
                    scores[spots[q]] = value[owner]
            while True:  # this combination, then those that move only the last multi child
                best = max(scores)
                if scores.count(best) == 1:
                    k = scores.index(best)
                    made.append((vals[k], k, tuple(combo)))
                else:
                    key = tuple(combo)
                    made += [(vals[k], k, key) for k, score in enumerate(scores) if score == best]
                got = combo and entries[spot_kids[-1]]
                if not got or len(got) <= combo[-1] + 1 or len(made) >= target:
                    break
                combo[-1] += 1
                value = vals[spots[-1]] = got[combo[-1]][0]
                scores[spots[-1]] = value[owner]
        else:
            stack.pop()
    items = entries[0]
    profiles = [profile]
    shown = [0] * len(paths)  # the entry ``profile`` shows at each node, and so in its whole subtree
    for root_entry in range(1, min(cap, len(items))):
        profile = profile.copy()
        stack = [(0, root_entry)]
        while stack:
            node, i = stack.pop()
            shown[node] = i
            _value, pick, key = entries[node][i]
            profile[paths[node]] = labels[node][pick]
            for kid, j in zip(odometers[node][2], key):
                if shown[kid] != j:
                    stack.append((kid, j))
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
