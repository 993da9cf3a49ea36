"""Backward induction on finite two-player trees.

``solve`` returns one equilibrium profile under a tie policy,
``enumerate_equilibria`` returns every equilibrium (one per combination of
tie resolutions) and ``check_spe`` verifies a candidate profile by testing
one-shot deviations at every decision node, reachable or not.  For finite
trees the one-shot test coincides with arbitrary strategy deviations.
``parse_tree_lines``, ``dsl.parse``'s reader for a tree text, lives here
with the kernels, so a graph or matrix command never compiles it.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .core import (
    DEFAULT_CAP, FiniteGame, InvalidArgument, Leaf, Node, PlayLine, Record, SpeReport, TreeIndex, TreeProfile,
    Violation, chosen_branches, numeral, require_two_players,
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


# What ``_form`` finds a line of a tree to say, as ``(kind, label, value)``: a leaf (its ``Leaf``) or a decision node
# (its owner) under a label, a node's end, nothing (a comment), or no such thing.
_END, _SKIP, _DECLINED = (("end", None, None), ("skip", None, None), ("declined", None, None))
_KEYWORDS = ("leaf", "players", "finite")  # the words that name nothing


def _form(line: str, owners: dict[str, int], leaves: dict) -> tuple:
    """What ``line``, from an ASCII text and after its indentation, says inside a tree: ``label -> Owner {``,
    ``label -> leaf(i,j)`` (``-`` may sign a payoff of 1 to 640 digits), ``}``, or nothing (a whole-line comment);
    read with ``str`` methods, so any other blank, a trailing comment or a CR makes it no such line.  ``leaves``
    keeps one ``Leaf`` per payoff pair."""
    if line == "}" or line[0] == "#":
        return _END if line == "}" else _SKIP
    label, arrow, rest = line.partition(" -> ")
    if not (arrow and label.isidentifier() and label not in _KEYWORDS):
        return _DECLINED
    if rest[-2:] == " {":
        return ("node", label, owners[rest[:-2]]) if rest[:-2] in owners else _DECLINED
    first, _, second = rest[5:-1].partition(",")
    if not (rest[:5] == "leaf(" and rest[-1:] == ")" and numeral(first.removeprefix("-"))
            and numeral(second.removeprefix("-"))):
        return _DECLINED
    pair = (int(first), int(second))
    return "leaf", label, leaves.get(pair) or leaves.setdefault(pair, Leaf(pair))


def parse_tree_lines(text: str) -> tuple[tuple[str, str], Node] | None:
    """A ``finite`` document read one line at a time with ``str`` methods into its players and the tree the token
    reader builds, with one ``Leaf`` per payoff pair and its index laid out in the same walk (``TreeIndex.keep``);
    or None for any text it declines.  It never raises: ``dsl.parse`` hands what it declines, every error included,
    to the token reader.  Its time is linear in the text.

    The text must be ASCII, without the blanks ``str.lstrip`` strips and the token reader does not skip.  Each
    distinct line (past its indentation, blank lines dropped) is classified once (``_form``).  Past whole-line
    comments, the first three are ``players A B``, ``finite {`` and the root's ``Owner {``; then each is
    ``label -> Owner {``, ``label -> leaf(i,j)``, ``}`` or a whole-line comment, and a last ``}`` ends ``finite``,
    each with single blanks where ``serialize`` writes them.  So it declines, among others, a text without
    ``players``, with CRLF line ends, another blank between tokens or a trailing comment, a root leaf, a ``;``, two
    branches on a line, a repeated label, an unknown owner, an empty node, a keyword as a name, and a payoff of
    more than 640 digits.  ``dsl.parse`` hands it only a text that holds ``finite {``."""
    if not text.isascii() or any(blank in text for blank in "\x0b\x0c\x1c\x1d\x1e\x1f"):
        return None
    lines = iter(list(filter(None, map(str.lstrip, text.split("\n")))))  # which frees the list once it is read through
    # The first three lines that are no comment, drawn from ``lines``, and "" for each one the text lacks.
    header, opening, root, *_ = *itertools.islice((line for line in lines if line[0] != "#"), 3), "", "", ""
    first, _, second = header[8:].partition(" ")
    players, owner_of, forms, leaves = (first, second), {second: 1, first: 0}, {}, {}
    if not (header[:8] == "players " and opening == "finite {" and root[-2:] == " {"
            and root[:-2] in owner_of and all(name.isidentifier() and name not in _KEYWORDS for name in players)):
        return None
    # What every other line says, one ``_form`` per distinct line; the lines themselves are freed before the walk.
    said = iter([forms.get(line) or forms.setdefault(line, _form(line, owner_of, leaves)) for line in lines])
    # The innermost open node's branches (label to subtree), child indices, index, path, owner and label, and in
    # ``frames`` each enclosing node's.  The index arrays get a decision node's ``labels`` and ``children`` at its end.
    branches, kids, at, path, owner, label = {}, [], 0, (), owner_of[root[:-2]], None
    frames: list = []
    owners, paths, outcomes, labels, children, postorder = [owner], [()], [None], [None], [None], []
    for kind, name, value in said:
        if kind == "leaf" or kind == "node":
            if name in branches:
                return None
            kids.append(len(outcomes))
            if kind == "leaf":
                branches[name] = value
                owners.append(None)
                paths.append(None)
                outcomes.append(value.outcome)
                labels.append(())
                children.append(())
            else:
                frames.append((branches, kids, at, path, owner, label))
                branches, kids, at, path, owner, label = {}, [], len(outcomes), path + (name,), value, name
                owners.append(owner)
                paths.append(path)
                outcomes.append(None)
                labels.append(None)
                children.append(None)
        elif kind == "end":
            if not branches:
                return None
            labels[at], children[at] = tuple(branches), tuple(kids)
            postorder.append(at)
            tree = Node(owner, tuple(branches.items()))
            if not frames:
                break
            name = label
            branches, kids, at, path, owner, label = frames.pop()
            branches[name] = tree
        elif kind != "skip":
            return None
    else:
        return None  # the root never ends
    if [form for form in said if form is not _SKIP] != [_END]:  # ``finite``'s end, then no token
        return None
    TreeIndex.keep(tree, (owners, paths, outcomes, labels, children, postorder, ""))
    return players, tree
