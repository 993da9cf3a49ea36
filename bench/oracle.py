"""Known answers computed without the package under test.

Every function here works on the benchmark's own game representations from
``gen.py`` and uses a method of its own: bottom-up passes over flat arrays
for trees, a concrete entry-stage check for graph games, and an exact
``Fraction`` certificate for matrices.  A mismatch between these answers and
the package's answers counts as a failed analysis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gen import Graph, Tree

_KNOWN: dict = {}


def known(fn, *args):
    """``fn(*args)``, computed once per distinct input and then remembered.

    Set-up builds each pool once, untimed, before the timed builds, so that
    the known answers a build needs are already here and ``setup_s`` holds
    no oracle work."""
    key = (fn.__qualname__, repr(args))
    if key not in _KNOWN:
        _KNOWN[key] = fn(*args)
    return _KNOWN[key]

# --- finite trees ---------------------------------------------------------------


def _choice_index(tree: Tree, profile: dict) -> list[int]:
    """Child index chosen at each decision node (-1 at leaves)."""
    chosen = [-1] * tree.size
    for i in tree.decision_nodes():
        label = profile[tree.path[i]]
        chosen[i] = next(child for lab, child in tree.kids[i] if lab == label)
    return chosen


def tree_values(tree: Tree, profile: dict) -> list[tuple[int, int]]:
    """Outcome reached from every node when play follows ``profile``."""
    chosen = _choice_index(tree, profile)
    value: list = [None] * tree.size
    for i in reversed(range(tree.size)):  # children follow their parent in preorder
        value[i] = tree.payoff[i] if tree.owner[i] < 0 else value[chosen[i]]
    return value


def tree_violations(tree: Tree, profile: dict) -> list[tuple]:
    """Improving one-shot deviations, in preorder and branch order, as
    ``(path, action, profile_value, deviation_value)``."""
    if set(profile) != {tree.path[i] for i in tree.decision_nodes()}:
        raise ValueError("profile does not cover exactly the decision nodes")
    value = tree_values(tree, profile)
    found = []
    for i in tree.decision_nodes():
        owner = tree.owner[i]
        base = value[i][owner]
        for label, child in tree.kids[i]:
            if label != profile[tree.path[i]] and value[child][owner] > base:
                found.append((tree.path[i], label, base, value[child][owner]))
    return found


def tree_backward_induction(tree: Tree, last: bool) -> dict:
    """The profile that picks the owner's best branch everywhere, resolving
    ties to the first (or, with ``last``, the last) branch."""
    value: list = [None] * tree.size
    profile = {}
    for i in reversed(range(tree.size)):
        if tree.owner[i] < 0:
            value[i] = tree.payoff[i]
            continue
        owner = tree.owner[i]
        best_label, best = None, None
        for label, child in tree.kids[i]:
            v = value[child]
            if best is None or v[owner] > best[owner] or (last and v[owner] == best[owner]):
                best_label, best = label, v
        profile[tree.path[i]] = best_label
        value[i] = best
    return profile


def tree_play(tree: Tree, profile: dict) -> tuple[tuple[str, ...], tuple[int, int]]:
    i = 0
    while tree.owner[i] >= 0:
        label = profile[tree.path[i]]
        i = next(child for lab, child in tree.kids[i] if lab == label)
    return tree.path[i], tree.payoff[i]


def tree_spe_count(tree: Tree) -> int:
    """Number of subgame-perfect profiles, by counting rather than listing.

    ``dist[i]`` maps each outcome to the number of equilibrium sub-profiles
    of node i that produce it.  Branch j with value v may be chosen exactly
    when every other branch's owner payoff is at most v's.
    """
    dist: list = [None] * tree.size
    for i in reversed(range(tree.size)):
        if tree.owner[i] < 0:
            dist[i] = {tree.payoff[i]: 1}
            continue
        owner = tree.owner[i]
        children = [dist[child] for _label, child in tree.kids[i]]
        out: dict = {}
        for j, options in enumerate(children):
            for v, count in options.items():
                ways = count
                for k, other in enumerate(children):
                    if k != j:
                        ways *= sum(c for w, c in other.items() if w[owner] <= v[owner])
                if ways:
                    out[v] = out.get(v, 0) + ways
        dist[i] = out
        for _label, child in tree.kids[i]:
            dist[child] = None
    return sum(dist[0].values())


# --- graph games ----------------------------------------------------------------


class GraphOracle:
    """Convergence-plus-deviation referee for cyclic and parametric games.

    Entry stages are enumerated concretely up to a horizon long enough that
    any affine violation shows up at the smallest or largest entry stage
    inside it; for cyclic games (all slopes 0) the stage does not matter.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._equilibria: list[dict] | None = None
        count = len(graph.nodes)
        consts = [0]
        slopes = [0]
        for _owner, edges in graph.nodes.values():
            for _label, (kind, target) in edges:
                if kind == "leaf":
                    consts.extend(abs(c) for c, _s in target)
                    slopes.extend(abs(s) for _c, s in target)
        horizon = 3 * count + 2 + 2 * (max(consts) + max(slopes) * (count + 1))
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        current = {graph.start}
        for stage in range(horizon + 1):
            for name in current:
                first.setdefault(name, stage)
                last[name] = stage
            current = {
                target
                for name in current
                for _label, (kind, target) in graph.nodes[name][1]
                if kind == "go"
            }
        # A shape never entered is checked at every stage, as if entered anywhere.
        self.extremes = {
            name: ((first[name], last[name]) if name in first else (0, horizon))
            for name in graph.nodes
        }

    def follow(self, profile: dict, name: str):
        """(advances, leaf payoff) reached from ``name``, or None if play cycles."""
        seen = set()
        advances = 0
        while name not in seen:
            seen.add(name)
            kind, target = dict(self.graph.nodes[name][1])[profile[name]]
            if kind == "leaf":
                return advances, target
            advances += 1
            name = target
        return None

    def report(self, profile: dict) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
        """(nodes from which play diverges, improving deviations as (node, action))."""
        reached = {name: self.follow(profile, name) for name in self.graph.nodes}
        divergent = tuple(name for name, r in reached.items() if r is None)
        if divergent:
            return divergent, []
        violations = []
        for name, (owner, edges) in self.graph.nodes.items():
            k, payoff = reached[name]
            c, s = payoff[owner]
            base = (c + s * k, s)  # as a function of the entry stage n: c' + s n
            lo, hi = self.extremes[name]
            for label, (kind, target) in edges:
                if label == profile[name]:
                    continue
                if kind == "leaf":
                    dev = target[owner]
                else:
                    kt, pt = reached[target]
                    ct, st = pt[owner]
                    dev = (ct + st * (kt + 1), st)
                if any(dev[0] + dev[1] * n > base[0] + base[1] * n for n in (lo, hi)):
                    violations.append((name, label))
        return (), violations

    def is_equilibrium(self, profile: dict) -> bool:
        divergent, violations = self.report(profile)
        return not divergent and not violations

    def equilibria(self) -> list[dict]:
        if self._equilibria is None:
            self._equilibria = [p for p in self.graph.profiles() if self.is_equilibrium(p)]
        return self._equilibria

    def escalation(self, belief_a: dict, belief_b: dict):
        """None when composed beliefs cycle, else (stage reached, outcome at stage 0)."""
        beliefs = (belief_a, belief_b)
        effective = {name: beliefs[owner][name] for name, (owner, _e) in self.graph.nodes.items()}
        reached = self.follow(effective, self.graph.start)
        if reached is None:
            return None
        k, payoff = reached
        return k, tuple(c + s * k for c, s in payoff)


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def simulate(graph: Graph, beliefs: list[dict], seed: int, horizon: int):
    """Memoryless agents drawing a belief uniformly each turn: the expected
    steps as (stage, mover, belief, action) and the outcome (None at the
    horizon)."""
    draws = splitmix64(seed)
    name, stage, steps = graph.start, 0, []
    for _turn in range(horizon):
        owner, edges = graph.nodes[name]
        index = next(draws) % len(beliefs)
        action = beliefs[index][name]
        steps.append((stage, owner, index, action))
        kind, target = dict(edges)[action]
        if kind == "leaf":
            return steps, tuple(c + s * stage for c, s in target)
        name, stage = target, stage + 1
    return steps, None


# --- matrices -------------------------------------------------------------------


def certificate_holds(rows, x, y, value) -> bool:
    """Both mixes are distributions, the row mix guarantees ``value`` against
    every column and the column mix holds every row to ``value``: together
    they prove ``value`` is the game value and both mixes optimal."""
    m, n = len(rows), len(rows[0])
    if len(x) != m or len(y) != n:
        return False
    if any(p < 0 for p in x) or any(q < 0 for q in y) or sum(x) != 1 or sum(y) != 1:
        return False
    if any(sum(x[i] * rows[i][j] for i in range(m)) < value for j in range(n)):
        return False
    return all(sum(rows[i][j] * y[j] for j in range(n)) <= value for i in range(m))


def _solve(system: list[list[Fraction]]) -> list[Fraction] | None:
    """Solve an augmented square system exactly; None when singular."""
    a = [row[:] for row in system]
    size = len(a)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, size):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [u - f * w for u, w in zip(a[r], a[col])]
    out = [Fraction(0)] * size
    for r in reversed(range(size)):
        out[r] = (a[r][size] - sum(a[r][c] * out[c] for c in range(r + 1, size))) / a[r][r]
    return out


def _equalize(rows, support, against):
    """Mix on ``support`` giving every column of ``against`` one value v."""
    k = len(support)
    system = [[rows[i][j] for i in support] + [Fraction(-1), Fraction(0)] for j in against]
    system.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    solution = _solve(system)
    return None if solution is None else (solution[:k], solution[k])


def lex_rule_mix(rows) -> tuple[tuple[Fraction, ...], Fraction]:
    """The documented tie-break: scan row supports in lexicographic order;
    for the first support admitting a square-kernel solution whose dual
    matches and which certifies itself, return the lexicographically
    smallest such mix with the value."""
    m, n = len(rows), len(rows[0])
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    supports = sorted(
        itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in range(1, m + 1))
    )
    for support in supports:
        found = []
        for against in itertools.combinations(range(n), len(support)):
            primal = _equalize(rows, support, against)
            if primal is None or any(p < 0 for p in primal[0]):
                continue
            dual = _equalize(cols, against, support)
            if dual is None or dual[1] != primal[1] or any(q < 0 for q in dual[0]):
                continue
            x = [Fraction(0)] * m
            for i, p in zip(support, primal[0]):
                x[i] = p
            y = [Fraction(0)] * n
            for j, q in zip(against, dual[0]):
                y[j] = q
            if certificate_holds(rows, x, y, primal[1]):
                found.append((tuple(x), primal[1]))
        if found:
            return min(found)
    raise ValueError("no square-kernel solution")


def matrix_answer(rows, total):
    """Expected (row mix, column mix, value) under the documented tie-break."""
    x, value = lex_rule_mix(rows)
    column_view = [[total - rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    y, _column_value = lex_rule_mix(column_view)
    return x, y, value
