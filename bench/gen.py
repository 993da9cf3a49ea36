"""Seeded input generators and canonical text emitters for the benchmark.

Everything here is independent of the package under test: games are held
in the benchmark's own plain representations and written out as `.game`
and `.profile` text by emitters that follow the documented canonical form.
The oracles in ``oracle.py`` work on the same representations, so no known
answer is derived from the code being measured.

Representations
---------------
* ``Tree``: a finite tree as flat preorder arrays.  ``owner[i]`` is -1 for a
  leaf; ``payoff[i]`` is the leaf outcome; ``kids[i]`` lists
  ``(label, child_index)``; ``path[i]`` is the action path from the root.
* ``Graph``: a cyclic or stage-parametric game.  ``nodes`` maps a name to
  ``(owner, edges)``; an edge target is ``("leaf", ((c0, s0), (c1, s1)))``
  with affine payoffs ``c + s * n`` (slopes are 0 in cyclic games) or
  ``("go", name)``.  Cyclic and parametric games share one representation
  because a cyclic game is a parametric game whose slopes are all 0.
* A matrix is ``(rows, total)`` with ``Fraction`` entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

PLAYERS = ("Alice", "Bertrand")
LABELS = ("x", "y", "z")
PAYOFF_MAX = 3  # ordinal payoffs are 0..3, so ties are frequent


@dataclass
class Tree:
    owner: list[int] = field(default_factory=list)
    payoff: list[tuple[int, int] | None] = field(default_factory=list)
    kids: list[list[tuple[str, int]]] = field(default_factory=list)
    path: list[tuple[str, ...]] = field(default_factory=list)

    def add(self, owner: int, payoff: tuple[int, int] | None, path: tuple[str, ...]) -> int:
        self.owner.append(owner)
        self.payoff.append(payoff)
        self.kids.append([])
        self.path.append(path)
        return len(self.owner) - 1

    @property
    def size(self) -> int:
        return len(self.owner)

    def decision_nodes(self) -> list[int]:
        return [i for i, o in enumerate(self.owner) if o >= 0]

    def depth(self) -> int:
        return max(len(p) for p in self.path)


def _build_tree(spec, root) -> Tree:
    """Materialise a tree in preorder from ``spec(item) -> (owner, payoff,
    [(label, child_item)])`` without recursion."""
    tree = Tree()
    stack = [(root, (), None, None)]
    while stack:
        item, path, parent, label = stack.pop()
        owner, payoff, children = spec(item)
        index = tree.add(owner, payoff, path)
        if parent is not None:
            tree.kids[parent].append((label, index))
        for child_label, child in reversed(children):
            stack.append((child, path + (child_label,), index, child_label))
    return tree


# --- finite tree families ---------------------------------------------------


def chain01(rounds: int) -> Tree:
    """The alternating abandon/continue chain with ``rounds`` decision nodes.

    The mover at round i is i mod 2; abandoning gives the other player the
    point, and the last continuation ends at the leaf that favours the
    player who moved last.
    """

    def spec(i: int):
        if i == rounds:
            return -1, ((1, 0) if rounds % 2 else (0, 1)), []
        if i < 0:
            return -1, ((0, 1) if (-i - 1) % 2 == 0 else (1, 0)), []
        return i % 2, None, [("a", -i - 1), ("c", i + 1)]

    return _build_tree(spec, 0)


def _split(rng: random.Random, rest: int) -> list[int]:
    """Split ``rest`` nodes among 2 or 3 subtrees with bounded jitter.  No
    part is 2, which fits neither a leaf nor a node of 2 or more branches."""
    if rest <= 3:
        return [1] * rest
    weights = [rng.uniform(1.0, 2.0) for _ in range(rng.choice((2, 2, 3)))]
    parts = [max(1, int(rest * w / sum(weights))) for w in weights]
    parts[-1] = max(1, rest - sum(parts[:-1]))
    while 2 in parts:
        big = [j for j, p in enumerate(parts) if p >= 3]
        if not big:
            return [1, rest - 1]
        parts[parts.index(2)] = 1
        parts[big[0]] += 1
    return parts


def bushy(rng: random.Random, target: int) -> Tree:
    """Random tree of ``target`` nodes with 2 or 3 branches per node.

    Node budgets are split with bounded jitter, so depth stays near the
    logarithm of the size; payoffs are in 0..PAYOFF_MAX.
    """

    def spec(budget: int):
        if budget < 3:
            return -1, (rng.randint(0, PAYOFF_MAX), rng.randint(0, PAYOFF_MAX)), []
        return rng.randint(0, 1), None, list(zip(LABELS, _split(rng, budget - 1)))

    return _build_tree(spec, target)


def auction_tree(value: int, max_stage: int, terminal: tuple[int, int]) -> Tree:
    """The dollar auction instantiated for stages 0 .. max_stage - 1.

    Stage 0 is the entry shape (abandon pays 0,0); afterwards the mover at
    stage n abandons for (1-n, value-n) as Alice or (value-n, 1-n) as
    Bertrand, or bids; a bid into stage ``max_stage`` ends at ``terminal``.
    """

    def spec(item):
        kind, stage = item
        if kind == "leaf":
            return -1, stage, []
        owner = stage % 2
        if stage == 0:
            quit_payoff = (0, 0)
        elif owner == 0:
            quit_payoff = (1 - stage, value - stage)
        else:
            quit_payoff = (value - stage, 1 - stage)
        bid = ("leaf", tuple(terminal)) if stage + 1 == max_stage else ("node", stage + 1)
        return owner, None, [("a", ("leaf", quit_payoff)), ("c", bid)]

    return _build_tree(spec, ("node", 0))


def unfold_tree(graph: "Graph", depth: int, terminal: tuple[int, int]) -> Tree:
    """Unroll a cyclic graph from its start into ``depth`` decision layers;
    a decision node that would sit on layer ``depth + 1`` becomes
    ``terminal``."""

    def spec(item):
        kind, data = item
        if kind == "leaf":
            return -1, data, []
        name, layer = data
        owner, edges = graph.nodes[name]
        children = []
        for label, (tkind, target) in edges:
            if tkind == "leaf":
                children.append((label, ("leaf", (target[0][0], target[1][0]))))
            elif layer == depth:
                children.append((label, ("leaf", tuple(terminal))))
            else:
                children.append((label, ("node", (target, layer + 1))))
        return owner, None, children

    return _build_tree(spec, ("node", (graph.start, 1)))


def unfold_depth(graph: "Graph", max_depth: int, max_nodes: int) -> int:
    """Deepest unfolding (at most ``max_depth`` layers) of at most ``max_nodes`` nodes."""
    below = {name: 1 for name in graph.nodes}  # a cut decision node is one leaf
    for depth in range(1, max_depth + 1):
        below = {
            name: 1
            + sum(1 if kind == "leaf" else below[target] for _label, (kind, target) in edges)
            for name, (_owner, edges) in graph.nodes.items()
        }
        if below[graph.start] > max_nodes:
            return max(1, depth - 1)
    return max_depth


def increasing_maps(rng: random.Random) -> tuple[dict, dict]:
    """One strictly increasing map of the payoffs 0..PAYOFF_MAX into 0..9 per
    player.  Applied to a game it changes every payoff the program reads but
    keeps every comparison, so ties, equilibria and the work done stay the same."""
    domain = range(PAYOFF_MAX + 1)
    return tuple(dict(zip(domain, sorted(rng.sample(range(10), len(domain))))) for _ in range(2))


def remap_tree(tree: Tree, maps: tuple[dict, dict]) -> Tree:
    tree.payoff = [None if p is None else (maps[0][p[0]], maps[1][p[1]]) for p in tree.payoff]
    return tree


def random_profile(rng: random.Random, tree: Tree) -> dict[tuple[str, ...], str]:
    return {tree.path[i]: rng.choice(tree.kids[i])[0] for i in tree.decision_nodes()}


# --- graph families -----------------------------------------------------------


@dataclass
class Graph:
    nodes: dict[str, tuple[int, list[tuple[str, tuple]]]]
    start: str
    parametric: bool

    @property
    def space(self) -> int:
        total = 1
        for _owner, edges in self.nodes.values():
            total *= len(edges)
        return total

    def profiles(self):
        """Every positional profile, in declaration order then edge order."""
        names = list(self.nodes)
        choices = [[label for label, _t in self.nodes[name][1]] for name in names]
        index = [0] * len(names)
        while True:
            yield {name: choices[k][index[k]] for k, name in enumerate(names)}
            k = len(names) - 1
            while k >= 0 and index[k] + 1 == len(choices[k]):
                index[k] = 0
                k -= 1
            if k < 0:
                return
            index[k] += 1


def _const(x: int, y: int) -> tuple:
    return ("leaf", ((x, 0), (y, 0)))


def ring(n: int) -> Graph:
    """n-node generalisation of the 0,1 loop: node i is owned by i mod 2,
    abandoning hands the other player the point, continuing moves on."""
    nodes = {}
    for i in range(n):
        owner = i % 2
        drop = _const(0, 1) if owner == 0 else _const(1, 0)
        nodes[f"N{i}"] = (owner, [("a", drop), ("c", ("go", f"N{(i + 1) % n}"))])
    return Graph(nodes, "N0", parametric=False)


def dollar_auction(value: int) -> Graph:
    """The unit-bid all-pay auction as three stage-parametric shapes."""
    return Graph(
        {
            "A0": (0, [("a", ("leaf", ((0, 0), (0, 0)))), ("c", ("go", "B"))]),
            "A": (0, [("a", ("leaf", ((1, -1), (value, -1)))), ("c", ("go", "B"))]),
            "B": (1, [("a", ("leaf", ((value, -1), (1, -1)))), ("c", ("go", "A"))]),
        },
        "A0",
        parametric=True,
    )


def random_graph(rng: random.Random, widths: list[int], parametric: bool) -> Graph:
    """Random game with one node per entry of ``widths`` (its edge count), so
    the profile space is exactly the product of ``widths``."""
    names = [f"S{i}" if parametric else f"N{i}" for i in range(len(widths))]
    nodes = {}
    for name, width in zip(names, widths):
        edges = []
        for label in LABELS[:width]:
            if rng.random() < 0.5:
                if parametric:
                    payoff = tuple((rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(2))
                else:
                    payoff = ((rng.randint(0, PAYOFF_MAX), 0), (rng.randint(0, PAYOFF_MAX), 0))
                edges.append((label, ("leaf", payoff)))
            else:
                edges.append((label, ("go", rng.choice(names))))
        nodes[name] = (rng.randint(0, 1), edges)
    return Graph(nodes, names[0], parametric)


def remap_graph(graph: Graph, rng: random.Random) -> Graph:
    """The same game with every payoff moved by an order-preserving map per
    player: a strictly increasing one on cyclic payoffs, a positive affine
    one (c + s n -> a (c + s n) + b) on stage-parametric payoffs, which keeps
    every comparison at every stage."""
    if graph.parametric:
        coefficients = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(2)]

        def move(payoff):
            return tuple((a * c + b, a * s) for (c, s), (a, b) in zip(payoff, coefficients))
    else:
        maps = increasing_maps(rng)

        def move(payoff):
            return tuple((m[c], 0) for (c, _s), m in zip(payoff, maps))

    nodes = {
        name: (owner, [(label, ("leaf", move(t)) if kind == "leaf" else (kind, t)) for label, (kind, t) in edges])
        for name, (owner, edges) in graph.nodes.items()
    }
    return Graph(nodes, graph.start, graph.parametric)


def random_graph_profile(rng: random.Random, graph: Graph) -> dict[str, str]:
    return {name: rng.choice(edges)[0] for name, (_o, edges) in graph.nodes.items()}


# --- matrices -----------------------------------------------------------------


def random_matrix(rng: random.Random, rows: int, cols: int, kind: str):
    """``kind`` is "int" (0..9, sum 9), "rational" (p/q with q <= 4, sum 1)
    or "degenerate" (0..2 integers, sum 2: many tied optima)."""
    if kind == "int":
        entry, total = (lambda: Fraction(rng.randint(0, 9))), Fraction(9)
    elif kind == "rational":
        entry, total = (lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))), Fraction(1)
    elif kind == "degenerate":
        entry, total = (lambda: Fraction(rng.randint(0, 2))), Fraction(2)
    else:
        raise ValueError(kind)
    return [[entry() for _ in range(cols)] for _ in range(rows)], total


def remap_matrix(rng: random.Random, rows, total):
    """The same game under a positive affine map of the row player's payoffs
    (the column player's move the same way), which keeps the optimal mixes."""
    scale, shift = Fraction(rng.randint(1, 6), rng.randint(1, 3)), Fraction(rng.randint(-6, 6), rng.randint(1, 2))
    return [[scale * v + shift for v in row] for row in rows], scale * total + 2 * shift


# --- canonical text -----------------------------------------------------------


def _header() -> str:
    return f"players {PLAYERS[0]} {PLAYERS[1]}"


def tree_text(tree: Tree) -> str:
    """Canonical `.game` text: two-space indents, LF endings."""
    out = [_header(), "finite {"]
    if tree.owner[0] < 0:
        x, y = tree.payoff[0]
        out.append(f"  leaf({x},{y})")
        out.append("}")
        return "\n".join(out) + "\n"
    out.append(f"  {PLAYERS[tree.owner[0]]} {{")
    # Each stack entry is a branch to print or a closing brace.
    stack: list[tuple] = [("close", 1)]
    stack.extend(("edge", label, child, 2) for label, child in reversed(tree.kids[0]))
    while stack:
        item = stack.pop()
        if item[0] == "close":
            out.append("  " * item[1] + "}")
            continue
        _tag, label, child, indent = item
        pad = "  " * indent
        if tree.owner[child] < 0:
            x, y = tree.payoff[child]
            out.append(f"{pad}{label} -> leaf({x},{y})")
        else:
            out.append(f"{pad}{label} -> {PLAYERS[tree.owner[child]]} {{")
            stack.append(("close", indent))
            stack.extend(
                ("edge", lab, grand, indent + 1) for lab, grand in reversed(tree.kids[child])
            )
    out.append("}")
    return "\n".join(out) + "\n"


def _affine_text(c: int, s: int) -> str:
    if s == 0:
        return str(c)
    return f"{c}{'+' if s > 0 else '-'}{abs(s)}*n"


def graph_text(graph: Graph) -> str:
    kind = "param" if graph.parametric else "cyclic"
    out = [_header(), f"{kind} start={graph.start} {{"]
    for name, (owner, edges) in graph.nodes.items():
        out.append(f"  {name}: {PLAYERS[owner]} {{")
        for label, (tkind, target) in edges:
            if tkind == "leaf":
                (c0, s0), (c1, s1) = target
                out.append(f"    {label} -> leaf({_affine_text(c0, s0)},{_affine_text(c1, s1)})")
            elif graph.parametric:
                out.append(f"    {label} -> advance {target}")
            else:
                out.append(f"    {label} -> {target}")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def _rational_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def matrix_text(rows, total) -> str:
    out = [_header(), f"matrix sum={_rational_text(total)} {{"]
    for i, row in enumerate(rows):
        rendered = " ".join(_rational_text(v) for v in row)
        out.append(f"  {rendered};" if i < len(rows) - 1 else f"  {rendered}")
    out.append("}")
    return "\n".join(out) + "\n"


def tree_profile_text(tree: Tree, profile: dict) -> str:
    lines = []
    for i in tree.decision_nodes():
        key = " ".join(tree.path[i]) if tree.path[i] else "."
        lines.append(f"{key} = {profile[tree.path[i]]}")
    return "\n".join(lines) + "\n"


def graph_profile_text(graph: Graph, profile: dict) -> str:
    return "".join(f"{name} = {profile[name]}\n" for name in graph.nodes)
