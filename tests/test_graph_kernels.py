"""The one-pass graph check and the backtracking enumerator, refereed.

``check_spe_param`` resolves a profile's play from every shape in one pass,
and ``enumerate_stationary_spe`` searches profiles by pruned backtracking.
Both must give exactly what the walk-from-every-shape report and the
product-plus-filter enumeration give (``tests/helpers.py``): the same
violations with the same affine values, the same divergences, the same
equilibria in the same order.  The scale tests pin sizes the quadratic
check and the exhaustive enumeration could not reach; they assert answers,
not times.  ``entry_stages`` must give the least and greatest of the full stage
sets the layered search lists (``reference_entry_stages``), on random games, on
both probe families and on hand-built graphs with a re-entered start, a
self-loop or a shape play never enters.  ``instantiate``, built bottom-up from stage layers, must build the
tree the depth-first stack builder (``reference_instantiate``) builds, and a
graph game with a dangling reference must fail where it is built.
"""

from __future__ import annotations

import random

import pytest
from helpers import (
    back_edge_chain,
    loop01,
    random_cyclic,
    random_graph,
    random_parametric,
    reference_entry_stages,
    reference_enumerate_stationary,
    reference_instantiate,
    reference_spe_report_param,
    ring,
    skip_chain,
    star,
)

from seqgames import cyclic as cy
from seqgames import dsl
from seqgames import escalation as esc
from seqgames import parametric as par
from seqgames.core import Leaf, ShapeMismatch, leaf
from seqgames.parametric import Advance, AffineLeaf, ParametricGame, Shape, affine

NEVER_BID = {"A0": "a", "A": "a", "B": "a"}


def _small_games(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield random_cyclic(rng) if i % 2 else random_parametric(rng)


def _wide_games(seed: int, count: int):
    """Games as wide as the benchmark's random graphs: 5 to 8 decision points."""
    rng = random.Random(seed)
    for i in range(count):
        widths = [rng.choice((2, 2, 2, 3)) for _ in range(rng.randint(5, 8))]
        yield random_graph(rng, widths, parametric=bool(i % 2))


# Per graph, the shapes each shape's advances name (the start is S0), and each shape's
# (least, greatest) entry stage.  In turn: a cycle back into the start, a self-loop, two
# advances to one shape, a shape that play never enters, and paths of two lengths to one
# shape, whose greatest entry stage then decides some checks.
TRICKY_GRAPHS = {
    "re-entered start": (
        {"S0": ["S1"], "S1": ["S2", "S0"], "S2": []},
        {"S0": (0, None), "S1": (1, None), "S2": (2, None)},
    ),
    "self-loop": (
        {"S0": ["S1"], "S1": ["S1", "S2"], "S2": []},
        {"S0": (0, 0), "S1": (1, None), "S2": (2, None)},
    ),
    "two advances to one shape": (
        {"S0": ["S1", "S1"], "S1": ["S2"], "S2": []},
        {"S0": (0, 0), "S1": (1, 1), "S2": (2, 2)},
    ),
    "never entered": (
        {"S0": ["S1"], "S1": [], "S2": ["S1", "S0"]},
        {"S0": (0, 0), "S1": (1, 1), "S2": (None, None)},
    ),
    "two path lengths": (
        {"S0": ["S1", "S2"], "S1": ["S2"], "S2": ["S3"], "S3": []},
        {"S0": (0, 0), "S1": (1, 1), "S2": (1, 2), "S3": (2, 3)},
    ),
}


def _advancing(advances: dict[str, list[str]]) -> ParametricGame:
    """Shape i, owned by i mod 2, takes a sloped leaf or one of its advances."""
    shapes = {}
    for i, (name, targets) in enumerate(advances.items()):
        stop = AffineLeaf((affine(i, 1 - i), affine(2 - i, i - 1)))
        shapes[name] = Shape(i % 2, (("stop", stop), *((f"to{k}", Advance(t)) for k, t in enumerate(targets))))
    return ParametricGame(shapes, "S0")


def _probe_games(sizes):
    """Both probe families at each of ``sizes`` shapes, then the ``TRICKY_GRAPHS``."""
    families = (back_edge_chain, skip_chain)
    tricky = (_advancing(advances) for advances, _ in TRICKY_GRAPHS.values())
    return [*(family(n) for family in families for n in sizes), *tricky]


class TestCheckMatchesReference:
    def test_every_profile_of_small_random_games(self):
        checked = diverging = violating = 0
        for game in [*_small_games(81, 400), *_probe_games(range(1, 7))]:
            for profile in par.stationary_profiles(game):
                report = par.check_spe_param(game, profile)
                assert report == reference_spe_report_param(game, profile)
                checked += 1
                diverging += bool(report.divergences)
                violating += bool(report.violations)
        assert checked > 3000 and diverging > 500 and violating > 500

    def test_sampled_profiles_of_wide_random_games(self):
        rng = random.Random(83)
        slopes = 0
        for game in _wide_games(85, 60):
            profiles = list(par.stationary_profiles(game))
            for profile in rng.sample(profiles, min(len(profiles), 40)):
                report = par.check_spe_param(game, profile)
                assert report == reference_spe_report_param(game, profile)
                slopes += any(v.profile_value.slope != v.deviation_value.slope for v in report.violations)
        assert slopes > 20  # the entry-stage comparison is exercised, not only the constant one

    def test_cyclic_report_is_the_slope_zero_report(self):
        for game in _small_games(87, 200):
            if isinstance(game, cy.CyclicGame):
                for profile in par.stationary_profiles(game):
                    report = par.check_spe_param(game, profile)
                    assert report == reference_spe_report_param(game, profile)
                    assert all(v.profile_value.slope == v.deviation_value.slope == 0 for v in report.violations)

    def test_entry_stages_match_the_layered_search(self):
        """Least entry stage (None when play never enters the shape) and greatest (None when
        the stages are unbounded), against the full stage sets of the layered search."""
        unbounded = unreachable = 0
        for game in [*_small_games(89, 300), *_probe_games(range(1, 61))]:
            expected = {
                name: (stages[0] if stages else None, stages[-1] if stages and bounded else None)
                for name, (stages, bounded) in reference_entry_stages(game).items()
            }
            assert par.entry_stages(game) == expected
            unbounded += sum(first is not None and last is None for first, last in expected.values())
            unreachable += sum(first is None for first, _ in expected.values())
        assert unbounded > 1000 and unreachable > 20

    @pytest.mark.parametrize("graph", TRICKY_GRAPHS, ids=str)
    def test_entry_stages_of_a_hand_built_graph(self, graph):
        advances, stages = TRICKY_GRAPHS[graph]
        game = _advancing(advances)
        assert par.entry_stages(game) == stages
        for profile in par.stationary_profiles(game):
            assert par.check_spe_param(game, profile) == reference_spe_report_param(game, profile)

    @pytest.mark.parametrize(
        "family, stages",
        [
            # every shape is entered first at its index, then again after each return to S0
            (back_edge_chain, lambda i: (i, None)),
            # shape i is reached by skips in ceil(i / 2) advances, by single steps in i
            (skip_chain, lambda i: ((i + 1) // 2, i)),
        ],
        ids=["back_edge_chain", "skip_chain"],
    )
    def test_entry_stages_of_a_probe_family(self, family, stages):
        assert par.entry_stages(family(200)) == {f"S{i}": stages(i) for i in range(200)}


def _same_enumeration(game) -> int:
    """``enumerate_stationary_spe`` lists the reference's equilibria in its order, each with its keys
    in the same order; the number of equilibria."""
    found = par.enumerate_stationary_spe(game)
    assert [list(p.items()) for p in found] == [list(p.items()) for p in reference_enumerate_stationary(game)]
    return len(found)


def _self_loop_and_unreached(game) -> tuple[bool, bool]:
    """Whether ``game`` has a move that advances to its own shape, and a shape play never enters."""
    loops = any(not t.LEAF and t.shape == name for name, shape in game.shapes.items() for _l, t in shape.moves)
    return loops, any(first is None for first, _last in game.entries.values())


class TestEnumerationMatchesReference:
    """The search takes shapes targets first and sorts what it finds back into canonical order, so
    each case compares the profiles as lists of items: values, order and key order."""

    def test_small_random_games(self):
        found = 0
        for game in _small_games(91, 400):
            found += _same_enumeration(game)
        assert found > 200

    def test_wide_random_games(self):
        found = 0
        for game in _wide_games(93, 40):
            found += _same_enumeration(game)
        assert found > 20

    def test_random_games_with_self_loops_and_shapes_play_never_enters(self):
        rng, found, kinds = random.Random(97), 0, set()
        for i in range(300):
            widths = [rng.randint(1, 3) for _ in range(rng.randint(2, 7))]
            game = random_graph(rng, widths, parametric=bool(i % 2))
            found += _same_enumeration(game)
            loops, unreached = _self_loop_and_unreached(game)
            kinds.add((game.KIND, loops, unreached))
        assert found > 200
        assert {(kind, True, True) for kind in ("cyclic", "param")} <= kinds

    def test_auction_and_loop(self):
        for game in (par.dollar_auction(1), par.dollar_auction(100), loop01()):
            _same_enumeration(game)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_rings(self, n):
        found = _same_enumeration(ring(n))
        assert n % 2 or found == 2 ** (n // 2 + 1) - 2

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_stars(self, where):
        for n in range(3, 11):
            sink_at = {"first": 0, "middle": (n - 1) // 2, "last": n - 1}[where]
            assert _same_enumeration(star(n, sink_at)) == 1


STAGES = (1, 2, 3, 6, 13)


def _same_tree(game, max_stage, terminal):
    """``instantiate`` and the reference build equal trees with the same canonical text;
    the number of decision nodes in the expanded tree."""
    tree, expected = par.instantiate(game, max_stage, terminal), reference_instantiate(game, max_stage, terminal)
    assert tree == expected
    text = dsl.serialize(dsl.GameDoc(("Alice", "Bertrand"), tree))
    assert text == dsl.serialize(dsl.GameDoc(("Alice", "Bertrand"), expected))
    return 0 if isinstance(tree, Leaf) else len(tree.index.owners)


class TestInstantiateMatchesReference:
    def test_seeded_random_graphs(self):
        rng = random.Random(95)
        compared = last = 0
        for i in range(300):
            widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 7))]
            game = random_graph(rng, widths, parametric=bool(i % 2))
            for max_stage in STAGES:
                size = _same_tree(game, max_stage, (rng.randint(-3, 3), rng.randint(-3, 3)))
                compared += 1
                last += max_stage == STAGES[-1]
                if size > 100:  # both trees are compared expanded, which grows geometrically
                    break
        assert compared > 1400 and last > 250

    @pytest.mark.parametrize("max_stage", STAGES)
    def test_auctions_and_rings(self, max_stage):
        games = [par.dollar_auction(value) for value in (1, 3, 100)] + [loop01(), ring(2), ring(4), ring(10)]
        for game in games:
            _same_tree(game, max_stage, (0, 0))

    def test_play_that_always_ends_builds_only_the_stages_it_reaches(self):
        game = cy.CyclicGame({"A": cy.CyclicNode(0, (("a", leaf(0, 1)), ("b", leaf(1, 0))))}, "A")
        assert par.instantiate(game, 10**9, (0, 0)) == reference_instantiate(game, 10**9, (0, 0))

    def test_a_shape_entered_twice_at_a_stage_is_one_node(self):
        target = par.Shape(1, (("a", par.AffineLeaf((par.affine(0, 1), par.affine(2, -1)))), ("c", par.Advance("S"))))
        source = par.Shape(0, (("x", par.Advance("T")), ("y", par.Advance("T"))))
        game = par.ParametricGame({"S": source, "T": target}, "S")
        tree = par.instantiate(game, 6, (0, 0))
        assert tree.branch("x") is tree.branch("y")
        assert tree.branch("x").branch("c").branch("x") is tree.branch("y").branch("c").branch("y")


def _auction_with_b_continuing_to(name: str) -> dict:
    shapes = dict(par.dollar_auction(3).shapes)
    shapes["B"] = par.Shape(1, (shapes["B"].moves[0], ("c", par.Advance(name))))
    return shapes


_TWO_ADVANCES = {"S": par.Shape(0, (("x", par.Advance("Y")), ("z", par.Advance("Z"))))}
_DECLARED_FIRST = {"A": cy.CyclicNode(0, (("c", "B"), ("d", "W"))), "B": cy.CyclicNode(1, (("c", "V"),))}


@pytest.mark.parametrize(
    "build, missing",
    [
        (lambda: par.ParametricGame(_auction_with_b_continuing_to("Z"), "A0"), "Z"),
        (lambda: par.ParametricGame(par.dollar_auction(3).shapes, "Q"), "Q"),
        (lambda: cy.CyclicGame({"A": cy.CyclicNode(0, (("a", leaf(0, 1)), ("c", "Z")))}, "A"), "Z"),
        (lambda: cy.CyclicGame(loop01().shapes, "Q"), "Q"),
        (lambda: par.ParametricGame(_TWO_ADVANCES, "Q"), "Q"),  # the start first
        (lambda: par.ParametricGame(_TWO_ADVANCES, "S"), "Y"),  # then advances in move order
        (lambda: cy.CyclicGame(_DECLARED_FIRST, "A"), "W"),  # in declaration order, not the order play reaches
    ],
    ids=["param advance", "param start", "cyclic edge", "cyclic start", "start first", "move order", "declared first"],
)
def test_a_dangling_reference_is_refused_when_the_game_is_built(build, missing):
    with pytest.raises(par.UnknownShape, match=f"^{missing}$"):  # cy.UnknownNode is the same class
        build()


class TestScale:
    def test_ring_20_has_every_equilibrium_in_canonical_order(self):
        game = ring(20)
        found = cy.enumerate_positional_spe(game)
        assert len(found) == 2 ** (20 // 2 + 1) - 2 == 2046
        ranks = [tuple(profile[name] for name in game.shapes) for profile in found]
        assert ranks == sorted(set(ranks))  # "a" < "c": product order, no repeats
        assert all(par.check_spe_param(game, profile).ok for profile in found[::97])

    def test_ring_2000_continuing_everywhere_diverges_from_every_node(self):
        game = ring(2000)
        report = par.check_spe_param(game, {name: "c" for name in game.shapes})
        assert report.divergences == tuple(game.shapes)
        assert report.violations == ()

    def test_bound_is_still_on_the_product(self):
        with pytest.raises(cy.SearchSpaceTooLarge, match=r"^2097152 positional profiles exceed bound 1048576$"):
            cy.enumerate_positional_spe(ring(21))


class TestListValuedChoice:
    """Label lookups stay tuple lookups: an unhashable choice is a mismatch."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda profile: loop01().check_profile(profile),
            lambda profile: esc.detect_escalation(
                loop01(), esc.BeliefPair(profile, {"A": "a", "B": "c"}), require_equilibria=False
            ),
            lambda profile: dsl.render_profile(loop01(), profile),
            lambda profile: dsl.to_dot(dsl.GameDoc(("Alice", "Bertrand"), loop01()), profile),
        ],
        ids=["check_profile", "detect_escalation unchecked", "render_profile", "to_dot"],
    )
    def test_list_choice_is_a_shape_mismatch(self, call):
        with pytest.raises(ShapeMismatch, match=r"^choice \['a'\] at 'A' is not an edge label$"):
            call({"A": ["a"], "B": "c"})


def test_the_cyclic_names_the_benchmark_calls_are_the_parametric_functions():
    assert cy.check_spe_cyclic is par.check_spe_param
    assert cy.induced_outcome is par.induced_outcome_param
    assert cy.unfold is par.instantiate
    assert cy.enumerate_positional_spe is par.enumerate_stationary_spe
    # A param game keeps its affine values: A is never entered at stage 0, so no stage-0 reading.
    report = cy.check_spe_cyclic(par.dollar_auction(100), NEVER_BID)
    assert report == par.check_spe_param(par.dollar_auction(100), NEVER_BID)
    at_a = next(v for v in report.violations if v.where == "A")
    assert (at_a.profile_value, at_a.deviation_value) == (par.affine(1, -1), par.affine(99, -1))


def test_escalation_reports_a_start_the_game_lacks():
    with pytest.raises(par.UnknownShape, match="^Z$"):
        game = par.ParametricGame(par.dollar_auction(100).shapes, "Z")
        esc.detect_escalation(game, esc.BeliefPair(NEVER_BID, NEVER_BID), require_equilibria=False)
