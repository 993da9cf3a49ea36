"""The finite-tree pipeline against its referees.

``dsl.parse`` builds ``Leaf``s and ``Node``s, and ``TreeIndex`` lays out a
tree's index in one walk on first use.  ``ReferenceParser``, a reader with one
``expect*`` call per token, referees the parser on the corpus, on seeded
random texts and on broken copies of them.  The index of a parsed tree must
equal that of the same tree built in code, and both must equal
``reference_index``, which lays the arrays out by plain recursion, also on
trees that share subtrees; a parsed tree must compare and hash like the same
tree built in code, and ``to_dot`` must write the bytes of the referee that
orders edges with the event walk.  ``chosen_branches`` and
``parse_profile_text`` must read every profile as the references that hash
each path key do, and a profile the package built without one lookup by key.
"""

from __future__ import annotations

import pathlib
import random

import pytest
from helpers import (
    big_random_tree,
    chain01,
    deep_random_tree,
    random_graph,
    random_profile,
    random_tree,
    read_profile_both_ways,
    reference_chosen_branches,
    reference_enumerate_equilibria,
    reference_index,
    reference_parse,
    reference_tree_dot,
    ring,
    token_spans,
)

from seqgames.core import Leaf, Node, ShapeMismatch, TreeIndex, chosen_branches, induced_play
from seqgames.cyclic import unfold
from seqgames.dsl import (
    GameDoc, ParseError, ValidationError, parse, parse_profile_text, render_profile, render_tree_path, serialize,
    to_dot,
)
from seqgames.finite import TiePolicy, check_spe, enumerate_equilibria, solve
from seqgames.parametric import dollar_auction, instantiate

PLAYERS = ("Alice", "Bertrand")
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ARRAYS = ("owners", "paths", "outcomes", "labels", "children", "postorder")


def corpus_trees() -> dict[str, str]:
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.game"))}
    return {name: text for name, text in texts.items() if isinstance(parse(text).game, (Leaf, Node))}


def arrays(index: TreeIndex) -> tuple:
    return tuple(getattr(index, name) for name in ARRAYS)


def outcome(parser, text: str):
    """A parsed document, or the class and message of whatever the parser raised."""
    try:
        return parser(text)
    except Exception as exc:  # a stray exception class must fail the comparison too
        return type(exc), str(exc)


def broken_copies(text: str):
    """``text`` cut before and after each token, with each token deleted or
    doubled, each integer negated, each branch label after the first of its
    node replaced by that first label, each owner renamed to a player the
    header does not name, and a ``;`` inserted before each token."""
    spans = token_spans(text)
    tokens = [text[start:end] for start, end in spans]
    for start, end in spans:
        yield text[:start]
        yield text[:end]
        yield text[:start] + text[end:]
        yield text[:end] + " " + text[start:]
        yield text[:start] + "; " + text[start:]
    for k, (start, end) in enumerate(spans):
        if tokens[k].isdecimal():
            yield text[:start] + "-" + text[start:]
        if tokens[k + 1 : k + 2] == ["{"] and tokens[k - 1 : k] != ["players"]:
            yield text[:start] + "Carol" + text[end:]
    # The k-th ``label ->`` in the text enters the (k + 1)-th node in preorder.
    labels = [span for k, span in enumerate(spans) if tokens[k + 1 : k + 2] == ["->"]]
    game = reference_parse(text).game
    if isinstance(game, Node):
        index = game.index
        for parent, kids in enumerate(index.children):
            for child in kids[1:]:
                start, end = labels[child - 1]
                yield text[:start] + index.labels[parent][0] + text[end:]


def tree_texts() -> list[str]:
    rng = random.Random(1010)
    texts = list(corpus_trees().values())
    texts += [serialize(GameDoc(PLAYERS, random_tree(rng))) for _ in range(10)]
    texts += [serialize(GameDoc(PLAYERS, deep_random_tree(rng, max_depth=12, max_nodes=24))) for _ in range(6)]
    return texts


TEXTS = tree_texts()


class TestParserReferee:
    """On every text, the parser and the referee build equal trees with
    equal index arrays, or raise the same exception class and message."""

    @pytest.mark.parametrize("number", range(len(TEXTS)), ids=lambda number: f"text{number}")
    def test_broken_copies(self, number):
        kinds = set()
        for broken in broken_copies(TEXTS[number]):
            got, want = outcome(parse, broken), outcome(reference_parse, broken)
            if isinstance(want, GameDoc):
                assert isinstance(got, GameDoc), (broken, got)
                assert got == want, broken
                assert arrays(got.game.index) == arrays(TreeIndex(want.game)), broken
                kinds.add("parsed")
            else:
                assert got == want, broken
                kinds.add(want[0])
        assert kinds == {"parsed", ParseError, ValidationError}


def random_trees(rng: random.Random) -> list:
    return [random_tree(rng) for _ in range(20)] + [deep_random_tree(rng) for _ in range(20)]


def referee_trees() -> list:
    rng = random.Random(2020)
    trees = [parse(text).game for text in corpus_trees().values()]
    trees += random_trees(rng)
    trees += [chain01(450), big_random_tree(rng, 10_000)]
    return trees


@pytest.fixture(scope="module")
def trees_and_texts() -> list:
    return [(tree, serialize(GameDoc(PLAYERS, tree))) for tree in referee_trees()]


class TestParsedAndBuiltTrees:
    def test_arrays_equal_a_fresh_walk(self, trees_and_texts):
        for tree, text in trees_and_texts:
            game = parse(text).game
            cached = arrays(game.index)
            assert cached == arrays(TreeIndex(game))
            assert cached == arrays(TreeIndex(tree))

    def test_parsed_and_built_trees_compare_and_hash_alike(self, trees_and_texts):
        for tree, text in trees_and_texts:
            game = parse(text).game
            assert game == tree and tree == game
            assert hash(game) == hash(tree)
            assert game != Leaf((0, 0))


def shared_trees() -> list:
    """Trees from ``instantiate``, each a DAG that reaches one ``Node`` object by many paths."""
    rng = random.Random(4040)
    trees = [instantiate(dollar_auction(value), stages, (2, 0)) for value in (1, 3, 100) for stages in (1, 2, 7, 30)]
    trees += [unfold(ring(n), depth, (1, 1)) for n in (1, 2, 5) for depth in (1, 4, 12)]
    for _ in range(16):
        game = random_graph(rng, [rng.randint(2, 3) for _ in range(rng.randint(1, 4))], parametric=False)
        trees.append(unfold(game, rng.randint(1, 6), (0, 0)))
    return trees


class TestRecursiveReferee:
    """The arrays of the walk, for parsed trees and trees built in code,
    against ``reference_index``, which shares no code with it."""

    def test_random_trees(self):
        for tree in random_trees(random.Random(2020)):  # the random trees of ``referee_trees``
            want = reference_index(tree)
            assert arrays(parse(serialize(GameDoc(PLAYERS, tree))).game.index) == want
            assert arrays(TreeIndex(tree)) == want

    def test_shared_subtrees(self):
        for tree in shared_trees():
            want = reference_index(tree)
            assert arrays(TreeIndex(tree)) == want
            assert arrays(parse(serialize(GameDoc(PLAYERS, tree))).game.index) == want

    def test_one_leaf_game(self):
        game = parse("players Alice Bertrand\nfinite {\n  leaf(1,0)\n}\n").game
        want = ([None], [None], [(1, 0)], [()], [()], [])
        assert reference_index(game) == want
        assert arrays(game.index) == arrays(TreeIndex(game)) == want

    def test_closed_arrays(self, trees_and_texts):
        """Every entry is a tuple once laid out, and ``postorder`` lists each
        decision node once, after the decision nodes among its children."""
        for tree, text in trees_and_texts:
            for index in (parse(text).game.index, TreeIndex(tree)):
                assert all(type(names) is tuple for names in index.labels)
                assert all(type(kids) is tuple for kids in index.children)
                decisions = [at for at, path in enumerate(index.paths) if path is not None]
                assert sorted(index.postorder) == decisions
                done: set[int] = set()
                for at in index.postorder:
                    assert {kid for kid in index.children[at] if index.outcomes[kid] is None} <= done
                    done.add(at)


class TestEnumerationReferee:
    @pytest.mark.parametrize("cap", [1, 4, 64])
    def test_the_big_random_tree(self, cap):
        game = big_random_tree(random.Random(2020), 10_000)
        got, want = enumerate_equilibria(game, cap), reference_enumerate_equilibria(game, cap)
        assert got == want and want.truncated
        assert [list(profile) for profile in got.profiles] == [list(profile) for profile in want.profiles]


class TestDotReferee:
    def test_to_dot_bytes(self, trees_and_texts):
        rng = random.Random(3030)
        for tree, text in trees_and_texts:
            doc = parse(text)
            assert to_dot(doc) == reference_tree_dot(doc)
            for profile in (solve(doc.game), random_profile(rng, tree)):
                assert to_dot(doc, profile) == reference_tree_dot(doc, profile)

    def test_escaped_labels_and_players(self):
        doc = GameDoc(('A"\\', "B"), Node(0, (('x"', Leaf((1, 0))), ("y\\", Node(1, (('x"', Leaf((0, 1))),))))))
        assert to_dot(doc) == reference_tree_dot(doc)
        assert to_dot(doc, {(): "y\\", ("y\\",): 'x"'}) == reference_tree_dot(doc, {(): "y\\", ("y\\",): 'x"'})


def profile_trees() -> list:
    """Seeded ``random_tree``s and ``deep_random_tree``s, each as built in code and as read from its text."""
    trees = random_trees(random.Random(4242))
    return [game for tree in trees for game in (tree, parse(serialize(GameDoc(PLAYERS, tree))).game)]


def package_profiles(game) -> list[dict]:
    """The profiles the package builds for ``game``: ``solve``'s under both tie policies (keyed in postorder),
    ``enumerate_equilibria``'s (in preorder) and ``parse_profile_text``'s reading of a rendered one."""
    profiles = [solve(game, ties) for ties in TiePolicy] + list(enumerate_equilibria(game, 8).profiles)
    return profiles + [parse_profile_text(render_profile(game, profile), game) for profile in profiles[:2]]


def profile_variants(rng: random.Random, game, profile: dict):
    """``profile``, then copies of it re-keyed with fresh equal tuples, shuffled, with one action no label, with
    one key dropped, with one extra key, and keyed by the paths of an equal tree's separate index."""
    items = list(profile.items())
    path = rng.choice(items)[0]
    separate = dict(zip(game.index.paths, Node(game.owner, game.branches).index.paths))
    yield profile
    yield {tuple(list(key)): action for key, action in items}
    yield dict(rng.sample(items, len(items)))
    yield {**profile, path: "w"}
    yield {key: action for key, action in items if key is not path}
    yield {**profile, path + ("w",): "x"}
    yield {separate[key]: action for key, action in items}


class TestProfileReads:
    """``chosen_branches`` and ``parse_profile_text`` against the reads that hash every path key
    (``reference_chosen_branches``, ``reference_parse_profile_text``): the same picks, profile and key order,
    or the same error, on the profiles the package builds and on variants that the identity pass cannot read."""

    def test_picks_and_read_profiles_equal_the_hashing_reads(self):
        rng = random.Random(4343)
        kinds = set()
        for game in profile_trees():
            for profile in package_profiles(game):
                for variant in profile_variants(rng, game, profile):
                    got = outcome(lambda profile: chosen_branches(game, profile), variant)
                    assert got == outcome(lambda profile: reference_chosen_branches(game, profile), variant)
                    text = "".join(f"{render_tree_path(path)} = {action}\n" for path, action in variant.items())
                    read = read_profile_both_ways(text, game)
                    assert isinstance(read, list) == isinstance(got, list)
                    kinds.add(type(got) if isinstance(got, list) else got[0])
        assert kinds == {list, ShapeMismatch}

    @pytest.mark.parametrize("label", ["a b", ".", "a\tb", "a  b", 1], ids=["blank", "dot", "tab", "two blanks", "int"])
    def test_a_label_that_no_key_gives_back(self, label):
        # A key reads as the path it renders unless a label is not a single word, or is ``.`` under the root.
        pair = Node(1, (("x", Leaf((0, 1))), ("y", Leaf((1, 0)))))
        game = Node(0, (("a", Node(1, (("b", pair), ("y", Leaf((1, 1)))))), (label, pair)))
        lines = [f"{' '.join(map(str, path)) or '.'} = {names[0]}" for path, names in zip(game.index.paths,
                                                                                      game.index.labels) if names]
        for text in ("\n".join(lines), "\n".join(lines[:3])):  # the last line is the one under ``label``
            read_profile_both_ways(text, game)

    def test_a_profile_the_package_built_is_read_without_a_lookup(self):
        class Unlooked(dict):
            """A profile that fails every lookup by key, so only the identity pass reads it."""

            def __getitem__(self, key, *default):
                raise AssertionError(f"a lookup of {key!r}")

            get = __contains__ = __getitem__

        for game in profile_trees():
            doc = GameDoc(PLAYERS, game)
            for profile in package_profiles(game):
                for read in (check_spe, induced_play, render_profile, lambda game, profile: to_dot(doc, profile)):
                    assert read(game, Unlooked(profile)) == read(game, profile)
