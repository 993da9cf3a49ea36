"""The one-pass finite-tree pipeline against its referees.

``dsl.parse`` fills a tree's index as it reads the tree.  ``ReferenceParser``,
the parser that left the index to a later walk, referees it on the corpus,
on seeded random texts and on broken copies of them.  A parse-filled index
must equal a fresh walk of the same tree, and both must equal
``reference_index``, which lays the arrays out by plain recursion; a parsed
tree must compare and hash like the same tree built in code, and ``to_dot``
must write the bytes of the referee that orders edges with the event walk.
"""

from __future__ import annotations

import pathlib
import random

import pytest
from helpers import (
    big_random_tree,
    chain01,
    deep_random_tree,
    random_profile,
    random_tree,
    reference_index,
    reference_parse,
    reference_tree_dot,
    token_spans,
)

from seqgames.core import Leaf, Node, TreeIndex
from seqgames.dsl import GameDoc, ParseError, ValidationError, parse, serialize, to_dot
from seqgames.finite import solve

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


class TestParseFilledIndex:
    def test_parse_fills_the_index(self, trees_and_texts):
        for _tree, text in trees_and_texts:
            game = parse(text).game
            assert "index" in game.__dict__

    def test_arrays_equal_a_fresh_walk(self, trees_and_texts):
        for tree, text in trees_and_texts:
            game = parse(text).game
            filled = arrays(game.index)
            assert filled == arrays(TreeIndex(game))
            assert filled == arrays(TreeIndex(tree))

    def test_parsed_and_built_trees_compare_and_hash_alike(self, trees_and_texts):
        for tree, text in trees_and_texts:
            game = parse(text).game
            assert game == tree and tree == game
            assert hash(game) == hash(tree)
            assert game != Leaf((0, 0))


class TestRecursiveReferee:
    """The arrays that ``parse`` lays out and those of the walk, against
    ``reference_index``, which shares no code with either."""

    def test_random_trees(self):
        for tree in random_trees(random.Random(2020)):  # the random trees of ``referee_trees``
            want = reference_index(tree)
            assert arrays(parse(serialize(GameDoc(PLAYERS, tree))).game.index) == want
            assert arrays(TreeIndex(tree)) == want

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
