"""Every value class is a ``core.Record`` and keeps what it had as a frozen
dataclass: construction by position or keyword with defaults,
``__post_init__`` checks, its ``repr`` byte for byte, equality only within
one class, the hash of its tuple of fields, and refusal of assignment.

``REPRS`` and ``FIELDS`` were printed by the frozen dataclasses for the
instances ``build`` makes, one of each of the 22 classes, plus
``SpeReport()`` and a ``CyclicGame``.
"""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from seqgames import core, dsl, escalation as esc, finite as fin, matrix as mx, parametric as par


def _affine_leaf(first: tuple[int, int], second: tuple[int, int]) -> par.AffineLeaf:
    return par.AffineLeaf((par.AffineValue(*first), par.AffineValue(*second)))


def _shapes() -> dict[str, par.Shape]:
    return {
        "A": par.Shape(0, (("a", _affine_leaf((1, 0), (0, -2))), ("b", par.Advance("B")))),
        "B": par.Shape(1, (("a", _affine_leaf((0, 0), (1, 0))), ("b", par.Advance("A")))),
    }


def _cyclic_shapes() -> dict[str, par.Shape]:
    return {
        "A": par.CyclicNode(0, (("a", core.Leaf((1, 0))), ("b", "B"))),
        "B": par.CyclicNode(1, (("a", core.Leaf((0, 1))), ("b", "A"))),
    }


def build() -> dict[str, object]:
    """A fresh instance of every value class, by name."""
    half = Fraction(1, 2)
    return {
        "Leaf": core.Leaf((1, 0)),
        "Node": core.Node(0, (("a", core.Leaf((1, 0))), ("b", core.Leaf((0, 1))))),
        "GameDoc": dsl.GameDoc(("Alice", "Bertrand"), core.Leaf((1, 0))),
        "Violation": fin.Violation(("a",), "b", 1, 2),
        "SpeReport": fin.SpeReport(
            (fin.Violation("A", "a", par.AffineValue(1, 0), par.AffineValue(2, 1)),), ("B",)
        ),
        "SpeReport()": fin.SpeReport(),
        "Enumeration": fin.Enumeration(({(): "a"},), False),
        "MatrixGame": mx.MatrixGame(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), Fraction(1)),
        "MixedProfile": mx.MixedProfile((half, half), (half, half), half),
        "AffineValue": par.AffineValue(3, -1),
        "AffineLeaf": _affine_leaf((1, 0), (0, 2)),
        "Advance": par.Advance("B"),
        "Shape": par.Shape(0, (("a", _affine_leaf((1, 0), (0, 0))), ("b", par.Advance("A")))),
        "ParametricGame": par.ParametricGame(_shapes(), "A"),
        "CyclicGame": par.CyclicGame(_cyclic_shapes(), "A"),
        "ConvergesAffine": par.ConvergesAffine(("A", "B"), (par.AffineValue(0, 1), par.AffineValue(1, 0))),
        "Divergent": par.Divergent(("A",), ("B", "C")),
        "BeliefPair": esc.BeliefPair({"A": "a"}, {"A": "b"}),
        "Escalates": esc.Escalates(par.Divergent((), ("A", "B"))),
        "Terminates": esc.Terminates(3, (1, 0)),
        "Uniform": esc.Uniform(),
        "FixedIndex": esc.FixedIndex((0, 1)),
        "SimStep": esc.SimStep(0, 1, 0, "a"),
        "SimTrace": esc.SimTrace(7, (esc.SimStep(0, 1, 0, "a"),), (1, 0)),
    }


_GRAPH = (
    "shapes={'A': Shape(owner=0, moves=(('a', AffineLeaf(outcome=(AffineValue(const=1, slope=0),"
    " AffineValue(const=0, slope={slope})))), ('b', Advance(shape='B')))), 'B': Shape(owner=1,"
    " moves=(('a', AffineLeaf(outcome=(AffineValue(const=0, slope=0), AffineValue(const=1, slope=0)))),"
    " ('b', Advance(shape='A'))))}, start='A')"
)

REPRS = {
    "Leaf": "Leaf(outcome=(1, 0))",
    "Node": "Node(owner=0, branches=(('a', Leaf(outcome=(1, 0))), ('b', Leaf(outcome=(0, 1)))))",
    "GameDoc": "GameDoc(players=('Alice', 'Bertrand'), game=Leaf(outcome=(1, 0)))",
    "Violation": "Violation(where=('a',), action='b', profile_value=1, deviation_value=2)",
    "SpeReport": (
        "SpeReport(violations=(Violation(where='A', action='a', profile_value=AffineValue(const=1, slope=0),"
        " deviation_value=AffineValue(const=2, slope=1)),), divergences=('B',))"
    ),
    "SpeReport()": "SpeReport(violations=(), divergences=())",
    "Enumeration": "Enumeration(profiles=({(): 'a'},), truncated=False)",
    "MatrixGame": (
        "MatrixGame(payoffs=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))),"
        " total=Fraction(1, 1))"
    ),
    "MixedProfile": (
        "MixedProfile(row=(Fraction(1, 2), Fraction(1, 2)), column=(Fraction(1, 2), Fraction(1, 2)),"
        " value=Fraction(1, 2))"
    ),
    "AffineValue": "AffineValue(const=3, slope=-1)",
    "AffineLeaf": "AffineLeaf(outcome=(AffineValue(const=1, slope=0), AffineValue(const=0, slope=2)))",
    "Advance": "Advance(shape='B')",
    "Shape": (
        "Shape(owner=0, moves=(('a', AffineLeaf(outcome=(AffineValue(const=1, slope=0),"
        " AffineValue(const=0, slope=0)))), ('b', Advance(shape='A'))))"
    ),
    "ParametricGame": "ParametricGame(" + _GRAPH.replace("{slope}", "-2"),
    "CyclicGame": "CyclicGame(" + _GRAPH.replace("{slope}", "0"),
    "ConvergesAffine": (
        "ConvergesAffine(path=('A', 'B'), outcome=(AffineValue(const=0, slope=1), AffineValue(const=1, slope=0)))"
    ),
    "Divergent": "Divergent(stem=('A',), cycle=('B', 'C'))",
    "BeliefPair": "BeliefPair(belief_of_a={'A': 'a'}, belief_of_b={'A': 'b'})",
    "Escalates": "Escalates(witness=Divergent(stem=(), cycle=('A', 'B')))",
    "Terminates": "Terminates(stage=3, outcome=(1, 0))",
    "Uniform": "Uniform()",
    "FixedIndex": "FixedIndex(indices=(0, 1))",
    "SimStep": "SimStep(stage=0, mover=1, belief_index=0, action='a')",
    "SimTrace": "SimTrace(seed=7, steps=(SimStep(stage=0, mover=1, belief_index=0, action='a'),), outcome=(1, 0))",
}

FIELDS = {
    "Leaf": "outcome",
    "Node": "owner branches",
    "GameDoc": "players game",
    "Violation": "where action profile_value deviation_value",
    "SpeReport": "violations divergences",
    "SpeReport()": "violations divergences",
    "Enumeration": "profiles truncated",
    "MatrixGame": "payoffs total",
    "MixedProfile": "row column value",
    "AffineValue": "const slope",
    "AffineLeaf": "outcome",
    "Advance": "shape",
    "Shape": "owner moves",
    "ParametricGame": "shapes start",
    "CyclicGame": "shapes start",
    "ConvergesAffine": "path outcome",
    "Divergent": "stem cycle",
    "BeliefPair": "belief_of_a belief_of_b",
    "Escalates": "witness",
    "Terminates": "stage outcome",
    "Uniform": "",
    "FixedIndex": "indices",
    "SimStep": "stage mover belief_index action",
    "SimTrace": "seed steps outcome",
}

# A field holds a dict, so hashing raises as the tuple of fields would.
UNHASHABLE = {"Enumeration", "ParametricGame", "CyclicGame", "BeliefPair"}
NAMES = sorted(REPRS)


class Stamped(par.AffineValue):
    """A record class that adds a field with a default to its parent's."""

    stage: int = 0


def _values(record: object, name: str) -> tuple:
    return tuple(getattr(record, field) for field in FIELDS[name].split())


def test_every_value_class_is_a_record():
    classes = {type(record) for record in build().values()}
    assert len(classes) == 23  # the 22 classes and CyclicGame
    assert all(issubclass(cls, core.Record) for cls in classes)


@pytest.mark.parametrize("name", NAMES)
class TestEachRecord:
    def test_repr(self, name):
        assert repr(build()[name]) == REPRS[name]

    def test_fields_in_declaration_order(self, name):
        assert type(build()[name])._fields == tuple(FIELDS[name].split())

    def test_equal_fields_equal_records_and_hashes(self, name):
        first, second = build()[name], build()[name]
        assert first == second and not first != second
        if name in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(first)
        elif name == "Node":  # ``Node`` keeps its own hash, of the preorder arrays
            index = first.index
            assert hash(first) == hash(second) == hash(
                (tuple(index.owners), tuple(index.labels), tuple(index.outcomes))
            )
        else:
            assert hash(first) == hash(second) == hash(_values(first, name))

    def test_not_equal_to_the_tuple_of_its_fields(self, name):
        record = build()[name]
        assert record != _values(record, name)

    def test_keyword_construction(self, name):
        record = build()[name]
        fields = FIELDS[name].split()
        again = type(record)(**dict(zip(fields, _values(record, name))))
        assert again == record and repr(again) == repr(record)

    def test_assignment_and_deletion_raise(self, name):
        record = build()[name]
        for field in [*FIELDS[name].split(), "not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == REPRS[name]


class TestConstruction:
    def test_defaults(self):
        assert fin.SpeReport() == fin.SpeReport((), ())
        report = fin.SpeReport(divergences=("A",))
        assert (report.violations, report.divergences, report.ok) == ((), ("A",), False)
        assert fin.SpeReport().ok

    @pytest.mark.parametrize(
        ("args", "kwargs"),
        [((1,), {}), ((1, 2, 3), {}), ((1,), {"const": 2}), ((1, 2), {"scale": 3}), ((), {"slope": 1})],
        ids=["too few", "too many", "twice", "unknown keyword", "missing positional"],
    )
    def test_a_bad_call_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            par.AffineValue(*args, **kwargs)

    def test_each_class_compiles_its_own_constructor(self):
        """The constructor names the fields, as a dataclass's does: no
        ``*args``/``**kwargs`` loop runs on each construction."""
        assert str(inspect.signature(par.AffineValue)) == "(const, slope)"
        assert str(inspect.signature(fin.SpeReport)) == "(violations=(), divergences=())"
        assert str(inspect.signature(esc.Uniform)) == "()"
        assert par.AffineValue.__init__ is not fin.Violation.__init__

    def test_a_class_adds_its_fields_after_its_parents(self):
        stamped = Stamped(1, 2)
        assert repr(stamped) == "Stamped(const=1, slope=2, stage=0)"
        assert stamped.at(1) == 3
        assert stamped != par.AffineValue(1, 2) and par.AffineValue(1, 2) != stamped


class TestGraphGames:
    def test_a_cyclic_game_is_not_equal_to_the_parametric_game_of_its_shapes(self):
        shapes = _cyclic_shapes()
        cyclic, parametric = par.CyclicGame(shapes, "A"), par.ParametricGame(shapes, "A")
        assert cyclic != parametric and parametric != cyclic
        assert cyclic == par.CyclicGame(start="A", shapes=shapes)

    @pytest.mark.parametrize("keywords", [False, True], ids=["positional", "keywords"])
    def test_a_bad_game_raises_from_its_constructor(self, keywords):
        dangling = {"A": par.Shape(0, (("a", par.Advance("Z")),))}
        make = (lambda cls, shapes, start: cls(shapes=shapes, start=start)) if keywords else (
            lambda cls, shapes, start: cls(shapes, start)
        )
        with pytest.raises(par.UnknownShape, match="Z"):
            make(par.ParametricGame, dangling, "A")
        with pytest.raises(par.UnknownShape, match="nowhere"):
            make(par.ParametricGame, _shapes(), "nowhere")
        with pytest.raises(core.MalformedGame, match="no choices"):
            make(par.ParametricGame, {"A": par.Shape(0, ())}, "A")
        with pytest.raises(core.MalformedGame, match="nonzero slope"):
            make(par.CyclicGame, _shapes(), "A")


class TestCachedProperties:
    @pytest.mark.parametrize(
        ("name", "attribute"),
        [("Leaf", "index"), ("Node", "index"), ("AffineLeaf", "constant"), ("ParametricGame", "labels")],
    )
    def test_the_cache_is_kept_and_left_out_of_equality(self, name, attribute):
        record, fresh = build()[name], build()[name]
        value = getattr(record, attribute)
        assert getattr(record, attribute) is value
        assert attribute in vars(record)
        assert record == fresh and repr(record) == REPRS[name]
        if name not in UNHASHABLE:
            assert hash(record) == hash(fresh)

    def test_node_keeps_its_own_equality(self):
        assert "__eq__" in vars(core.Node) and "__hash__" in vars(core.Node)
        built = core.node(0, ("a", core.leaf(1, 0)), ("b", core.leaf(0, 1)))
        assert built == build()["Node"]
        assert built != core.node(1, ("a", core.leaf(1, 0)), ("b", core.leaf(0, 1)))
        assert built != core.leaf(1, 0)
