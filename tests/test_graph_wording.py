"""Each graph kind words its profile errors in its own terms.

A cyclic game has nodes, edges and positional profiles; a stage-parametric
game has shapes, moves and stationary profiles.  Every public entry point
that takes a graph profile reports a wrong label or a missing key with the
exact ``ShapeMismatch`` text of the game's kind, and the enumerators name
the profile kind when the search bound is exceeded.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest
from helpers import instantiate_profile, loop01

from seqgames import cyclic as cy
from seqgames import dsl
from seqgames import escalation as esc
from seqgames import parametric as par
from seqgames.core import ShapeMismatch

LOOP_GOOD = {"A": "a", "B": "c"}
LOOP_WRONG = {"A": "zz", "B": "a"}
LOOP_MISSING = {"A": "a"}
AUCTION_GOOD = {"A0": "a", "A": "a", "B": "c"}
AUCTION_WRONG = {"A0": "zz", "A": "a", "B": "a"}
AUCTION_MISSING = {"A0": "a", "A": "a"}

LOOP_MESSAGES = {
    "wrong": "choice 'zz' at 'A' is not an edge label",
    "missing": "profile must choose exactly one edge per node",
}
AUCTION_MESSAGES = {
    "wrong": "choice 'zz' at 'A0' is not a move label",
    "missing": "profile must choose exactly one move per shape",
}


def _text(profile: dict) -> str:
    return "".join(f"{key} = {action}\n" for key, action in profile.items())


def _entries(game, good):
    """(name, call) for every public entry point taking a profile of ``game``."""
    doc = dsl.GameDoc(("Alice", "Bertrand"), game)
    return [
        ("check_spe", lambda p: par.check_spe_param(game, p)),
        ("induced_outcome", lambda p: par.induced_outcome_param(game, p)),
        ("restrict_profile", lambda p: instantiate_profile(game, p, 2)),
        ("compose_beliefs a", lambda p: esc.compose_beliefs(game, esc.BeliefPair(p, good))),
        ("compose_beliefs b", lambda p: esc.compose_beliefs(game, esc.BeliefPair(good, p))),
        ("detect_escalation a", lambda p: esc.detect_escalation(game, esc.BeliefPair(p, good))),
        ("detect_escalation b", lambda p: esc.detect_escalation(game, esc.BeliefPair(good, p))),
        (
            "detect_escalation a unchecked",
            lambda p: esc.detect_escalation(game, esc.BeliefPair(p, good), require_equilibria=False),
        ),
        (
            "detect_escalation b unchecked",
            lambda p: esc.detect_escalation(game, esc.BeliefPair(good, p), require_equilibria=False),
        ),
        ("simulate", lambda p: esc.simulate(game, 5, 1, equilibria=[good, p])),
        ("to_dot", lambda p: dsl.to_dot(doc, p)),
        ("parse_profile_text", lambda p: dsl.parse_profile_text(_text(p), game)),
    ]


CASES = [
    (f"{kind} {entry} {fault}", call, profile, messages[fault])
    for kind, game, good, faulty, messages in (
        ("cyclic", loop01(), LOOP_GOOD, {"wrong": LOOP_WRONG, "missing": LOOP_MISSING}, LOOP_MESSAGES),
        ("param", par.dollar_auction(100), AUCTION_GOOD, {"wrong": AUCTION_WRONG, "missing": AUCTION_MISSING},
         AUCTION_MESSAGES),
    )
    for entry, call in _entries(game, good)
    for fault, profile in faulty.items()
]


@pytest.mark.parametrize("call, profile, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_profile_error_names_the_kind(call, profile, message):
    with pytest.raises(ShapeMismatch) as caught:
        call(profile)
    assert str(caught.value) == message


@pytest.mark.parametrize("call", [cy.enumerate_positional_spe, par.enumerate_stationary_spe])
@pytest.mark.parametrize(
    "game, message",
    [
        (loop01(), "4 positional profiles exceed bound 3"),
        (par.ParametricGame(loop01().shapes, "A"), "4 stationary profiles exceed bound 3"),
    ],
    ids=["positional", "stationary"],
)
def test_bound_message_names_the_profile_kind(call, game, message):
    with pytest.raises(cy.SearchSpaceTooLarge) as caught:
        call(game, bound=3)
    assert str(caught.value) == message


class _Frozen(Mapping):
    """A mapping that is not a ``dict``: its ``items()`` is a plain ``ItemsView``."""

    def __init__(self, entries: dict) -> None:
        self._entries = entries

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


# Per fault, a profile of the loop and of the auction, and the error ``check_profile`` raises for
# each.  A valid profile passes one set test, and everything that test refuses or raises on must
# still get these errors, in the words of the game's kind.
LOOP_COUNT = "profile must choose exactly one edge per node"
AUCTION_COUNT = "profile must choose exactly one move per shape"
PROFILE_FAULTS = {
    "missing shape": (
        ({"A": "a"}, ShapeMismatch, LOOP_COUNT),
        ({"A0": "a", "B": "a"}, ShapeMismatch, AUCTION_COUNT),
    ),
    "extra key": (
        ({"A": "a", "B": "c", "Z": "a"}, ShapeMismatch, LOOP_COUNT),
        ({"A0": "a", "A": "a", "B": "c", "Z": "a"}, ShapeMismatch, AUCTION_COUNT),
    ),
    "extra key for a missing one": (
        ({"A": "a", "Z": "a"}, ShapeMismatch, LOOP_COUNT),
        ({"A0": "a", "A": "a", "Z": "a"}, ShapeMismatch, AUCTION_COUNT),
    ),
    "wrong label": (
        ({"A": "a", "B": "zz"}, ShapeMismatch, "choice 'zz' at 'B' is not an edge label"),
        ({"A0": "a", "A": "zz", "B": "yy"}, ShapeMismatch, "choice 'zz' at 'A' is not a move label"),
    ),
    "a (shape, label) pair as the label": (
        ({"A": "a", "B": ("B", "c")}, ShapeMismatch, "choice ('B', 'c') at 'B' is not an edge label"),
        ({"A0": ("A0", "a"), "A": "a", "B": "c"}, ShapeMismatch, "choice ('A0', 'a') at 'A0' is not a move label"),
    ),
    "unhashable choice": (
        ({"A": ["a"], "B": "c"}, ShapeMismatch, "choice ['a'] at 'A' is not an edge label"),
        ({"A0": "a", "A": "a", "B": {"c": 1}}, ShapeMismatch, "choice {'c': 1} at 'B' is not a move label"),
    ),
    "non-dict mapping, wrong label": (
        (_Frozen({"A": "zz", "B": "c"}), ShapeMismatch, "choice 'zz' at 'A' is not an edge label"),
        (_Frozen({"A0": "a", "A": "a", "B": "zz"}), ShapeMismatch, "choice 'zz' at 'B' is not a move label"),
    ),
    "non-dict mapping, missing shape": (
        (_Frozen({"B": "c"}), ShapeMismatch, LOOP_COUNT),
        (_Frozen({"A": "a", "B": "c"}), ShapeMismatch, AUCTION_COUNT),
    ),
    "a list": (
        (["a", "c"], AttributeError, "'list' object has no attribute 'keys'"),
        (["a", "a", "c"], AttributeError, "'list' object has no attribute 'keys'"),
    ),
    "an int": (
        (5, AttributeError, "'int' object has no attribute 'keys'"),
        (3, AttributeError, "'int' object has no attribute 'keys'"),
    ),
    "None": (
        (None, AttributeError, "'NoneType' object has no attribute 'keys'"),
        (None, AttributeError, "'NoneType' object has no attribute 'keys'"),
    ),
}


@pytest.mark.parametrize("fault", PROFILE_FAULTS)
@pytest.mark.parametrize("kind", ["cyclic", "param"])
def test_check_profile_keeps_its_errors(kind, fault):
    game, good = (loop01(), LOOP_GOOD) if kind == "cyclic" else (par.dollar_auction(100), AUCTION_GOOD)
    profile, error, message = PROFILE_FAULTS[fault][kind == "param"]
    for call in (
        game.check_profile,
        lambda p: esc.detect_escalation(game, esc.BeliefPair(p, good), require_equilibria=False),
        lambda p: esc.detect_escalation(game, esc.BeliefPair(good, p), require_equilibria=False),
    ):
        with pytest.raises(error) as caught:
            call(profile)
        assert caught.value.__class__ is error and str(caught.value) == message


@pytest.mark.parametrize("game, good", [(loop01(), LOOP_GOOD), (par.dollar_auction(100), AUCTION_GOOD)])
def test_a_valid_mapping_of_any_class_passes(game, good):
    assert game.check_profile(good) is None
    assert game.check_profile(_Frozen(good)) is None
