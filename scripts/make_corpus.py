#!/usr/bin/env python3
"""Regenerate the corpus .game and .profile files in canonical form."""

from __future__ import annotations

import pathlib
from fractions import Fraction

from seqgames.core import leaf, node
from seqgames.dsl import GameDoc, render_profile, serialize
from seqgames.matrix import matrix_game
from seqgames.parametric import CyclicGame, CyclicNode, dollar_auction, from_cyclic

ROOT = pathlib.Path(__file__).resolve().parent.parent / "corpus"
PLAYERS = ("Alice", "Bertrand")


def pennies_seq():
    """Three-move coin matching: Alice, Bertrand, Alice; a point per adjacent
    match for Alice, per mismatch for Bertrand."""
    after_pp = node(0, ("p", leaf(2, 0)), ("f", leaf(1, 1)))
    after_pf = node(0, ("p", leaf(0, 2)), ("f", leaf(1, 1)))
    after_fp = node(0, ("p", leaf(1, 1)), ("f", leaf(0, 2)))
    after_ff = node(0, ("p", leaf(1, 1)), ("f", leaf(2, 0)))
    bert_p = node(1, ("p", after_pp), ("f", after_pf))
    bert_f = node(1, ("p", after_fp), ("f", after_ff))
    return node(0, ("p", bert_p), ("f", bert_f))


def chain01(rounds: int):
    """Alternating abandon/continue chain; abandoning pays (0,1) at Alice's
    turns and (1,0) at Bertrand's; continuing past the last round pays the
    player who would have moved next as if the opponent abandoned."""
    current = leaf(*((1, 0) if rounds % 2 else (0, 1)))
    for i in reversed(range(rounds)):
        owner = i % 2
        drop = leaf(0, 1) if owner == 0 else leaf(1, 0)
        current = node(owner, ("a", drop), ("c", current))
    return current


def loop01() -> CyclicGame:
    return CyclicGame(
        {
            "A": CyclicNode(0, (("a", leaf(0, 1)), ("c", "B"))),
            "B": CyclicNode(1, (("a", leaf(1, 0)), ("c", "A"))),
        },
        "A",
    )


def main() -> None:
    ROOT.mkdir(parents=True, exist_ok=True)
    (ROOT / "profiles").mkdir(exist_ok=True)

    docs = {
        "matching_pennies_seq.game": GameDoc(PLAYERS, pennies_seq()),
        "zero_one_7.game": GameDoc(PLAYERS, chain01(7)),
        "zero_one_6.game": GameDoc(PLAYERS, chain01(6)),
        "zero_one_cyclic.game": GameDoc(PLAYERS, loop01()),
        "zero_one_param.game": GameDoc(PLAYERS, from_cyclic(loop01())),
        "dollar_auction_v100.game": GameDoc(PLAYERS, dollar_auction(100)),
        "rps.game": GameDoc(
            PLAYERS,
            matrix_game(
                [
                    [Fraction(1, 2), 1, 0],
                    [0, Fraction(1, 2), 1],
                    [1, 0, Fraction(1, 2)],
                ],
                1,
            ),
        ),
        "rps_zerosum.game": GameDoc(
            PLAYERS, matrix_game([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], 0)
        ),
        "matching_pennies_matrix.game": GameDoc(PLAYERS, matrix_game([[1, 0], [0, 1]], 1)),
    }
    for name, doc in docs.items():
        (ROOT / name).write_text(serialize(doc), encoding="utf-8")

    profiles = {
        "never_bid.profile": (dollar_auction(100), {"A0": "a", "A": "a", "B": "a"}),
        "alice_continues.profile": (dollar_auction(100), {"A0": "c", "A": "c", "B": "a"}),
        "bertrand_continues.profile": (dollar_auction(100), {"A0": "a", "A": "a", "B": "c"}),
        "loop_alice_abandons.profile": (loop01(), {"A": "a", "B": "c"}),
        "loop_alice_continues.profile": (loop01(), {"A": "c", "B": "a"}),
        "pennies_eq_first.profile": (
            pennies_seq(),
            {
                (): "p",
                ("p",): "f",
                ("p", "p"): "p",
                ("p", "f"): "f",
                ("f",): "p",
                ("f", "p"): "p",
                ("f", "f"): "f",
            },
        ),
        "pennies_eq_second.profile": (
            pennies_seq(),
            {
                (): "f",
                ("p",): "f",
                ("p", "p"): "p",
                ("p", "f"): "f",
                ("f",): "p",
                ("f", "p"): "p",
                ("f", "f"): "f",
            },
        ),
    }
    for name, (game, profile) in profiles.items():
        (ROOT / "profiles" / name).write_text(render_profile(game, profile), encoding="utf-8")

    print(f"wrote {len(docs)} games and {len(profiles)} profiles under {ROOT}")


if __name__ == "__main__":
    main()
