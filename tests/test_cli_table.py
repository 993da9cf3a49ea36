"""The command table: ``cli._read`` reads a plain command line from
``cli.COMMANDS`` alone, and it reads what argparse reads.

For every argv that ``helpers.random_argv`` draws, and for every argv of the
golden corpus, ``_read`` returns either None (argparse then reads the argv)
or the attributes that argparse sets.  So wherever argparse exits, ``_read``
returns None.  The same check runs without pytest or hypothesis, for example
under the oldest Python that CI runs::

    PYTHONPATH=src:tests python -c 'import random, helpers
    rng = random.Random(22)
    assert all(helpers.table_reads_as_argparse(helpers.random_argv(rng)) for _ in range(200_000))'
"""

from __future__ import annotations

import json
import pathlib

import pytest
from helpers import argparse_reads, random_argv, table_reads_as_argparse
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgames import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

# The ``add_argument`` keywords that ``_read`` reads, and the one action it knows.
READ_KEYWORDS = {"type", "default", "required", "choices", "help", "action"}


def test_the_table_uses_only_the_keywords_read():
    assert len(cli.COMMANDS) == 8
    for _summary, arguments in cli.COMMANDS.values():
        for name, keywords in {**arguments, **cli._COMMON}.items():
            assert set(keywords) <= READ_KEYWORDS, name
            assert keywords.get("action", "store_true") == "store_true", name
            assert keywords.get("type", str) in (str, int), name
            assert keywords == {} if name == "file" else name.startswith("--"), name


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_the_table_reads_what_argparse_reads(rng):
    assert table_reads_as_argparse(random_argv(rng))


def test_every_golden_argv_is_read_as_argparse_reads_it():
    golden = [case["argv"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    assert len(golden) == 511
    assert [argv for argv in golden if not table_reads_as_argparse(argv)] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "g.game", "--ties", "last"],
        ["check", "--profile", "p.profile", "g.game", "--format", "json"],
        ["auction", "--value", " 7", "--max-stage", "٣"],
        ["export", "", "--dot", "--profile", "p", "--profile", "q"],
        ["simulate", "g.game", "--horizon", "5", "--out", "t.csv", "--policy", "fixed:0,1"],
        ["matrix", "g.game"],
    ],
    ids=["choice", "json", "padded-and-arabic-indic-ints", "repeated-flag", "simulate", "matrix"],
)
def test_a_plain_argv_is_read_from_the_table(argv):
    read = cli._read(argv)
    assert read is not None
    assert vars(read) == argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["solve", "-h"],
        ["solv", "g.game"],
        ["solve", "g.game", "--tie", "last"],
        ["solve", "g.game", "--ties=last"],
        ["solve", "--", "g.game"],
        ["solve", "-"],
        ["solve"],
        ["solve", "g.game", "h.game"],
        ["solve", "g.game", "--ties", "bogus"],
        ["enumerate", "g.game", "--cap", "0x1"],
        ["enumerate", "g.game", "--cap"],
        ["simulate", "g.game", "--horizon", "-1"],
        ["unfold", "g.game", "--depth", "3"],
        ["auction", "g.game", "--value", "3"],
        ["export", "g.game"],
    ],
    ids=" ".join,
)
def test_any_other_argv_is_left_to_argparse(argv):
    assert cli._read(argv) is None
