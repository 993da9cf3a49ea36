"""Seeded fuzz property over the whole command line.

Argv is drawn over every subcommand from the corpus games and profiles,
copies of them with one token dropped, duplicated or replaced, cut off at
a token boundary or with one number 4,299 to 4,301 digits long, a missing
game file, small edge values of every option, both formats and an optional
``--out``.  Every run must end in an exit code of the documented contract
with output of the documented shape:

- ``run`` returns 0-4 (never 5, an internal error), raises nothing and never prints a traceback;
- exits 0 and 1 leave stderr empty;
- exits 2 and 4 of argv that argparse accepts leave stdout empty and print
  exactly one stderr line;
- exit 3 is one ``limit:`` line, or a truncated ``enumerate`` report with
  empty stderr;
- JSON output parses (``export`` always writes DOT);
- ``--out`` leaves stdout empty and writes the bytes printed without it
  (``simulate`` writes its trace there and still prints its report);
- the same argv gives the same bytes twice;
- every drawn game document parses or raises ``ParseError``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgames import cli, dsl

ROOT = pathlib.Path(__file__).resolve().parent.parent
GAMES = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "corpus").glob("*.game"))}
PROFILES = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "corpus" / "profiles").glob("*.profile"))]

EDGE = ["-1", "0", "1", "2", "7", "40"]
TERMINALS = ["1,0", "0,0", "-1,2", "1", "1,2,3", "a,b"]
POLICIES = ["uniform", "fixed:0,1", "fixed:1,0", "fixed", "fixed:1", "fixed:a,b", "uniform:1", "fixed:2,0", "bogus:1,0"]

# The corpus games each command analyses, drawn half the time so that not
# every run ends in a kind mismatch.
FITTING = {
    "solve": ["matching_pennies_seq", "zero_one_6", "zero_one_7"],
    "enumerate": ["matching_pennies_seq", "zero_one_7", "zero_one_cyclic", "zero_one_param", "dollar_auction_v100"],
    "check": ["matching_pennies_seq", "zero_one_cyclic", "zero_one_param", "dollar_auction_v100"],
    "unfold": ["zero_one_cyclic"],
    "auction": [],
    "simulate": ["zero_one_cyclic", "zero_one_param", "dollar_auction_v100"],
    "matrix": ["matching_pennies_matrix", "rps", "rps_zerosum"],
    "export": list(GAMES),
}

_PIECES = re.compile(r"\s+|#[^\n]*|->|\w+|.")
_REPLACEMENTS = ["{", "}", "(", ")", ",", ";", ":", "=", "->", "+", "*", "leaf", "advance", "n", "A", "0", "-1", "99"]


@st.composite
def documents(draw, texts: list[str]) -> str:
    """A corpus text, or a copy with one token dropped, duplicated or
    replaced, or cut off before it, or with one number made 4,299, 4,300 or
    4,301 digits long, around the default limit on the digits ``int`` reads."""
    text = draw(st.sampled_from(texts))
    how = draw(st.sampled_from(["keep", "keep", "keep", "drop", "duplicate", "replace", "truncate", "lengthen"]))
    if how == "keep":
        return text
    pieces = _PIECES.findall(text)
    if how == "lengthen":
        numbers = [k for k, piece in enumerate(pieces) if piece.isdecimal()]
        if numbers:
            pieces[draw(st.sampled_from(numbers))] = "9" * draw(st.sampled_from([4299, 4300, 4301]))
        return "".join(pieces)
    i = draw(st.sampled_from([k for k, piece in enumerate(pieces) if not piece.isspace()]))
    if how == "truncate":
        return "".join(pieces[:i])
    if how == "drop":
        pieces[i] = ""
    elif how == "duplicate":
        pieces[i] += " " + pieces[i]
    else:
        pieces[i] = draw(st.sampled_from(_REPLACEMENTS))
    return "".join(pieces)


@st.composite
def invocations(draw) -> tuple[list[str], str | None, str, bool]:
    """Argv with ``{game}``/``{profile}`` placeholders, the game text (None
    for a missing file), the profile text and whether to rerun with ``--out``."""
    command = draw(st.sampled_from(list(FITTING)))
    names = draw(st.sampled_from([list(GAMES), FITTING[command] or list(GAMES)]))
    game = None if draw(st.integers(0, 19)) == 0 else draw(documents([GAMES[name] for name in names]))
    profile = draw(documents(PROFILES))

    def option(flag: str, values: list[str]) -> list[str]:
        return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []

    if command == "solve":
        argv = ["{game}", *option("--ties", ["first", "last"])]
    elif command == "enumerate":
        argv = ["{game}", *option("--cap", EDGE)]
    elif command == "check":
        argv = ["{game}", "--profile", "{profile}"]
    elif command == "unfold":
        argv = ["{game}", "--depth", draw(st.sampled_from(EDGE)), "--terminal", draw(st.sampled_from(TERMINALS))]
    elif command == "auction":
        argv = ["--value", draw(st.sampled_from(EDGE)), *option("--max-stage", EDGE), *option("--terminal", TERMINALS)]
    elif command == "simulate":
        argv = ["{game}", "--horizon", draw(st.sampled_from(EDGE))]
        argv += [*option("--seed", EDGE), *option("--policy", POLICIES)]
    elif command == "matrix":
        argv = ["{game}"]
    else:
        argv = ["{game}", "--dot", *option("--profile", ["{profile}"])]
    return [command, *argv, *option("--format", ["text", "json"])], game, profile, draw(st.booleans())


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _argparse_accepts(argv: list[str]) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


def _is_truncated_report(argv: list[str], emitted: str) -> bool:
    if "json" in argv:
        return json.loads(emitted)["truncated"] is True
    return " (truncated)" in emitted.splitlines()[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> pathlib.Path:
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_cli_contract_holds_on_seeded_argv(workdir, invocation):
    template, game, profile, with_out = invocation
    game_path, profile_path, out_path = workdir / "game.game", workdir / "p.profile", workdir / "out.txt"
    game_path.unlink(missing_ok=True)
    if game is not None:
        game_path.write_text(game, encoding="utf-8")
    profile_path.write_text(profile, encoding="utf-8")
    argv = [arg.format(game=game_path, profile=profile_path) for arg in template]
    command, as_json = argv[0], "json" in argv

    if game is not None:
        try:
            dsl.parse(game)
        except dsl.ParseError:
            pass
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err, argv
    assert _run(argv) == (code, out, err), argv
    if code in (0, 1):
        assert err == "", argv
    elif code in (2, 4) and _argparse_accepts(argv):
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, (argv, out, err)
    elif code == 3:
        limit = out == "" and err.startswith("limit: ") and err.count("\n") == 1
        assert limit or (command == "enumerate" and err == "" and _is_truncated_report(argv, out)), (argv, out, err)
    analysed = code in (0, 1) or (code == 3 and err == "")
    if analysed and as_json and command != "export":
        json.loads(out)

    if with_out:
        out_path.unlink(missing_ok=True)
        code_out, out_out, err_out = _run([*argv, "--out", str(out_path)])
        assert (code_out, err_out) == (code, err), argv
        if analysed and command == "simulate":
            assert out_out == out, argv
            assert out_path.read_text(encoding="utf-8").endswith("\n"), argv
        elif analysed:
            assert out_out == "", argv
            assert out_path.read_text(encoding="utf-8") == out, argv
