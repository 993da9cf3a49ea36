"""Golden CLI corpus: exit code, stdout and stderr of ``cli.run`` pinned byte
for byte over the canonical corpus.

Every ``corpus/*.game`` is run through ``solve`` (both tie policies),
``matrix``, ``enumerate``, ``check`` and ``export --dot`` (with and without
each ``corpus/profiles/*.profile``), ``simulate --horizon 40`` (three
policies, two seeds) and ``unfold --depth 6``; ``auction`` runs at two
sizes.  Edge values and malformed options (``--policy`` forms, a zero cap,
depth, value or stage, a bad ``--terminal``, a negative horizon, JSON
``simulate`` without ``--seed``, a missing game file) follow.  Each of
these cases runs in text and in JSON.  Last come the ``--help`` screens of
the program and of every subcommand.

Every candidate is stored whatever its exit code, so the usage errors of
exit 2 (the one-line messages of the commands and argparse's usage text)
are pinned as tightly as the analyses.  Paths are relative to the
repository root, which is the working directory while a case runs, and
``COLUMNS`` is 80 so that argparse wraps its usage and help text the same
way on every terminal.  Argparse's own wording is that of the Python
versions CI runs (3.10 and 3.11).

Each stored case that a command answers (exit 0, 1 or 3) also runs its
``_cmd_*`` directly, with and without ``--out``: the command must write
nothing and return its result, which ``run`` then writes byte for byte.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

import pytest

from seqgames import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_corpus.json"
COMMANDS = ("solve", "enumerate", "check", "unfold", "auction", "simulate", "matrix", "export")


def candidate_cases() -> list[list[str]]:
    games = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus").glob("*.game"))
    profiles = sorted(
        p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus" / "profiles").glob("*.profile")
    )
    base: list[list[str]] = []
    for game in games:
        base.append(["solve", game])
        base.append(["solve", game, "--ties", "last"])
        base.append(["matrix", game])
        base.append(["enumerate", game])
        base.append(["export", game, "--dot"])
        for profile in profiles:
            base.append(["check", game, "--profile", profile])
            base.append(["export", game, "--dot", "--profile", profile])
        for policy in ("uniform", "fixed:0,1", "fixed:1,0"):
            for seed in ("1", "7"):
                base.append(
                    ["simulate", game, "--horizon", "40", "--policy", policy, "--seed", seed]
                )
        base.append(["unfold", game, "--depth", "6", "--terminal", "1,0"])
    base.append(["auction", "--value", "100"])
    base.append(["auction", "--value", "3", "--max-stage", "5"])
    loop = "corpus/zero_one_cyclic.game"
    for policy in ("fixed", "fixed:1", "fixed:a,b", "uniform:1", "fixed:2,0", "bogus:1,0"):
        base.append(["simulate", loop, "--horizon", "5", "--seed", "1", "--policy", policy])
    base.append(["simulate", loop, "--horizon", "5"])
    base.append(["simulate", loop, "--horizon", "-1", "--seed", "1"])
    base.append(["enumerate", "corpus/zero_one_7.game", "--cap", "0"])
    base.append(["enumerate", loop, "--cap", "0"])
    base.append(["auction", "--value", "0"])
    base.append(["auction", "--value", "3", "--max-stage", "0"])
    base.append(["unfold", loop, "--depth", "0", "--terminal", "1,0"])
    base.append(["unfold", loop, "--depth", "1", "--terminal", "1"])
    base.append(["solve", "corpus/no_such.game"])
    helps = [["--help"]] + [[command, "--help"] for command in COMMANDS]
    return [argv + fmt for argv in base for fmt in ([], ["--format", "json"])] + helps


def run_case(argv: list[str]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict[str, object]]:
    # A missing file yields no cases here and fails the coverage test below.
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case):
    assert run_case(case["argv"]) == case


def _answered() -> list[list[str]]:
    """The stored argv that argparse accepts and a command answers (exit 0, 1 or 3)."""
    return [case["argv"] for case in _load() if case["code"] in (0, 1, 3) and "--help" not in case["argv"]]


@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv", _answered(), ids=" ".join)
def test_commands_return_their_result_and_run_writes_it(argv, with_out, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    target = tmp_path / "out.txt"
    argv = [*argv, "--out", str(target)] if with_out else list(argv)
    args = cli._parser().parse_args(argv)
    result = getattr(cli, f"_cmd_{args.command}")(args)
    assert capsys.readouterr() == ("", "")
    assert not target.exists()
    assert type(result) is tuple and len(result) == (4 if args.command == "simulate" else 3)
    payload, lines, code = result[:3]
    if payload is not None and args.format == "json":
        expected = json.dumps(payload, sort_keys=True) + "\n"
    else:
        expected = "\n".join(lines) + "\n"
    assert cli.run(argv) == code
    printed = capsys.readouterr()
    assert printed.err == ""
    if not with_out:
        assert printed.out == expected
    elif args.command == "simulate":  # the trace goes to --out, the report to stdout
        assert printed.out == expected
        assert target.read_text(encoding="utf-8") == "\n".join(result[3]) + "\n"
    else:
        assert printed.out == ""
        assert target.read_text(encoding="utf-8") == expected


def test_golden_covers_every_analysing_case():
    stored = {tuple(case["argv"]) for case in _load()}
    for argv in candidate_cases():
        assert tuple(argv) in stored, argv


if __name__ == "__main__":
    cases = [run_case(argv) for argv in candidate_cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases written to {GOLDEN.relative_to(ROOT)}")
