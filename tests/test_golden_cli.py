"""Golden CLI corpus: exit code, stdout and stderr of ``cli.run`` pinned byte
for byte over the canonical corpus.

Every ``corpus/*.game`` is run through ``solve`` (both tie policies),
``matrix``, ``enumerate``, ``check`` and ``export --dot`` (with and without
each ``corpus/profiles/*.profile``), ``simulate --horizon 40`` (three
policies, two seeds) and ``unfold --depth 6``; ``auction`` runs at two
sizes.  Each case runs in text and in JSON.
Only cases that exit 0 or 1 are stored, so the file holds analyses rather
than usage errors.  Paths are relative to the repository root, which is
the working directory while a case runs.

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
    return [argv + fmt for argv in base for fmt in ([], ["--format", "json"])]


def run_case(argv: list[str]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict[str, object]]:
    # A missing file yields no cases here and fails the coverage test below.
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case):
    assert run_case(case["argv"]) == case


def test_golden_covers_every_analysing_case():
    stored = {tuple(case["argv"]) for case in _load()}
    for argv in candidate_cases():
        if tuple(argv) not in stored:
            assert run_case(argv)["code"] not in (0, 1), argv


if __name__ == "__main__":
    kept = [case for case in map(run_case, candidate_cases()) if case["code"] in (0, 1)]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(kept)} cases written to {GOLDEN.relative_to(ROOT)}")
