"""Command-line front end.

Exit status: 0 success, 1 negative analysis (a checked profile is not an
equilibrium), 2 usage or parse error, 3 internal limit hit (enumeration cap,
search-space bound, matrix size, an exact answer too long to write), 4
resource limit (recursion depth or memory), 5 internal error (any other
exception: a fault of the program, never a verdict or a usage error).

``COMMANDS`` describes every command once. ``run`` reads a plain argv straight
from it (``_read``) and leaves any other argv to argparse, whose parser is built
from the same table; so argparse alone prints help and usage errors.

A command reads its game, analyses it and returns ``(payload, text_lines,
exit_code)``, writing nothing; ``run`` alone writes the JSON of the payload or
the joined lines, to ``--out`` or stdout. A ``None`` payload (``export``) means
the text whatever ``--format`` says. ``simulate`` adds its trace lines, which go
to ``--out`` while its report goes to stdout. Each command imports the modules
of the game kind it runs, read from ``KIND``; the graph and matrix commands
live in ``cli_kinds``, loaded on first use.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from . import _loader, dsl
from .core import DEFAULT_CAP, GameError, LimitExceeded, induced_play

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING`` without loading ``typing``
if TYPE_CHECKING:
    import argparse

# Loaded on first use, and read through ``_lazy``, this module: the graph and matrix commands, and the kernels.
_LAZY = {
    **dict.fromkeys(("_cmd_unfold", "_cmd_auction", "_cmd_simulate", "_cmd_matrix", "_enumerate_graph"), "cli_kinds"),
    **dict.fromkeys(("TiePolicy", "solve", "enumerate_equilibria", "check_spe"), "finite"),
    "check_spe_param": "parametric",
}
__getattr__, __dir__ = _loader(globals(), _LAZY)
_lazy = sys.modules[__name__]

_PROFILE_HELP = (
    "profile files have one 'key = action' line per decision point; keys are "
    "node/shape names for cyclic and param games, and space-separated action "
    "paths (with '.' for the root) for finite trees; '#' starts a comment"
)


# Each command's summary and arguments: a name and the keywords ``build_parser``
# passes for it to argparse's ``add_argument``, which ``_read`` reads as well:
# ``type``, ``default``, ``required``, ``choices``, ``help`` and a switch's action.
COMMANDS: dict[str, tuple[str, dict[str, dict]]] = {
    "solve": ("one backward-induction equilibrium of a finite game", {
        "file": {}, "--ties": {"choices": ("first", "last"), "default": "first"}}),
    "enumerate": ("all equilibria (finite profiles or positional/stationary)", {
        "file": {}, "--cap": {"type": int, "default": DEFAULT_CAP}}),
    "check": ("verify a profile file against a game", {
        "file": {}, "--profile": {"required": True, "help": _PROFILE_HELP}}),
    "unfold": ("unroll a cyclic game into a finite .game tree", {
        "file": {}, "--depth": {"type": int, "required": True},
        "--terminal": {"required": True, "help": "outcome at the cut, e.g. '1,0'"}}),
    "auction": ("build and analyse the unit-bid all-pay auction", {
        "--value": {"type": int, "required": True}, "--max-stage": {"type": int},
        "--terminal": {"help": "truncation outcome (default 0,0)"}}),
    "simulate": ("memoryless agents re-selecting equilibrium beliefs", {
        "file": {}, "--horizon": {"type": int, "required": True}, "--seed": {"type": int},
        "--policy": {"default": "uniform", "help": "'uniform' or 'fixed:i,j'"}}),
    "matrix": ("exact mixed equilibrium of a constant-sum matrix", {"file": {}}),
    "export": ("DOT export, optionally highlighting a profile", {
        "file": {}, "--profile": {}, "--dot": {"action": "store_true", "default": False, "required": True}}),
}
_COMMON = {  # every command's last two options
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--out": {"help": "write output to PATH instead of stdout"},
}


class _UsageError(Exception):
    """A command given a game kind or option value it does not take; ``run``
    prints the message as it is and exits 2."""


def _text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_game(args: SimpleNamespace, *kinds: str) -> dsl.GameDoc:
    """The game file of ``args``, which must hold a game of one of ``kinds``."""
    doc = dsl.parse(_text(args.file))
    if doc.game.KIND not in kinds:
        raise _UsageError(f"{args.command} needs a {' or '.join(kinds)} game, got {doc.game.KIND}")
    return doc


def _number(value: object) -> str:
    """``str(value)``, or ``LimitExceeded`` past the digits ``int`` writes (a limit read, never set)."""
    try:
        return str(value)
    except ValueError:
        raise _too_long() from None


def _too_long() -> LimitExceeded:
    return LimitExceeded(f"the exact answer has a number of more than {sys.get_int_max_str_digits()} digits")


def _outcome_text(outcome: tuple) -> str:
    return ",".join(_number(v) for v in outcome)


def _profile_json(profile) -> dict[str, str]:
    """A finite game's profile keyed by its rendered action paths."""
    return {dsl.render_tree_path(path): action for path, action in profile.items()}


def _profile_text(profile: dict[str, str]) -> str:
    """A profile as ``_profile_json`` renders it, as sorted ``key=action`` pairs."""
    return ", ".join(f"{key}={action}" for key, action in sorted(profile.items()))


def _value_json(value: object, kind: str) -> object:
    """An int as it is, a cyclic game's payoff (the same at every stage) as its int,
    a param game's as its formula."""
    if isinstance(value, int):
        return value
    return value.at(0) if kind == "cyclic" else _number(value)  # type: ignore[attr-defined]


def _report_json(report, kind: str) -> dict:
    violations = [
        {"at": dsl.render_tree_path(v.where) if kind == "finite" else v.where, "action": v.action,
         "profile_value": _value_json(v.profile_value, kind), "deviation_value": _value_json(v.deviation_value, kind)}
        for v in report.violations
    ]
    return {"ok": report.ok, "violations": violations, "divergences": list(report.divergences)}


def _report_text(report: dict) -> list[str]:
    """The text lines of a ``_report_json`` report."""
    lines = [f"ok: {'yes' if report['ok'] else 'no'}"]
    lines += [f"diverges from: {name}" for name in report["divergences"]]
    for item in report["violations"]:
        lines.append(
            f"violation at {item['at']}: playing {item['action']} yields "
            f"{item['deviation_value']} > {item['profile_value']}"
        )
    return lines


# --- commands -------------------------------------------------------------


def _cmd_solve(args: SimpleNamespace) -> tuple[dict, list[str], int]:
    doc = _load_game(args, "finite")
    profile = _lazy.solve(doc.game, _lazy.TiePolicy(args.ties))
    play, outcome = induced_play(doc.game, profile)
    payload = {
        "command": "solve",
        "kind": "finite",
        "ties": args.ties,
        "profile": _profile_json(profile),
        "play": list(play),
        "outcome": list(outcome),
    }
    text = [
        f"ties: {args.ties}",
        f"profile: {_profile_text(payload['profile'])}",
        f"play: {' '.join(play) if play else '(empty)'}",
        f"outcome: {_outcome_text(outcome)}",
    ]
    return payload, text, 0


def _cmd_enumerate(args: SimpleNamespace) -> tuple[dict, list[str], int]:
    game = dsl.parse(_text(args.file)).game
    kind = game.KIND
    if kind == "matrix":
        raise _UsageError("enumerate does not apply to matrix games; use the matrix command")
    if kind == "finite":
        result = _lazy.enumerate_equilibria(game, cap=args.cap)
        entries = []
        for profile in result.profiles:
            play, outcome = induced_play(game, profile)
            entries.append({"profile": _profile_json(profile), "play": list(play), "outcome": list(outcome)})
        distinct = sorted({tuple(entry["play"]) for entry in entries})
        payload = {
            "command": "enumerate",
            "kind": "finite",
            "profile_count": len(result.profiles),
            "play_line_count": len(distinct),
            "play_lines": [list(p) for p in distinct],
            "truncated": result.truncated,
            "equilibria": entries,
        }
        text = [
            "kind: finite",
            f"profiles: {len(result.profiles)}" + (" (truncated)" if result.truncated else ""),
            f"distinct play lines: {len(distinct)}",
        ]
        for entry in entries:
            text.append(
                f"  play {' '.join(entry['play']) or '(empty)'} -> "
                f"{_outcome_text(entry['outcome'])}  [{_profile_text(entry['profile'])}]"
            )
        return payload, text, 3 if result.truncated else 0
    return _lazy._enumerate_graph(game, kind)


def _cmd_check(args: SimpleNamespace) -> tuple[dict, list[str], int]:
    game = dsl.parse(_text(args.file)).game
    if game.KIND == "matrix":
        raise _UsageError("check does not apply to matrix games")
    profile = dsl.parse_profile_text(_text(args.profile), game)
    report = (_lazy.check_spe if game.KIND == "finite" else _lazy.check_spe_param)(game, profile)
    body = _report_json(report, game.KIND)
    return {"command": "check", "kind": game.KIND, **body}, _report_text(body), 0 if report.ok else 1


def _cmd_export(args: SimpleNamespace) -> tuple[None, list[str], int]:
    doc = dsl.parse(_text(args.file))
    profile = dsl.parse_profile_text(_text(args.profile), doc.game) if args.profile else None
    return None, [dsl.to_dot(doc, profile)[:-1]], 0  # less the final newline


def build_parser() -> argparse.ArgumentParser:
    """Argparse's parser for ``COMMANDS``, which ``run`` builds only for an argv
    that ``_read`` leaves to it: help, a usage error or another form."""
    import argparse  # here only, so that an argv the table reads never loads it

    description = "Equilibrium analysis for sequential games."
    parser = argparse.ArgumentParser(prog="seqgames", description=description, epilog=_PROFILE_HELP)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in {**arguments, **_COMMON}.items():
            p.add_argument(flag, **keywords)
    return parser


_parser = functools.cache(build_parser)  # one parser per process: parsing leaves it as it was


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for a plain ``argv``, read from ``COMMANDS`` alone:
    a command, then whole flags of it, each with its one value unless it is a switch,
    and its file; no value or file starts with '-', each value passes its ``type``
    and ``choices``, and every required flag is given.  None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments, given, words = {**COMMANDS[argv[0]][1], **_COMMON}, {}, iter(argv[1:])
    for word in words:
        keywords = arguments.get(word)
        if word[:1] != "-":  # the file, once
            if "file" not in arguments or "file" in given:
                return None
            given["file"] = word
        elif keywords is None:
            return None
        elif keywords.get("action") == "store_true":
            given[word] = True
        else:
            value = next(words, "-")
            try:
                given[word] = keywords.get("type", str)(value)
            except ValueError:
                return None
            if value[:1] == "-" or "choices" in keywords and given[word] not in keywords["choices"]:
                return None
    if any((name == "file" or k.get("required")) and name not in given for name, k in arguments.items()):
        return None
    names = {name: name.lstrip("-").replace("-", "_") for name in arguments}
    return SimpleNamespace(command=argv[0], **{names[n]: given.get(n, k.get("default")) for n, k in arguments.items()})


def run(argv: list[str]) -> int:
    args = _read(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(_parser().parse_args(argv)))  # as ``_read`` returns it
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:  # ``_cmd_<command>`` is looked up on every run, so a patched command runs
        payload, lines, code, *trace = getattr(_lazy, f"_cmd_{args.command}")(args)
        if payload is not None and args.format == "json":
            import json  # here only, so a text command never loads it
            try:
                lines = [json.dumps(payload, sort_keys=True)]
            except ValueError:  # an int past the digit limit: no other ValueError reaches here
                raise _too_long() from None
        writes = [(args.out, lines)]
        if trace and args.out:  # simulate: the trace goes to --out first, then the report to stdout
            writes = [(args.out, trace[0]), (None, lines)]
        for path, text in writes:
            if path:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(text) + "\n")
            else:
                sys.stdout.write("\n".join(text) + "\n")
        return code
    except _UsageError as exc:
        message, code = str(exc), 2
    except dsl.ParseError as exc:
        message, code = f"parse error: {exc}", 2
    except LimitExceeded as exc:
        message, code = f"limit: {exc}", 3
    except FileNotFoundError as exc:
        message, code = f"no such file: {exc.filename}", 2
    except OSError as exc:
        detail = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        message, code = f"error: {detail}", 2
    except (GameError, UnicodeDecodeError) as exc:
        message, code = f"error: {exc}", 2
    except (RecursionError, MemoryError) as exc:
        message, code = f"limit: {type(exc).__name__}: input too large or too deeply nested", 4
    except Exception as exc:
        message, code = f"internal error: {type(exc).__name__}: {exc}", 5
    print(message, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # run ``seqgames.cli``, the module ``cli_kinds`` imports, not this copy of it
    __import__(f"{__package__}.cli").cli.main()
