"""Command-line front end.

Exit status: 0 success, 1 negative analysis (a checked profile is not an
equilibrium), 2 usage or parse error, 3 internal limit hit (enumeration cap
or search-space bound), 4 resource limit hit (recursion depth or memory).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import cyclic as cy
from . import dsl
from . import escalation as esc
from . import finite as fin
from . import parametric as par
from .core import GameError, Leaf, Node, induced_play
from .matrix import MatrixGame, solve_constant_sum

_PROFILE_HELP = (
    "profile files have one 'key = action' line per decision point; keys are "
    "node/shape names for cyclic and param games, and space-separated action "
    "paths (with '.' for the root) for finite trees; '#' starts a comment"
)


def _load_doc(path: str) -> dsl.GameDoc:
    with open(path, "r", encoding="utf-8") as handle:
        return dsl.parse(handle.read())


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render(args: argparse.Namespace, payload: dict[str, Any], text_lines: list[str]) -> None:
    if args.format == "json":
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _emit(args, "\n".join(text_lines) + "\n")


def _outcome_text(outcome: tuple) -> str:
    return ",".join(str(v) for v in outcome)


def _profile_json(game, profile) -> dict[str, str]:
    if isinstance(game, (Leaf, Node)):
        return {dsl.render_tree_path(path): action for path, action in profile.items()}
    return dict(profile)


def _profile_text(game, profile) -> str:
    items = sorted(_profile_json(game, profile).items())
    return ", ".join(f"{key}={action}" for key, action in items)


def _value_json(value: object) -> object:
    return value if isinstance(value, int) else str(value)


def _report_json(game, report: fin.SpeReport) -> dict[str, Any]:
    def where(v: fin.Violation) -> str:
        return dsl.render_tree_path(v.where) if isinstance(v.where, tuple) else str(v.where)

    return {
        "ok": report.ok,
        "violations": [
            {
                "at": where(v),
                "action": v.action,
                "profile_value": _value_json(v.profile_value),
                "deviation_value": _value_json(v.deviation_value),
            }
            for v in report.violations
        ],
        "divergences": list(report.divergences),
    }


def _report_text(game, report: fin.SpeReport) -> list[str]:
    lines = [f"ok: {'yes' if report.ok else 'no'}"]
    for name in report.divergences:
        lines.append(f"diverges from: {name}")
    for item in _report_json(game, report)["violations"]:
        lines.append(
            f"violation at {item['at']}: playing {item['action']} yields "
            f"{item['deviation_value']} > {item['profile_value']}"
        )
    return lines


def _kind(game) -> str:
    if isinstance(game, (Leaf, Node)):
        return "finite"
    if isinstance(game, cy.CyclicGame):
        return "cyclic"
    if isinstance(game, par.ParametricGame):
        return "param"
    return "matrix"


# --- commands -------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc.game, (Leaf, Node)):
        print(f"solve needs a finite game, got {_kind(doc.game)}", file=sys.stderr)
        return 2
    ties = fin.TiePolicy.FIRST_BRANCH if args.ties == "first" else fin.TiePolicy.LAST_BRANCH
    profile = fin.solve(doc.game, ties)
    play, outcome = induced_play(doc.game, profile)
    payload = {
        "command": "solve",
        "kind": "finite",
        "ties": args.ties,
        "profile": _profile_json(doc.game, profile),
        "play": list(play),
        "outcome": list(outcome),
    }
    text = [
        f"ties: {args.ties}",
        f"profile: {_profile_text(doc.game, profile)}",
        f"play: {' '.join(play) if play else '(empty)'}",
        f"outcome: {_outcome_text(outcome)}",
    ]
    _render(args, payload, text)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    doc = _load_doc(args.file)
    game = doc.game
    if isinstance(game, (Leaf, Node)):
        result = fin.enumerate_equilibria(game, cap=args.cap)
        entries = []
        plays = []
        for profile in result.profiles:
            play, outcome = induced_play(game, profile)
            plays.append(play)
            entries.append(
                {
                    "profile": _profile_json(game, profile),
                    "play": list(play),
                    "outcome": list(outcome),
                }
            )
        distinct = sorted(set(plays))
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
                f"{_outcome_text(entry['outcome'])}  [{_profile_text(game, entry['profile'])}]"
            )
        _render(args, payload, text)
        return 3 if result.truncated else 0
    if isinstance(game, cy.CyclicGame):
        accepted = cy.enumerate_positional_spe(game)
        entries = []
        for profile in accepted:
            result = cy.induced_outcome(game, profile)
            assert isinstance(result, cy.Converges)
            entries.append(
                {
                    "profile": dict(profile),
                    "path": list(result.path),
                    "outcome": list(result.outcome),
                }
            )
        payload = {
            "command": "enumerate",
            "kind": "cyclic",
            "profile_count": len(accepted),
            "equilibria": entries,
        }
        text = ["kind: cyclic", f"positional equilibria: {len(accepted)}"]
        for entry in entries:
            text.append(
                f"  {_profile_text(game, entry['profile'])} -> {_outcome_text(entry['outcome'])}"
            )
        _render(args, payload, text)
        return 0
    if isinstance(game, par.ParametricGame):
        accepted = par.enumerate_stationary_spe(game)
        entries = []
        for profile in accepted:
            result = par.induced_outcome_param(game, profile)
            assert isinstance(result, par.ConvergesAffine)
            entries.append(
                {
                    "profile": dict(profile),
                    "steps": result.steps,
                    "outcome_from_start": [v.at(0) for v in result.outcome],
                }
            )
        payload = {
            "command": "enumerate",
            "kind": "param",
            "profile_count": len(accepted),
            "equilibria": entries,
        }
        text = ["kind: param", f"stationary equilibria: {len(accepted)}"]
        for entry in entries:
            text.append(
                f"  {_profile_text(game, entry['profile'])} -> "
                f"{_outcome_text(entry['outcome_from_start'])} (from start)"
            )
        _render(args, payload, text)
        return 0
    print("enumerate does not apply to matrix games; use the matrix command", file=sys.stderr)
    return 2


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load_doc(args.file)
    game = doc.game
    if isinstance(game, MatrixGame):
        print("check does not apply to matrix games", file=sys.stderr)
        return 2
    with open(args.profile, "r", encoding="utf-8") as handle:
        profile = dsl.parse_profile_text(handle.read(), game)
    if isinstance(game, (Leaf, Node)):
        report = fin.check_spe(game, profile)
    elif isinstance(game, cy.CyclicGame):
        report = cy.check_spe_cyclic(game, profile)
    else:
        report = par.check_spe_param(game, profile)
    payload = {"command": "check", "kind": _kind(game), **_report_json(game, report)}
    _render(args, payload, _report_text(game, report))
    return 0 if report.ok else 1


def _cmd_unfold(args: argparse.Namespace) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc.game, cy.CyclicGame):
        print(f"unfold needs a cyclic game, got {_kind(doc.game)}", file=sys.stderr)
        return 2
    terminal = _parse_outcome(args.terminal)
    tree = cy.unfold(doc.game, args.depth, terminal)
    rendered = dsl.serialize(dsl.GameDoc(doc.players, tree))
    if args.format == "json":
        _emit(args, json.dumps({"command": "unfold", "game": rendered}, sort_keys=True) + "\n")
    else:
        _emit(args, rendered)
    return 0


def _parse_outcome(text: str) -> tuple[int, int]:
    try:
        first, second = (int(part.strip()) for part in text.split(","))
    except ValueError:
        raise GameError(f"expected an outcome like '1,0', got {text!r}") from None
    return first, second


def _cmd_auction(args: argparse.Namespace) -> int:
    game = par.dollar_auction(args.value)
    doc = dsl.GameDoc(("Alice", "Bertrand"), game)
    profiles = [(profile, par.check_spe_param(game, profile)) for profile in par.stationary_profiles(game)]
    equilibria = [profile for profile, report in profiles if report.ok]
    never_bid = {name: "a" for name in game.shapes}
    never_report = par.check_spe_param(game, never_bid)
    payload: dict[str, Any] = {
        "command": "auction",
        "value": args.value,
        "game": dsl.serialize(doc),
        "profiles": [
            {"profile": dict(profile), **_report_json(game, report)}
            for profile, report in profiles
        ],
        "equilibrium_count": len(equilibria),
        "equilibria": [dict(profile) for profile in equilibria],
        "never_bid": _report_json(game, never_report),
    }
    text = [f"value: {args.value}", f"stationary equilibria: {len(equilibria)}"]
    for profile in equilibria:
        text.append(f"  {_profile_text(game, profile)}")
    text.append("never-bid profile (abandon everywhere): " + ("equilibrium" if never_report.ok else "NOT an equilibrium"))
    text.extend("  " + line for line in _report_text(game, never_report)[1:])
    if args.max_stage is not None:
        terminal = _parse_outcome(args.terminal) if args.terminal else (0, 0)
        tree = par.instantiate(game, args.max_stage, terminal)
        result = fin.enumerate_equilibria(tree)
        outcomes = sorted({induced_play(tree, p)[1] for p in result.profiles})
        payload["truncation"] = {
            "max_stage": args.max_stage,
            "terminal": list(terminal),
            "profile_count": len(result.profiles),
            "outcomes": [list(o) for o in outcomes],
        }
        text.append(
            f"truncation at stage {args.max_stage} (terminal {_outcome_text(terminal)}): "
            f"{len(result.profiles)} backward-induction profiles, outcomes "
            + "; ".join(_outcome_text(o) for o in outcomes)
        )
    _render(args, payload, text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.format == "json" and args.seed is None:
        print("simulate requires --seed in JSON mode", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 0
    doc = _load_doc(args.file)
    game = doc.game
    if not isinstance(game, (cy.CyclicGame, par.ParametricGame)):
        print(f"simulate needs a cyclic or param game, got {_kind(game)}", file=sys.stderr)
        return 2
    if args.policy == "uniform":
        policy: esc.BeliefSelectionPolicy = esc.Uniform()
    else:
        try:
            _tag, _, rest = args.policy.partition(":")
            i, j = (int(part) for part in rest.split(","))
        except ValueError:
            print("policy must be 'uniform' or 'fixed:i,j'", file=sys.stderr)
            return 2
        policy = esc.FixedIndex((i, j))
    trace = esc.simulate(game, args.horizon, seed, policy)
    steps = [
        {
            "stage": step.stage,
            "mover": doc.players[step.mover],
            "belief": step.belief_index,
            "action": step.action,
        }
        for step in trace.steps
    ]
    payload = {
        "command": "simulate",
        "kind": _kind(game),
        "seed": seed,
        "policy": args.policy,
        "horizon": args.horizon,
        "steps": steps,
        "outcome": None if trace.outcome is None else list(trace.outcome),
        "horizon_hit": trace.horizon_hit,
    }
    text = [f"seed: {seed}", f"policy: {args.policy}", f"horizon: {args.horizon}"]
    for step in steps:
        text.append(f"  stage {step['stage']}: {step['mover']} (belief {step['belief']}) plays {step['action']}")
    if trace.horizon_hit:
        text.append("verdict: horizon hit (escalation)")
    else:
        text.append(f"verdict: terminated, outcome {_outcome_text(trace.outcome)}")
    if args.out:
        lines = [
            f"{step.stage},{doc.players[step.mover]},{step.belief_index},{step.action}"
            for step in trace.steps
        ]
        lines.append(
            "end,horizon"
            if trace.horizon_hit
            else "end,converged," + ",".join(str(v) for v in trace.outcome)
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        args.out = None  # trace went to the file; report goes to stdout
    _render(args, payload, text)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc.game, MatrixGame):
        print(f"matrix needs a matrix game, got {_kind(doc.game)}", file=sys.stderr)
        return 2
    profile = solve_constant_sum(doc.game)

    def frac(value: Fraction) -> str:
        return str(value)

    payload = {
        "command": "matrix",
        "rows": doc.game.rows,
        "cols": doc.game.cols,
        "sum": frac(doc.game.total),
        "row": [frac(p) for p in profile.row],
        "column": [frac(p) for p in profile.column],
        "value": frac(profile.value),
    }
    text = [
        f"row distribution: {' '.join(frac(p) for p in profile.row)}",
        f"column distribution: {' '.join(frac(p) for p in profile.column)}",
        f"value (row player): {frac(profile.value)}",
    ]
    _render(args, payload, text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    doc = _load_doc(args.file)
    profile = None
    if args.profile:
        with open(args.profile, "r", encoding="utf-8") as handle:
            profile = dsl.parse_profile_text(handle.read(), doc.game)
    _emit(args, dsl.to_dot(doc, profile))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgames",
        description="Equilibrium analysis for sequential games.",
        epilog=_PROFILE_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = True) -> None:
        p.add_argument("--format", choices=["text", "json"], default="text")
        if out:
            p.add_argument("--out", help="write output to PATH instead of stdout")

    p = sub.add_parser("solve", help="one backward-induction equilibrium of a finite game")
    p.add_argument("file")
    p.add_argument("--ties", choices=["first", "last"], default="first")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="all equilibria (finite profiles or positional/stationary)")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=fin.DEFAULT_CAP)
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="verify a profile file against a game")
    p.add_argument("file")
    p.add_argument("--profile", required=True, help=_PROFILE_HELP)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("unfold", help="unroll a cyclic game into a finite .game tree")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--terminal", required=True, help="outcome at the cut, e.g. '1,0'")
    common(p)
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("auction", help="build and analyse the unit-bid all-pay auction")
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--max-stage", type=int, default=None)
    p.add_argument("--terminal", default=None, help="truncation outcome (default 0,0)")
    common(p)
    p.set_defaults(func=_cmd_auction)

    p = sub.add_parser("simulate", help="memoryless agents re-selecting equilibrium beliefs")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--policy", default="uniform", help="'uniform' or 'fixed:i,j'")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("matrix", help="exact mixed equilibrium of a constant-sum matrix")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("export", help="DOT export, optionally highlighting a profile")
    p.add_argument("file")
    p.add_argument("--profile", default=None)
    p.add_argument("--dot", action="store_true", required=True)
    common(p)
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except dsl.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except par.SearchSpaceTooLarge as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"no such file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        detail = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except (GameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"limit: {type(exc).__name__}: input too large or too deeply nested", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
