"""The graph and matrix commands (``unfold``, ``auction``, ``simulate``, ``matrix``, the graph half of
``enumerate``), which ``cli`` loads on first use.  Each imports the modules of the kind it runs."""

from __future__ import annotations

from types import SimpleNamespace

from . import dsl
from .cli import _UsageError, _load_game, _number, _outcome_text, _profile_text, _report_json, _report_text
from .core import GameError, induced_play


def _enumerate_graph(game, kind: str) -> tuple[dict, list[str], int]:
    from .parametric import enumerate_stationary_spe, induced_outcome_param
    if kind == "cyclic":
        route_key, outcome_key, suffix = "path", "outcome", ""
    else:
        route_key, outcome_key, suffix = "steps", "outcome_from_start", " (from start)"
    accepted = enumerate_stationary_spe(game)
    entries = []
    for profile in accepted:
        result = induced_outcome_param(game, profile)
        entries.append(
            {
                "profile": dict(profile),
                route_key: list(result.path) if kind == "cyclic" else result.steps,
                outcome_key: [v.at(0) for v in result.outcome],  # stage 0, where play from the start enters
            }
        )
    payload = {"command": "enumerate", "kind": kind, "profile_count": len(accepted), "equilibria": entries}
    text = [f"kind: {kind}", f"{game.PROFILE} equilibria: {len(accepted)}"]
    for entry in entries:
        text.append(f"  {_profile_text(entry['profile'])} -> {_outcome_text(entry[outcome_key])}{suffix}")
    return payload, text, 0


def _cmd_unfold(args: SimpleNamespace) -> tuple[dict, list[str], int]:
    from .parametric import instantiate
    doc = _load_game(args, "cyclic")
    terminal = _parse_outcome(args.terminal)
    if args.depth < 1:  # worded for the command, not as instantiate's max_stage
        raise ValueError("depth must be positive")
    tree = instantiate(doc.game, args.depth, terminal)
    rendered = dsl.serialize(dsl.GameDoc(doc.players, tree))
    return {"command": "unfold", "game": rendered}, [rendered[:-1]], 0  # less the final newline


def _parse_outcome(text: str) -> tuple[int, int]:
    try:
        first, second = (int(part.strip()) for part in text.split(","))
    except ValueError:
        raise GameError(f"expected an outcome like '1,0', got {text!r}") from None
    return first, second


def _cmd_auction(args: SimpleNamespace) -> tuple[dict, list[str], int]:
    from .parametric import check_spe_param, dollar_auction, instantiate, stationary_profiles
    game = dollar_auction(args.value)
    terminal = (0, 0) if args.terminal is None else _parse_outcome(args.terminal)
    doc = dsl.GameDoc(("Alice", "Bertrand"), game)
    profiles = [(profile, check_spe_param(game, profile)) for profile in stationary_profiles(game)]
    equilibria = [profile for profile, report in profiles if report.ok]
    never_report = profiles[0][1]  # the first stationary profile abandons ("a") at every shape
    payload: dict = {
        "command": "auction",
        "value": args.value,
        "game": dsl.serialize(doc),
        "profiles": [{"profile": dict(profile), **_report_json(report, "param")} for profile, report in profiles],
        "equilibrium_count": len(equilibria),
        "equilibria": [dict(profile) for profile in equilibria],
        "never_bid": _report_json(never_report, "param"),
    }
    text = [f"value: {args.value}", f"stationary equilibria: {len(equilibria)}"]
    text.extend(f"  {_profile_text(profile)}" for profile in payload["equilibria"])
    text.append("never-bid profile (abandon everywhere): " + ("equilibrium" if never_report.ok else "NOT an equilibrium"))
    text.extend("  " + line for line in _report_text(payload["never_bid"])[1:])
    if args.max_stage is not None:
        from .finite import enumerate_equilibria
        tree = instantiate(game, args.max_stage, terminal)
        result = enumerate_equilibria(tree)
        outcomes = sorted({induced_play(tree, p)[1] for p in result.profiles})
        payload["truncation"] = {"max_stage": args.max_stage, "terminal": list(terminal),
                                 "profile_count": len(result.profiles), "outcomes": [list(o) for o in outcomes]}
        text.append(
            f"truncation at stage {args.max_stage} (terminal {_outcome_text(terminal)}): "
            f"{len(result.profiles)} backward-induction profiles, outcomes "
            + "; ".join(_outcome_text(o) for o in outcomes)
        )
    return payload, text, 0


def _cmd_simulate(args: SimpleNamespace) -> tuple[dict, list[str], int, list[str]]:
    from .escalation import BeliefSelectionPolicy, FixedIndex, Uniform, simulate
    if args.format == "json" and args.seed is None:
        raise _UsageError("simulate requires --seed in JSON mode")
    seed = args.seed if args.seed is not None else 0
    doc = _load_game(args, "cyclic", "param")
    game = doc.game
    if args.policy == "uniform":
        policy: BeliefSelectionPolicy = Uniform()
    else:
        tag, _, rest = args.policy.partition(":")
        try:
            if tag != "fixed":
                raise ValueError(tag)
            i, j = (int(part) for part in rest.split(","))
        except ValueError:
            raise _UsageError("policy must be 'uniform' or 'fixed:i,j'") from None
        policy = FixedIndex((i, j))
    trace = simulate(game, args.horizon, seed, policy)
    steps = [
        {"stage": step.stage, "mover": doc.players[step.mover], "belief": step.belief_index, "action": step.action}
        for step in trace.steps
    ]
    payload = {
        "command": "simulate",
        "kind": game.KIND,
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
    lines = [f"{step['stage']},{step['mover']},{step['belief']},{step['action']}" for step in steps]
    lines.append("end,horizon" if trace.horizon_hit else "end,converged," + _outcome_text(trace.outcome))
    return payload, text, 0, lines


def _cmd_matrix(args: SimpleNamespace) -> tuple[dict, list[str], int]:
    from .matrix import solve_constant_sum
    doc = _load_game(args, "matrix")
    profile = solve_constant_sum(doc.game)
    payload = {  # each exact number is written once, and the lines read it from the payload
        "command": "matrix",
        "rows": doc.game.rows,
        "cols": doc.game.cols,
        "sum": _number(doc.game.total),
        "row": [_number(p) for p in profile.row],
        "column": [_number(p) for p in profile.column],
        "value": _number(profile.value),
    }
    text = [
        f"row distribution: {' '.join(payload['row'])}",
        f"column distribution: {' '.join(payload['column'])}",
        f"value (row player): {payload['value']}",
    ]
    return payload, text, 0

