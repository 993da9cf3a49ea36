"""Command-line surface: exit codes, text/JSON output, file side effects."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
from helpers import chain01

from seqgames import cli
from seqgames.cli import run
from seqgames.dsl import parse


def invoke(capsys, *argv: str) -> tuple[int, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSolve:
    def test_seven_round_chain(self, capsys, corpus_dir):
        code, out = invoke(capsys, "solve", str(corpus_dir / "zero_one_7.game"))
        assert code == 0
        assert "outcome: 1,0" in out

    def test_json_output(self, capsys, corpus_dir):
        code, out = invoke(
            capsys, "solve", str(corpus_dir / "zero_one_7.game"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "solve"
        assert payload["outcome"] == [1, 0]
        assert payload["profile"]["."] == "c"

    def test_last_branch_ties(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "solve",
            str(corpus_dir / "matching_pennies_seq.game"),
            "--ties",
            "last",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["play"] == ["f", "p", "p"]

    def test_rejects_cyclic_input(self, capsys, corpus_dir):
        code, _out = invoke(capsys, "solve", str(corpus_dir / "zero_one_cyclic.game"))
        assert code == 2


class TestEnumerate:
    def test_cyclic_loop_has_two(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "enumerate",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["profile_count"] == 2
        assert [e["profile"] for e in payload["equilibria"]] == [
            {"A": "a", "B": "c"},
            {"A": "c", "B": "a"},
        ]

    def test_finite_reports_both_counts(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "enumerate",
            str(corpus_dir / "matching_pennies_seq.game"),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["profile_count"] == 2
        assert payload["play_line_count"] == 2
        assert payload["play_lines"] == [["f", "p", "p"], ["p", "f", "f"]]

    def test_truncation_exits_3(self, capsys, corpus_dir, tmp_path):
        # all-tied chain: 2^6 equilibria, cap below that
        from seqgames.dsl import GameDoc, serialize
        from seqgames.core import leaf, node

        game = leaf(1, 1)
        for _ in range(6):
            game = node(0, ("x", leaf(1, 1)), ("y", game))
        path = tmp_path / "tied.game"
        path.write_text(serialize(GameDoc(("Alice", "Bertrand"), game)))
        code, out = invoke(capsys, "enumerate", str(path), "--cap", "8", "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["truncated"] is True
        assert payload["profile_count"] == 8

    def test_param_enumerate(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "enumerate",
            str(corpus_dir / "dollar_auction_v100.game"),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["profile_count"] == 2

    def test_matrix_rejected(self, capsys, corpus_dir):
        code, _out = invoke(capsys, "enumerate", str(corpus_dir / "rps.game"))
        assert code == 2

    def test_text_names_tree_nodes_as_solve_and_json_do(self, capsys, tmp_path):
        # Multi-character labels three levels deep: a key is its path's labels joined by one blank.
        from seqgames.core import leaf, node
        from seqgames.dsl import GameDoc, serialize

        inner = node(1, ("up", node(0, ("stay", leaf(1, 1)), ("go", leaf(0, 0)))), ("down", leaf(0, 2)))
        path = tmp_path / "labels.game"
        path.write_text(serialize(GameDoc(("Alice", "Bertrand"), node(0, ("left", inner), ("right", leaf(-1, 0))))))
        _, out = invoke(capsys, "enumerate", str(path), "--format", "json")
        profile = json.loads(out)["equilibria"][0]["profile"]
        pairs = ", ".join(f"{key}={action}" for key, action in sorted(profile.items()))
        assert pairs == ".=left, left=down, left up=stay"
        assert invoke(capsys, "solve", str(path))[1].splitlines()[1] == f"profile: {pairs}"
        assert invoke(capsys, "enumerate", str(path)) == (
            0, f"kind: finite\nprofiles: 1\ndistinct play lines: 1\n  play left down -> 0,2  [{pairs}]\n"
        )


class TestCheck:
    def test_never_bid_fails_with_witness(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "check",
            str(corpus_dir / "dollar_auction_v100.game"),
            "--profile",
            str(corpus_dir / "profiles" / "never_bid.profile"),
            "--format",
            "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        witness = next(v for v in payload["violations"] if v["at"] == "A")
        assert witness["profile_value"] == "1-1*n"
        assert witness["deviation_value"] == "99-1*n"

    def test_accepted_stationary_profile(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "check",
            str(corpus_dir / "dollar_auction_v100.game"),
            "--profile",
            str(corpus_dir / "profiles" / "alice_continues.profile"),
        )
        assert code == 0
        assert "ok: yes" in out

    def test_tree_profile(self, capsys, corpus_dir):
        code, _out = invoke(
            capsys,
            "check",
            str(corpus_dir / "matching_pennies_seq.game"),
            "--profile",
            str(corpus_dir / "profiles" / "pennies_eq_first.profile"),
        )
        assert code == 0

    def test_cyclic_profiles(self, capsys, corpus_dir):
        for name in ("loop_alice_abandons.profile", "loop_alice_continues.profile"):
            code, _out = invoke(
                capsys,
                "check",
                str(corpus_dir / "zero_one_cyclic.game"),
                "--profile",
                str(corpus_dir / "profiles" / name),
            )
            assert code == 0

    @pytest.mark.parametrize(
        "profile, text, payload",
        [
            (
                "A = a\nB = a\n",
                "ok: no\n"
                "violation at A: playing c yields 1 > 0\n"
                "violation at B: playing c yields 1 > 0\n",
                '{"command": "check", "divergences": [], "kind": "cyclic", "ok": false, "violations": ['
                '{"action": "c", "at": "A", "deviation_value": 1, "profile_value": 0}, '
                '{"action": "c", "at": "B", "deviation_value": 1, "profile_value": 0}]}\n',
            ),
            (
                "A = c\nB = c\n",
                "ok: no\ndiverges from: A\ndiverges from: B\n",
                '{"command": "check", "divergences": ["A", "B"], "kind": "cyclic", "ok": false, '
                '"violations": []}\n',
            ),
        ],
        ids=["both_abandon", "both_continue"],
    )
    def test_cyclic_rejections_are_pinned(self, capsys, corpus_dir, tmp_path, profile, text, payload):
        # A cyclic payoff is printed as its int, in JSON too: 1, never "1".
        path = tmp_path / "loop.profile"
        path.write_text(profile)
        game = str(corpus_dir / "zero_one_cyclic.game")
        assert invoke(capsys, "check", game, "--profile", str(path)) == (1, text)
        assert invoke(capsys, "check", game, "--profile", str(path), "--format", "json") == (1, payload)

    def test_tree_rejections_are_pinned(self, capsys, corpus_dir, tmp_path):
        # A tree payoff is an int and is printed as it is, in JSON too.
        path = tmp_path / "pennies.profile"
        path.write_text(". = p\np = p\np p = f\np f = p\nf = p\nf p = p\nf f = f\n")
        game = str(corpus_dir / "matching_pennies_seq.game")
        text = (
            "ok: no\n"
            "violation at p: playing f yields 2 > 1\n"
            "violation at p p: playing p yields 2 > 1\n"
            "violation at p f: playing f yields 1 > 0\n"
        )
        payload = (
            '{"command": "check", "divergences": [], "kind": "finite", "ok": false, "violations": ['
            '{"action": "f", "at": "p", "deviation_value": 2, "profile_value": 1}, '
            '{"action": "p", "at": "p p", "deviation_value": 2, "profile_value": 1}, '
            '{"action": "f", "at": "p f", "deviation_value": 1, "profile_value": 0}]}\n'
        )
        assert invoke(capsys, "check", game, "--profile", str(path)) == (1, text)
        assert invoke(capsys, "check", game, "--profile", str(path), "--format", "json") == (1, payload)

    @pytest.mark.parametrize(
        "game, profile, root_choice, message",
        [
            (
                "zero_one_7.game",
                "loop_alice_abandons.profile",
                None,
                "profile does not match game shape "
                "(missing [(), ('c',), ('c', 'c')], extra [('A',), ('B',)])",
            ),
            (
                "matching_pennies_seq.game",
                "pennies_eq_first.profile",
                "q",
                "choice 'q' at () is not a branch label",
            ),
        ],
    )
    def test_tree_profile_errors(
        self, capsys, corpus_dir, tmp_path, game, profile, root_choice, message
    ):
        path = corpus_dir / "profiles" / profile
        if root_choice is not None:
            edited = tmp_path / profile
            edited.write_text(path.read_text().replace(". = p", f". = {root_choice}"))
            path = edited
        code = run(["check", str(corpus_dir / game), "--profile", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestUnfold:
    def test_depth_seven_matches_corpus_file(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "unfold",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--depth",
            "7",
            "--terminal",
            "1,0",
        )
        assert code == 0
        assert out == (corpus_dir / "zero_one_7.game").read_text()
        assert parse(out).game == chain01(7)

    def test_rejects_finite_input(self, capsys, corpus_dir):
        code, _out = invoke(
            capsys,
            "unfold",
            str(corpus_dir / "zero_one_7.game"),
            "--depth",
            "3",
            "--terminal",
            "0,0",
        )
        assert code == 2

    @pytest.mark.parametrize("terminal", ["zero,one", "1", "1,2,3"])
    def test_bad_terminal(self, capsys, corpus_dir, terminal):
        code = run(
            [
                "unfold",
                str(corpus_dir / "zero_one_cyclic.game"),
                "--depth",
                "1",
                "--terminal",
                terminal,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: expected an outcome like '1,0', got {terminal!r}\n"

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_must_be_positive(self, capsys, corpus_dir, depth):
        argv = ["unfold", str(corpus_dir / "zero_one_cyclic.game"), "--depth", depth, "--terminal", "1,0"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: depth must be positive\n"


class TestAuction:
    def test_value_100(self, capsys):
        code, out = invoke(capsys, "auction", "--value", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equilibrium_count"] == 2
        assert payload["never_bid"]["ok"] is False
        assert {"A0": "c", "A": "c", "B": "a"} in payload["equilibria"]
        assert {"A0": "a", "A": "a", "B": "c"} in payload["equilibria"]

    def test_truncation_summary(self, capsys):
        code, out = invoke(
            capsys,
            "auction",
            "--value",
            "3",
            "--max-stage",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["truncation"]["profile_count"] == 3
        assert payload["truncation"]["outcomes"] == [[0, 0], [2, 0]]

    def test_text_mentions_never_bid(self, capsys):
        code, out = invoke(capsys, "auction", "--value", "100")
        assert code == 0
        assert "NOT an equilibrium" in out

    def test_invalid_value(self, capsys):
        code, _out = invoke(capsys, "auction", "--value", "0")
        assert code == 2

    @pytest.mark.parametrize("stage", [["--max-stage", "2"], []], ids=["with max-stage", "without max-stage"])
    def test_bad_terminal(self, capsys, stage):
        code = run(["auction", "--value", "3", *stage, "--terminal", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: expected an outcome like '1,0', got '1'\n"


class TestSimulate:
    def test_fixed_crossed_beliefs_hit_horizon(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "simulate",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--horizon",
            "10",
            "--seed",
            "0",
            "--policy",
            "fixed:1,0",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon_hit"] is True
        assert len(payload["steps"]) == 10
        assert all(step["action"] == "c" for step in payload["steps"])

    def test_json_requires_seed(self, capsys, corpus_dir):
        code, _out = invoke(
            capsys,
            "simulate",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--horizon",
            "10",
            "--format",
            "json",
        )
        assert code == 2

    def test_json_byte_deterministic(self, capsys, corpus_dir):
        args = (
            "simulate",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--horizon",
            "1000",
            "--seed",
            "9",
            "--format",
            "json",
        )
        _code, first = invoke(capsys, *args)
        _code, second = invoke(capsys, *args)
        assert first == second

    def test_trace_file_format(self, capsys, corpus_dir, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _out = invoke(
            capsys,
            "simulate",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--horizon",
            "1000",
            "--seed",
            "42",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[-1].startswith("end,")
        for line in lines[:-1]:
            stage, mover, belief, action = line.split(",")
            assert mover in ("Alice", "Bertrand")
            assert action in ("a", "c")
            assert belief in ("0", "1")
        # seed 42 on the loop: Alice continues, Bertrand abandons
        assert lines == ["0,Alice,1,c", "1,Bertrand,1,a", "end,converged,1,0"]

    @pytest.mark.parametrize("policy", ["fixed:2,0", "fixed:-1,0"])
    def test_belief_index_out_of_range_is_a_usage_error(self, capsys, corpus_dir, policy):
        code = run(
            [
                "simulate",
                str(corpus_dir / "zero_one_cyclic.game"),
                "--horizon",
                "5",
                "--seed",
                "1",
                "--policy",
                policy,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: belief index ")
        assert "2 beliefs" in captured.err

    def test_simulate_the_auction(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "simulate",
            str(corpus_dir / "dollar_auction_v100.game"),
            "--horizon",
            "50",
            "--seed",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "param"


class TestMatrix:
    def test_rps(self, capsys, corpus_dir):
        code, out = invoke(
            capsys, "matrix", str(corpus_dir / "rps.game"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["row"] == ["1/3", "1/3", "1/3"]
        assert payload["column"] == ["1/3", "1/3", "1/3"]
        assert payload["value"] == "1/2"

    def test_pennies_matrix(self, capsys, corpus_dir):
        code, out = invoke(
            capsys, "matrix", str(corpus_dir / "matching_pennies_matrix.game"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["row"] == ["1/2", "1/2"]

    def test_rejects_tree_input(self, capsys, corpus_dir):
        code, _out = invoke(capsys, "matrix", str(corpus_dir / "zero_one_7.game"))
        assert code == 2


class TestExport:
    def test_dot_with_highlight(self, capsys, corpus_dir):
        code, out = invoke(
            capsys,
            "export",
            str(corpus_dir / "zero_one_cyclic.game"),
            "--profile",
            str(corpus_dir / "profiles" / "loop_alice_abandons.profile"),
            "--dot",
        )
        assert code == 0
        assert out.startswith("digraph game {")
        assert out.count("penwidth=2,style=bold") == 2

    def test_out_file(self, capsys, corpus_dir, tmp_path):
        target = tmp_path / "graph.dot"
        code, out = invoke(
            capsys,
            "export",
            str(corpus_dir / "matching_pennies_seq.game"),
            "--dot",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph game {")


class TestErrors:
    def test_usage_error(self, capsys):
        assert run(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert run(["solve", "does-not-exist.game"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{dir}"],
            ["check", "{corpus}/zero_one_7.game", "--profile", "{dir}"],
            ["solve", "{corpus}/zero_one_7.game", "--out", "{dir}"],
            ["simulate", "{corpus}/zero_one_cyclic.game", "--horizon", "5", "--seed", "1", "--out", "{dir}"],
        ],
    )
    def test_unreadable_path_is_a_usage_error(self, capsys, corpus_dir, tmp_path, argv):
        argv = [arg.format(dir=tmp_path, corpus=corpus_dir) for arg in argv]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}: Is a directory\n"

    def test_parse_error_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.game"
        bad.write_text("finite { leaf(0 1) }")
        assert run(["solve", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.skipif(not 0 < sys.get_int_max_str_digits() < 5000, reason="the interpreter reads 5,000 digits")
    def test_an_integer_over_the_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "long.game"
        path.write_text("finite {\n  Alice {\n    a -> leaf(1," + "5" * 5000 + ")\n  }\n}\n")
        assert run(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"parse error: 3:17: expected an integer of at most {limit} digits, found one of 5000\n"

    def test_search_space_limit_is_exit_3(self, capsys, tmp_path):
        from seqgames.parametric import CyclicGame, CyclicNode
        from seqgames.core import leaf as mk_leaf
        from seqgames.dsl import GameDoc, serialize

        nodes = {
            f"N{i}": CyclicNode(
                0, tuple((lab, mk_leaf(0, 1)) for lab in ("x", "y", "z"))
            )
            for i in range(14)
        }
        path = tmp_path / "big.game"
        path.write_text(serialize(GameDoc(("Alice", "Bertrand"), CyclicGame(nodes, "N0"))))
        assert run(["enumerate", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "limit: 4782969 positional profiles exceed bound 1048576\n"

    def test_oversized_matrix_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "ten.game"
        rows = ";\n".join(" ".join(str((i * j) % 7) for j in range(10)) for i in range(10))
        path.write_text(f"matrix sum=0 {{\n{rows}\n}}\n")
        assert run(["matrix", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "limit: support enumeration bounded at 9x9\n"

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="the interpreter writes integers of any length")
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_an_answer_too_long_to_write_is_exit_3(self, capsys, tmp_path, form):
        # Entries of two thirds of the digit limit parse; the value's numerator, their product, has more.
        import random

        rng = random.Random(5)
        limit = sys.get_int_max_str_digits()
        digits = limit * 2 // 3 + 1
        x, y = (rng.randint(10 ** (digits - 1), 10**digits - 1) for _ in range(2))
        path = tmp_path / "long.game"
        path.write_text(f"matrix sum=0 {{ {x} 0; 0 {y} }}\n")
        assert run(["matrix", str(path), "--format", form]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"limit: the exact answer has a number of more than {limit} digits\n"

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="the interpreter writes integers of any length")
    @pytest.mark.parametrize("form", ["text", "json"])
    @pytest.mark.parametrize(
        "command",
        [
            ["enumerate"],
            ["check", "--profile", "PROFILE"],
            ["simulate", "--horizon", "5", "--seed", "1", "--policy", "fixed:1,1"],
        ],
        ids=lambda command: command[0],
    )
    def test_a_param_payoff_too_long_to_write_is_exit_3(self, capsys, tmp_path, form, command):
        # Every literal parses, but T's payoff one stage on has one digit more than the limit.
        limit = sys.get_int_max_str_digits()
        path, profile = tmp_path / "long.game", tmp_path / "long.profile"
        path.write_text(
            "players Alice Bertrand\nparam start=S {\n"
            "  S: Alice {\n    a -> leaf(0,0)\n    c -> advance T\n  }\n"
            f"  T: Bertrand {{\n    a -> leaf({'9' * limit}+1*n,0)\n    c -> advance S\n  }}\n}}\n"
        )
        profile.write_text("S = a\nT = a\n")
        argv = [command[0], str(path), *(str(profile) if word == "PROFILE" else word for word in command[1:])]
        assert run([*argv, "--format", form]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"limit: the exact answer has a number of more than {limit} digits\n"

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="the interpreter writes integers of any length")
    def test_a_payload_too_long_for_json_is_exit_3(self, capsys, corpus_dir, monkeypatch):
        # Every command writes its numbers with _number as it builds its text lines, so only a
        # payload that holds a raw int past the digit limit reaches json.dumps and fails there.
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(cli, "_cmd_solve", lambda args: ({"value": 10**limit}, ["value: long"], 0))
        assert run(["solve", str(corpus_dir / "zero_one_7.game"), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"limit: the exact answer has a number of more than {limit} digits\n"

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_limit_is_exit_4(self, capsys, corpus_dir, monkeypatch, error):
        def exhausted(args):
            raise error()

        monkeypatch.setattr(cli, "_cmd_solve", exhausted)
        assert run(["solve", str(corpus_dir / "zero_one_7.game")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("limit: ")
        assert captured.err.count("\n") == 1


class TestParserReuse:
    """``run`` builds its parser once per process and reuses it."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_options_do_not_leak_between_runs(self):
        fixed = ["simulate", "g.game", "--horizon", "3", "--policy", "fixed:0,1", "--seed", "7", "--out", "t.csv"]
        plain = ["simulate", "g.game", "--horizon", "3"]
        assert cli._parser().parse_args(fixed).policy == "fixed:0,1"
        assert vars(cli._parser().parse_args(plain)) == vars(cli.build_parser().parse_args(plain))

    def test_help_is_the_same_on_every_run(self, capsys):
        screens = []
        for _ in range(2):
            assert run(["check", "--help"]) == 0
            screens.append(capsys.readouterr().out)
        assert screens[0] == screens[1]
        assert screens[0].startswith("usage: seqgames check ")


class TestModuleEntryPoint:
    def test_python_dash_m(self, corpus_dir):
        result = subprocess.run(
            [sys.executable, "-m", "seqgames", "solve", str(corpus_dir / "zero_one_7.game")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "outcome: 1,0" in result.stdout
