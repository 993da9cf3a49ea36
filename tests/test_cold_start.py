"""Cold start: a fresh process loads only the modules of the game kind it
runs and prints what the golden corpus pins, and the lazily loaded package
keeps its public names.

The golden corpus runs through ``cli.run`` in the test process, where every
module is already loaded, so an import missing from one command's path
shows only in a fresh process: each case here starts one.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import seqgames
from seqgames import cli, core, cyclic, dsl, dsl_write, escalation, finite, matrix, parametric

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_corpus.json"
COMMANDS = ("solve", "enumerate", "check", "unfold", "auction", "simulate", "matrix", "export")
FINITE_PATH = {"seqgames", "seqgames.cli", "seqgames.core", "seqgames.dsl", "seqgames.finite"}
# A tree command compiles every line of FINITE_PATH's sources, so their total is its cost at cold start.
FINITE_PATH_LINES = 1452
GRAPH_PATH = {"seqgames", "seqgames.cli", "seqgames.core", "seqgames.dsl", "seqgames.parametric"}
WRITER = "seqgames.dsl_write"  # the graph reader lives in ``parametric`` and the matrix reader in ``matrix``


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process from the repository root, with
    ``src`` first on the path and an 80-column terminal for argparse."""
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120, check=False
    )


# Runs ``seqgames <argv>`` as ``python -m seqgames`` does (the package is
# imported, then its ``__main__`` runs as ``__main__``), then writes the exit
# code and every module name in ``sys.modules`` as one JSON line to stderr;
# ``json`` is imported after the names are taken.
_RUN_AND_LIST = """
import runpy, sys
sys.argv = ["seqgames", *sys.argv[1:]]
code = None
try:
    runpy.run_module("seqgames", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps([code, modules]), file=sys.stderr)
"""


def loaded(*argv: str, code: int = 0, flags: tuple[str, ...] = ()) -> set[str]:
    """The modules a fresh ``python *flags`` running ``seqgames *argv`` has
    loaded when it exits with ``code``."""
    done = fresh(*flags, "-c", _RUN_AND_LIST, *argv)
    exited, modules = json.loads(done.stderr.decode("utf-8").splitlines()[-1])
    assert exited == code, done.stderr
    return set(modules)


def package(modules: set[str]) -> set[str]:
    return {name for name in modules if name.partition(".")[0] == "seqgames"}


class TestModulesLoaded:
    def test_import_loads_no_submodule(self):
        done = fresh("-c", "import json, sys, seqgames; print(json.dumps(sorted(sys.modules)))")
        assert package(set(json.loads(done.stdout))) == {"seqgames"}

    def test_importing_cli_loads_neither_the_kernels_nor_the_tree_line_reader(self):
        # ``finite`` holds the tree line reader, so a graph or matrix command never compiles it.
        done = fresh("-c", "import json, sys, seqgames.cli; print(json.dumps(sorted(sys.modules)))")
        assert package(set(json.loads(done.stdout))) == FINITE_PATH - {"seqgames.finite"}

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (["solve", "corpus/zero_one_7.game"], FINITE_PATH),
            (["--help"], FINITE_PATH - {"seqgames.finite"}),  # help runs no kernel
            (["check", "corpus/matching_pennies_seq.game", "--profile", "corpus/profiles/pennies_eq_first.profile"],
             FINITE_PATH),
            (["enumerate", "corpus/matching_pennies_seq.game"], FINITE_PATH),
        ],
        ids=["solve", "help", "check", "enumerate"],
    )
    def test_tree_commands_and_help_load_the_finite_path_only(self, argv, expected):
        # No writer, no graph or matrix reader and no graph or matrix command module.
        assert package(loaded(*argv)) == expected

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (["enumerate", "corpus/zero_one_cyclic.game"], GRAPH_PATH | {"seqgames.cli_kinds"}),
            (["check", "corpus/zero_one_cyclic.game", "--profile", "corpus/profiles/loop_alice_abandons.profile"],
             GRAPH_PATH),
        ],
        ids=["enumerate", "check"],
    )
    def test_cyclic_commands_load_the_graph_path_only(self, argv, expected):
        # One graph module: neither the tree kernels in ``finite`` nor the ``cyclic`` aliases.
        assert package(loaded(*argv)) == expected

    def test_the_finite_path_stays_small(self):
        files = [ROOT / "src" / "seqgames" / f"{name.partition('.')[2] or '__init__'}.py" for name in FINITE_PATH]
        lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in files}
        assert sum(lines.values()) <= FINITE_PATH_LINES, lines

    @pytest.mark.parametrize(
        ("argv", "present", "absent"),
        [
            (
                ["matrix", "corpus/rps_zerosum.game"],
                {"seqgames.matrix"},
                {"seqgames.finite", "seqgames.cyclic", "seqgames.parametric", "seqgames.escalation", WRITER},
            ),
            (
                ["enumerate", "corpus/zero_one_cyclic.game"],
                {"seqgames.parametric"},
                {"seqgames.matrix", "seqgames.escalation", "fractions", WRITER, "seqgames.cyclic", "seqgames.finite"},
            ),
            (
                ["simulate", "corpus/zero_one_param.game", "--horizon", "5", "--seed", "7"],
                {"seqgames.escalation", "seqgames.parametric"},
                {"seqgames.matrix", "seqgames.cyclic", WRITER, "seqgames.finite"},
            ),
            (
                ["check", "corpus/zero_one_cyclic.game", "--profile", "corpus/profiles/loop_alice_abandons.profile"],
                {"seqgames.parametric"},
                {"seqgames.matrix", "seqgames.cli_kinds", WRITER, "seqgames.cyclic", "seqgames.finite"},
            ),
        ],
        ids=["matrix", "enumerate-cyclic", "simulate-param", "check-cyclic"],
    )
    def test_a_command_loads_its_own_kind(self, argv, present, absent):
        modules = loaded(*argv)
        assert present <= modules
        assert not absent & modules


class TestWithoutSite:
    """Under ``python -S`` nothing is preloaded, so a command that the table
    reads loads neither argparse nor ``typing``; help and usage errors load argparse."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "corpus/zero_one_7.game"],
            ["check", "corpus/zero_one_cyclic.game", "--profile", "corpus/profiles/loop_alice_abandons.profile"],
            ["matrix", "corpus/rps_zerosum.game"],
            ["simulate", "corpus/zero_one_param.game", "--horizon", "5", "--seed", "7"],
        ],
        ids=["solve", "check", "matrix", "simulate"],
    )
    def test_an_answered_command_loads_neither_argparse_nor_typing(self, argv):
        assert not {"argparse", "typing"} & loaded(*argv, flags=("-S",))

    @pytest.mark.parametrize(("argv", "code"), [(["--help"], 0), (["solve"], 2)], ids=["help", "no-file"])
    def test_help_and_a_usage_error_load_argparse(self, argv, code):
        assert "argparse" in loaded(*argv, code=code, flags=("-S",))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "corpus/zero_one_7.game"],
        ["enumerate", "corpus/zero_one_cyclic.game"],
        ["export", "corpus/zero_one_7.game", "--dot"],
        ["unfold", "corpus/zero_one_cyclic.game", "--depth", "3", "--terminal", "1,0"],
        ["matrix", "corpus/rps_zerosum.game"],
        ["simulate", "corpus/zero_one_param.game", "--horizon", "5", "--seed", "7"],
    ],
    ids=["solve", "enumerate-cyclic", "export-tree", "unfold", "matrix", "simulate-param"],
)
def test_importtime_logs_every_package_module_loaded(argv):
    """``-X importtime`` writes a line for each module of the package that a
    command loads, so no module's import time is charged to its importer."""
    done = fresh("-X", "importtime", "-c", _RUN_AND_LIST, *argv)
    lines = done.stderr.decode("utf-8").splitlines()
    code, modules = json.loads(lines[-1])
    assert code == 0, done.stderr
    logged = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    assert package(set(modules)) - logged == set()


def _golden_picks() -> list[dict]:
    """Per command, the first text case and the first JSON case (on another
    game where there is one) that exit 0, then three wrong-kind refusals."""
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    picks = []
    for command in COMMANDS:
        ok = [case for case in cases if case["argv"][0] == command and case["code"] == 0]
        text = next(case for case in ok if "--format" not in case["argv"])
        in_json = [case for case in ok if "json" in case["argv"]]
        picks.append(text)
        picks.append(next((case for case in in_json if case["argv"][1] != text["argv"][1]), in_json[0]))
    wrong_kinds = [
        ["solve", "corpus/matching_pennies_matrix.game"],
        ["matrix", "corpus/zero_one_7.game"],
        ["check", "corpus/matching_pennies_matrix.game", "--profile", "corpus/profiles/alice_continues.profile"],
    ]
    picks.extend(next(case for case in cases if case["argv"] == argv) for argv in wrong_kinds)
    return picks


# ``dataclasses`` and the standard-library modules it pulls in, which no command needs.
UNUSED_AT_COLD_START = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "case", [*_golden_picks(), {"argv": ["--help"], "code": 0}], ids=lambda case: " ".join(case["argv"])
)
def test_no_command_loads_dataclasses_or_inspect(case):
    modules = loaded(*case["argv"], code=case["code"])
    assert not UNUSED_AT_COLD_START & modules
    if "json" not in case["argv"]:
        assert "json" not in modules  # only a JSON writer loads it


def test_json_is_loaded_to_write_json():
    assert "json" in loaded("solve", "corpus/zero_one_7.game", "--format", "json")


def test_no_source_file_imports_dataclasses():
    imported = set()
    for path in sorted((ROOT / "src" / "seqgames").glob("*.py")):
        for statement in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(statement, ast.Import):
                imported.update((path.name, alias.name) for alias in statement.names)
            elif isinstance(statement, ast.ImportFrom) and statement.module:
                imported.add((path.name, statement.module))
    assert imported
    assert {(name, module) for name, module in imported if module.partition(".")[0] == "dataclasses"} == set()


@pytest.mark.parametrize("case", _golden_picks(), ids=lambda case: " ".join(case["argv"]))
def test_golden_case_in_a_fresh_process(case):
    done = fresh("-m", "seqgames", *case["argv"])
    got = (done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8"))
    assert got == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv",
    [["solve", "corpus/zero_one_7.game"], ["matrix", "corpus/rps_zerosum.game"], ["solve"]],
    ids=["solve", "matrix", "usage-error"],
)
def test_python_m_seqgames_cli_runs_as_python_m_seqgames(argv):
    """``cli`` run as ``__main__`` hands over to ``seqgames.cli``, whose commands ``cli_kinds`` imports."""
    via_cli, via_package = fresh("-m", "seqgames.cli", *argv), fresh("-m", "seqgames", *argv)
    assert via_cli.stdout or via_cli.stderr
    assert (via_cli.returncode, via_cli.stdout, via_cli.stderr) == (
        via_package.returncode, via_package.stdout, via_package.stderr
    )


def _ring(size: int) -> str:
    """A cyclic game of ``size`` nodes, each ending the game or passing on: 2**size profiles."""
    nodes = "".join(
        f"  N{k}: {('Alice', 'Bertrand')[k % 2]} {{ stop -> leaf(0,0); go -> N{(k + 1) % size} }}\n"
        for k in range(size)
    )
    return f"players Alice Bertrand\ncyclic start=N0 {{\n{nodes}}}\n"


def _square(side: int) -> str:
    rows = ";\n".join("  " + " ".join(str((i * j) % 7) for j in range(side)) for i in range(side))
    return f"players Alice Bertrand\nmatrix sum=6 {{\n{rows}\n}}\n"


@pytest.mark.parametrize(
    ("command", "text"),
    [
        ("matrix", _square(matrix.SUPPORT_LIMIT + 1)),
        ("enumerate", _ring(parametric.DEFAULT_SEARCH_BOUND.bit_length())),
    ],
    ids=["TooLarge", "SearchSpaceTooLarge"],
)
def test_limits_exit_3_in_a_fresh_process(tmp_path, command, text):
    game = tmp_path / "big.game"
    game.write_text(text, encoding="utf-8")
    done = fresh("-m", "seqgames", command, str(game))
    assert done.returncode == 3
    assert done.stdout == b""
    lines = done.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("limit: ")


# Every name ``seqgames`` exports, by the module it is taken from.
EXPORTS = {
    core: (
        "DEFAULT_PLAYERS FiniteGame GameError InvalidPlay Leaf MalformedGame Node NotTwoPlayer"
        " ShapeMismatch SpeReport Violation induced_play leaf node outcome_of subgame_at"
    ),
    cyclic: "enumerate_positional_spe",
    escalation: (
        "BeliefNotEquilibrium BeliefPair EscalationClass Escalates FixedIndex NoEquilibria SimTrace SplitMix64"
        " Terminates Uniform compose_beliefs detect_escalation escalation_classes simulate"
    ),
    finite: "Enumeration TiePolicy check_spe enumerate_equilibria solve",
    matrix: "MatrixGame MixedProfile best_response_value matrix_game solve_constant_sum",
    parametric: (
        "AffineValue ConvergesAffine CyclicGame CyclicNode Divergent InvalidValue ParametricGame"
        " SearchSpaceTooLarge Shape UnknownShape affine affine_leq check_spe_param dollar_auction"
        " enumerate_stationary_spe induced_outcome_param instantiate"
    ),
    dsl: "GameDoc ParseError Unwritable ValidationError parse serialize to_dot",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]
SUBMODULES = {module.__name__.rpartition(".")[2]: module for module in EXPORTS}


class TestPublicNames:
    def test_each_name_is_its_modules_object(self):
        for module, name in NAMES:
            assert getattr(seqgames, name) is getattr(module, name), name
        for short, module in SUBMODULES.items():
            assert getattr(seqgames, short) is module

    def test_listed_by_all_and_dir(self):
        names = {name for _module, name in NAMES} | set(SUBMODULES) | {"LimitExceeded"}
        assert names <= set(seqgames.__all__)
        assert names <= set(dir(seqgames))

    def test_the_replaced_cyclic_adapters_are_not_exported(self):
        for name in ("Converges", "Diverges", "UnknownNode", "check_spe_cyclic", "induced_outcome", "unfold"):
            assert name not in seqgames.__all__
            with pytest.raises(AttributeError):
                getattr(seqgames, name)

    def test_star_import(self):
        namespace: dict = {}
        exec("from seqgames import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            seqgames.no_such_name  # noqa: B018
        for module in (dsl, cli):
            with pytest.raises(AttributeError, match=f"{module.__name__}'.* 'no_such_name'"):
                module.no_such_name  # noqa: B018

    def test_the_writers_keep_their_names_in_dsl(self):
        from seqgames.dsl import Unwritable, render_profile, serialize, to_dot

        writers = {"Unwritable": Unwritable, "render_profile": render_profile, "serialize": serialize, "to_dot": to_dot}
        assert writers == {name: getattr(dsl_write, name) for name in writers}
        assert seqgames.serialize is dsl_write.serialize and seqgames.Unwritable is dsl_write.Unwritable
        assert set(writers) <= set(dir(dsl))

    def test_every_command_is_an_attribute_of_cli(self):
        assert all(callable(getattr(cli, f"_cmd_{command}")) for command in COMMANDS)
        assert {f"_cmd_{command}" for command in COMMANDS} <= set(dir(cli))

    def test_run_calls_the_patched_command(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_cmd_matrix", lambda args: calls.append(args.file) or (None, ["patched"], 0))
        assert cli.run(["matrix", "corpus/rps_zerosum.game"]) == 0
        assert calls == ["corpus/rps_zerosum.game"]

    def test_first_use_in_a_fresh_process(self):
        """Each name resolves through the loader when its module is not loaded yet."""
        code = (
            "import sys\n"
            "from seqgames import cli\n"
            "assert not {'seqgames.dsl_write', 'seqgames.cli_kinds'} & set(sys.modules)\n"
            "from seqgames.dsl import Unwritable, render_profile, serialize, to_dot\n"
            "command = cli._cmd_matrix\n"
            "from seqgames import cli_kinds, dsl_write\n"
            "assert (Unwritable, render_profile, serialize, to_dot) == (dsl_write.Unwritable,"
            " dsl_write.render_profile, dsl_write.serialize, dsl_write.to_dot)\n"
            "assert command is cli_kinds._cmd_matrix\n"
        )
        done = fresh("-c", code)
        assert done.returncode == 0, done.stderr

    def test_limit_errors_share_one_base(self):
        assert seqgames.LimitExceeded is core.LimitExceeded
        assert issubclass(parametric.SearchSpaceTooLarge, core.LimitExceeded)
        assert issubclass(matrix.TooLarge, core.LimitExceeded)
        assert issubclass(core.LimitExceeded, core.GameError)

    def test_every_game_class_names_its_kind(self):
        kinds = {
            core.Leaf: "finite",
            core.Node: "finite",
            parametric.CyclicGame: "cyclic",
            parametric.ParametricGame: "param",
            matrix.MatrixGame: "matrix",
        }
        assert {cls: cls.KIND for cls in kinds} == kinds
