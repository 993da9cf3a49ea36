"""``scripts/ab.py``: the pairing statistics, and its refusal of two differing ``bench/`` trees."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def summary(**values: float) -> dict:
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def test_two_differing_bench_trees_are_refused_before_any_run(tmp_path):
    for side, text in (("old", "print(1)\n"), ("new", "print(2)\n")):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(text)
    done = subprocess.run([sys.executable, SCRIPT, tmp_path / "old", tmp_path / "new", "--workloads", "matrices",
                           "--seeds", "1-2"], capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 2 and "refused" in done.stderr and done.stdout == ""


@pytest.mark.parametrize(("text", "seeds"), [("4440-4443", [4440, 4441, 4442, 4443]), ("7", [7]), ("3,1", [3, 1])])
def test_seeds(text, seeds):
    assert ab.parse_seeds(text) == seeds


def test_the_sign_test_interval_of_ten_pairs_drops_one_difference_at_each_end():
    interval = ab.sign_interval([0.1 * k for k in (5, 3, 9, 0, 7, 1, 8, 2, 6, 4)])
    assert interval["interval"] == [0.1, pytest.approx(0.8)]
    assert interval["coverage"] == pytest.approx(1 - 2 * 11 / 1024)  # P(Binomial(10, 1/2) <= 1) on each side


def test_a_metric_is_compared_in_the_direction_it_improves():
    # Three pairs, the parent first in the first and third: the change is faster in two of them.
    rows = [("parent", summary(rate=100.0, ms=2.0), summary(rate=110.0, ms=1.8)),
            ("change", summary(rate=100.0, ms=2.0), summary(rate=90.0, ms=2.2)),
            ("parent", summary(rate=100.0, ms=2.0), summary(rate=120.0, ms=1.6))]
    rate = ab.compare("rate", rows, {"better": "higher", "bound": 0.25}, aa=False)
    ms = ab.compare("ms", rows, {"better": "lower", "bound": 0.25}, aa=True)
    assert rate["change_wins"] == ms["change_wins"] == "2/3"
    assert rate["worse_by"] == pytest.approx(-0.1) and ms["worse_by"] == pytest.approx(-0.1)
    assert rate["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0, "runs": [100.0, 100.0, 100.0]}
    # First over second, less one: 100/110, 90/100 and 100/120; the median is the second pair's.
    assert rate["first_minus_second"] == pytest.approx(90 / 100 - 1)
    assert "floor" not in rate and ms["floor"] == pytest.approx(max(abs(end) for end in ms["paired"]["interval"]))
