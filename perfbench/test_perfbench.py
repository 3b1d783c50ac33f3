"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

A smoke run of every workload prints every metric of BENCHMARK.json with its
unit, with and without tracing; a planted wrong expectation fails ops.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    detail, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert detail["env"]["bracket_backend"] in ("python", "cython")
    assert detail["detail"]["fail_frac"] == 0.0


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def run_and_check(workload, ops):
    from workloads import OpFailed

    results = []
    for op in ops:
        try:
            results.append(workload.run_op(op))
        except Exception as exc:
            results.append(OpFailed(exc))
    return workload.check(ops, results)


def test_planted_wrong_paper_detail_fails():
    from workloads import WORKLOADS as W, Paper

    class Planted(Paper):
        expected = Paper.expected[:-1] + (
            ("(i) bounded transverse search exhausts", "exhausted after 3 expansions"),
        )

    ops = W["paper"].make_ops(0, True)
    assert run_and_check(W["paper"], ops) == [True]
    assert run_and_check(Planted(), ops) == [False]


def test_planted_wrong_wide_golden_fails():
    from braidkit.laurent import LaurentPolynomial
    from workloads import WORKLOADS as W

    wide = W["wide"]
    ops = wide.make_ops(0, True)
    assert all(run_and_check(wide, ops))
    planted = [
        (kind, arg, expected.shift(1)) if isinstance(expected, LaurentPolynomial) else (kind, arg, not expected)
        for kind, arg, expected in ops
    ]
    assert not any(run_and_check(wide, planted))


def test_mutant_that_passes_fails_fuzz():
    from workloads import WORKLOADS as W

    fuzz = W["fuzz"]
    ops = fuzz.make_ops(0, True)
    assert all(run_and_check(fuzz, ops))
    # Plant the shipped flype- where the corrupted one was expected to fail.
    shipped = fuzz.templates()["flype-"]
    planted = [(name, shipped if name == "flype-corrupted" else t, s) for name, t, s in ops]
    ok = run_and_check(fuzz, planted)
    assert not all(ok)


def test_roundtrip_checks_the_target():
    from braidkit.words import BraidWord
    from workloads import WORKLOADS as W

    rt = W["roundtrip"]
    ops = rt.make_ops(0, True)
    assert all(run_and_check(rt, ops))
    results = [rt.run_op(op) for op in ops]
    # Planted wrong target: the mirror of each source, when that is another class.
    wrong = [(BraidWord(w.n, tuple(-x for x in w.letters)), k, s) for w, k, s in ops]
    ok = rt.check(wrong, results)
    assert not all(ok)


def test_sampler_clock_stops_while_a_reference_chunk_runs():
    import speed

    sampler = speed.Sampler(0.05)
    t0 = sampler.now()
    for _ in range(5):
        sampler.sample()
    assert len(sampler.took) == 5
    assert sampler.now() - t0 < 0.2 * sum(sampler.took)
    assert sampler.scale(t0, sampler.now(), 3) == speed.REF_S / sorted(sampler.took)[2]


def test_op_p50_is_the_mean_of_the_middle_fifth():
    from run import middle_mean

    assert middle_mean([5.0, 1.0, 3.0]) == 3.0
    assert middle_mean([1.0, 2.0]) == 1.5
    assert middle_mean([float(x) for x in range(100)]) == 49.5
