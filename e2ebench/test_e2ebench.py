"""Self-tests of the benchmark at a tiny size: ``python3 -m pytest -q e2ebench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import drat_check  # noqa: E402
import run  # noqa: E402
import trace_check  # noqa: E402
from harness import Oracle, PassResult, Tracer, self_times  # noqa: E402
from instances import draw_corruptions, fires  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_benchmark_json_lists_the_metrics_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    done = _run(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    envelope = json.loads(lines[-2])["envelope"]
    assert envelope["seed"] == 3 and envelope["trace"] == (trace == "1")
    assert envelope["units"] == expected
    for key in ("commit", "source_sha256", "cpu_count", "python", "scale"):
        assert key in envelope
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert 0.0 <= result["metrics"]["tracing.unattributed_frac"]["value"] <= 1.0


def test_oracle_flags_a_wrong_expected_verdict(tmp_path):
    state = drat_check.setup(1, "tiny", tmp_path)
    oracle = Oracle()
    name, corrupted = state.corrupted[0]
    # A corrupted proof claimed to be valid: the checker rejects it, so the
    # oracle must call the verdict wrong.
    drat_check._check(Tracer(False), oracle, PassResult(), name,
                      "proofs.reject", "forward", state.fixture_formula, corrupted, True)
    assert not oracle.correct and oracle.wrong
    oracle = Oracle()
    drat_check._check(Tracer(False), oracle, PassResult(), name,
                      "proofs.reject", "forward", state.fixture_formula, corrupted, False)
    assert oracle.correct


def test_traced_spans_nest_and_self_times_are_not_negative(tmp_path):
    state = trace_check.setup(2, "tiny", tmp_path)
    tracer = Tracer(True)
    oracle = Oracle()
    trace_check.run_pass(state, tracer, oracle)
    assert oracle.correct
    spans = tracer.spans
    assert any(parent is not None for *_, parent, _request in spans)
    for name, start, end, parent, request in spans:
        assert start <= end
        if parent is not None:
            p_name, p_start, p_end, _, p_request = spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert request == p_request
    assert all(seconds >= 0 for seconds in self_times(spans).values())
    layers = {name.split(".", 1)[0] for name, *_ in spans}
    assert {"solver", "trace", "analysis", "checker"} <= layers


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "trace_check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_drawn_corruptions_fire():
    rng = random.Random(4)
    for bad in draw_corruptions([(5, 4), (5, 4), (5, 4)], rng):
        assert fires(bad.formula, bad.bug, bad.bug_seed)
