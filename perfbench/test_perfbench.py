"""Smoke tests of the benchmark at tiny bounds (``--order 40 --max-weight 8``).

Run from the repository root with ``python3 -m pytest perfbench``; they are
outside the package's own test path, so the tier-1 suite does not run them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_COUNTS = (
    "series.calls",
    "series.coefficients",
    "partitions.generated",
    "partitions.chain_vectors",
    "bijections.certified",
)


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1], object_pairs_hook=_unique_keys)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(run.reference_lines(workload)) * (1 + trace)
    return result["metrics"]


def units(declared: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in declared}


def test_every_per_layer_metric_has_an_interaction_entry():
    assert list(CONFIG["per_layer"]) == [m["name"] for m in BENCH["per_layer"]]
    assert set(CONFIG["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    metrics = smoke(workload, 0)
    assert {name: m["unit"] for name, m in metrics.items()} == units(BENCH["end_to_end"])
    assert metrics["checks"]["value"] == len(run.reference_lines(workload))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1), smoke(workload, 1, seed=2)
    for metrics in (first, second):
        assert {name: m["unit"] for name, m in metrics.items()} == units(BENCH["per_layer"])
        # Argument parsing and rendering weigh more at smoke bounds than in
        # the real workloads, where the named layers hold over 0.95.
        assert 0.7 < metrics["trace.coverage"]["value"] <= 1.0
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_failed_checks_counts_missing_extra_and_changed_lines():
    reference = run.reference_lines("verify-all")
    changed = reference[1].replace('"outcome":"pass"', '"outcome":"mismatch"')
    extra = "\n".join([reference[0], changed, *reference[2:], reference[0]])
    assert run.failed_checks(extra, reference, False) == (71, 2)
    missing = "\n".join(reference[:-1])
    assert run.failed_checks(missing, reference, False) == (70, 1)

