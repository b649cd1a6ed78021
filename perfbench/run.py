"""Benchmark of ``qident verify`` end to end, with a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each pass is one in-process ``qident.cli.main([...])`` call in a fresh worker
process (``worker.py``), single-threaded, with the package imported from
``src/`` of the checkout.  Passes repeat until the next one would end after
``--seconds``.  The workloads are fixed bound sets, so ``--seed`` changes no
input; it is recorded with the result.  The machine-form output of every pass
is compared line by line with ``reference/<workload>.txt``, recorded at the
commit that added the benchmark.

Before every pass a probe worker times set-up (``import qident.cli`` plus
``default_catalog()``) and then ``worker.reference_task``, fixed pure-Python
work that does not depend on qident.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json: the median set-up time over probes and passes,
``verify_rel``, and the median peak RSS and number of checks over the passes.

``verify_rel`` is the mean ``cli.main`` wall time over the mean reference
time of the same run, i.e. the wall time in units of the reference task.  On
a shared host the speed drifts by up to a quarter in phases lasting tens of
seconds to minutes, longer than one run, so raw seconds from two runs differ
by the phase they fell in.  The reference, timed between the passes, drifts
with them, and the ratio cancels most of it.  Means, not medians, because a
run's passes can split between two speeds and a median then jumps between
them.  The raw seconds, per pass, are in the record line.

``--trace 1`` alternates untraced passes with traced ones, in which
``tracer.py`` wraps each layer's public functions, and reports the per-layer
metrics; the spans of the first traced pass are written to
``out/spans-<workload>.jsonl``.  ``--smoke`` runs the same argv at tiny
bounds and compares the output with the reference apart from the bounds.

The last stdout line is the result JSON; the line before it records the
environment and the sample counts.  No machine tuning is done: no CPU
pinning, no cache drops, no kernel or frequency settings.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT = 150


def workload_argv(spec: dict, smoke_bounds: list[str] | None = None) -> list[str]:
    """The workload's argv; smoke bounds, when given, replace the workload's."""
    argv = list(spec["argv"])
    if smoke_bounds:
        for flag, value in zip(smoke_bounds[::2], smoke_bounds[1::2]):
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv[-2:-2] = [flag, value]
    return argv


def _without_bound(line: str) -> str:
    record = json.loads(line)
    record.pop("bound", None)
    return json.dumps(record, sort_keys=True)


def reference_lines(workload: str) -> list[str]:
    return (HERE / "reference" / f"{workload}.txt").read_text(encoding="utf-8").splitlines()


def failed_checks(output: str, reference: list[str], smoke: bool) -> tuple[int, int]:
    """(checks attempted, checks failed): a check fails when its machine line
    is absent, extra or different from the reference, or its outcome is not
    ``pass``."""
    lines = output.splitlines()
    if smoke:
        lines = [_without_bound(line) for line in lines]
        reference = [_without_bound(line) for line in reference]
    attempted = max(len(lines), len(reference))
    failed = 0
    for i in range(attempted):
        line = lines[i] if i < len(lines) else None
        want = reference[i] if i < len(reference) else None
        if line != want or json.loads(line).get("outcome") != "pass":
            failed += 1
    return attempted, failed


def run_worker(extra: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "tuning": "none: no CPU pinning, no cache drops, no kernel or frequency settings",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "qident" / "__init__.py").is_file():
        print(f"error: no qident sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    spec = config["workloads"].get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    argv = workload_argv(spec, config["smoke"] if args.smoke else None)
    expected = reference_lines(args.workload)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    setup: list[float] = []
    reference_s: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while True:
        trace_pass = args.trace == 1 and len(traced) < len(plain)
        extra = [json.dumps(argv)]
        if trace_pass:
            extra.append("--trace")
            if not traced:
                extra += ["--spans", str(out_dir / f"spans-{args.workload}.jsonl")]
        probe = run_worker([])
        setup.append(probe["setup_s"])
        reference_s.append(probe["reference_s"])
        result = run_worker(extra)
        (traced if trace_pass else plain).append(result)
        tried, bad = failed_checks(result["output"], expected, args.smoke)
        attempted += tried
        failed += bad
        correct = correct and bad == 0 and result["exit_code"] == 0
        if not trace_pass:
            setup.append(result["setup_s"])
        elapsed = time.perf_counter() - started
        if args.trace == 1 and not traced:
            continue
        if elapsed + elapsed / (len(plain) + len(traced)) > args.seconds:
            break

    verify_s = statistics.fmean(r["verify_s"] for r in plain)
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup),
            "verify_rel": verify_s / statistics.fmean(reference_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "checks": statistics.median_low(len(r["output"].splitlines()) for r in plain),
        }
        declared = bench["end_to_end"]
    else:
        traced_s = statistics.fmean(r["verify_s"] for r in traced)
        values = {
            name: statistics.fmean(r["layers"][name] for r in traced)
            if name.endswith("_s")
            else traced[0]["layers"][name]
            for name in traced[0]["layers"]
        }
        values["trace.verify_s"] = traced_s
        values["trace.overhead_s"] = traced_s - verify_s
        declared = bench["per_layer"]
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": float(value) if m["unit"] == "s" else value, "unit": m["unit"]}

    record = {
        "environment": environment(),
        "workload": args.workload,
        "argv": argv,
        "seed": args.seed,
        "samples": {"setup_s": len(setup), "verify_s": len(plain), "traced": len(traced)},
        "verify_s": [r["verify_s"] for r in plain],
        "reference_s": reference_s,
    }
    print(json.dumps(record))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
