"""One benchmark pass in a fresh process.

Usage: python3 worker.py ROOT [ARGV_JSON] [--trace] [--spans FILE]

Times ``import qident.cli`` plus ``default_catalog()`` (set-up).  With
ARGV_JSON it then makes one in-process ``qident.cli.main(argv)`` call with
stdout captured and prints set-up and call times, exit code, the captured
output, peak RSS of this process, and with ``--trace`` the per-layer figures
of the outside-in tracer.  Without ARGV_JSON it is a probe: it times the fixed
``reference_task`` and prints set-up and reference times.  ``run.py`` starts
this script with PYTHONPATH set to ROOT/src.
"""

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def reference_task() -> int:
    """Fixed pure-Python work, independent of qident, whose wall time tracks
    the host's speed: it builds the partitions of 48 as tuples, keys a dict
    by them and runs a list recurrence, like the enumeration and series
    layers do.  It must never change, or ``verify_rel`` values stop being
    comparable across commits."""
    found = []

    def grow(rest, largest, prefix):
        if rest == 0:
            found.append(prefix)
            return
        for part in range(min(largest, rest), 0, -1):
            grow(rest - part, part, prefix + (part,))

    grow(48, 48, ())
    sizes = {p: sum(p) + len(p) for p in found}
    coeffs = [1] + [0] * 4000
    for k in range(1, 800):
        for i in range(k, 4001):
            coeffs[i] += coeffs[i - k]
    return len(sizes) + coeffs[-1] % 7


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("argv", nargs="?", type=json.loads)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    started = time.perf_counter()
    import qident.cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    loaded = time.perf_counter()
    qident.profiles.default_catalog()
    setup_done = time.perf_counter()

    src = (args.root / "src").resolve()
    if src not in Path(qident.__file__).resolve().parents:
        print(f"qident was imported from {qident.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_done - started}
    if args.argv is None:
        begin = time.perf_counter()
        reference_task()
        result["reference_s"] = time.perf_counter() - begin
    else:
        captured = io.StringIO()
        with redirect_stdout(captured):
            begin = time.perf_counter()
            code = qident.cli.main(args.argv)
            verify_s = time.perf_counter() - begin
        result.update(
            verify_s=verify_s,
            exit_code=code,
            output=captured.getvalue(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            layers = tracer.layer_metrics(verify_s)
            layers["profiles.catalog_load_s"] = setup_done - loaded
            result["layers"] = layers
            if args.spans is not None:
                tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
