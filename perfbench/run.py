"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs span
recorders around every layer's entry points, runs the workload in-process
at one worker, and reports the per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and what each per-layer metric should move are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "throughput_per_s": "1/s",
    "modeled_retarget_us": "us",
    "luts_mean": "count",
    "peak_rss_mb": "MB",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload",
        required=True,
        choices=("interactive", "campaign-warm", "campaign-cold"),
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # pool workers import the program too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import suite
    import tracing

    host = _host()
    print("host " + json.dumps(host, sort_keys=True))
    workload = suite.WORKLOADS[args.workload]
    traced = bool(args.trace)
    trace = tracing.Tracer() if traced else suite.NoTrace()
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        setup_s, setup_raw, identities = [], [], []
        trace.install()
        for _ in range(1 if traced else workload.setup_reps):
            state, raw, scaled = suite.timed(lambda: workload.setup(args.seed, tmp))
            setup_raw.append(raw)
            setup_s.append(scaled)
            identities.append(workload.identity(state))
        trace.uninstall()
        out = workload.run(state, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if any(i != identities[0] for i in identities):
        out.fail("setup repetitions built different inputs")

    if traced:
        values = tracing.layer_metrics(
            trace,
            scenarios=out.scenarios,
            turns=out.turns,
            localized=out.localized,
            overhead_frac=out.overhead_frac,
        )
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        notes = {name: f"  -> {moves}" for name, _, _, moves in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            **out.metrics,
            "peak_rss_mb": out.peak_rss_mb,
        }
        units = END_TO_END_UNITS
        notes = {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"setup_s samples {[round(t, 4) for t in setup_s]}, raw {[round(t, 4) for t in setup_raw]}")
    for line in out.lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}{notes.get(name, '')}")
    print(f"failed_frac {out.failed / max(1, out.attempted):.6g} ({out.failed}/{out.attempted})")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
