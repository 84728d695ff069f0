"""procex benchmark runner.

    python3 bench/run.py --workload tour|explain|evaluate \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it imports procex from the
checkout's ``src/`` and works in ``.bench_work/`` at the checkout's root,
which it removes again. It prints one header line, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Without the sources it exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
WORKLOADS = ("tour", "explain", "evaluate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="procex benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def header(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One run in a fresh work directory; returns the result object."""
    from pipeline import FULL
    from workloads import Context, Tally, timed_run, traced_run

    end_to_end, per_layer = declared_units()
    units = per_layer if trace else end_to_end
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        ctx = Context(seed=seed, seconds=seconds, sizes=sizes or FULL, workdir=workdir)
        tally = Tally()
        measured = (traced_run if trace else timed_run)(workload, ctx, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if set(measured) != set(units):
        raise RuntimeError(
            f"measured {sorted(set(measured) ^ set(units))} differently from BENCHMARK.json"
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(measured[name]), "unit": units[name]} for name in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SOURCES / "procex" / "__init__.py").is_file():
        print(f"error: no procex sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import procex

    if Path(procex.__file__).resolve().parent != SOURCES / "procex":
        print(f"error: imported procex from {procex.__file__}", file=sys.stderr)
        return 2
    print(json.dumps({"header": header(args.workload, args.seed, args.seconds, args.trace)}))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
