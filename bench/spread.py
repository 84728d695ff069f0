"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads tour,explain --seeds 1-10 [--sets 2] [--out FILE]

Each set runs every workload once per seed, one run at a time and each in
its own process; the sets run one after the other. For every workload and
end-to-end metric it prints, per set, the median of the runs, their spread
(the distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median) and how much
worse each later set's median is than the first's, next to the metric's
bound from BENCHMARK.json. A spread below a third of the bound is steady
enough to compare two commits with. ``--out`` writes the summary in the
format of ``bench/baseline.json``:

    python3 bench/spread.py --seeds 11-20 --sets 2 --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its header, its ``setup`` and ``raw`` lines and its
    result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    run = {"header": lines[0]["header"], "result": lines[-1]}
    for line in lines[1:-1]:
        run.update(line)
    return run


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    declared = {m["name"]: m for m in spec["end_to_end"]}

    # runs[workload][set] is the list of that set's runs, one per seed
    runs = {w: [] for w in workloads}
    for index in range(args.sets):
        for workload in workloads:
            runs[workload].append([])
            for seed in args.seeds:
                run = run_once(workload, seed, args.seconds)
                runs[workload][index].append(run)
                result = run["result"]
                print(f"set {index + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)

    steady = True
    summary = {}
    for workload in workloads:
        entry = {}
        print(f"\n{workload} ({args.sets} x {len(args.seeds)} seeds)")
        for name, metric in declared.items():
            sets = [
                summarize([r["result"]["metrics"][name]["value"] for r in one_set])
                for one_set in runs[workload]
            ]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = [sign * (s["median"] - sets[0]["median"]) / sets[0]["median"]
                     for s in sets[1:]]
            bound = metric["bound"]
            # The spread of the set-up time is not gated, only its drift.
            ok = all(w <= bound for w in worse) and (
                name == "setup_s" or all(s["spread"] <= bound for s in sets)
            )
            flag = "" if ok else "  OVER BOUND"
            if ok and any(s["spread"] >= bound / 3 for s in sets):
                flag = "  above a third of the bound"
            steady &= ok
            medians = " ".join(f"{s['median']:<10.5g}" for s in sets)
            spreads = " ".join(f"{s['spread']:.3f}" for s in sets)
            drifts = " ".join(f"{w:+.3f}" for w in worse) or "-"
            print(f"  {name:20s} medians {medians} spreads {spreads} worse {drifts}"
                  f"  bound {bound}{flag}", flush=True)
            entry[name] = {"unit": metric["unit"]} | {
                key: [s[key] for s in sets] for key in ("median", "q1", "q3", "spread")
            }
        every = [r for one_set in runs[workload] for r in one_set]
        raw = [r["raw"] | {f"setup_{k}": v for k, v in r["setup"].items()} for r in every]
        entry["raw_medians"] = {key: statistics.median(r[key] for r in raw) for key in raw[0]}
        entry["all_correct"] = all(
            r["result"]["correct"] and r["result"]["failed"] == 0 for r in every
        )
        summary[workload] = entry
    print(f"\nwithin every bound: {steady}")

    if args.out:
        header = runs[workloads[0]][0][0]["header"]
        out = {
            "machine": {k: header[k] for k in ("nproc", "machine", "python", "numpy", "scipy")},
            "run_seconds": args.seconds,
            "sets": args.sets,
            "seeds": args.seeds,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
