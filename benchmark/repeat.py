#!/usr/bin/env python3
"""Run the BENCHMARK.json command repeatedly and summarise the spread.

    python3 benchmark/repeat.py --runs 5 --seed 1 --json out.json
    python3 benchmark/repeat.py --compare before.json after.json

Each round runs every workload once, with seed = --seed + round, and
alternates the workload order (forward, then reversed) so no workload
always runs first.  For each (workload, metric) it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, IQR / |median|; a
metric whose spread exceeds its bound in BENCHMARK.json is flagged.
--trace runs the per-layer metrics instead (they have no bound).

--compare prints, one row per workload, how far each metric's median in
the second file lies from the first, as a share of the first; a change
worse than the metric's bound is flagged.  Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LSBENCH = ROOT / "build" / "benchmark" / "lsbench"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(spec, trace):
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    # A spread relative to a zero median is undefined (null in the JSON).
    spread = (q3 - q1) / abs(median) if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def repeat(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = metric_specs(spec, args.trace)
    values = {w: {} for w in workloads}
    counts = {w: {"attempted": 0, "failed": 0, "bad_runs": 0}
              for w in workloads}
    seeds = [args.seed + r for r in range(args.runs)]
    for round_index, seed in enumerate(seeds):
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for workload in order:
            code, result = run_once(spec, workload, seed, args.trace)
            if result is None or not result["correct"]:
                counts[workload]["bad_runs"] += 1
                print(f"run failed: {workload} seed {seed} exit {code}",
                      file=sys.stderr)
                if result is None:
                    continue
            counts[workload]["attempted"] += result["attempted"]
            counts[workload]["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"done: {workload} seed {seed}", file=sys.stderr)

    results = {}
    for workload in workloads:
        results[workload] = {}
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            row = summarise(series)
            row["unit"] = metrics[name]["unit"]
            row["better"] = metrics[name]["better"]
            row["bound"] = metrics[name].get("bound")
            results[workload][name] = row

    out = {"command": spec["command"], "run_seconds": spec["run_seconds"],
           "runs": args.runs, "seeds": seeds, "trace": int(args.trace),
           "counts": counts, "results": results}
    if LSBENCH.exists():
        host = subprocess.run([str(LSBENCH), "--host"], stdout=subprocess.PIPE,
                              text=True, check=True)
        out["host"] = json.loads(host.stdout)
        out["host"]["seeds"] = seeds
    print_table(out)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    bad = sum(c["bad_runs"] + c["failed"] for c in counts.values())
    return 1 if bad else 0


def print_table(out):
    print(f"{'workload':12} {'metric':28} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for workload, rows in out["results"].items():
        for name, row in rows.items():
            bound, spread = row["bound"], row["spread"]
            flag = "  SPREAD > BOUND" if None not in (bound, spread) and \
                spread > bound else ""
            shown = "-" if spread is None else f"{spread:.3f}"
            print(f"{workload:12} {name:28} {row['median']:14.6g} "
                  f"{row['q1']:14.6g} {row['q3']:14.6g} {shown:>8} "
                  f"{'' if bound is None else bound:>6}{flag}")
    for workload, count in out["counts"].items():
        print(f"{workload:12} attempted {count['attempted']}, failed "
              f"{count['failed']}, failed runs {count['bad_runs']}")


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["results"]
    b = json.loads(Path(path_b).read_text())["results"]
    worse = 0
    for workload in a:
        if workload not in b:
            print(f"{workload}: missing from {path_b}")
            worse += 1
            continue
        cells = []
        for name, row in a[workload].items():
            if name not in b[workload]:
                cells.append(f"{name} missing")
                worse += 1
                continue
            base, new = row["median"], b[workload][name]["median"]
            delta = (new - base) / abs(base) if base else 0.0
            loss = delta if row["better"] == "lower" else -delta
            flag = ""
            if row["bound"] is not None and loss > row["bound"]:
                flag = " WORSE"
                worse += 1
            cells.append(f"{name} {delta:+.1%}{flag}")
        print(f"{workload:12} " + "  ".join(cells))
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="per-layer metrics (traced runs)")
    parser.add_argument("--json", help="write the summary here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    return repeat(args)


if __name__ == "__main__":
    sys.exit(main())
