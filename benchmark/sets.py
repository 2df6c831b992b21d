#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares them.

    python3 benchmark/sets.py run OUT.jsonl --seeds FIRST LAST [--workloads W ...]
                                             [--seconds S] [--cmd PROGRAM ARG ...]
    python3 benchmark/sets.py compare A.jsonl [B.jsonl]

`run` runs every workload of BENCHMARK.json (or those named) once per
seed, untraced, from the repository root, and appends one JSON line per
run to OUT.jsonl: workload, seed, wall time, exit code, the result
object and the report line. `--cmd` replaces the command of
BENCHMARK.json, e.g. with an already built binary.

`compare` prints, per workload and end-to-end metric, each set's median
and spread (distance between the quartiles of
`statistics.quantiles(values, n=4)`, as a share of the median) and, given
two sets, how far the median moved from the first to the second, as a
share of the first. A spread above the metric's bound, or a move in its
worse direction beyond the bound, is marked `!`.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(argv):
    out = argv[0]
    bench = spec()
    opts = {"--seeds": [], "--workloads": [], "--seconds": [], "--cmd": []}
    key = None
    for a in argv[1:]:
        if a in opts and key != "--cmd":
            key = a
        else:
            opts[key].append(a)
    first, last = (int(s) for s in opts["--seeds"])
    workloads = opts["--workloads"] or [w["name"] for w in bench["workloads"]]
    seconds = (opts["--seconds"] or [str(bench["run_seconds"])])[0]
    cmd = opts["--cmd"] or bench["command"]
    for workload in workloads:
        for seed in range(first, last + 1):
            t = time.time()
            p = subprocess.run(
                cmd + ["--workload", workload, "--seed", str(seed),
                       "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            wall = time.time() - t
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            report = json.loads(lines[-2])["report"] if len(lines) > 1 else None
            record = {"workload": workload, "seed": seed, "wall_s": round(wall, 2),
                      "exit": p.returncode, "result": result, "report": report}
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
            ok = p.returncode == 0 and result and result["correct"]
            shown = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
            print(workload, seed, f"{wall:.1f}s", "ok" if ok else "FAILED", shown, flush=True)
            if not ok:
                print(p.stderr[-2000:], file=sys.stderr)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["result"] is None:
                continue
            for name, m in r["result"]["metrics"].items():
                runs.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def compare(paths):
    bench = spec()
    sets = [load(p) for p in paths]
    print(f"{'workload':14} {'metric':17} {'bound':>5}"
          + "".join(f" {'median':>11} {'spread':>7}" for _ in sets)
          + ("  move" if len(sets) == 2 else ""))
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            cols = []
            medians = []
            for s in sets:
                values = s.get(name, {}).get(m["name"], [])
                if not values:
                    cols.append(f" {'-':>11} {'-':>7}")
                    medians.append(None)
                    continue
                med, spr = spread(values)
                medians.append(med)
                flag = "!" if spr > m["bound"] and m["name"] != "setup_s" else " "
                cols.append(f" {med:11.5g} {spr:6.3f}{flag}")
            line = f"{name:14} {m['name']:17} {m['bound']:5.2f}" + "".join(cols)
            if len(sets) == 2 and None not in medians and medians[0]:
                move = (medians[1] - medians[0]) / medians[0]
                worse = move if m["better"] == "lower" else -move
                line += f" {move:+6.3f}{'!' if worse > m['bound'] else ''}"
            print(line)


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run(sys.argv[2:])
    elif 3 <= len(sys.argv) <= 4 and sys.argv[1] == "compare":
        compare(sys.argv[2:])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
