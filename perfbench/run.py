#!/usr/bin/env python3
"""Builds and runs the decorr benchmark; see perfbench/BENCH.md.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload tpcd_indexed --seed 1 --seconds 40 --trace 0

The engine and the measuring program are built from the checkout's sources
into .bench_build/ on first use. The run prints every metric by name with its
unit, then, as its last line, one JSON object with `correct`, `attempted`,
`failed` and the metrics BENCHMARK.json declares: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1. The full report, with the run's
meta, goes to .bench_build/reports/; traced runs also write their spans to
.bench_build/spans/.

Two reports are compared with

    python3 perfbench/run.py --compare A.json B.json

which refuses runs whose meta (scale factor, cores, build type, dop, clients,
window, ...) differ in anything but the seed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("tpcd_indexed", "tpcd_noindex", "served_small")
# Meta keys that may differ between two runs that are compared: the seed
# picks the inputs, not the conditions.
SEED_KEYS = {"seed", "tpcd_seed", "rejected_patterns"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Builds the measuring program from the checkout's sources."""
    if not (ROOT / "src" / "decorr").is_dir():
        fail(f"no engine sources under {ROOT / 'src'}: run from a checkout")
    cmake_dir = BUILD_DIR / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return cmake_dir / "perfbench"


def check_metrics(doc, trace):
    """The declared metrics of this mode, each with its declared unit."""
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = doc["metrics"]
    problems = []
    out = {}
    for m in wanted:
        got = emitted.get(m["name"])
        if got is None:
            problems.append(f"{m['name']} not emitted")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} in {got['unit']}, declared {m['unit']}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{m['name']} is {got['value']}, not a number")
        else:
            out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out, problems


def print_table(doc):
    meta = doc["meta"]
    print("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    print(f"attempted={doc['attempted']} failed={doc['failed']} "
          f"correct={doc['correct']}")
    for error in doc.get("errors", []):
        print(f"error: {error}")
    for name, m in sorted(doc["metrics"].items()):
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:48s} {value:>16s} {m['unit']}")


def run(args):
    binary = build()
    seed_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        seed_tag += "-smoke"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD_DIR / "spans" / f"{seed_tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}: "
             + (lines[-1] if lines else "no output"))
    doc = json.loads(lines[-1])
    metrics, problems = check_metrics(doc, args.trace)
    if problems:
        fail("benchmark does not emit what BENCHMARK.json declares: "
             + "; ".join(problems))

    report = BUILD_DIR / "reports" / f"{seed_tag}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print_table(doc)
    print(f"report: {report.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    keys = (set(a["meta"]) | set(b["meta"])) - SEED_KEYS
    differ = sorted(k for k in keys if a["meta"].get(k) != b["meta"].get(k))
    if differ:
        for k in differ:
            print(f"meta {k}: {a['meta'].get(k)} vs {b['meta'].get(k)}")
        fail("refusing to compare runs whose meta differ")
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':48s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        flag = ""
        m = declared.get(name)
        if m is not None and "bound" in m and va:
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            if worse > m["bound"]:
                flag = f"  worse by {worse:.1%} > bound {m['bound']:.0%}"
        print(f"{name:48s} {va:>14.6g} {vb:>14.6g} {ratio:>8.3f}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, for the benchmark's own tests")
    parser.add_argument("--compare", nargs=2, metavar="REPORT")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        parser.error("give --workload or --compare")


if __name__ == "__main__":
    main()
