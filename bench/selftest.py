"""Self-tests of the benchmark itself.

    python3 bench/selftest.py [--seconds 1] [--seed 5] [workload ...]

For each workload (default: all three) this runs ``run.py`` once untraced
and twice traced with the same seed, then checks that

* every run is correct, and a traced run restores every wrapped attribute
  (``run.py`` reports a run with an unrestored attribute as incorrect);
* traced and untraced runs give the same output digests;
* in the recorded spans, the self times of each traced op, summed over
  layers, do not exceed that op's wall time;
* the computed counts and call counts are equal across the two traced runs.

It also installs and removes the wrappers in-process and checks that every
binding changed while installed and is the original object afterwards.
Exits 1 on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_run"
WORKLOADS = ("check-suite", "sweep-random", "diagnose-file")


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        fail(f"{workload} trace={trace} not correct:\n{proc.stderr}")
    path = WORK / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def check_wrappers_restored():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import tracer

    tr = tracer.Tracer()
    if not tr.bindings:
        fail("the tracer found nothing to wrap")
    tr.install()
    replaced = all(getattr(ns, attr) is not original for ns, attr, original, _ in tr.bindings)
    tr.uninstall()
    if not replaced:
        fail("install() left a binding unwrapped")
    if not tr.restored():
        fail("uninstall() did not restore every binding")
    print(f"ok: {len(tr.bindings)} bindings wrapped and restored")


def check_self_time(record, workload):
    """Self time summed over layers per traced op, from the spans, against
    the op's raw wall time."""
    duration = {}
    children = defaultdict(float)
    for index, _, start, end, parent, _ in record["spans"]:
        duration[index] = end - start
        if parent >= 0:
            children[parent] += end - start
    per_op = defaultdict(float)
    for index, _, start, end, parent, op in record["spans"]:
        per_op[op] += duration[index] - children[index]
    walls = {o["op"]: o["raw_s"] for o in record["ops"]}
    for op, self_sum in per_op.items():
        # 1 ns allows for the rounding of differences of span times
        if self_sum > walls[op] + 1e-9:
            fail(f"{workload}: op {op} self time {self_sum} exceeds wall {walls[op]}")
    if not per_op:
        fail(f"{workload}: the traced run recorded no spans")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    check_wrappers_restored()
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0)
        first = run(workload, args.seed, args.seconds, 1)
        second = run(workload, args.seed, args.seconds, 1)
        if not plain["digests"] or plain["digests"] != first["digests"]:
            fail(f"{workload}: traced and untraced digests differ")
        check_self_time(first, workload)
        counted = [name for name, m in first["all_measured"].items()
                   if m["unit"] in ("count", "flop", "B", "ratio")]
        for name in counted:
            if first["all_measured"][name] != second["all_measured"].get(name):
                fail(f"{workload}: {name} differs between two traced runs")
        print(f"ok: {workload}: digests match, self time within wall, "
              f"{len(counted)} counts repeat exactly")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
