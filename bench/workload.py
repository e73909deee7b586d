"""One benchmark process: set up a workload, run it, check every output.

``run.py`` starts this script in a fresh process, once per extra set-up
sample (``--setup-only``) and once for the measured run:

    python3 bench/workload.py --workload sweep-random --seed 3 --seconds 20 \\
        --trace 0 --spawned-at <time.monotonic() of the parent> --out r.json

The measured run is a closed loop with one client in a single thread: the
next operation starts when the previous one has returned and its output
has been checked.  ``setup_s`` is the time from the parent's spawn to the
moment the inputs are built, so it covers interpreter start-up,
``import sympllt`` and input generation.  The library is imported from
``src/`` of the checkout this file sits in; nothing in it is changed.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_run"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sympllt  # noqa: E402
from sympllt import cli, diagnostics, matio, testmat  # noqa: E402

import tracer  # noqa: E402

EPS = 2.0 ** -53
# The host-speed kernel runs after every op for this share of the op's
# time, and at least this long.
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_S = 0.02


def c9_bound(n):
    """4 n gamma_{n+2}, the w2 backward-error bound of acceptance C9,
    computed here so the gate does not depend on the code it checks."""
    ne = (n + 2) * EPS
    return 4.0 * n * ne / (1.0 - ne)


def _float_digest(values, h=None):
    h = h or hashlib.sha256()
    h.update(np.asarray(values, dtype=np.float64).tobytes())
    return h


def _row_values(row):
    return [float(getattr(row, f.name)) for f in dataclasses.fields(row)
            if f.name not in ("family", "error")]


class Workload:
    """Defaults: one input, made inside the operation from the seed."""

    seeded = True
    keys = (0,)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        pass

    def verify_setup(self):
        return []


class CheckSuite(Workload):
    """Repeated in-process ``run_checks()``: 24 fixtures, matrices of order
    at most 40.  Time goes to per-call overhead and redundant
    factorizations, not to large kernels.  ``run_checks`` takes no seed,
    so this workload ignores ``--seed``."""

    seeded = False
    calibration = "small"

    def op(self, key):
        return diagnostics.run_checks()

    def check(self, key, report):
        problems = []
        if report.violated != 0:
            problems.append(f"{report.violated} bound(s) violated")
        if report.exit_code != 0:
            problems.append(f"exit code {report.exit_code}")
        h = hashlib.sha256()
        for r in report.results:
            h.update(f"{r.context}|{r.bound_id}|{r.verdict}\n".encode())
            _float_digest([r.lhs, r.rhs, r.floor], h)
        skip_ratio = report.skipped / len(report.results)
        return problems, h.hexdigest(), {"checks.skip_ratio": skip_ratio}


class SweepRandom(Workload):
    """Repeated ``run_sweep("random", 1, 100, seed)``, the C9 run: orders
    2 to 200, inputs generated inside the operation by the pure-Python
    SplitMix64/Box-Muller generator."""

    calibration = "mid"
    N_FROM, N_TO = 1, 100

    def op(self, key):
        return diagnostics.run_sweep("random", self.N_FROM, self.N_TO, self.seed)

    def check(self, key, rows):
        problems = []
        expected = list(range(self.N_FROM, self.N_TO + 1))
        if [r.n for r in rows] != expected:
            problems.append(f"expected rows for n={self.N_FROM}..{self.N_TO}")
        for r in rows:
            if not r.ok:
                problems.append(f"n={r.n}: {r.error}")
            elif not r.relerr_w2 <= c9_bound(r.n):
                problems.append(f"n={r.n}: relerr_w2 {r.relerr_w2!r} above C9 bound")
        h = hashlib.sha256()
        for r in rows:
            _float_digest(_row_values(r), h)
        return problems, h.hexdigest(), {}


class DiagnoseFile(Workload):
    """The user path ``sympllt diagnose --in a.mat --csv row.csv`` through
    ``cli.main``, on random_pdp(200, .) files (order 400) written during
    set-up, one per derived seed.  O(n^3) products dominate; this is the
    only workload that reads matrix files."""

    FILES = 2
    HALF_ORDER = 200
    keys = tuple(range(FILES))
    calibration = "small"

    def derived_seed(self, key):
        return self.seed * self.FILES + key

    def setup(self):
        # a directory of this process's own, removed when the process ends
        self._dir = tempfile.TemporaryDirectory(dir=WORK, prefix="inputs-")
        folder = Path(self._dir.name)
        self.paths = [folder / f"a{k}.mat" for k in self.keys]
        self.csv_path = folder / "row.csv"
        self.matrices = []
        for key, path in zip(self.keys, self.paths):
            a = testmat.random_pdp(self.HALF_ORDER, self.derived_seed(key)).assemble()
            matio.write_matrix(path, a)
            self.matrices.append(a)

    def verify_setup(self):
        """read_matrix must return bitwise what set-up generated."""
        problems = []
        for path, a in zip(self.paths, self.matrices):
            back = matio.read_matrix(path)
            if back.shape != a.shape or back.tobytes() != a.tobytes():
                problems.append(f"{path.name}: read_matrix differs from the generated matrix")
        return problems

    def op(self, key):
        self.csv_path.unlink(missing_ok=True)
        argv = ["diagnose", "--in", str(self.paths[key]), "--csv", str(self.csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, key, exit_code):
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        with open(self.csv_path, newline="", encoding="ascii") as fh:
            records = list(csv.DictReader(fh))
        if len(records) != 1:
            return problems + [f"expected 1 CSV row, got {len(records)}"], None, {}
        row = records[0]
        if row.get("error"):
            problems.append(f"row failed: {row['error']}")
        values = [float(v) for name, v in row.items() if name not in ("family", "error")]
        if not all(math.isfinite(v) for v in values):
            problems.append("row has non-finite fields")
        n = int(row["n"])
        if n != self.HALF_ORDER:
            problems.append(f"row has n={n}")
        elif not float(row["relerr_w2"]) <= c9_bound(n):
            problems.append(f"relerr_w2 {row['relerr_w2']} above C9 bound")
        return problems, _float_digest(values).hexdigest(), {}


WORKLOADS = {
    "check-suite": CheckSuite,
    "sweep-random": SweepRandom,
    "diagnose-file": DiagnoseFile,
}


def _percentile_tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    keep = len(ordered) - 10
    if keep < 1:
        return None
    return {"percentile": math.floor(100 * keep / len(ordered)), "value": ordered[keep - 1]}


def run_loop(workload, seconds, trace):
    """Closed loop over ``workload``.

    Returns (ops, digests, layers, spans, problems): every op's record,
    the first op's output digest per input, the per-layer metrics and
    spans of a traced run, and problems found outside any one op.

    In a traced run, operations alternate untraced/traced on the same
    input, so both kinds run under the same host conditions.
    """
    import calibrate

    tr = tracer.Tracer() if trace else None
    ops, traced_ops, problems = [], [], []
    reference = {}
    keys = workload.keys
    per_key = 2 if trace else 1
    begin = time.perf_counter()
    host_before = calibrate.measure(workload.calibration, CALIBRATION_MIN_S)
    i = 0
    while True:
        key = keys[(i // per_key) % len(keys)]
        traced = trace and i % 2 == 1
        if traced:
            tr.op = i
            tr.reset_op()
            tr.record_spans = i // per_key < len(keys)  # first traced op per input
            tr.install()
        error = None
        try:
            t0 = time.perf_counter()
            try:
                out = workload.op(key)
            except Exception as exc:  # a failing op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        finally:
            if traced:
                tr.uninstall()
        host_after = calibrate.measure(
            workload.calibration, max(CALIBRATION_MIN_S, CALIBRATION_SHARE * (t1 - t0)))
        slowdown = 0.5 * (host_before + host_after)
        host_before = host_after
        record = {"op": i, "key": key, "traced": traced, "raw_s": t1 - t0,
                  "slowdown": slowdown, "wall_s": (t1 - t0) / slowdown}
        op_problems, digest, extra = [error], None, {}
        if error is None:
            try:
                op_problems, digest, extra = workload.check(key, out)
            except Exception as exc:  # malformed output fails the op
                op_problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if digest is not None:
            first = reference.setdefault(key, digest)
            if digest != first:
                op_problems.append(f"digest {digest} differs from the first op's {first}")
        record.update(ok=not op_problems, digest=digest, problems=op_problems, **extra)
        if traced:
            record.update(calls=tr.calls, self_s=tr.self_s, counts=tr.counts)
            if not tr.restored():
                problems.append(f"op {i}: a wrapped attribute was not restored")
            if sum(tr.self_s) > record["raw_s"]:
                problems.append(f"op {i}: summed self time exceeds the op's wall time")
            traced_ops.append(record)
        ops.append(record)
        i += 1
        if time.perf_counter() - begin >= seconds and (not trace or i >= 2):
            break
    layers = _layer_metrics(tr, ops, traced_ops, problems) if trace else {}
    spans = tr.span_records(begin) if trace else []
    return ops, reference, layers, spans, problems


def _layer_metrics(tr, ops, traced_ops, problems):
    """Per-layer metrics of a traced run, all per operation.

    Calls and computed counts come from the first traced op; every other
    traced op on the same input must repeat them exactly.  Self times are
    medians over the traced ops.
    """
    first_on_key = {}
    for rec in traced_ops:
        first = first_on_key.setdefault(rec["key"], rec)
        if rec["calls"] != first["calls"] or rec["counts"] != first["counts"]:
            problems.append(f"op {rec['op']}: calls or counts differ from op {first['op']}")
    first = traced_ops[0]
    metrics = {}
    modules = {}
    for fid, name in enumerate(tr.names):
        metrics[f"{name}.calls"] = (first["calls"][fid], "count")
        metrics[f"{name}.self_s"] = (median(r["self_s"][fid] for r in traced_ops), "s")
        modules.setdefault(name.split(".")[0], []).append(fid)
    for module, fids in modules.items():
        metrics[f"{module}.self_s"] = (
            median(sum(r["self_s"][f] for f in fids) for r in traced_ops), "s")
    for name, unit in tracer.COUNTS.items():
        metrics[name] = (first["counts"][name], unit)
    metrics["checks.skip_ratio"] = (first.get("checks.skip_ratio", 0.0), "ratio")
    traced_wall = median(r["raw_s"] for r in traced_ops)
    untraced_wall = median(r["raw_s"] for r in ops if not r["traced"])
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(sympllt.__file__).resolve().parents:
        raise SystemExit(f"sympllt imported from {sympllt.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_raw_s = time.monotonic() - args.spawned_at
    import calibrate  # after the set-up clock stops: it builds its own inputs

    slowdown = calibrate.measure(workload.calibration, CALIBRATION_MIN_S)
    result = {"setup_s": setup_raw_s / slowdown, "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        problems = workload.verify_setup()
        ops, digests, layers, spans, loop_problems = run_loop(
            workload, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = [r for r in ops if not r["traced"]]
        failed = sum(1 for r in ops if not r["ok"]) if not problems else len(ops)
        result.update(
            seeded=workload.seeded,
            attempted=len(ops),
            failed=failed,
            problems=problems + loop_problems,
            wall_s=median(r["wall_s"] for r in untraced),
            raw_wall_s=median(r["raw_s"] for r in untraced),
            wall_samples=len(untraced),
            wall_tail=_percentile_tail([r["wall_s"] for r in untraced]),
            peak_rss_mb=peak_rss_mb,
            digests={str(key): d for key, d in digests.items()},
            ops=[{k: v for k, v in r.items() if k not in ("calls", "self_s", "counts")}
                 for r in ops],
            layers={name: {"value": v, "unit": u} for name, (v, u) in layers.items()},
            spans=spans,
        )
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
