"""Experiment driver: per-matrix diagnostics, the three report tables,
size sweeps, and the fixtures the bound-check suite runs over."""

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .checks import CheckSuiteReport, check_all_bounds
from .dense import spectral_norm
from .errors import FactorError, InvalidEntryError, SingularError, UsageError
from .matio import _non_ascii_error
from .symplectic import BlockPartition
from .testmat import (PASCAL_MAX_N, RANDOM_MAX_N, diag_family, hyperbolic_spd,
                      hyperbolic_spd_inverse, minij, pascal_symplectic, random_pdp)

# Every named family as (generator, param, sweep limit).  The generator takes
# the family arguments theta, n, t and seed by keyword, ignores those it does
# not use and returns a BlockPartition; a diagnostics row reports the argument
# named param (None: 0); a size sweep takes n up to the limit (None: no sweep).
FAMILIES = {
    "minij": (lambda **_: BlockPartition.from_matrix(minij()), None, None),
    "hyperbolic": (lambda theta, **_: BlockPartition.from_matrix(
        hyperbolic_spd(theta)), "theta", None),
    "hyperbolic-inverse": (lambda theta, **_: BlockPartition.from_matrix(
        hyperbolic_spd_inverse(theta)), "theta", None),
    "pascal": (lambda n, **_: pascal_symplectic(n), "n", PASCAL_MAX_N),
    "diagt": (lambda t, theta, **_: BlockPartition.from_matrix(
        diag_family(t, theta)[1]), "t", None),
    "random": (lambda n, seed, **_: random_pdp(n, seed), "n", RANDOM_MAX_N),
}
_THETAS = (3.0, 4.0, 6.0, 7.0)  # the thetas of report tables 1 and 2 and of the fixtures


def generate_family(name, **args):
    """(BlockPartition, param) of the named family; see FAMILIES."""
    make, param, _ = FAMILIES[name]
    return make(**args), (args[param] if param else 0.0)


@dataclass(frozen=True)
class DiagnosticsRow:
    family: str
    param: float
    n: int
    kappa2_A: float
    norm2_A: float
    kappa2_A11: float
    norm2_A11: float
    norm2_invA11: float
    dist_sympl: float
    dist_sympl_rel: float
    relerr_w1: float
    relerr_w2: float
    omega_A: float
    omega_L1: float
    omega_L2: float
    error: str = ""

    @property
    def ok(self):
        return not self.error


_FIELDS = fields(DiagnosticsRow)
CSV_COLUMNS = [f.name for f in _FIELDS]
TABLE_QUANTITIES = CSV_COLUMNS[3:-1]  # the fields after family, param, n; before error


def diagnose(a, family="custom", param=0.0):
    """All reported quantities for one SPD matrix of even order.

    Runs both factorization routes.  A singular input or leading block, a
    factorization failure, or a computed quantity that overflows records
    the failure message and marks the fields not computed by then NaN.
    A NaN or infinite input raises InvalidEntryError.
    """
    # an overflow ends up in the row's error, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        p = a if isinstance(a, BlockPartition) else BlockPartition.from_matrix(a)
        values = {
            "family": family,
            "param": float(param),
            "n": p.n,
            "norm2_A": p.norm,
            "norm2_A11": p.norm_a11,
        }
        error = ""
        try:
            values["omega_A"] = p.omega_norm
            values["kappa2_A"] = p.kappa
            values["kappa2_A11"] = p.kappa_a11
            f1, f2 = p.w1, p.w2
            values["norm2_invA11"] = p.norm_inv_a11
            values["dist_sympl"] = p.dist
            values["dist_sympl_rel"] = p.dist / p.norm
            values["relerr_w1"] = spectral_norm(f1.residual()) / p.norm
            values["relerr_w2"] = spectral_norm(f2.residual()) / p.norm
            values["omega_L1"] = spectral_norm(f1.omega())
            values["omega_L2"] = spectral_norm(f2.omega())
        except (FactorError, SingularError) as exc:
            error = str(exc)
        except InvalidEntryError:
            # p.norm tested the input finite, so this NaN or infinity was computed
            error = "a computed quantity overflowed to a non-finite value"
        for name in TABLE_QUANTITIES:
            values.setdefault(name, math.nan)
        return DiagnosticsRow(error=error, **values)


# each report table's rows, one column each in format_table, as (family, args)
TABLES = {
    1: [("hyperbolic", {"theta": t}) for t in _THETAS],
    2: [("hyperbolic-inverse", {"theta": t}) for t in _THETAS],
    3: [("pascal", {"n": n}) for n in (6, 8, 10, 12)],
}


def _family_row(family, **args):
    matrix, param = generate_family(family, **args)
    return diagnose(matrix, family, param)


def run_table(table_id):
    """Rows of report table 1 (S^T S), 2 (its inverse) or 3 (Pascal family)."""
    if table_id not in tuple(TABLES):
        raise UsageError(f"run_table: table id must be 1, 2 or 3, got {table_id!r}")
    return [_family_row(family, **args) for family, args in TABLES[table_id]]


def run_sweep(family, n_from, n_to, seed=0):
    """One diagnostics row per half-dimension n in [n_from, n_to].

    The random family derives the per-size seed as seed + n, so a sweep is
    reproducible from its single seed.  Factorization failures mark their
    row and the sweep continues.

    With more than one CPU in the affinity mask and no other thread in
    the process, the rows are computed in forked worker processes, one
    per CPU, largest n first, each whole in one process by the same code
    and LAPACK: every bit is that of the in-process loop, the rows come
    back in ascending n, and a raising row raises here, the lowest n's.
    One CPU (``taskset -c 0``), one row, or another thread (a Python
    thread makes forking unsafe; a multi-threaded BLAS's pool would be
    multiplied past the CPUs) keeps the loop in this process.
    A profiler in this process sees only the waiting parent, and a large
    ``n_to`` holds one row per worker in memory at once.
    """
    max_n = FAMILIES[family][2] if family in FAMILIES else None
    if max_n is None:
        raise UsageError(f"run_sweep: unsupported family {family!r}")
    if not 1 <= n_from <= n_to <= max_n:
        raise UsageError(f"run_sweep: bad range {n_from}..{n_to}"
                         f" ({family} takes n in 1..{max_n})")
    sizes = range(n_from, n_to + 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(sizes))
    if workers > 1 and _single_threaded():
        return _rows_in_workers(workers, family, sizes, seed)
    return [_family_row(family, n=n, seed=seed + n) for n in sizes]


def _single_threaded():
    # counts native threads too, which Python's threading module does not
    # see; where /proc cannot tell, assume another thread
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _rows_in_workers(workers, family, sizes, seed):
    # imported only where a sweep forks: the import takes tens of
    # milliseconds, which no other command should pay at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        # the largest rows first, so that no long row starts last
        futures = {n: pool.submit(_family_row, family, n=n, seed=seed + n)
                   for n in reversed(sizes)}
        try:
            return [futures[n].result() for n in sizes]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _record(row):
    # a row's CSV fields: floats as Python's shortest round-tripping repr,
    # the other fields as str
    return [repr(float(getattr(row, f.name))) if f.type is float
            else str(getattr(row, f.name)) for f in _FIELDS]


def write_csv(path, rows):
    """One header line, then one record per row (see _record)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_record(row) for row in rows)


def read_csv(path):
    """The rows of a ``write_csv`` file, bitwise.  A non-ASCII byte, a wrong
    or missing header, a record of the wrong length, or a field its type
    cannot parse or that is not written as ``write_csv`` writes its value
    raises UsageError naming the line."""
    rows = []
    try:
        with open(path, newline="", encoding="ascii") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != CSV_COLUMNS:
                raise UsageError(f"line 1: unexpected CSV header {header!r}")
            for record in reader:
                if len(record) != len(CSV_COLUMNS):
                    raise UsageError(f"line {reader.line_num}: expected "
                                     f"{len(CSV_COLUMNS)} fields, got {len(record)}")
                try:
                    row = DiagnosticsRow(*(f.type(v) for f, v in zip(_FIELDS, record)))
                except ValueError as exc:
                    raise UsageError(f"line {reader.line_num}: {exc}") from None
                for name, got, want in zip(CSV_COLUMNS, record, _record(row)):
                    if got != want:
                        raise UsageError(f"line {reader.line_num}: {name} field "
                                         f"{got!r} is not written as {want!r}")
                rows.append(row)
    except UnicodeDecodeError:
        raise UsageError(str(_non_ascii_error(path, csv_lines=True))) from None
    return rows


def format_table(rows, title=""):
    """Human-readable layout: quantities as rows, one column per matrix,
    values in 5-significant-digit scientific notation."""
    out = []
    if title:
        out.append(title)
    header = ["quantity"] + [f"{r.family}({r.param:g})" for r in rows]
    widths = [max(14, len(h)) for h in header]
    out.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for name in TABLE_QUANTITIES:
        cells = [name] + [f"{getattr(r, name):.4e}" for r in rows]
        out.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# aggregated check suite

# the check suite's fixtures as (family, args, label), in seed order: a
# fixture's index in this list seeds its perturbations (see run_checks)
FIXTURES = [("minij", {}, ""), *[(family, {"theta": t}, f"{t:g}") for t in _THETAS
                                 for family in ("hyperbolic", "hyperbolic-inverse")],
            *[("pascal", {"n": n}, f"{n}") for n in (2, 6, 8, 10, 12)],
            ("diagt", {"t": 1e6, "theta": 1e-10}, "1e6"),
            *[("random", {"n": n, "seed": s}, f"n{n}-s{s}")
              for n in (5, 10, 20) for s in (1, 2, 3)]]


def standard_fixtures():
    """(name, partition) of each entry of FIXTURES, in order; a name is
    '<family>' or '<family>/<label>', so that a scope selects one family."""
    return [(f"{family}/{label}" if label else family, generate_family(family, **args)[0])
            for family, args, label in FIXTURES]


def run_checks(scope="all", inject_w2_fault=False):
    """check_all_bounds on each fixture of the set, seeded by the fixture's
    index, with every result tagged by the fixture's name.

    ``scope`` selects one family ('hyperbolic', 'pascal', ...); 'identity' runs
    against the identity matrix alone.  The fault injection flag corrupts
    the computed lower-right w2 block by 1e-3 to prove the backward check
    can fail.
    """
    if scope == "identity":
        fixtures = [(0, "identity", BlockPartition.from_matrix(np.eye(4)))]
    else:
        # a fixture's index in the full set seeds its perturbations, so a
        # scoped run repeats the full run's lines for its fixtures bitwise
        fixtures = [(index, name, p) for index, (name, p) in enumerate(standard_fixtures())
                    if scope in ("all", name.split("/")[0])]
        if not fixtures:
            scopes = ", ".join(["all", "identity", *dict.fromkeys(f for f, _, _ in FIXTURES)])
            raise UsageError(f"run_checks: no fixtures match scope {scope!r} (scopes: {scopes})")

    fault = 1e-3 if inject_w2_fault else 0.0
    return CheckSuiteReport(tuple(replace(r, context=name) for index, name, p in fixtures
                                  for r in check_all_bounds(p, 7700 + 13 * index, fault)))
