"""Experiment driver: per-matrix diagnostics, the three report tables,
size sweeps, and the fixtures the bound-check suite runs over."""

import csv
import math
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .checks import CheckSuiteReport, check_all_bounds
from .dense import _is_int, spectral_norm
from .errors import FactorError, InvalidEntryError, SingularError, UsageError
from .matio import _non_ascii_error
from .symplectic import BlockPartition
from .testmat import (PASCAL_MAX_N, RANDOM_MAX_N, diag_family, hyperbolic_spd,
                      hyperbolic_spd_inverse, minij, pascal_symplectic, random_pdp)
from .workers import _fork_cpus, _forked

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


# diagnose's steps in row order as (field, getter); the w1 and w2 steps record
# nothing and fail where their factor cannot be computed
_STEPS = (
    ("omega_A", lambda p: p.omega_norm),
    ("kappa2_A", lambda p: p.kappa),
    ("kappa2_A11", lambda p: p.kappa_a11),
    ("w1", lambda p: p.w1),
    ("w2", lambda p: p.w2),
    ("norm2_invA11", lambda p: p.norm_inv_a11),
    ("dist_sympl", lambda p: p.dist),
    ("dist_sympl_rel", lambda p: p.dist / p.norm),
    ("relerr_w1", lambda p: spectral_norm(p.w1.residual()) / p.norm),
    ("relerr_w2", lambda p: spectral_norm(p.w2.residual()) / p.norm),
    ("omega_L1", lambda p: spectral_norm(p.w1.omega())),
    ("omega_L2", lambda p: spectral_norm(p.w2.omega())),
)
_ALL_STEPS = {name for name, _ in _STEPS}
# a split row's child's steps, about half of the row's time, and the least n
# at which a split row gained in measured pairs (BENCH_24.json)
_CHILD_STEPS, _SPLIT_MIN_N = {"omega_A", "w2", "relerr_w2", "omega_L2"}, 96


def diagnose(a, family="custom", param=0.0):
    """All reported quantities for one SPD matrix of even order.

    Runs both factorization routes.  A singular input or leading block, a
    factorization failure, or a computed quantity that overflows records
    the failure message and marks the fields not computed by then NaN.
    A NaN or infinite input raises InvalidEntryError.

    From n = _SPLIT_MIN_N, if _fork_cpus() > 1, a forked child computes
    ||omega(A)|| and W2's fields bit for bit (_forked); ``taskset -c 0``
    keeps the row here.  ``ru_maxrss`` and a profiler see only this share.
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
        split = p.n >= _SPLIT_MIN_N and _fork_cpus() > 1
        names = [_ALL_STEPS - _CHILD_STEPS, _CHILD_STEPS] if split else [_ALL_STEPS]
        shares = _forked([partial(_run_steps, p, share) for share in names])
        # the row ends at the first failing step of either share, as in one process
        stop, error = min(failed for _, failed in shares)
        for done, _ in shares:
            values.update((name, value) for i, name, value in done if i < stop)
        for name in TABLE_QUANTITIES:
            values.setdefault(name, math.nan)
        return DiagnosticsRow(error=error, **values)


def _run_steps(p, names):
    # the named steps of _STEPS in row order up to the first that fails: the
    # (index, field, value) of each field, and (that index, its message)
    done = []
    for i, (name, get) in enumerate(_STEPS):
        if name not in names:
            continue
        try:
            value = get(p)
        except (FactorError, SingularError) as exc:
            return done, (i, str(exc))
        except InvalidEntryError:
            # p.norm tested the input finite, so this NaN or infinity was computed
            return done, (i, "a computed quantity overflowed to a non-finite value")
        if name in TABLE_QUANTITIES:
            done.append((i, name, value))
    return done, (len(_STEPS), "")


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
    if not _is_int(table_id) or table_id not in TABLES:
        raise UsageError(f"run_table: table id must be 1, 2 or 3, got {table_id!r}")
    return [_family_row(family, **args) for family, args in TABLES[table_id]]


def run_sweep(family, n_from, n_to, seed=0):
    """One diagnostics row per half-dimension n in [n_from, n_to].

    The random family derives the per-size seed as seed + n, so a sweep is
    reproducible from its single seed.  Factorization failures mark their
    row and the sweep continues.

    The rows are computed by _forked, each whole and bit for bit in one
    process (none split as diagnose splits one); the lowest n's error raises.
    """
    max_n = FAMILIES[family][2] if family in FAMILIES else None
    if max_n is None:
        raise UsageError(f"run_sweep: unsupported family {family!r}")
    if not all(map(_is_int, (n_from, n_to, seed))):
        raise UsageError(f"run_sweep: n_from, n_to and seed must be integers,"
                         f" got {n_from!r}, {n_to!r}, {seed!r}")
    if not 1 <= n_from <= n_to <= max_n:
        raise UsageError(f"run_sweep: bad range {n_from}..{n_to}"
                         f" ({family} takes n in 1..{max_n})")
    return _forked([partial(_family_row, family, n=n, seed=seed + n)
                    for n in range(n_from, n_to + 1)])


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


def standard_fixtures(scope="all"):
    """(index, name, partition) of each entry of FIXTURES in the family
    ``scope`` ('all': every entry), in order, building only those; a name
    is '<family>' or '<family>/<label>'.  As the index seeds perturbations,
    a scoped run repeats the full run's lines for its fixtures bitwise."""
    return [(i, f"{family}/{label}" if label else family, generate_family(family, **args)[0])
            for i, (family, args, label) in enumerate(FIXTURES) if scope in ("all", family)]


def run_checks(scope="all", inject_w2_fault=False):
    """check_all_bounds on each fixture of the set, seeded by the fixture's
    index, with every result tagged by the fixture's name.

    ``scope`` selects one family ('hyperbolic', 'pascal', ...); 'identity' runs
    against the identity matrix alone.  The fault injection flag corrupts
    the computed lower-right w2 block by checks.W2_FAULT to prove the
    backward check can fail.
    """
    fixtures = ([(0, "identity", BlockPartition.from_matrix(np.eye(4)))] if scope == "identity"
                else standard_fixtures(scope))
    if not fixtures:
        scopes = ", ".join(["all", "identity", *dict.fromkeys(f for f, _, _ in FIXTURES)])
        raise UsageError(f"run_checks: no fixtures match scope {scope!r} (scopes: {scopes})")

    return CheckSuiteReport(tuple(replace(r, context=name) for i, name, p in fixtures
                                  for r in check_all_bounds(p, 7700 + 13 * i, inject_w2_fault)))
