"""Experiment driver: per-matrix diagnostics, the three report tables,
size sweeps, and the aggregated bound-check suite."""

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .checks import (
    HOLDS,
    SKIPPED,
    VIOLATED,
    check_condition_bounds,
    check_omega_factor_bounds,
    check_perturbation_bounds,
    check_w1_error_bound,
    check_w2_backward,
)
from .dense import spectral_norm
from .errors import FactorError, InvalidEntryError, SingularError, UsageError
from .matio import _non_ascii_error
from .symplectic import BlockPartition
from .testmat import (
    PASCAL_MAX_N,
    RANDOM_MAX_N,
    diag_family,
    minij,
    pascal_symplectic,
    random_pdp,
    symmetric_perturbation,
    hyperbolic_spd,
    hyperbolic_spd_inverse,
)

# Every named family: its generator, which takes the family arguments
# theta, n, t and seed by keyword, ignores those it does not use and returns
# a BlockPartition, and the argument a diagnostics row reports as its param
# (None: the row reports 0).
FAMILIES = {
    "minij": (lambda **_: BlockPartition.from_matrix(minij()), None),
    "hyperbolic": (lambda theta, **_: BlockPartition.from_matrix(hyperbolic_spd(theta)), "theta"),
    "hyperbolic-inverse": (
        lambda theta, **_: BlockPartition.from_matrix(hyperbolic_spd_inverse(theta)), "theta"),
    "pascal": (lambda n, **_: pascal_symplectic(n), "n"),
    "diagt": (lambda t, theta, **_: BlockPartition.from_matrix(diag_family(t, theta)[1]), "t"),
    "random": (lambda n, seed, **_: random_pdp(n, seed), "n"),
}
# the families a size sweep runs over, indexed by n, with the largest n of each
SWEEP_FAMILIES = {"random": RANDOM_MAX_N, "pascal": PASCAL_MAX_N}


def generate_family(name, **args):
    """(BlockPartition, param) of the named family; see FAMILIES."""
    make, param = FAMILIES[name]
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


TABLE_THETAS = (3.0, 4.0, 6.0, 7.0)
TABLE_PASCAL_SIZES = (6, 8, 10, 12)


# each report table's family, and the family argument that varies across its columns
TABLES = {
    1: ("hyperbolic", "theta", TABLE_THETAS),
    2: ("hyperbolic-inverse", "theta", TABLE_THETAS),
    3: ("pascal", "n", TABLE_PASCAL_SIZES),
}


def _family_row(family, **args):
    matrix, param = generate_family(family, **args)
    return diagnose(matrix, family, param)


def run_table(table_id):
    """Rows of report table 1 (S^T S), 2 (its inverse) or 3 (Pascal family)."""
    if table_id not in tuple(TABLES):
        raise UsageError(f"run_table: table id must be 1, 2 or 3, got {table_id!r}")
    family, arg, values = TABLES[table_id]
    return [_family_row(family, **{arg: value}) for value in values]


def run_sweep(family, n_from, n_to, seed=0):
    """One diagnostics row per half-dimension n in [n_from, n_to].

    The random family derives the per-size seed as seed + n, so a sweep is
    reproducible from its single seed.  Factorization failures mark their
    row and the sweep continues.
    """
    if family not in SWEEP_FAMILIES:
        raise UsageError(f"run_sweep: unsupported family {family!r}")
    if not 1 <= n_from <= n_to <= SWEEP_FAMILIES[family]:
        raise UsageError(f"run_sweep: bad range {n_from}..{n_to}"
                         f" ({family} takes n in 1..{SWEEP_FAMILIES[family]})")
    return [_family_row(family, n=n, seed=seed + n) for n in range(n_from, n_to + 1)]


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

@dataclass(frozen=True)
class CheckSuiteReport:
    results: tuple
    holds: int
    violated: int
    skipped: int

    @property
    def exit_code(self):
        return 0 if self.violated == 0 else 1

    def describe(self):
        lines = [r.describe() if not r.context else f"[{r.context}] {r.describe()}"
                 for r in self.results]
        lines.append(
            f"total: {self.holds} hold, {self.violated} violated, {self.skipped} skipped"
        )
        return "\n".join(lines)


RANDOM_FIXTURE_SIZES = (5, 10, 20)
RANDOM_FIXTURE_SEEDS = (1, 2, 3)
PERTURBATION_SCALES = (1e-10, 1e-8)
PASCAL_FIXTURE_SIZES = (2, 6, 8, 10, 12)


def standard_fixtures():
    """The fixture set the check suite runs over, as (name, partition),
    each made by its family's generator in FAMILIES.

    Names are '<family>' or '<family>/<label>' so a family can be
    selected unambiguously.
    """
    specs = [("minij", "", {})]
    for t in TABLE_THETAS:
        specs.append(("hyperbolic", f"{t:g}", {"theta": t}))
        specs.append(("hyperbolic-inverse", f"{t:g}", {"theta": t}))
    specs += [("pascal", f"{n}", {"n": n}) for n in PASCAL_FIXTURE_SIZES]
    specs.append(("diagt", "1e6", {"t": 1e6, "theta": 1e-10}))
    specs += [("random", f"n{n}-s{s}", {"n": n, "seed": s})
              for n in RANDOM_FIXTURE_SIZES for s in RANDOM_FIXTURE_SEEDS]
    return [(f"{family}/{label}" if label else family, generate_family(family, **args)[0])
            for family, label, args in specs]


def run_checks(scope="all", inject_w2_fault=False):
    """Run every bound check over the fixture set (plus the perturbation
    experiments at the two standard magnitudes) and aggregate verdicts.

    ``scope`` selects one family ('hyperbolic', 'pascal', ...); 'identity' runs
    against the identity matrix alone.  The fault injection flag corrupts
    the computed lower-right w2 block by 1e-3 to prove the backward check
    can fail.
    """
    if scope == "identity":
        fixtures = [("identity", BlockPartition.from_matrix(np.eye(4)))]
    else:
        fixtures = standard_fixtures()
        if scope != "all":
            fixtures = [f for f in fixtures if f[0].split("/")[0] == scope]
            if not fixtures:
                raise UsageError(f"run_checks: no fixtures match scope {scope!r}")

    fault = 1e-3 if inject_w2_fault else 0.0
    results = []
    for index, (name, p) in enumerate(fixtures):
        per_fixture = [check_w2_backward(p, l22_perturbation=fault)]
        per_fixture.append(check_w1_error_bound(p))
        per_fixture.extend(check_omega_factor_bounds(p))
        per_fixture.extend(check_condition_bounds(p))
        for scale_index, scale in enumerate(PERTURBATION_SCALES):
            seed = 7700 + 13 * index + scale_index
            e = symmetric_perturbation(2 * p.n, scale * p.norm, seed)
            per_fixture.extend(check_perturbation_bounds(p, e))
        results.extend(replace(r, context=name) for r in per_fixture)

    holds = sum(1 for r in results if r.verdict == HOLDS)
    violated = sum(1 for r in results if r.verdict == VIOLATED)
    skipped = sum(1 for r in results if r.verdict == SKIPPED)
    return CheckSuiteReport(
        results=tuple(results), holds=holds, violated=violated, skipped=skipped
    )
