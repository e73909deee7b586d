"""Every frozen copy of replaced code, each naming the commit that replaced it."""

import csv
import math
from collections import Counter

import numpy as np

from sympllt import dense
from sympllt.checks import EPS, SLACK, BoundCheckResult
from sympllt.dense import (as_matrix, condition_number, frobenius_norm, is_bitwise_symmetric,
                           matmul, norm_and_condition, spectral_norm)
from sympllt.diagnostics import DiagnosticsRow
from sympllt.errors import (DimensionError, FactorError, InvalidEntryError, ParseError,
                            PivotNotPositiveError, SingularError)
from sympllt.factor import cholesky_lower, require_symmetric, reverse_cholesky_upper, spd_inverse
from sympllt.symplectic import BlockPartition, omega
from sympllt.testmat import (diag_family, hyperbolic_spd, hyperbolic_spd_inverse, minij,
                             pascal_symplectic, random_pdp, standard_normal_matrix)


def frozen_matmul(a, b, acc=None):
    """The plain kernel until aba46c7, and with ``acc`` as matmul took it until 2d46fc8."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1])) if acc is None else np.array(acc, dtype=float)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def frozen_continued_product(a, b, c, d):
    """The sums of a b continued with c d's terms, ``acc`` style until 2d46fc8."""
    return frozen_matmul(c, d, frozen_matmul(a, b))


def frozen_full_residual(f):
    """a - L L^T from the full 2n x 2n product, until 125c726."""
    lmat = f.assemble()
    return f.p.assemble() - matmul(lmat, lmat.T)


def frozen_full_omega(f):
    """omega(L) from the full 2n x 2n product, as it was until 125c726."""
    return omega(f.assemble())


def frozen_omega11(l11, l21):
    """omega11 as it was until 2d46fc8: l11^T l21, continued with l21^T (-l11)."""
    return frozen_continued_product(l11.T, l21, l21.T, -l11)


def frozen_residual22(a22, l21, l22):
    """residual()'s (2,2) block until 2d46fc8: a22 - (l21 l21^T, then l22 l22^T)."""
    return a22 - frozen_continued_product(l21, l21.T, l22, l22.T)


def frozen_structure_matrix(n):
    """J, filled block by block until dba0141."""
    eye = np.eye(n)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = eye
    out[n:, :n] = -eye
    return out


def frozen_omega(a):
    """omega(a) = a^T J a - J with J subtracted out of place, until a02c7d1."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0] // 2
    return matmul(a.T, np.vstack([a[n:, :], -a[:n, :]])) - frozen_structure_matrix(n)


def frozen_factor_omega(f):
    """BlockFactor.omega with J subtracted out of place, until a02c7d1."""
    p, n = f.p, f.p.n
    o12 = matmul(p.l11.T, f.l22)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = p.omega11
    out[:n, n:] = o12
    out[n:, :n] = 0.0 - o12.T
    return out - frozen_structure_matrix(n)


def frozen_partition_assemble(p):
    """BlockPartition.assemble, filled block by block until dba0141."""
    n = p.n
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = p.a11
    out[:n, n:] = p.a12
    out[n:, :n] = p.a12.T
    out[n:, n:] = p.a22
    return out


def frozen_factor_assemble(f):
    """BlockFactor.assemble, filled block by block until dba0141."""
    n = f.p.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = f.p.l11
    out[n:, :n] = f.p.l21
    out[n:, n:] = f.l22
    return out


def frozen_block_fill_residual(f):
    """BlockFactor.residual, filled block by block until dba0141."""
    p, n = f.p, f.p.n
    g11, g21 = p.gram
    x = np.hstack([p.l21, f.l22])
    g22 = matmul(x, x.T)
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = p.a11 - g11
    out[:n, n:] = p.a12 - g21.T
    out[n:, :n] = p.a12.T - g21
    out[n:, n:] = p.a22 - g22
    return out


def frozen_assemble_omega_blocks(o11, o12, o22):
    """assemble_omega_blocks, filled block by block until dba0141."""
    n = o11.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = o11
    out[:n, n:] = o12
    out[n:, :n] = -o12.T
    out[n:, n:] = o22
    return out


def frozen_structure_inverse(a):
    """J^-1 a^T J, filled block by block until dba0141."""
    n = a.shape[0] // 2
    at = a.T
    out = np.empty_like(a)
    out[:n, :n] = at[n:, n:]
    out[:n, n:] = -at[n:, :n]
    out[n:, :n] = -at[:n, n:]
    out[n:, n:] = at[:n, :n]
    return out


def frozen_spectral_norm(a):
    """spectral_norm by the Gram route, sqrt(max eig(a^T a)), until 8a68bbe."""
    a = as_matrix(a)
    if a.size == 0:
        raise DimensionError("spectral_norm: matrix is empty")
    if not np.all(np.isfinite(a)):
        raise InvalidEntryError("spectral_norm: input contains NaN or infinite entries")
    if is_bitwise_symmetric(a):
        ev = np.linalg.eigvalsh(a)
        return float(max(abs(ev[0]), abs(ev[-1])))
    gram = dense.matmul(a.T, a)
    ev = np.linalg.eigvalsh(gram)
    return float(np.sqrt(max(ev[-1], 0.0)))


def frozen_norm(a):
    """spectral_norm's dispatch, frozen for frozen_condition_number in a51c8a6."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if np.array_equal(a, a.T):
        ev = np.linalg.eigvalsh(a)
        return float(max(abs(ev[0]), abs(ev[-1])))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def frozen_condition_number(a):
    """condition_number with its own dispatch until a51c8a6: the eigenvalue ratio
    of a positive definite ``a``, else ||a|| ||a^-1||, ||a|| taken after the solve."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    ev = np.linalg.eigvalsh(a) if np.array_equal(a, a.T) else None
    if ev is not None:
        if ev[0] > 0.0:
            return float(ev[-1] / ev[0])
        if ev[0] == 0.0 or ev[-1] == 0.0:
            raise SingularError("condition_number: zero eigenvalue")
    try:
        inv = np.linalg.solve(a, np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"condition_number: {exc}") from exc
    kappa = frozen_norm(a) * frozen_norm(inv)
    if not np.isfinite(kappa):
        raise SingularError("condition_number: singular to working precision")
    return float(kappa)


def frozen_scalars(p):
    """The per-matrix scalars as each caller computed them inline until fca7e9a."""
    a = p.assemble()
    drift = p.inv_a11 - p.schur
    return {
        "norm": spectral_norm(a),
        "kappa": condition_number(a),
        "norm_a11": spectral_norm(p.a11),
        "kappa_a11": condition_number(p.a11),
        "omega_norm": spectral_norm(omega(a)),
        "norm_inv_a11": spectral_norm(p.inv_a11),
        "drift": drift,
        "dist": spectral_norm(drift),
    }


MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


class FrozenSplitMix64:
    """The scalar generator, one word and one pair at a time, until 8a68bbe."""

    def __init__(self, seed):
        self.state = int(seed) & MASK

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MUL1) & MASK
        z = ((z ^ (z >> 27)) * MUL2) & MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal_pair(self):
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return r * math.cos(angle), r * math.sin(angle)

    def normals(self, count):
        out = []
        while len(out) < count:
            out.extend(self.normal_pair())
        return out[:count]


def frozen_cholesky_lower(a, stage="cholesky"):
    """cholesky_lower, whole trailing square updated each step; frozen in 0927119."""
    a = as_matrix(a)
    n = a.shape[0]
    work = a.copy()
    low = np.zeros_like(work)
    for j in range(n):
        d = work[j, j]
        if not d > 0.0:
            raise PivotNotPositiveError(j + 1, d, stage=stage)
        dj = math.sqrt(d)
        low[j, j] = dj
        if j + 1 < n:
            col = work[j + 1 :, j] / dj
            low[j + 1 :, j] = col
            work[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
    return low


def frozen_forward_substitute(low, b):
    """forward_substitute over every column, ascending rows; frozen in 0927119."""
    low = as_matrix(low)
    x = as_matrix(b).copy()
    n = low.shape[0]
    for i in range(n):
        d = low[i, i]
        if d == 0.0:
            raise SingularError(f"forward_substitute: zero diagonal at row {i + 1}")
        x[i, :] /= d
        if i + 1 < n:
            x[i + 1 :, :] -= low[i + 1 :, i : i + 1] * x[i : i + 1, :]
    return x


def frozen_lower_triangular_inverse(low):
    """inv(low) by the plain substitution, frozen in 0927119."""
    low = as_matrix(low)
    return frozen_forward_substitute(low, np.eye(low.shape[0]))


def frozen_pdp_assemble(g, h):
    """The generator as it was until 0927119: inv(g) from a Cholesky factor of its own."""
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    linv = frozen_lower_triangular_inverse(frozen_cholesky_lower(g))
    ginv = matmul(np.ascontiguousarray(linv.T), linv)
    a12 = matmul(g, h)
    a22 = matmul(h, a12) + ginv
    a22 = 0.5 * (a22 + a22.T)
    return BlockPartition(n=g.shape[0], a11=g.copy(), a12=a12, a22=a22)


def frozen_random_pdp(n, seed):
    """random_pdp through frozen_pdp_assemble, as it was until 0927119."""
    r = standard_normal_matrix(n, seed)
    h = 0.5 * (r + r.T)
    g = matmul(r, np.ascontiguousarray(r.T))
    g = g + 1e-12 * float(np.trace(g)) / n * np.eye(n)
    return frozen_pdp_assemble(g, h)


KINDS = ("cholesky", "reverse-cholesky", "l2-form")


def frozen_perturbation_experiment(a, e, kind):
    """One perturbation bound with factors of its own, until 92b8094."""
    if kind not in KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    bound_id = f"{kind}-perturbation"
    a = require_symmetric(a, "perturbation_experiment")
    e = require_symmetric(e, "perturbation_experiment")
    try:
        norm_inv_a = spectral_norm(spd_inverse(a))
    except FactorError as exc:
        return BoundCheckResult.skip(bound_id, f"not positive definite: {exc}")
    damp = norm_inv_a * spectral_norm(e)
    if damp >= 1.0:
        return BoundCheckResult.skip(
            bound_id, f"||inv(a)|| ||e|| = {damp:.3e} is not below 1")
    try:
        before = frozen_perturbation_factor(a, kind)
        after = frozen_perturbation_factor(a + e, kind)
    except FactorError as exc:
        return BoundCheckResult.skip(bound_id, f"not positive definite: {exc}")
    delta = after - before
    norm_l = spectral_norm(before)
    lhs = frobenius_norm(delta) / norm_l
    norm_a, kappa = norm_and_condition(a)
    kappa_a = kappa()
    rhs = (kappa_a / (1.0 - damp)) * frobenius_norm(e) / norm_a / math.sqrt(2.0)
    n = a.shape[0] // 2
    floor = 100.0 * n * EPS * kappa_a * frobenius_norm(before) / norm_l
    return BoundCheckResult.compare(bound_id, lhs, rhs, SLACK, floor)


def frozen_perturbation_factor(a, kind):
    """The factor one perturbation bound compares, until 92b8094."""
    if kind == "cholesky":
        return cholesky_lower(a)
    if kind == "reverse-cholesky":
        return reverse_cholesky_upper(a)
    return BlockPartition.from_matrix(a).w2.assemble()


def frozen_check_schur_perturbation(p, e):
    """The two Schur perturbation bounds computed on their own, until 92b8094."""
    ids = ("leading-inverse-perturbation", "schur-perturbation")
    e = require_symmetric(e, "check_schur_perturbation")
    a = p.assemble()
    norm_a = p.norm
    norm_e = spectral_norm(e)
    if norm_e > 1e-6 * norm_a:
        reason = f"||e|| = {norm_e:.3e} above 1e-6 ||a||"
        return [BoundCheckResult.skip(i, reason) for i in ids]
    try:
        cholesky_lower(a + e)
    except FactorError as exc:
        reason = f"perturbed matrix not positive definite: {exc}"
        return [BoundCheckResult.skip(i, reason) for i in ids]

    n = p.n
    pe = BlockPartition.from_matrix(a + e)
    e11, e12, e22 = e[:n, :n], e[:n, n:], e[n:, n:]
    ne11, ne12, ne22 = spectral_norm(e11), spectral_norm(e12), spectral_norm(e22)

    norm_inv = p.norm_inv_a11
    norm_w = spectral_norm(p.coupling)

    q = norm_inv * ne11
    if q > 0.5:
        reason = f"||inv(a11)|| ||e11|| = {q:.3e} above 1/2"
        return [BoundCheckResult.skip(i, reason) for i in ids]
    base_floor = (10.0 * (norm_e / norm_a) ** 2 * norm_a * max(1.0, norm_w ** 2)
                  + 100.0 * n * EPS * norm_a)
    results = []

    lhs = spectral_norm(pe.inv_a11 - p.inv_a11)
    rhs = norm_inv ** 2 * ne11
    tail_inv = norm_inv * q * q / (1.0 - q)
    results.append(BoundCheckResult.compare(
        ids[0], lhs, rhs, SLACK, base_floor + tail_inv))

    lhs = spectral_norm(pe.schur - p.schur)
    rhs = ne22 + norm_w ** 2 * ne11 + 2.0 * norm_w * ne12
    norm_a12 = spectral_norm(p.a12)
    delta_inv = norm_inv * q / (1.0 - q)
    tail_schur = (norm_a12 ** 2 * norm_inv * q * q / (1.0 - q)
                  + norm_inv * ne12 ** 2
                  + 2.0 * ne12 * delta_inv * (norm_a12 + ne12))
    results.append(BoundCheckResult.compare(
        ids[1], lhs, rhs, SLACK, base_floor + tail_schur))
    return results


def frozen_bounds(p, e):
    """The five bounds of one perturbation, each computed on its own, until 92b8094."""
    a = p.assemble()
    return ([frozen_perturbation_experiment(a, e, kind) for kind in KINDS]
            + frozen_check_schur_perturbation(p, e))


def frozen_standard_fixtures():
    """standard_fixtures() family by family until f04a335 made it data, its sizes,
    thetas and seeds written out so that a change to the registry shows here."""
    fixtures = [("minij", BlockPartition.from_matrix(minij()))]
    for t in (3.0, 4.0, 6.0, 7.0):
        fixtures.append((f"hyperbolic/{t:g}", BlockPartition.from_matrix(hyperbolic_spd(t))))
        fixtures.append(
            (f"hyperbolic-inverse/{t:g}", BlockPartition.from_matrix(hyperbolic_spd_inverse(t)))
        )
    for n in (2, 6, 8, 10, 12):
        fixtures.append((f"pascal/{n}", pascal_symplectic(n)))
    _, ahat = diag_family(1e6, 1e-10)
    fixtures.append(("diagt/1e6", BlockPartition.from_matrix(ahat)))
    for n in (5, 10, 20):
        for s in (1, 2, 3):
            fixtures.append((f"random/n{n}-s{s}", random_pdp(n, s)))
    return fixtures


FROZEN_TABLE_QUANTITIES = [
    "kappa2_A", "norm2_A", "kappa2_A11", "norm2_A11", "norm2_invA11",
    "dist_sympl", "dist_sympl_rel", "relerr_w1", "relerr_w2",
    "omega_A", "omega_L1", "omega_L2",
]

FROZEN_CSV_COLUMNS = ["family", "param", "n", *FROZEN_TABLE_QUANTITIES, "error"]


def frozen_write_csv(path, rows):
    """The per-column-name writer, until ab19454 formatted each field by its type."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(FROZEN_CSV_COLUMNS)
        for row in rows:
            record = []
            for name in FROZEN_CSV_COLUMNS:
                value = getattr(row, name)
                if name in ("family", "error"):
                    record.append(value)
                elif name == "n":
                    record.append(str(value))
                else:
                    record.append(repr(float(value)))
            writer.writerow(record)


def frozen_read_csv(path):
    """The per-column-name reader, until ab19454 parsed each field by its type."""
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == FROZEN_CSV_COLUMNS
        for record in reader:
            kw = dict(zip(FROZEN_CSV_COLUMNS, record))
            kw["param"] = float(kw["param"])
            kw["n"] = int(kw["n"])
            for name in FROZEN_TABLE_QUANTITIES:
                kw[name] = float(kw[name])
            rows.append(DiagnosticsRow(**kw))
    return rows


def frozen_read_matrix(path):
    """read_matrix on str.splitlines of the whole text, until a02c7d1."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise frozen_non_ascii_error(path) from None

    k = 0
    while k < len(lines) and lines[k].lstrip().startswith("#"):
        k += 1
    if k >= len(lines):
        raise ParseError(len(lines) + 1, "missing header line")
    header = lines[k].split()
    if len(header) != 2:
        raise ParseError(k + 1, f"header must be 'rows cols', got {lines[k]!r}")
    try:
        if "_" in lines[k]:
            raise ValueError
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(k + 1, f"non-integer header fields in {lines[k]!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(k + 1, "rows and cols must be positive")

    out = []
    for i in range(rows):
        lineno = k + 2 + i
        if k + 1 + i >= len(lines):
            raise ParseError(lineno, f"expected {rows} data rows, file ended early")
        line = lines[k + 1 + i]
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(lineno, f"expected {cols} values, got {len(parts)}")
        try:
            if "_" in line:
                raise ValueError
            out.append(np.array(parts, dtype=np.float64))
            finite = np.isfinite(out[i]).all()
        except ValueError:
            finite = False
        if not finite:
            raise frozen_bad_token_error(lineno, parts)
    for extra in range(k + 1 + rows, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, f"extra data after the {rows} declared rows")
    return np.array(out)


def frozen_bad_token_error(lineno, parts):
    """The whole-text reader's error for a row with a bad token, until a02c7d1."""
    for tok in parts:
        try:
            if "_" in tok:
                raise ValueError
            val = float(tok)
        except ValueError:
            return ParseError(lineno, f"bad float literal {tok!r}")
        if not np.isfinite(val):
            return ParseError(lineno, f"non-finite value {tok!r}")


def frozen_non_ascii_error(path):
    """The whole-text reader's error for a non-ASCII byte, until a02c7d1."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[: exc.start] + b"x"
        return ParseError(len(head.decode("ascii").splitlines()),
                          f"non-ASCII byte {data[exc.start]:#04x}")
    return ParseError(1, "file changed while it was read")


def frozen_result_describe(r):
    """One verdict line as diagnostics laid it out until 4745d04."""
    if r.verdict == "skipped":
        return f"{r.bound_id}: skipped ({r.reason})"
    return (f"{r.bound_id}: {r.verdict}  lhs={r.lhs:.4e}  "
            f"rhs={r.rhs:.4e}  floor={r.floor:.4e}")


def frozen_report_describe(results):
    """The check suite's report, as diagnostics laid it out until 4745d04."""
    lines = [frozen_result_describe(r) if not r.context
             else f"[{r.context}] {frozen_result_describe(r)}" for r in results]
    count = Counter(r.verdict for r in results)
    lines.append(f"total: {count['holds']} hold, {count['violated']} violated, "
                 f"{count['skipped']} skipped")
    return "\n".join(lines)
