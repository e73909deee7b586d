"""Numeric checkers for the factorization error and structure-loss bounds.

Every checker returns BoundCheckResult values with verdict ``holds`` iff

    lhs <= rhs * (1 + slack) + floor.

First-order bounds carry a multiplicative slack of 1e-6 plus an additive
floor sized to the quantities the bound drops: second-order remainder
terms where a perturbation enters, and the floating-point noise of the
measured left-hand side where the true value is at or near zero.  Floors
make verdicts deterministic; a bound is reported Skipped (never Violated)
when its own hypothesis fails.
"""

import math
from dataclasses import dataclass, field, replace

from .dense import EPS, condition_number, frobenius_norm, matmul, spectral_norm
from .errors import FactorError
from .factor import require_symmetric, upper_substitute
from .symplectic import BlockPartition, gamma
from .testmat import symmetric_perturbation

SLACK = 1e-6
PERTURBATION_SCALES = (1e-10, 1e-8)  # check_all_bounds' perturbations, times ||a||
W2_FAULT = 1e-3  # the relative error check_w2_backward's fault hook puts in the computed l22

HOLDS = "holds"
VIOLATED = "violated"
SKIPPED = "skipped"


@dataclass(frozen=True)
class BoundCheckResult:
    bound_id: str
    lhs: float
    rhs: float
    slack: float
    floor: float
    verdict: str
    reason: str = ""
    context: str = field(default="", compare=False)

    @classmethod
    def compare(cls, bound_id, lhs, rhs, slack, floor):
        ok = lhs <= rhs * (1.0 + slack) + floor
        return cls(bound_id, float(lhs), float(rhs), slack, float(floor),
                   HOLDS if ok else VIOLATED)

    @classmethod
    def skip(cls, bound_id, reason):
        return cls(bound_id, math.nan, math.nan, 0.0, 0.0, SKIPPED, reason)

    @property
    def holds(self):
        return self.verdict == HOLDS

    def describe(self):
        prefix = f"[{self.context}] " if self.context else ""
        if self.verdict == SKIPPED:
            return f"{prefix}{self.bound_id}: skipped ({self.reason})"
        return (f"{prefix}{self.bound_id}: {self.verdict}  lhs={self.lhs:.4e}  "
                f"rhs={self.rhs:.4e}  floor={self.floor:.4e}")


@dataclass(frozen=True)
class CheckSuiteReport:
    results: tuple

    holds = property(lambda self: self._count(HOLDS))
    violated = property(lambda self: self._count(VIOLATED))
    skipped = property(lambda self: self._count(SKIPPED))

    def _count(self, verdict):
        return sum(r.verdict == verdict for r in self.results)

    @property
    def exit_code(self):
        return 0 if self.violated == 0 else 1

    def describe(self):
        return "\n".join([*(r.describe() for r in self.results), f"total: {self.holds} hold, "
                          f"{self.violated} violated, {self.skipped} skipped"])


def check_w2_backward(p, inject_fault=False):
    """Backward-stability bound for the Schur-complement route:

        ||a - L2 L2^T|| <= 4 n gamma_{n+2} ||a||.

    ``inject_fault`` is a fault-injection hook that rescales the computed
    lower-right block by 1 + W2_FAULT before the residual is formed, for
    testing that the check actually fires.
    """
    n = p.n
    if (n + 2) * EPS >= 1.0 or 4 * n * gamma(n + 2) >= 1.0:
        return BoundCheckResult.skip("w2-backward", "4 n gamma_{n+2} is not below 1")
    f = replace(p.w2, l22=p.w2.l22 * (1.0 + W2_FAULT)) if inject_fault else p.w2
    lhs = spectral_norm(f.residual())
    rhs = 4.0 * n * gamma(n + 2) * p.norm
    return BoundCheckResult.compare("w2-backward", lhs, rhs, 0.0, 0.0)


def check_w1_error_bound(p):
    """Factorization-error bound for the structure-enforcing route:

        ||a - L1 L1^T|| <= d (1 + 3 n g k11) + 8 n g k11 ||a||,

    with d the measured distance to symplecticity, k11 the condition
    number of the leading block and g = gamma_{n+1}.
    """
    n = p.n
    lhs = spectral_norm(p.w1.residual())
    k11 = p.kappa_a11
    g = gamma(n + 1)
    rhs = p.dist * (1.0 + 3.0 * n * g * k11) + 8.0 * n * g * k11 * p.norm
    floor = 100.0 * n * EPS * p.norm
    return BoundCheckResult.compare("w1-error-bound", lhs, rhs, SLACK, floor)


def check_omega_factor_bounds(p):
    """Structure-loss bounds relating the two computed factors.

    (i)   ||omega(L1)|| <= ||inv(a11)|| ||omega(a)||
    (ii)  ||omega(L2)|| <= ||omega(L1)|| + ||l11^T u22 - I||
    (iii) ||l11^T u22 - I|| <= sqrt(2n) rho, skipped for rho > 1/2,

    where rho is the spectral norm of the symmetric similarity
    l11^T (s - inv(a11)) l11.  The floor carries an ||a|| term (~ ||L||^2)
    because on exactly structure-preserving inputs the computed residuals
    are pure rounding noise at that scale.
    """
    n = p.n
    omega_l1 = spectral_norm(p.w1.omega())
    omega_2 = p.w2.omega()
    omega_l2 = spectral_norm(omega_2)
    # l11^T u22 - I is the (1,2) block of omega(L2): both factors share l11
    mix = spectral_norm(omega_2[:n, n:])

    floor = 100.0 * n * EPS * max(1.0, p.norm_inv_a11 * p.omega_norm, p.norm)
    results = [
        BoundCheckResult.compare("omega-factor-amplification", omega_l1,
                                 p.norm_inv_a11 * p.omega_norm, SLACK, floor),
        BoundCheckResult.compare("omega-factor-ordering", omega_l2,
                                 omega_l1 + mix, SLACK, floor),
    ]
    sim = matmul(matmul(p.l11.T, -p.drift), p.l11)
    rho = spectral_norm(0.5 * (sim + sim.T))
    if rho > 0.5:
        results.append(BoundCheckResult.skip(
            "factor-inverse-consistency", f"spectral radius {rho:.3e} above 1/2"))
    else:
        results.append(BoundCheckResult.compare(
            "factor-inverse-consistency", mix, math.sqrt(2.0 * n) * rho, SLACK, floor))
    return results


def check_condition_bounds(p):
    """Condition-number identities and bounds for SPD input.

    (1) kappa(a) <= ||a||^2 / (1 - ||omega(a)||), skipped at ||omega|| >= 1
    (2) kappa(L2)^2 = kappa(a) (checked as a two-sided agreement)
    (3) ||inv(a11) a12||^2 <= ||inv(a11)|| ||a22||
    (4) kappa(L1 L1^T) <= kappa(a)/(1 - rho) (1 + d/||a||), skipped at rho >= 1

    Floors are relative and include a 10 n eps kappa term: the smallest
    eigenvalue behind any condition number measured in floating point is
    only determined to a relative eps*kappa, which dominates the 1e-6
    slack once kappa exceeds ~1e10.
    """
    n = p.n
    f1, f2 = p.w1, p.w2
    norm_a, omega_a, kappa_a = p.norm, p.omega_norm, p.kappa
    noise = 1e-8 + 10.0 * n * EPS * kappa_a
    results = []

    if omega_a >= 1.0:
        results.append(BoundCheckResult.skip(
            "condition-from-structure-loss", f"||omega(a)|| = {omega_a:.3e} >= 1"))
    else:
        rhs = norm_a ** 2 / (1.0 - omega_a)
        results.append(BoundCheckResult.compare(
            "condition-from-structure-loss", kappa_a, rhs, SLACK, rhs * noise))

    kappa_l2_sq = condition_number(f2.assemble()) ** 2
    lhs = max(kappa_l2_sq, kappa_a)
    rhs = min(kappa_l2_sq, kappa_a)
    results.append(BoundCheckResult.compare(
        "condition-factor-squared", lhs, rhs, SLACK, rhs * noise))

    lhs = spectral_norm(p.coupling) ** 2
    rhs = p.norm_inv_a11 * spectral_norm(p.a22)
    results.append(BoundCheckResult.compare(
        "coupling-norm", lhs, rhs, SLACK, rhs * (1e-8 + 10.0 * n * EPS * p.kappa_a11)))

    u22 = f2.l22
    half = upper_substitute(u22, p.drift)
    sim = upper_substitute(u22, half.T)
    rho = spectral_norm(0.5 * (sim + sim.T))
    if rho >= 1.0:
        results.append(BoundCheckResult.skip(
            "condition-of-enforced-product", f"spectral radius {rho:.3e} >= 1"))
    else:
        lhs = condition_number(f1.assemble()) ** 2
        rhs = kappa_a / (1.0 - rho) * (1.0 + p.dist / norm_a)
        results.append(BoundCheckResult.compare(
            "condition-of-enforced-product", lhs, rhs, SLACK, rhs * noise))
    return results


# the factor each perturbation kind compares, read from a partition's cache
_PERTURBATION_FACTORS = {
    "cholesky": lambda q: q.cholesky,
    "reverse-cholesky": lambda q: q.reverse_cholesky,
    "l2-form": lambda q: q.w2.assemble(),
}


def check_perturbation_bounds(p, e):
    """Every perturbation bound of p under the symmetric perturbation e:
    the three ``perturbation_experiment`` kinds, then the two
    ``check_schur_perturbation`` bounds.

    All five share one ||e|| and one partition of a + e, so a + e is
    factored once for each factor the bounds compare.
    """
    e = require_symmetric(e, "check_perturbation_bounds")
    shared = _perturbed(p, e)
    results = [_factor_perturbation(*shared, kind) for kind in _PERTURBATION_FACTORS]
    return results + _schur_perturbation(*shared)


def _perturbed(p, e):
    # what every perturbation bound of (p, e) reads: p, e, ||e|| and a + e
    return p, e, spectral_norm(e), BlockPartition.from_matrix(p.assemble() + e)


def perturbation_experiment(a, e, kind):
    """Factor perturbation bound: for symmetric E with ||inv(a)|| ||E|| < 1,

        ||dL||_F / ||L||_2 <= 2^-1/2 kappa(a) / (1 - ||inv(a)|| ||E||)
                              * ||E||_F / ||a||_2,

    where L is the factor of the selected kind and dL = L(a+E) - L(a).
    ``a`` is read as a BlockPartition, its (2,1) block as the (1,2) block
    transposed.
    """
    if kind not in _PERTURBATION_FACTORS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    e = require_symmetric(e, "perturbation_experiment")
    return _factor_perturbation(*_perturbed(BlockPartition.from_matrix(a), e), kind)


def _factor_perturbation(p, e, norm_e, pe, kind):
    bound_id = f"{kind}-perturbation"
    factor = _PERTURBATION_FACTORS[kind]
    try:
        damp = p.norm_inv * norm_e
        if damp >= 1.0:
            return BoundCheckResult.skip(
                bound_id, f"||inv(a)|| ||e|| = {damp:.3e} is not below 1")
        before, after = factor(p), factor(pe)
    except FactorError as exc:
        return BoundCheckResult.skip(bound_id, f"not positive definite: {exc}")
    delta = after - before
    norm_l = spectral_norm(before)
    lhs = frobenius_norm(delta) / norm_l
    kappa_a = p.kappa
    rhs = (kappa_a / (1.0 - damp)) * frobenius_norm(e) / p.norm / math.sqrt(2.0)
    floor = 100.0 * p.n * EPS * kappa_a * frobenius_norm(before) / norm_l
    return BoundCheckResult.compare(bound_id, lhs, rhs, SLACK, floor)


def check_schur_perturbation(p, e):
    """First-order perturbation bounds for the leading-block inverse and
    the Schur complement under a small symmetric perturbation e:

        ||inv(a11+e11) - inv(a11)|| <= ||inv(a11)||^2 ||e11||
        ||s(a+e) - s(a)|| <= ||e22|| + ||w||^2 ||e11|| + 2 ||w|| ||e12||

    The floor adds the exact Neumann remainders of the dropped
    second-order terms so the checks stay rigorous when e is not tiny
    relative to the leading block's smallest eigenvalue.
    """
    e = require_symmetric(e, "check_schur_perturbation")
    return _schur_perturbation(*_perturbed(p, e))


def _schur_perturbation(p, e, norm_e, pe):
    ids = ("leading-inverse-perturbation", "schur-perturbation")

    def skipped(reason):
        return [BoundCheckResult.skip(i, reason) for i in ids]
    norm_a = p.norm
    if norm_e > 1e-6 * norm_a:
        return skipped(f"||e|| = {norm_e:.3e} above 1e-6 ||a||")
    try:
        pe.cholesky
    except FactorError as exc:
        return skipped(f"perturbed matrix not positive definite: {exc}")

    n = p.n
    e11, e12, e22 = e[:n, :n], e[:n, n:], e[n:, n:]
    ne11, ne12, ne22 = spectral_norm(e11), spectral_norm(e12), spectral_norm(e22)

    norm_inv = p.norm_inv_a11
    norm_w = spectral_norm(p.coupling)

    q = norm_inv * ne11  # contraction factor of the Neumann series
    if q > 0.5:
        # the dropped remainder is no longer subordinate to the bound itself
        return skipped(f"||inv(a11)|| ||e11|| = {q:.3e} above 1/2")
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


def check_all_bounds(p, seed, inject_w2_fault=False):
    """Every bound check of p: the unperturbed bounds, then the perturbation
    bounds at each of PERTURBATION_SCALES times ||a||, the k-th perturbation
    drawn from seed + k.  inject_w2_fault is check_w2_backward's fault hook."""
    results = [check_w2_backward(p, inject_w2_fault), check_w1_error_bound(p),
               *check_omega_factor_bounds(p), *check_condition_bounds(p)]
    for k, scale in enumerate(PERTURBATION_SCALES):
        e = symmetric_perturbation(2 * p.n, scale * p.norm, seed + k)
        results += check_perturbation_bounds(p, e)
    return results
