"""Diagnostics for why a prime spectrum is out of reach for these problems.

Three independent signatures, each testable numerically:

* eigenvalues grow like n^2 while primes grow like n log n, so p_n/lambda_n
  decays to zero (incompatibility report);
* solutions are entire of order <= 1/2 in lambda (exact log-derivative
  growth bound; the order of M(R), bounded on both sides on the negative
  axis at radii past every turning point R r = |q|), so
  sum |lambda_n|^(-1/2-eps) converges over any admissible spectrum;
* the same sum over the primes diverges (partial-sum dichotomy).
"""

from __future__ import annotations

import cmath
import math
from contextlib import suppress
from dataclasses import dataclass, field

from .coeff import BoundaryCondition, SLProblem
from .errors import (
    DegenerateModulus,
    EigenvalueNotFound,
    EpsilonOutOfRange,
    InsufficientData,
    LimitTooLarge,
    NotRightDefinite,
    OutOfDomain,
)
from .primes import _prime_chunks, nth_primes
from .shoot import _propagate_scaled, _solver_pieces, prufer_angle
from .spectrum import DEFAULT_OPTIONS, SolverOptions, Spectrum, eigenvalue

__all__ = [
    "IncompatReport",
    "GrowthReport",
    "OrderEstimate",
    "incompatibility_report",
    "growth_check",
    "order_estimate",
    "partial_sum_primes",
    "partial_sum_spectrum",
    "series_verdict",
]

_X_SAMPLES = 32  # the points growth_check spreads over the pieces


@dataclass(frozen=True)
class IncompatReport:
    """Rows (n, lambda_n, p_n, p_n/lambda_n or None) plus a PASS/FAIL/INCONCLUSIVE verdict."""

    rows: tuple[tuple[int, float, int, float | None], ...] = field(repr=False)
    verdict: str
    note: str


def incompatibility_report(spectrum: Spectrum, n_max: int) -> IncompatReport:
    """Tabulate p_n/lambda_n for n = 1..n_max and judge its decay.

    A row with lambda_n <= 0 has no ratio (None).  PASS requires the ratio
    to decrease across the top half of indices (compared block-wise,
    eight blocks, so local prime gaps do not mask the trend) and the
    final ratio to fall below 1% of the first one there is.  Below
    n_max = 100 the trend is not yet meaningful and the verdict is
    withheld.
    """
    if n_max < 10:
        raise InsufficientData(f"need n_max >= 10, got {n_max}")
    if len(spectrum.eigenvalues) < n_max:
        raise InsufficientData(
            f"spectrum holds {len(spectrum.eigenvalues)} eigenvalues, report needs {n_max}"
        )
    eigs = spectrum.eigenvalues[:n_max]
    rows = [
        (ev.index, ev.value, p, p / ev.value if ev.value > 0.0 else None)
        for ev, p in zip(eigs, nth_primes([ev.index for ev in eigs]))
    ]
    if n_max < 100:
        return IncompatReport(
            rows=tuple(rows),
            verdict="INCONCLUSIVE",
            note=f"verdict withheld below n = 100 (got {n_max})",
        )
    # a missing ratio reads NaN, which fails every comparison below
    ratios = [math.nan if row[3] is None else row[3] for row in rows]
    first = next((row[3] for row in rows if row[3] is not None), math.nan)
    top = ratios[n_max // 2 :]
    # eight blocks, the first len(top) % 8 of them one longer, as np.array_split cuts them
    size, extra = divmod(len(top), 8)
    ends = [i * size + min(i, extra) for i in range(9)]
    block_means = [math.fsum(top[i:j]) / (j - i) for i, j in zip(ends, ends[1:])]
    decreasing = all(a > b for a, b in zip(block_means, block_means[1:]))
    final_small = ratios[-1] < 0.01 * first
    if decreasing and final_small:
        verdict, note = "PASS", (
            f"ratio falls from {first:.3e} to {ratios[-1]:.3e}; "
            "prime growth n log n cannot keep up with n^2 eigenvalues"
        )
    else:
        verdict = "FAIL"
        note = (
            f"block means not decreasing over the top half"
            if not decreasing
            else f"final ratio {ratios[-1]:.3e} not below 1% of first {first:.3e}"
        )
    return IncompatReport(rows=tuple(rows), verdict=verdict, note=note)


@dataclass(frozen=True)
class GrowthReport:
    """Per-sample d/dx log W against the a-priori bound, W = |lambda| |u|^2 + |v|^2."""

    lam: complex
    samples: tuple[tuple[float, float, float, float], ...]  # (x, measured, bound, slack)
    min_slack: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def growth_check(problem: SLProblem, lam: complex) -> GrowthReport:
    """Check |d/dx log W| <= sqrt|lambda| (r + s) + |q|/sqrt|lambda| pointwise.

    The derivative is exact, read from the propagated state at each sample:
    with k = lambda r - q, u' = -s v and v' = k u give W' = -2 s |lambda|
    Re(conj(u) v) + 2 Re(conj(v) k u), free of the propagator's scale, and
    since |k| <= |lambda| r + |q| and W >= 2 sqrt|lambda| |u| |v|, W'/W obeys
    the bound.  About _X_SAMPLES samples lie strictly inside the pieces, each
    piece its width's share, rounded, and at least one.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise OutOfDomain(f"growth bound needs finite lambda, got {lam!r}")
    if abs(lam) < 1.0:
        raise OutOfDomain(f"growth bound needs |lambda| >= 1, got {abs(lam):g}")
    widths, svals, qvals, rvals = _solver_pieces(problem, abs(lam), "|lambda|", definite=False)
    total = sum(widths)
    alpha = problem.bc.alpha
    sqrt_mod = math.sqrt(abs(lam))

    alloc = [max(1, round(_X_SAMPLES * h / total)) for h in widths]
    rows = []
    acc = 0.0
    # (u, v) is the state at the piece's left end; each piece is crossed
    # once, and each sample reached from it across its own tail
    u, v = complex(math.sin(alpha)), complex(-math.cos(alpha))
    for h, s, q, r, c in zip(widths, svals, qvals, rvals, alloc):
        # W' = 2 Re(conj(u) v (conj(k) - s |lambda|))
        factor = (lam * r - q).conjugate() - s * abs(lam)
        bound = sqrt_mod * (r + s) + abs(q) / sqrt_mod
        for j in range(c):
            x_rel = acc + (j + 1) * h / (c + 1)
            ux, vx, _ = _propagate_scaled((x_rel - acc,), (s,), (q,), (r,), lam, u, v)
            w = abs(lam) * abs(ux) ** 2 + abs(vx) ** 2
            measured = 2.0 * (ux.conjugate() * vx * factor).real / w
            rows.append((problem.interval.a + x_rel, measured, bound, bound - abs(measured)))
        u, v, _ = _propagate_scaled((h,), (s,), (q,), (r,), lam, u, v)
        acc += h
    min_slack = min(row[3] for row in rows)
    passed = all(slack >= -1e-3 * bound for _, _, bound, slack in rows)
    return GrowthReport(lam=lam, samples=tuple(rows), min_slack=min_slack, passed=passed)


@dataclass(frozen=True)
class OrderEstimate:
    """Slopes of log log M(R) against log R for a lower and an upper bound on log M(R)."""

    radii: tuple[float, ...]
    log_max_modulus: tuple[float, ...]  # the lower bound, log|u(b; -R)|
    log_max_modulus_upper: tuple[float, ...]
    slope: float
    slope_upper: float
    used: tuple[bool, ...]
    verdict: str


def order_estimate(problem: SLProblem) -> OrderEstimate:
    """Both-sided bounds on log M(R), M(R) = max |u(b; lambda)| over |lambda| = R, fitted for the order.

    u(b; .) is entire of order <= 1/2 (growth_check's bound): a genus-0
    product over its zeros nu_k, the eigenvalues with beta = pi (Levin,
    Lectures on Entire Functions, 1996, Lectures 1-4).  So for c <= 0 below
    every nu_k, log|u(b; -R)| <= log M(R) <= log|u(b; -R - 2|c|)|, c sought
    above -L, L the larger of lambda_cap and the largest radius.  The
    radii are R_0 10^k, k = 0..4, with R_0 = max(100, 10 max |q|/r over the
    pieces with r > 0): every such piece is past its turning point
    R r = |q| tenfold, where log M(R) grows like sqrt(R).  PASS when the
    lower bound's slope is >= 0.4 and the upper's <= 0.6.  Radii where the
    lower bound is <= log 10 are left out of both fits.
    """
    _, _, qvals, rvals = problem.coeffs.piece_arrays()
    turn = max((abs(q) / r for q, r in zip(qvals, rvals) if r > 0.0), default=0.0)
    radii = tuple(max(100.0, 10.0 * turn) * 10**k for k in range(5))
    _solver_pieces(problem, radii[-1], "|lambda|", definite=False)  # names an overflow at R first
    at_pi = SLProblem(problem.interval, problem.coeffs, BoundaryCondition(problem.bc.alpha, math.pi))
    # c: the lowest zero, the first eigenvalue past theta(b; -L), less twice its tolerance;
    # no zero above -L, or u(b; .) constant (s or r zero throughout), leaves c = 0
    opts = SolverOptions(lambda_cap=max(DEFAULT_OPTIONS.lambda_cap, radii[-1]))  # cap = L
    shift = 0.0  # 2|c|
    with suppress(EigenvalueNotFound, NotRightDefinite):
        nu = eigenvalue(at_pi, prufer_angle(at_pi, -opts.lambda_cap).winding + 1, opts).value
        shift = max(0.0, 4.0 * max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(nu)) - 2.0 * nu)
    pieces = _solver_pieces(problem, radii[-1] + shift, "|lambda|", definite=False)
    u0, v0 = complex(math.sin(problem.bc.alpha)), complex(-math.cos(problem.bc.alpha))

    def log_abs_u(lam: float) -> float:
        u, _, ls = _propagate_scaled(*pieces, lam, u0, v0)
        return math.log(abs(u)) + ls if u else -math.inf
    log_m, log_up = [log_abs_u(-rad) for rad in radii], [log_abs_u(-rad - shift) for rad in radii]
    used = tuple(lm > math.log(10.0) for lm in log_m)
    xs = [math.log(rad) for rad, keep in zip(radii, used) if keep]
    if len(xs) < 2:
        raise DegenerateModulus("max modulus never exceeded 10; no order slope can be fitted")
    x_mean = math.fsum(xs) / len(xs)
    dxs = [x - x_mean for x in xs]  # the least-squares slopes, in closed form
    slopes = []
    for logs in (log_m, log_up):
        ys = [math.log(lm) for lm, keep in zip(logs, used) if keep]
        y_mean = math.fsum(ys) / len(ys)
        slopes.append(math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / math.fsum(d * d for d in dxs))
    verdict = "PASS" if slopes[0] >= 0.4 and slopes[1] <= 0.6 else "FAIL"  # neither order off 1/2
    return OrderEstimate(radii, tuple(log_m), tuple(log_up), *slopes, used, verdict)


_MODEL_CHUNK = 1 << 16  # model-spectrum terms summed per chunk


def _checkpoints(n: int) -> list[int]:
    ks = [10**k for k in range(3, 8) if 10**k <= n]
    if not ks or ks[-1] != n:
        ks.append(n)
    return ks


def partial_sum_primes(epsilon: float, n_terms: int):
    """Partial sums of sum p_n^(-(1/2+eps)) at decade checkpoints up to n_terms.

    The full series diverges for every eps < 1/2 (p_n ~ n log n makes the
    terms ~ n^(-(1/2+eps)) up to logs); the checkpoints grow without any
    visible ceiling, which is the divergent half of the dichotomy.  The
    primes stream in one 1 MB sieve segment at a time, so memory does not
    grow with n_terms.
    """
    if not 0.0 < epsilon < 0.5:
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if n_terms < 1:
        raise OutOfDomain(f"need at least one term, got {n_terms}")
    if n_terms > 10**7:
        raise LimitTooLarge(f"n_terms capped at 1e7, got {n_terms}")
    import numpy as np

    expo = -(0.5 + epsilon)
    chunks = (np.power(primes, expo, dtype=np.float64) for primes in _prime_chunks(n_terms))
    return tuple(_running_sums(chunks, _checkpoints(n_terms)))


def _running_sums(chunks, checkpoints: list[int]) -> list[tuple[int, float]]:
    """(m, sum of the first m terms) at each ascending checkpoint, over a stream of term arrays.

    Each chunk's sums start from the carried total, which is the same
    sequential float64 accumulation as one cumsum over every term: the
    sums are bit-identical to it whatever the chunk sizes.
    """
    import numpy as np

    rows = []
    carry = 0.0  # the sum of the done terms before this chunk
    done = 0
    for terms in chunks:
        sums = np.concatenate(((carry,), terms))
        np.cumsum(sums, out=sums)
        while len(rows) < len(checkpoints) and checkpoints[len(rows)] <= done + terms.size:
            m = checkpoints[len(rows)]
            rows.append((m, float(sums[m - done])))
        carry = float(sums[-1])
        done += terms.size
    return rows


def partial_sum_spectrum(c: float, epsilon: float, n_terms: int):
    """Partial sums of sum (c n^2)^(-(1/2+eps)) with the analytic tail bound attached.

    Rows are (M, S(M), tail_bound(M)) with tail_bound(M) =
    c^(-(1/2+eps)) M^(-2 eps) / (2 eps) >= S(inf) - S(M): the convergent
    half of the dichotomy, valid for any model spectrum lambda_n = c n^2.
    The terms are summed _MODEL_CHUNK at a time, so memory does not grow
    with n_terms.
    """
    if not 0.0 < epsilon < 0.5:
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if c <= 0.0 or not math.isfinite(c):
        raise OutOfDomain(f"growth constant must be positive, got {c}")
    if n_terms < 1:
        raise OutOfDomain(f"need at least one term, got {n_terms}")
    if n_terms > 10**7:
        raise LimitTooLarge(f"n_terms capped at 1e7, got {n_terms}")
    import numpy as np

    expo = 0.5 + epsilon
    chunks = (
        (c * np.arange(lo + 1, min(lo + _MODEL_CHUNK, n_terms) + 1, dtype=np.float64) ** 2)
        ** (-expo)
        for lo in range(0, n_terms, _MODEL_CHUNK)
    )
    scale = c ** (-expo)
    return tuple(
        (m, s, scale * m ** (-2.0 * epsilon) / (2.0 * epsilon))
        for m, s in _running_sums(chunks, _checkpoints(n_terms))
    )


def series_verdict(prime_rows, model_rows) -> str:
    """PASS/FAIL/INCONCLUSIVE for partial_sum_primes and partial_sum_spectrum rows of one n_terms.

    PASS needs increasing prime sums that at least double from the last
    checkpoint M <= n_terms/100 to n_terms, and model sums that grow past
    the first checkpoint by at most its tail bound; below n_terms = 10^5
    there is no such M and the verdict is withheld.  At n_terms = 10^6 the
    doubling holds only for eps <= 0.27, though the sums diverge for every eps < 1/2.
    """
    sums = [sp for _, sp in prime_rows]
    anchor = [sp for m, sp in prime_rows if m * 100 <= prime_rows[-1][0]]
    if not anchor:
        return "INCONCLUSIVE"
    increasing = all(a < b for a, b in zip(sums, sums[1:]))
    model_ok = model_rows[-1][1] - model_rows[0][1] <= model_rows[0][2] * (1 + 1e-12)
    return "PASS" if increasing and sums[-1] >= 2.0 * anchor[-1] and model_ok else "FAIL"
