"""Diagnostics for why a prime spectrum is out of reach for these problems.

Three independent signatures, each testable numerically:

* eigenvalues grow like n^2 while primes grow like n log n, so p_n/lambda_n
  decays to zero (incompatibility report);
* solutions are entire of order <= 1/2 in lambda: W = |lambda| |u|^2 + |v|^2
  has |W'/W| <= sqrt|lambda| (r + s) + |q|/sqrt|lambda| (growth_check), and
  integrated over [a, b] that bounds log|u(b; lambda)| (order_estimate's U),
  so sum |lambda_n|^(-1/2-eps) converges over any admissible spectrum;
* the same sum over the primes diverges (partial-sum dichotomy).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .coeff import SLProblem, weyl_constant
from .errors import EpsilonOutOfRange, InsufficientData, LimitTooLarge, OutOfDomain, _check_index
from .primes import _prime_chunks, nth_primes, prime_bounds
from .shoot import _propagate_scaled, _solver_pieces, boundary_state, integrate_system_scaled
from .spectrum import Spectrum

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
    _check_index("n_max", n_max)
    if n_max < 10:
        raise InsufficientData(f"need n_max >= 10, got {n_max}")
    if len(spectrum.eigenvalues) < n_max:
        raise InsufficientData(
            f"spectrum holds {len(spectrum.eigenvalues)} eigenvalues, report needs {n_max}"
        )
    eigs = spectrum.eigenvalues[:n_max]
    rows = tuple(
        (ev.index, ev.value, p, p / ev.value if ev.value > 0.0 else None)
        for ev, p in zip(eigs, nth_primes([ev.index for ev in eigs]))
    )
    if n_max < 100:
        return IncompatReport(rows, "INCONCLUSIVE", f"verdict withheld below n = 100 (got {n_max})")
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
    elif not decreasing:
        verdict, note = "FAIL", "block means not decreasing over the top half"
    else:
        verdict, note = "FAIL", f"final ratio {ratios[-1]:.3e} not below 1% of first {first:.3e}"
    return IncompatReport(rows, verdict, note)


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
    sqrt_mod = math.sqrt(abs(lam))

    alloc = [max(1, round(_X_SAMPLES * h / total)) for h in widths]
    rows = []
    acc = 0.0
    # (u, v) is the state at the piece's left end; each piece is crossed
    # once, and each sample reached from it across its own tail
    u, v = map(complex, boundary_state(problem.bc.alpha))
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
    """log M(R) bounded from both sides at each radius, and what the lower bound reads."""

    radii: tuple[float, ...]
    log_max_modulus: tuple[float, ...]  # the lower bound, log|u(b; -R)|
    log_max_modulus_upper: tuple[float, ...]  # the upper bound, U(R)
    slope: float  # a reading: log log|u(b; -R)| on log R; NaN below two radii past log 10
    slope_upper: float  # log log U(R) on log R, over the same radii
    used: tuple[bool, ...]
    verdict: str
    type_ratio: float  # a reading: log|u(b; -R)| / (C sqrt(R)) at the largest radius
    upper_a: float  # U(R)'s A
    upper_b: float  # U(R)'s B


def order_estimate(problem: SLProblem) -> OrderEstimate:
    """log M(R), M(R) = max |u(b; lambda)| over |lambda| = R: a theorem above, the data below.

    growth_check's |W'/W| <= sqrt(R) (r + s) + |q|/sqrt(R), integrated over
    [a, b] from W(a) = R sin^2 alpha + cos^2 alpha, with R |u(b)|^2 <= W(b),
    gives log M(R) <= U(R) = A sqrt(R) + B/sqrt(R) + log(sin^2 alpha + cos^2
    alpha/R)/2, A = int (r + s)/2, B = int |q|/2, for every admissible
    document.  One real propagation per radius gives log|u(b; -R)| <= log M(R),
    and only a propagator fault puts it above U(R) (past 1e-9 |U|): FAIL.
    The radii R_0 10^k, k = 0..4, R_0 = max(100, 10 max |q|/r where r > 0),
    pass every turning point R r = |q| tenfold.  Readings that cannot FAIL:
    the slopes of log log|u(b; -R)| and log U(R) on log R where the lower
    bound exceeds log 10, NaN where fewer than two radii do (the verdict
    stands), and the type log|u(b; -R)|/(C sqrt(R)) at the largest radius,
    C = weyl_constant.
    """
    widths, svals, qvals, rvals = problem.coeffs.piece_arrays()
    turn = max((abs(q) / r for q, r in zip(qvals, rvals) if r > 0.0), default=0.0)
    radii = tuple(max(100.0, 10.0 * turn) * 10**k for k in range(5))
    _solver_pieces(problem, radii[-1], "|lambda|", definite=False)  # names an overflow at R first
    upper_a = 0.5 * sum(h * (r + s) for h, s, r in zip(widths, svals, rvals))  # may overflow: no fsum
    upper_b = 0.5 * sum(h * abs(q) for h, q in zip(widths, qvals))
    u0, v0 = boundary_state(problem.bc.alpha)

    def log_abs_u(lam: float) -> float:
        u, _, ls = integrate_system_scaled(problem, lam)
        return math.log(abs(u)) + ls if u else -math.inf
    log_m = tuple(log_abs_u(-rad) for rad in radii)
    log_up = tuple(upper_a * math.sqrt(rad) + upper_b / math.sqrt(rad)
                   + 0.5 * math.log(u0**2 + v0**2 / rad) for rad in radii)
    used = tuple(lm > math.log(10.0) for lm in log_m)
    xs = [math.log(rad) for rad, keep in zip(radii, used) if keep]
    slopes = [math.nan, math.nan]  # unfitted below two radii
    if len(xs) > 1:
        x_mean = math.fsum(xs) / len(xs)
        dxs = [x - x_mean for x in xs]  # the least-squares slopes, in closed form
        sxx = math.fsum(d * d for d in dxs)
        for i, logs in enumerate((log_m, log_up)):  # NaN where U(R) is not positive and finite
            ys = [math.log(v) if 0.0 < v < math.inf else math.nan for v, keep in zip(logs, used) if keep]
            y_mean = math.fsum(ys) / len(ys)
            slopes[i] = math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / sxx
    c = weyl_constant(problem.coeffs)
    type_ratio = log_m[-1] / (c * math.sqrt(radii[-1])) if c > 0.0 else math.inf
    verdict = "FAIL" if any(lo > up + 1e-9 * abs(up) for lo, up in zip(log_m, log_up)) else "PASS"
    return OrderEstimate(radii, log_m, log_up, *slopes, used, verdict, type_ratio, upper_a, upper_b)


_MODEL_CHUNK = 1 << 16  # model-spectrum and minorant terms summed per chunk


def _checkpoints(n: int) -> list[int]:
    ks = [10**k for k in range(3, 8) if 10**k <= n]
    if not ks or ks[-1] != n:
        ks.append(n)
    return ks


def _series_terms(epsilon: float, n_terms: int) -> None:
    """Refuse a series exponent outside (0, 1/2) or a term count outside 1..1e7."""
    if not 0.0 < epsilon < 0.5:
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 1/2), got {epsilon}")
    _check_index("n_terms", n_terms)
    if n_terms > 10**7:
        raise LimitTooLarge(f"n_terms capped at 1e7, got {n_terms}")


def partial_sum_primes(epsilon: float, n_terms: int):
    """Partial sums of sum p_n^(-(1/2+eps)) at decade checkpoints up to n_terms.

    The full series diverges for every eps < 1/2 (p_n ~ n log n makes the
    terms ~ n^(-(1/2+eps)) up to logs); the checkpoints grow without any
    visible ceiling, which is the divergent half of the dichotomy.  Alive
    at once, whatever n_terms is: one segment's 1 MB of sieve flags, and
    one chunk of at most 155,611 primes with its terms (1.2 MB each).
    """
    _series_terms(epsilon, n_terms)
    import numpy as np

    expo = -(0.5 + epsilon)
    chunks = (np.power(primes, expo, dtype=np.float64) for primes in _prime_chunks(n_terms))
    return tuple(_running_sums(chunks, _checkpoints(n_terms)))


def _running_sums(chunks, checkpoints: list[int]) -> list[tuple[int, float]]:
    """(m, sum of the first m terms) at each ascending checkpoint, over a stream of term arrays.

    Each chunk (float64, owned here) takes the carried total into its first
    term and is cumsummed onto itself: the one sequential accumulation of a
    cumsum over every term, bit-identical to it, with one chunk alive at once.
    """
    import numpy as np

    rows = []
    carry = 0.0  # the sum of the done terms before this chunk
    done = 0
    for terms in chunks:
        terms[0] += carry
        np.cumsum(terms, out=terms)
        while len(rows) < len(checkpoints) and checkpoints[len(rows)] <= done + terms.size:
            m = checkpoints[len(rows)]
            rows.append((m, float(terms[m - done - 1])))
        carry = float(terms[-1])
        done += terms.size
        del terms
    return rows


def partial_sum_spectrum(c: float, epsilon: float, n_terms: int):
    """Partial sums of sum (c n^2)^(-(1/2+eps)) with the analytic tail bound attached.

    Rows are (M, S(M), tail_bound(M)) with tail_bound(M) =
    c^(-(1/2+eps)) M^(-2 eps) / (2 eps) >= S(inf) - S(M): the convergent
    half of the dichotomy, valid for any model spectrum lambda_n = c n^2.
    The terms are computed and summed _MODEL_CHUNK at a time on one index
    buffer, so one 512 KB chunk is alive whatever n_terms is.
    """
    _series_terms(epsilon, n_terms)
    if c <= 0.0 or not math.isfinite(c):
        raise OutOfDomain(f"growth constant must be positive, got {c}")
    import numpy as np

    expo = 0.5 + epsilon
    # (c n^2)^(-expo) on each index buffer; map, unlike a generator, holds none between chunks
    chunks = map(lambda n: np.power(np.multiply(np.square(n, out=n), c, out=n), -expo, out=n),
                 _index_chunks(0, n_terms))
    scale = c ** (-expo)
    return tuple(
        (m, s, scale * m ** (-2.0 * epsilon) / (2.0 * epsilon))
        for m, s in _running_sums(chunks, _checkpoints(n_terms))
    )


def _index_chunks(start: int, stop: int):
    """The indices start < n <= stop as float64 arrays of at most _MODEL_CHUNK each."""
    import numpy as np

    for lo in range(start, stop, _MODEL_CHUNK):
        yield np.arange(lo + 1, min(lo + _MODEL_CHUNK, stop) + 1, dtype=np.float64)


def series_verdict(epsilon: float, prime_rows, model_rows) -> tuple[str, str]:
    """(PASS/FAIL/INCONCLUSIVE, the numbers it read) for partial_sum_primes and
    partial_sum_spectrum rows of one n_terms and epsilon.

    With s = 1/2 + eps and M the last checkpoint <= n_terms/100, every
    prime term past M exceeds m_n = hi_n^(-s), hi_n = prime_bounds(n)[1]
    (Rosser & Schoenfeld, n >= 6).  PASS needs the prime sums to rise from
    M to n_terms by at least sum_{M<n<=n_terms} m_n, which the theorem
    guarantees, so falling short flags a sieve or summation fault; and that
    minorant rise to exceed the model's tail bound T(M), so the primes gain
    more past M than the model c n^2 can gain in all.  It also needs
    increasing prime sums, and model sums that grow past the first
    checkpoint by at most its tail bound.  Below n_terms = 10^5 there is no
    such M and the verdict is withheld.  It is withheld too where the data
    meet every clause but the minorant rise does not exceed T(M): T(M) ~
    c^(-1/2)/(2 eps) grows without bound as eps -> 0 while the rise stays finite
    (at n_terms = 10^6, below eps ~ 3.5e-4), so no window that short can
    tell the primes from the model, whatever the sums read.
    """
    n_terms = prime_rows[-1][0]
    anchor = [i for i, (m, _) in enumerate(prime_rows) if m * 100 <= n_terms]
    if not anchor:
        return "INCONCLUSIVE", f"no checkpoint M <= n_max/100 = {n_terms / 100:g}"
    (m, s_m), (_, s_n), tail = prime_rows[anchor[-1]], prime_rows[-1], model_rows[anchor[-1]][2]
    expo = -(0.5 + epsilon)
    minorant = math.fsum(
        float((prime_bounds(n)[1] ** expo).sum()) for n in _index_chunks(m, n_terms)
    )
    sums = [sp for _, sp in prime_rows]
    increasing = all(a < b for a, b in zip(sums, sums[1:]))
    model_ok = model_rows[-1][1] - model_rows[0][1] <= model_rows[0][2] * (1 + 1e-12)
    if not (increasing and model_ok and s_n - s_m >= minorant):
        verdict = "FAIL"
    else:
        verdict = "PASS" if minorant > tail else "INCONCLUSIVE"
    return verdict, (f"from M = {m}: prime_increase {s_n - s_m!r} "
                     f"minorant_increase {minorant!r} model_tail_bound {tail!r}")
