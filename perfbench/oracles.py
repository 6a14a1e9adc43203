"""Output checks that do not reuse the solver's code paths.

The characteristic function is an independent numpy 2x2 transfer product
(with a 50-digit mpmath re-check when float64 cannot resolve the sign),
the eigenvalue index comes from a Prufer angle carried piece by piece in
closed form, closed forms come from the constant-coefficient ODE, and
primes come from a segmented sieve written here.
"""

from __future__ import annotations

import math

import numpy as np

# Eigenvalues are bisected to max(1e-10, 1e-12 |lambda|); a root must lie
# within this much of each reported value, which still rejects a value
# perturbed by one part in 1e6.
SIGN_WINDOW_REL = 1e-9
CLOSED_FORM_REL = 1e-9

# p_{10^6} and p_{10^7} from the published prime tables.
KNOWN_PRIMES = {1_000_000: 15_485_863, 10_000_000: 179_424_673}


def _char_float(widths, svals, qvals, rvals, alpha, beta, lams):
    """u(b) cos(beta) + v(b) sin(beta) for each lambda, up to a positive factor."""
    lams = np.asarray(lams, dtype=np.float64)
    u = np.full(lams.shape, math.sin(alpha))
    v = np.full(lams.shape, -math.cos(alpha))
    for h, s, q, r in zip(widths, svals, qvals, rvals):
        k = lams * r - q
        if s == 0.0:
            v = v + k * h * u
        else:
            z = s * k * h * h
            w = np.sqrt(np.abs(z))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # hyperbolic pieces carry a dropped factor e^w > 0 once w > 30
                big = w > 30.0
                e = np.exp(-2.0 * np.where(big, w, 0.0))
                c = np.where(
                    z > 0, np.cos(w), np.where(big, 0.5 * (1.0 + e), np.cosh(np.minimum(w, 30.0)))
                )
                sg = np.where(
                    z > 0,
                    np.sin(w) / w,
                    np.where(big, 0.5 * (1.0 - e) / w, np.sinh(np.minimum(w, 30.0)) / w),
                )
            tiny = w < 1e-4
            sg = np.where(tiny, 1.0 - z / 6.0 + z * z / 120.0, sg)
            c = np.where(tiny, 1.0 - z / 2.0 + z * z / 24.0, c)
            u, v = c * u - s * h * sg * v, k * h * sg * u + c * v
        n = np.maximum(np.abs(u), np.abs(v))
        u, v = u / n, v / n
    return u * math.cos(beta) + v * math.sin(beta)


def _char_mp(widths, svals, qvals, rvals, alpha, beta, lam):
    """The same characteristic function in 50-digit arithmetic (no scaling needed)."""
    import mpmath as mp

    with mp.workdps(50):
        u, v = mp.sin(alpha), -mp.cos(alpha)
        lam = mp.mpf(lam)
        for h, s, q, r in zip(widths, svals, qvals, rvals):
            h, s, q, r = mp.mpf(h), mp.mpf(s), mp.mpf(q), mp.mpf(r)
            k = lam * r - q
            z = s * k * h * h
            if z > 0:
                w = mp.sqrt(z)
                c, sg = mp.cos(w), mp.sin(w) / w
            elif z < 0:
                w = mp.sqrt(-z)
                c, sg = mp.cosh(w), mp.sinh(w) / w
            else:
                c, sg = mp.mpf(1), mp.mpf(1)
            u, v = c * u - s * h * sg * v, k * h * sg * u + c * v
        return u * mp.cos(beta) + v * mp.sin(beta)


def eigen_misses(problem, values) -> list[int]:
    """Positions in `values` where the characteristic function keeps its sign.

    Each reported eigenvalue must have a sign change of the characteristic
    function within SIGN_WINDOW_REL * max(1, |lambda|) of it.
    """
    widths, svals, qvals, rvals = problem.coeffs.piece_arrays()
    alpha, beta = problem.bc.alpha, problem.bc.beta
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return []
    d = SIGN_WINDOW_REL * np.maximum(1.0, np.abs(vals))
    lo = _char_float(widths, svals, qvals, rvals, alpha, beta, vals - d)
    hi = _char_float(widths, svals, qvals, rvals, alpha, beta, vals + d)
    misses = []
    for i in np.flatnonzero(~(lo * hi <= 0.0)):
        lam, di = float(vals[i]), float(d[i])
        a = _char_mp(widths, svals, qvals, rvals, alpha, beta, lam - di)
        b = _char_mp(widths, svals, qvals, rvals, alpha, beta, lam + di)
        if a * b > 0:
            misses.append(int(i))
    return misses


def _angle_count(widths, svals, qvals, rvals, alpha, beta, lams):
    """Number of eigenvalues at or below each lambda, from the Prufer angle.

    theta is defined by u = rho sin(theta), v = -rho cos(theta), theta(a) =
    alpha, for u' = -s v, v' = (lambda r - q) u.  It is carried as m pi + f
    with f in [0, pi).  On an oscillatory piece, tan(theta) = g tan(psi) with
    g = sqrt(s / k), where psi advances linearly by sqrt(s k) h and meets
    every multiple of pi / 2 together with theta.  On any other piece u has
    at most one zero and theta cannot fall below m pi, so its end value is
    m pi plus the direction of the propagated state taken in [0, 2 pi).
    Then theta(b) >= beta + (n - 1) pi exactly for the first n eigenvalues.
    """
    lams = np.asarray(lams, dtype=np.float64)
    m = np.full(lams.shape, int(alpha // math.pi), dtype=np.int64)
    f = np.full(lams.shape, alpha % math.pi)
    for h, s, q, r in zip(widths, svals, qvals, rvals):
        k = lams * r - q
        su, sv = np.sin(f), -np.cos(f)  # the state in the frame rotated by m pi
        osc = (s > 0.0) & (k > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # oscillatory: theta -> psi, advance psi, psi -> theta
            g = np.sqrt(np.where(osc, s / np.where(osc, k, 1.0), 1.0))
            up = f >= 0.5 * math.pi  # theta nearer (m + 1) pi than m pi
            j = m + up
            psi = np.arctan(np.tan(f - math.pi * up) / g) + np.sqrt(np.where(osc, s * k, 0.0)) * h
            turns = np.round(psi / math.pi)
            theta_rel = np.arctan(g * np.tan(psi - math.pi * turns))
            j_osc = j + turns.astype(np.int64)
            m_osc = j_osc - (theta_rel < 0.0)
            f_osc = np.where(theta_rel < 0.0, theta_rel + math.pi, theta_rel)
            # non-oscillatory: exact direction of the propagated state
            if s == 0.0:
                u1, v1 = su, sv + k * h * su
            else:
                w = np.sqrt(np.abs(s * k)) * h
                tw = np.where(w > 1e-8, np.tanh(w) / np.where(w > 1e-8, w, 1.0), 1.0)
                kh = np.where(k > 0.0, 0.0, k) * h  # only read where osc is false
                u1 = su - s * h * tw * sv
                v1 = kh * tw * su + sv
            x = np.arctan2(u1, -v1)
            x = np.where(x < 0.0, x + 2.0 * math.pi, x)
            if s == 0.0:
                x = np.where(su == 0.0, f, x)  # u frozen at 0: theta does not move
            wrap = x >= math.pi
            m_non = m + wrap
            f_non = np.where(wrap, x - math.pi, x)
        m = np.where(osc, m_osc, m_non)
        f = np.where(osc, f_osc, f_non)
    # beta + j pi <= m pi + f  for j = 0 .. count - 1, with beta in (0, pi]
    return m + (f >= beta)


def index_misses(problem, values) -> list[int]:
    """Positions i where lambda = values[i] is not the (i + 1)-th eigenvalue by count.

    Just below the value the Prufer count must be i, just above it i + 1,
    within the same window as the sign-change check.  The index comes from
    the position in the list, not from the solver's labels, so a skipped or
    repeated eigenvalue shows up at the first value after it.
    """
    widths, svals, qvals, rvals = problem.coeffs.piece_arrays()
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return []
    d = SIGN_WINDOW_REL * np.maximum(1.0, np.abs(vals))
    args = (widths, svals, qvals, rvals, problem.bc.alpha, problem.bc.beta)
    below = _angle_count(*args, vals - d)
    above = _angle_count(*args, vals + d)
    n = np.arange(1, vals.size + 1)
    return np.flatnonzero((below != n - 1) | (above != n)).tolist()


def order_misses(values) -> list[int]:
    """Positions i where values[i + 1] does not exceed values[i]."""
    return [i for i, (a, b) in enumerate(zip(values, values[1:])) if not a < b]


def closed_form(s, q, r, length, bc, n):
    """Constant-coefficient eigenvalue n: s (lambda r - q) = (m pi / L)^2.

    bc is "DD" (m = n), "NN" (m = n - 1) or "DN" (m = n - 1/2).
    """
    m = {"DD": n, "NN": n - 1, "DN": n - 0.5}[bc]
    return ((m * math.pi / length) ** 2 / s + q) / r


def closed_form_misses(values, expected) -> list[int]:
    return [
        i
        for i, (got, want) in enumerate(zip(values, expected))
        if not abs(got - want) <= CLOSED_FORM_REL * max(1.0, abs(want))
    ]


def _base_primes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def primes_by_index(indices, keep_first: int = 0):
    """(table, first): table[n] = p_n for each n in indices; first = p_1..p_keep_first.

    Odd-only segmented sieve, so memory stays at a few MB however large
    the largest index is.
    """
    pending = sorted(set(int(n) for n in indices))
    top = max(pending + [keep_first, 6])
    ln = math.log(top)
    limit = int(top * (ln + math.log(ln))) + 10  # Rosser: p_n < n (ln n + ln ln n), n >= 6
    base = _base_primes(math.isqrt(limit) + 1)[1:]  # odd base primes
    table, first = {}, [2]
    if pending and pending[0] == 1:
        table[pending.pop(0)] = 2
    count = 1  # primes found so far, starting with 2
    seg = 1 << 22  # odd numbers per segment
    lo = 3
    while (pending or len(first) < keep_first) and lo <= limit:
        hi = min(lo + 2 * seg, limit + 1)  # odd candidates lo, lo+2, ..., < hi
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            flags[(start - lo) // 2 :: p] = False
        hits = np.flatnonzero(flags)
        if len(first) < keep_first:
            first.extend((lo + 2 * hits[: keep_first - len(first)]).tolist())
        while pending and pending[0] <= count + hits.size:
            n = pending.pop(0)
            table[n] = int(lo + 2 * hits[n - count - 1])
        count += hits.size
        lo = hi
    return table, np.array(first[:keep_first], dtype=np.int64)
