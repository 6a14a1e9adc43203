"""Shared oracles for the test suite: independent integrators and problem generators.

Everything here deliberately avoids the package's transfer-matrix code path,
so agreement between the two is evidence, not tautology.
"""

import cmath
import math

import numpy as np

from slprime.coeff import (
    BoundaryCondition,
    CoefficientSet,
    Interval,
    PiecewiseConstant,
    SLProblem,
)


def rk4_prufer_angle(problem, lam, steps_per_unit=None):
    """theta(b) by dense RK4 on theta' = s cos^2(theta) + (lam r - q) sin^2(theta).

    Integrates piece by piece so no step straddles a coefficient jump.
    Adequate for moderate |lam|; the step count scales with sqrt|lam|.
    """
    widths, svals, qvals, rvals = problem.coeffs.piece_arrays()
    theta = problem.bc.alpha
    if steps_per_unit is None:
        steps_per_unit = 400 * (1 + math.sqrt(abs(lam)))
    for h, s, q, r in zip(widths, svals, qvals, rvals):
        k = lam * r - q

        def rhs(t):
            st = math.sin(t)
            ct = math.cos(t)
            return s * ct * ct + k * st * st

        n = max(20, int(math.ceil(h * steps_per_unit)))
        dt = h / n
        for _ in range(n):
            k1 = rhs(theta)
            k2 = rhs(theta + 0.5 * dt * k1)
            k3 = rhs(theta + 0.5 * dt * k2)
            k4 = rhs(theta + dt * k3)
            theta += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return theta


def hand_piece_matrix(s, q, r, lam, h):
    """Transfer matrix for one constant piece, from the trig/hyperbolic formulas.

    Re-derived from the system u' = -s v, v' = (lam r - q) u instead of the
    unified kernel the package uses.  Complex lam goes through the
    hyperbolic form cosh(sqrt(-z)), not the package's cos(sqrt(z)).
    """
    k = lam * r - q
    z = s * k * h * h
    if abs(z) < 1e-30:
        c, sig = 1.0, 1.0
    elif isinstance(z, complex):
        w = cmath.sqrt(-z)
        c, sig = cmath.cosh(w), cmath.sinh(w) / w
    elif z > 0:
        w = math.sqrt(z)
        c, sig = math.cos(w), math.sin(w) / w
    else:
        w = math.sqrt(-z)
        c, sig = math.cosh(w), math.sinh(w) / w
    return np.array([[c, -s * h * sig], [k * h * sig, c]])


def random_problem(rng, max_pieces=5, allow_zero=True, q_scale=50.0):
    """A random right-definite step problem; s and r may vanish on pieces."""
    n = int(rng.integers(1, max_pieces + 1))
    cuts = np.sort(rng.uniform(0.2, 1.8, n - 1)) if n > 1 else np.array([])
    bps = tuple([0.0, *cuts.tolist(), 2.0])
    svals = rng.uniform(0.1, 3.0, n)
    rvals = rng.uniform(0.1, 3.0, n)
    if allow_zero and n >= 2:
        if rng.random() < 0.3:
            svals[rng.integers(0, n)] = 0.0
        if rng.random() < 0.3:
            rvals[rng.integers(0, n)] = 0.0
    # keep at least one piece where both live, so eigenvalues exist
    keep = int(rng.integers(0, n))
    svals[keep] = max(svals[keep], 0.5)
    rvals[keep] = max(rvals[keep], 0.5)
    qvals = rng.uniform(-q_scale, q_scale, n)
    mk = lambda vals: PiecewiseConstant(bps, tuple(float(v) for v in vals))
    alpha = float(rng.uniform(0.0, math.pi * 0.999))
    beta = float(rng.uniform(0.05, math.pi))
    return SLProblem(
        interval=Interval(0.0, 2.0),
        coeffs=CoefficientSet(s=mk(svals), q=mk(qvals), r=mk(rvals)),
        bc=BoundaryCondition(alpha, beta),
    )


def trial_division_primes(limit):
    """All primes <= limit the slow, obviously-correct way."""
    out = []
    for m in range(2, limit + 1):
        d = 2
        is_p = True
        while d * d <= m:
            if m % d == 0:
                is_p = False
                break
            d += 1
        if is_p:
            out.append(m)
    return out


def sieve_edge_indices(table, segments=4):
    """Sorted prime indices n whose p_n is the first or last prime of sieve segments 0..segments-1.

    Segment k covers the odd numbers [2 SEG k + 1, 2 SEG (k + 1)); table must
    reach past the last of them.  n = 1 (p_1 = 2, slot 0 of segment 0) is
    among them.
    """
    from slprime.primes import _SEGMENT

    edges = 2 * _SEGMENT * np.arange(segments + 1)
    assert table.limit >= edges[-1]
    first = np.searchsorted(table.primes, edges[:-1] + 1) + 1  # 1-indexed n of each first prime
    last = np.searchsorted(table.primes, edges[1:])  # n of the last prime below each edge
    return sorted({int(n) for n in (*first, *last)})


def bisect_lambda_over_log(n, lo=2.7182818284590455, hi=None, iters=200):
    """Solve lam / log(lam) = n on the increasing branch lam >= e, independently."""
    f = lambda lam: lam / math.log(lam) - n
    if hi is None:
        hi = max(10.0, 4.0 * n * math.log(max(n, 2)))
        while f(hi) < 0:
            hi *= 2
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_boundary_function(problem, lam, dps=60):
    """u(b) cos(beta) + v(b) sin(beta) at real lam, in dps-digit mpmath arithmetic.

    Zero exactly at the eigenvalues.  Built from the trig/hyperbolic
    formulas piece by piece, without the package's kernels, scaling or
    Prufer bookkeeping.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam = mp.mpf(lam)
        alpha = mp.mpf(problem.bc.alpha)
        beta = mp.mpf(problem.bc.beta)
        u, v = mp.sin(alpha), -mp.cos(alpha)
        for h, s, q, r in zip(*problem.coeffs.piece_arrays()):
            h, s, q, r = (mp.mpf(x) for x in (h, s, q, r))
            k = lam * r - q
            z = s * k * h * h
            if z > 0:
                w = mp.sqrt(z)
                c, sig = mp.cos(w), mp.sin(w) / w
            elif z < 0:
                w = mp.sqrt(-z)
                c, sig = mp.cosh(w), mp.sinh(w) / w
            else:
                c, sig = mp.mpf(1), mp.mpf(1)
            u, v = c * u - s * h * sig * v, k * h * sig * u + c * v
        return u * mp.cos(beta) + v * mp.sin(beta)
