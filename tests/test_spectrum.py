"""Eigenvalue solver: closed forms, the finite Atkinson spectrum, Weyl fits."""

import hashlib
import inspect
import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slprime.spectrum as spectrum_mod
from helpers import mp_boundary_function, random_problem, rk4_prufer_angle
from slprime.coeff import (
    BoundaryCondition,
    PiecewiseConstant,
    constant,
    problem,
    unit_problem,
    weyl_constant,
)
from slprime.errors import (
    BadConfig,
    EigenvalueNotFound,
    InsufficientData,
    NotRightDefinite,
    OutOfDomain,
)
from slprime.shoot import _scan_records, boundary_state, prufer_angle
from slprime.spectrum import (
    SolverOptions,
    Spectrum,
    compute_spectrum,
    eigenvalue,
    weyl_fit,
)

PI2 = math.pi**2


def test_unit_problem_closed_form():
    prob = unit_problem()
    for n in (1, 2, 3, 7, 25, 50):
        ev = eigenvalue(prob, n)
        assert ev.value == pytest.approx(n * n * PI2, rel=1e-10)
        assert ev.index == n


def test_eigenvalue_records_are_slotted_values():
    # a long walk keeps one record per index, so a record carries no __dict__;
    # it still pickles, and compares, hashes and prints by value
    import pickle

    from slprime.spectrum import Eigenvalue

    spec = compute_spectrum(unit_problem(), 3)
    for ev in spec.eigenvalues:
        assert not hasattr(ev, "__dict__")
        rebuilt = Eigenvalue(ev.index, ev.value, ev.residual)
        assert rebuilt == ev and hash(rebuilt) == hash(ev) and repr(rebuilt) == repr(ev)
        assert pickle.loads(pickle.dumps(ev)) == ev
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_unit_problem_high_index_within_tolerance():
    # theta(b) - target is formed from the winding offset and the fractional
    # angle, so its resolution does not degrade as n pi grows; formed as
    # theta(b) minus the full target it lost ~6.5x the lambda tolerance here
    opts = SolverOptions()
    for n in (5216, 7919, 10_000):
        exact = (n * math.pi) ** 2
        ev = eigenvalue(unit_problem(), n, opts)
        assert abs(ev.value - exact) <= max(opts.lambda_tol_abs, opts.lambda_tol_rel * exact)


def test_constant_shift():
    # q = c shifts every eigenvalue by exactly c when s = r = 1
    for c in (1.0, 50.0, -30.0):
        prob = problem(
            constant(1.0, 0.0, 1.0), constant(c, 0.0, 1.0), constant(1.0, 0.0, 1.0)
        )
        for n in (1, 2, 9):
            ev = eigenvalue(prob, n)
            assert ev.value == pytest.approx(n * n * PI2 + c, rel=1e-10)


def test_scaled_r_closed_form():
    prob = problem(
        constant(1.0, 0.0, 1.0), constant(0.0, 0.0, 1.0), constant(4.0, 0.0, 1.0)
    )
    for n in (1, 4, 12):
        ev = eigenvalue(prob, n)
        assert ev.value == pytest.approx(n * n * PI2 / 4.0, rel=1e-10)


def test_interval_scaling():
    # on [0, L] the Dirichlet eigenvalues are (n pi / L)^2
    prob = unit_problem(0.0, 2.5)
    for n in (1, 3):
        assert eigenvalue(prob, n).value == pytest.approx((n * math.pi / 2.5) ** 2, rel=1e-10)


def test_neumann_style_conditions():
    half_pi = math.pi / 2
    # alpha = beta = pi/2: eigenvalues (n-1)^2 pi^2, the first one is 0
    prob = problem(
        constant(1.0, 0.0, 1.0),
        constant(0.0, 0.0, 1.0),
        constant(1.0, 0.0, 1.0),
        alpha=half_pi,
        beta=half_pi,
    )
    assert abs(eigenvalue(prob, 1).value) < 1e-8
    for n in (2, 3, 6):
        assert eigenvalue(prob, n).value == pytest.approx(
            (n - 1) ** 2 * PI2, rel=1e-9, abs=1e-8
        )
    # Dirichlet-Neumann: ((n - 1/2) pi)^2
    prob = problem(
        constant(1.0, 0.0, 1.0),
        constant(0.0, 0.0, 1.0),
        constant(1.0, 0.0, 1.0),
        beta=half_pi,
    )
    for n in (1, 2, 5):
        assert eigenvalue(prob, n).value == pytest.approx(
            ((n - 0.5) * math.pi) ** 2, rel=1e-9
        )


def test_negative_eigenvalues_reachable():
    # deep constant well: lambda_n = n^2 pi^2 - 900 < 0 for n <= 3
    prob = problem(
        constant(1.0, 0.0, 1.0), constant(-900.0, 0.0, 1.0), constant(1.0, 0.0, 1.0)
    )
    for n in (1, 2, 3, 4):
        assert eigenvalue(prob, n).value == pytest.approx(n * n * PI2 - 900.0, rel=1e-9)


def _atkinson():
    """s lives on [0,1], r on [1,2]: one eigenvalue exactly at 1, then nothing."""
    s = PiecewiseConstant([0.0, 1.0, 2.0], [1.0, 0.0])
    q = PiecewiseConstant([0.0, 1.0, 2.0], [0.0, 0.0])
    r = PiecewiseConstant([0.0, 1.0, 2.0], [0.0, 1.0])
    return problem(s, q, r, beta=math.pi / 2)


def test_atkinson_finite_spectrum():
    prob = _atkinson()
    ev = eigenvalue(prob, 1)
    assert ev.value == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(EigenvalueNotFound) as missing:
        eigenvalue(prob, 2)
    spec = compute_spectrum(prob, 4)
    assert spec.truncated
    assert [ev.index for ev in spec.eigenvalues] == [1]
    # the note names the index the missing eigenvalue's error carries
    assert missing.value.index == 2
    assert f"TRUNCATED at n = {missing.value.index}: " in spec.truncation_note
    # truncated is read off the note, never stored beside it
    assert not replace(spec, truncation_note=None).truncated
    with pytest.raises(TypeError):
        Spectrum(spec.problem_hash, spec.eigenvalues, 4, truncated=False)


def test_indices_are_integers_from_one():
    prob = unit_problem()
    for bad in (2.5, 3.0, np.float64(2.0), True, False, "3", None, 0, -2):
        with pytest.raises(OutOfDomain, match="eigenvalue index must be"):
            eigenvalue(prob, bad)
        with pytest.raises(OutOfDomain, match="n_max must be"):
            compute_spectrum(prob, bad)
    with pytest.raises(OutOfDomain, match=f"n_max must be at most {sys.maxsize}, got"):
        compute_spectrum(prob, sys.maxsize + 1)
    with pytest.raises(OutOfDomain, match=r"must be an integer, got 2\.5"):
        eigenvalue(prob, 2.5)
    # numpy integers are integers
    assert eigenvalue(prob, np.int64(2)) == eigenvalue(prob, 2)
    assert compute_spectrum(prob, np.int32(3)) == compute_spectrum(prob, 3)


def test_an_index_past_the_float_range_is_not_found_at_the_cap():
    # the guess n^2 (C = 0), the guess's Weyl x and the target angle once
    # overflowed; every such index now ends as one below the cap does
    cases = [(_atkinson(), 10**200), (_atkinson(), 10**400), (unit_problem(), 10**200),
             (unit_problem(), 10**400), (unit_problem(), 2**1024 // 3)]
    for prob, n in cases:
        with pytest.raises(EigenvalueNotFound, match="stays below the target angle .* up to "
                           r"the lambda cap 1e\+12; no eigenvalue n = ") as missing:
            eigenvalue(prob, n)
        assert (missing.value.index, missing.value.cap) == (n, 1e12)
    with pytest.raises(EigenvalueNotFound, match="target angle inf "):
        eigenvalue(unit_problem(), 10**400)


@pytest.mark.parametrize("solve, sign, error, message", [
    (eigenvalue, 1, EigenvalueNotFound, "no eigenvalue n = an integer of about 5001 digits"),
    (eigenvalue, -1, OutOfDomain, "must be >= 1, got a negative integer of about 5001 digits"),
    (compute_spectrum, 1, OutOfDomain, f"at most {sys.maxsize}, got an integer of about 5001"),
    (compute_spectrum, -1, OutOfDomain, "must be >= 1, got a negative integer of about 5001"),
])
def test_an_index_past_str_range_is_refused_by_its_size(solve, sign, error, message):
    # str() refuses an integer of more than 4300 digits, so a refusal names
    # such an index by its size instead of ending in a raw ValueError
    with pytest.raises(error, match=message):
        solve(unit_problem(), sign * 10**5000)


# sha256 over walk_bits' cases; a change that moves a solver bit on purpose
# updates it and names the old and new digests
WALK_DIGEST = "2d43591440aac194b6abeedce1816cf4bbbb105131ffd3d1ccaf61a4b6f5398f"


def test_walk_bits_are_pinned():
    # every value and residual (as float.hex) and every truncation note of
    # these walks: 40 random documents, the 5-piece one through its
    # float-floor indices, and the finite Atkinson spectrum
    rng = np.random.default_rng(39)
    cases = [(random_problem(rng, max_pieces=6), 20) for _ in range(40)]
    cases += [(_impedance_jump_problem(), 1000), (_atkinson(), 4)]
    digest = hashlib.sha256()
    for prob, n_max in cases:
        spec = compute_spectrum(prob, n_max)
        for ev in spec.eigenvalues:
            digest.update(f"{ev.index} {ev.value.hex()} {ev.residual.hex()}\n".encode())
        digest.update(f"{spec.truncation_note}\n".encode())
    assert digest.hexdigest() == WALK_DIGEST


def test_compute_spectrum_ordering_and_interlacing():
    local = np.random.default_rng(41)
    for _ in range(4):
        prob = random_problem(local, max_pieces=4, allow_zero=False, q_scale=25.0)
        spec = compute_spectrum(prob, 12)
        vals = spec.values()
        assert len(vals) == 12 and not spec.truncated
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # near-degenerate brackets can leave theta(b) off by slope * ulp(lambda),
        # which for stiff problems exceeds angle_tol; lambda itself is still
        # bracketed to float resolution, so only a loose sanity gate applies here
        assert all(ev.residual <= 1e-5 for ev in spec.eigenvalues)


def test_indices_agree_with_an_rk4_prufer_angle():
    # documents with s or r zero on a piece (rng 7): dense RK4 on the Prufer
    # equation, which shares no code with the solver, must put theta(b)
    # below beta + (n - 1) pi a quarter of the way to the eigenvalue below
    # and above it a quarter of the way to the one above (at n = 1, the
    # gap above on both sides)
    rng = np.random.default_rng(7)
    docs = [random_problem(rng, max_pieces=6, allow_zero=True) for _ in range(293)]
    for i in (50, 179, 188, 263, 292):
        prob = docs[i]
        evs = compute_spectrum(prob, 4).eigenvalues
        vals = [ev.value for ev in evs]
        assert len(vals) == 4
        for k, ev in enumerate(evs[:3]):
            below = vals[k] - vals[k - 1] if k else vals[1] - vals[0]
            target = prob.bc.beta + (ev.index - 1) * math.pi
            lo = rk4_prufer_angle(prob, ev.value - 0.25 * below)
            hi = rk4_prufer_angle(prob, ev.value + 0.25 * (vals[k + 1] - vals[k]))
            assert lo < target < hi, (i, ev, lo - target, hi - target)


def _search_shape(rng):
    """The inverse search's problem: s = r = 1 on [0, 1], Dirichlet ends, 16 steps of |q| <= 200."""
    mesh = [i / 16 for i in range(17)]
    one = PiecewiseConstant(mesh, [1.0] * 16)
    return problem(one, PiecewiseConstant(mesh, rng.uniform(-200.0, 200.0, 16).tolist()), one)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_carried_brackets_match_cold_solves(seed, search_shape):
    # compute_spectrum starts each index from the scans of the one before;
    # a cold eigenvalue call must agree to one tolerance unit, and the
    # carried brackets must never hand back an earlier eigenvalue
    rng = np.random.default_rng(seed)
    prob = _search_shape(rng) if search_shape else random_problem(rng, max_pieces=6)
    opts = SolverOptions()
    spec = compute_spectrum(prob, 12, opts)
    vals = spec.values()
    assert all(a < b for a, b in zip(vals, vals[1:])), vals
    for ev in spec.eigenvalues:
        cold = eigenvalue(prob, ev.index, opts).value
        assert abs(ev.value - cold) <= max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(cold))
    if spec.truncated:
        with pytest.raises(EigenvalueNotFound):
            eigenvalue(prob, len(vals) + 1, opts)


def _holds(a, b):
    """a <= b within two tolerance units, max(lambda_tol_abs, lambda_tol_rel |lambda|)."""
    opts = SolverOptions()
    return a <= b + 2.0 * max(opts.lambda_tol_abs, opts.lambda_tol_rel * max(abs(a), abs(b)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 100.0))
def test_eigenvalues_do_not_fall_when_q_rises(seed, allow_zero, rise):
    # theta' = s cos^2 + (lambda r - q) sin^2 falls as q rises, so theta(b)
    # reaches each target angle at a lambda no lower than before
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, allow_zero=allow_zero)
    q = prob.coeffs.q
    dq = rng.uniform(0.0, rise, len(q.values)) * (rng.random(len(q.values)) < 0.7)
    raised = PiecewiseConstant(q.breakpoints, tuple(float(v + d) for v, d in zip(q.values, dq)))
    before = compute_spectrum(prob, 30).values()
    after = compute_spectrum(replace(prob, coeffs=replace(prob.coeffs, q=raised)), 30).values()
    # with r = 0 on a piece, theta(b) can stay above beta as lambda -> -inf:
    # the walk then stops at n = 1, and a q that rises can bring lambda_1 back
    assert len(after) >= len(before) and (allow_zero or len(before) == 30)
    for n, (a, b) in enumerate(zip(before, after), 1):
        assert _holds(a, b), (n, a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.01, math.pi), st.floats(0.01, math.pi))
def test_eigenvalues_interlace_in_beta(seed, allow_zero, beta1, beta2):
    # the target angle beta + (n - 1) pi rises with beta and stays below
    # beta1 + n pi for beta2 < beta1 + pi: lambda_n(beta1) <= lambda_n(beta2)
    # <= lambda_{n+1}(beta1)
    beta1, beta2 = min(beta1, beta2), max(beta1, beta2)
    prob = random_problem(np.random.default_rng(seed), allow_zero=allow_zero)
    lo = compute_spectrum(replace(prob, bc=BoundaryCondition(prob.bc.alpha, beta1)), 31).values()
    hi = compute_spectrum(replace(prob, bc=BoundaryCondition(prob.bc.alpha, beta2)), 30).values()
    # a beta that rises can likewise bring lambda_1 back (r = 0 on a piece)
    assert len(hi) >= min(len(lo), 30) and (allow_zero or len(lo) == 31)
    for n, (a, b, c) in enumerate(zip(lo, hi, lo[1:]), 1):
        assert _holds(a, b) and _holds(b, c), (n, a, b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eigenvalues_lie_above_the_closed_form_minorant(seed):
    # with s, r > 0 on every piece, Neumann bracketing gives
    # lambda_n >= L(n) = m + (pi (n - P - 2) / C)^2 for n >= P + 3, with P
    # pieces, C = weyl_constant and m = min q/r
    prob = random_problem(np.random.default_rng(seed), allow_zero=False)
    widths, _, qvals, rvals = prob.coeffs.piece_arrays()
    pieces, c = len(widths), weyl_constant(prob.coeffs)
    m = min(q / r for q, r in zip(qvals, rvals))
    spec = compute_spectrum(prob, 120)
    assert not spec.truncated
    for ev in spec.eigenvalues[pieces + 2:]:
        minorant = m + (math.pi * (ev.index - pieces - 2) / c) ** 2
        assert _holds(minorant, ev.value), (ev, minorant)


def test_compute_spectrum_deterministic():
    prob = random_problem(np.random.default_rng(99), max_pieces=3, allow_zero=False)
    a = compute_spectrum(prob, 8)
    b = compute_spectrum(prob, 8)
    assert a == b  # bit-identical, not merely close


def test_weyl_fit_matches_reference():
    prob = unit_problem()
    spec = compute_spectrum(prob, 200)
    fit = weyl_fit(spec, prob.coeffs)
    assert fit.reference == pytest.approx(PI2, rel=1e-15)
    assert fit.deviation < 1e-10

    prob4 = problem(
        constant(1.0, 0.0, 1.0), constant(0.0, 0.0, 1.0), constant(4.0, 0.0, 1.0)
    )
    fit4 = weyl_fit(compute_spectrum(prob4, 120), prob4.coeffs)
    assert fit4.reference == pytest.approx(PI2 / 4.0, rel=1e-15)
    assert fit4.deviation < 1e-10


def test_weyl_fit_needs_enough_eigenvalues():
    spec = compute_spectrum(unit_problem(), 9)
    with pytest.raises(InsufficientData):
        weyl_fit(spec, unit_problem().coeffs)


def test_solver_rejects_degenerate_coefficients():
    s = PiecewiseConstant([0.0, 1.0], [0.0])
    one = PiecewiseConstant([0.0, 1.0], [1.0])
    zero = PiecewiseConstant([0.0, 1.0], [0.0])
    with pytest.raises(NotRightDefinite):
        eigenvalue(problem(s, zero, one), 1)
    with pytest.raises(NotRightDefinite):
        eigenvalue(problem(one, zero, zero), 1)


def test_overflowing_piece_depends_on_the_cap():
    # s = r = 1 on a 1e140-wide interval: s h^2 cap r is 1e292 at the default
    # cap and overflows at cap 1e30, for the same problem object
    wide = unit_problem(0.0, 1e140)
    ev = eigenvalue(wide, 1)
    assert ev.value == pytest.approx(PI2 / 1e280, rel=1e-9)
    at_cap = r"^piece 0 on \[0\.0, 1e\+140\] overflows the theta-scan at lambda_cap 1e\+30:"
    with pytest.raises(OutOfDomain, match=at_cap):
        eigenvalue(wide, 1, SolverOptions(lambda_cap=1e30))


def test_non_finite_weyl_shift_falls_back_to_zero():
    # piece 0 passes the overflow rule, but its term h q sqrt(s/r) of the
    # q-aware shift is 0.5 * 1e200 * 1e150 = inf; the guess then takes no shift
    mesh = [0.0, 0.5, 1.0]
    prob = problem(PiecewiseConstant(mesh, [1.0, 1.0]), PiecewiseConstant(mesh, [1e200, 0.0]),
                   PiecewiseConstant(mesh, [1e-300, 1.0]))
    assert math.isinf(0.5 * 1e200 * math.sqrt(1.0 / 1e-300))
    _, _, weyl_c, shift = spectrum_mod._scannable_pieces(prob, SolverOptions().lambda_cap)
    assert (weyl_c, shift) == (0.5, 0.0)
    # the huge q walls off the left half: the spectrum is the right half's, (2 n pi)^2
    spec = compute_spectrum(prob, 5)
    assert [ev.index for ev in spec.eigenvalues] == [1, 2, 3, 4, 5]
    for ev in spec.eigenvalues:
        assert ev.value == pytest.approx(4 * ev.index**2 * PI2, rel=1e-12)


def test_tight_tolerance_options_respected():
    opts = SolverOptions(angle_tol=1e-8, lambda_tol_rel=1e-10)
    ev = eigenvalue(unit_problem(), 3, opts)
    assert ev.value == pytest.approx(9 * PI2, rel=1e-7)
    # each option must be a positive, finite number
    bad = [
        {"angle_tol": -1.0}, {"lambda_tol_rel": math.nan}, {"lambda_cap": math.inf},
        {"lambda_cap": 0}, {"angle_tol": True}, {"lambda_cap": "1e12"},
    ]
    for kwargs in bad:
        with pytest.raises(BadConfig):
            SolverOptions(**kwargs)
    with pytest.raises(BadConfig, match=r"^angle_tol must be positive, got -1\.0$"):
        SolverOptions(angle_tol=-1.0)
    # NaN fails the range test on the finite side, not the positive one
    with pytest.raises(BadConfig, match=r"^angle_tol must be finite, got nan$"):
        SolverOptions(angle_tol=math.nan)


def test_solver_options_store_floats():
    # an int past the float range converts to inf, which the finiteness rule rejects
    for name in ("lambda_cap", "lambda_tol_rel"):
        with pytest.raises(BadConfig, match=f"^{name} must be finite, got inf$"):
            SolverOptions(**{name: 10**400})
    opts = SolverOptions(angle_tol=np.float64(1e-9), lambda_tol_rel=np.float32(0.5), lambda_cap=10**6)
    assert opts == SolverOptions(angle_tol=1e-9, lambda_tol_rel=0.5, lambda_cap=1e6)
    assert all(type(v) is float for v in (opts.angle_tol, opts.lambda_tol_rel, opts.lambda_cap))


def test_low_cap_reports_not_found_with_cap(monkeypatch):
    opts = SolverOptions(lambda_cap=100.0)
    with pytest.raises(EigenvalueNotFound) as err:
        eigenvalue(unit_problem(), 50, opts)  # lambda_50 ~ 2.5e4 > cap
    assert err.value.index == 50
    assert err.value.cap == 100.0
    assert str(err.value) == (
        "theta(b) stays below the target angle 157.08 up to the lambda cap 100; "
        "no eigenvalue n = 50"
    )
    # downward expansion: theta(b) >= beta = 0.1 already at lambda = -cap;
    # the step doubles away from the clamped guess until it is clamped at -cap
    # (alpha = 3 puts the guess ((beta - alpha) / C)^2 = 8.41 above the cap)
    lams = []
    scan = spectrum_mod._theta_scan
    monkeypatch.setattr(spectrum_mod, "_theta_scan", lambda *a: lams.append(a[2]) or scan(*a))
    one = PiecewiseConstant([0.0, 1.0], [1.0])
    prob = problem(one, PiecewiseConstant([0.0, 1.0], [0.0]), one, alpha=3.0, beta=0.1)
    with pytest.raises(EigenvalueNotFound) as err:
        eigenvalue(prob, 1, SolverOptions(lambda_cap=3.0))
    assert lams == [3.0, 2.0, 1.0, -1.0, -3.0]
    assert err.value.index == 1 and err.value.cap == 3.0
    assert str(err.value) == (
        "no lambda above -3 brings theta(b) below the target angle 0.1 for n = 1"
    )
    # with alpha = 1.5 the guess ((beta - alpha) / C)^2 = 1.96 lies below the
    # cap; expansion still ends at -cap without a bracket
    prob = problem(one, PiecewiseConstant([0.0, 1.0], [0.0]), one, alpha=1.5, beta=0.1)
    with pytest.raises(EigenvalueNotFound) as err:
        eigenvalue(prob, 1, SolverOptions(lambda_cap=3.0))
    assert err.value.index == 1 and err.value.cap == 3.0
    assert "no lambda above -3 brings theta(b)" in str(err.value)


def bisection_eigenvalue(prob, n, opts=SolverOptions()):
    """Reference: the plain bisection on theta(b) that the bracketing iteration replaced.

    Same Weyl-guess bracket expansion and stopping rule; returns lambda
    from the last midpoint.
    """
    target = prob.bc.beta + (n - 1) * math.pi

    def theta(lam):
        return prufer_angle(prob, lam).theta_b

    c = weyl_constant(prob.coeffs)
    guess = (n * math.pi / c) ** 2 if c > 0.0 else float(n * n)
    step = max(1.0, 0.05 * abs(guess))
    if theta(guess) >= target:
        hi, lo = guess, guess - step
        while theta(lo) >= target:
            hi, step = lo, 2.0 * step
            lo = guess - step
    else:
        lo, hi = guess, guess + step
        while theta(hi) < target:
            lo, step = hi, 2.0 * step
            hi = guess + step
    lam = None
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lam, th = mid, theta(mid)
        if th < target:
            lo = mid
        else:
            hi = mid
        tol = max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(mid))
        if hi - lo <= tol and abs(th - target) <= opts.angle_tol:
            break
    return lam


def test_brent_agrees_with_bisection():
    opts = SolverOptions()
    rng = np.random.default_rng(2024)
    hyperbolic = 0
    for _ in range(30):
        # q up to +-50 puts low eigenvalues in the hyperbolic regime of some pieces
        prob = random_problem(rng, max_pieces=6, q_scale=50.0)
        widths, svals, qvals, rvals = prob.coeffs.piece_arrays()
        for ev in compute_spectrum(prob, 15, opts).eigenvalues:
            lam = bisection_eigenvalue(prob, ev.index, opts)
            tol = max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(lam))
            assert abs(ev.value - lam) <= 2.0 * tol, (ev, lam)
            hyperbolic += any(
                s * (ev.value * r - q) < 0.0 for s, q, r in zip(svals, qvals, rvals)
            )
    assert hyperbolic > 20  # the hyperbolic branch really was exercised


def _impedance_jump_problem():
    """Five pieces whose impedance jumps.

    Near n = 1000 theta(b) is so steep that the bracket reaches its lambda
    tolerance before the angle reaches angle_tol.
    """
    mesh = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    s, q, r = [1.0, 2.0, 0.5, 1.5, 1.0], [5.0, -30.0, 12.0, 0.0, 40.0], [1.0, 0.7, 2.0, 1.0, 3.0]
    return problem(*(PiecewiseConstant(mesh, v) for v in (s, q, r)), alpha=0.3, beta=2.0)


def test_float_exhaustion_returns_the_smaller_residual_end(monkeypatch):
    prob, opts = _impedance_jump_problem(), SolverOptions()
    points = []
    scan, read = spectrum_mod._theta_scan, spectrum_mod._point

    def reading_scan(records, state, lam, within):
        winding, frac, u, v = got = scan(records, state, lam, within)
        points.append(read(lam, winding, frac, math.hypot(u, v), prob.bc.beta, n))
        return got

    monkeypatch.setattr(spectrum_mod, "_theta_scan", reading_scan)
    exhausted = 0
    for n in range(996, 1005):
        points.clear()
        ev = eigenvalue(prob, n, opts)
        # every scan lands inside the bracket of its time, so the final
        # bracket is the highest point below the target and the lowest above
        lo = max((p for p in points if p[1] < 0.0), key=lambda p: p[0])
        hi = min((p for p in points if p[1] >= 0.0), key=lambda p: p[0])
        assert lo[0] < hi[0]
        assert ev.residual == min(abs(lo[1]), abs(hi[1]))
        assert ev.value in [p[0] for p in (lo, hi) if abs(p[1]) == ev.residual]
        lam = bisection_eigenvalue(prob, n, opts)
        assert abs(ev.value - lam) <= 2.0 * max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(lam))
        if ev.residual > opts.angle_tol:
            # the angle test never passed: the loop ran until no float lay inside
            assert math.nextafter(lo[0], hi[0]) == hi[0], (n, lo[0], hi[0])
            exhausted += 1
    assert exhausted >= 6  # the phase really ran


def test_scanned_points_read_as_point_reads_them():
    # eigenvalue's scan builds its point inline; every point a walk
    # carries to the next index, scanned or re-read, is _point's reading
    opts = SolverOptions()
    rng = np.random.default_rng(36)
    cases = [_impedance_jump_problem()] + [random_problem(rng, max_pieces=6) for _ in range(40)]
    checked = 0
    for prob in cases:
        walk = (spectrum_mod._scannable_pieces(prob, opts.lambda_cap), [])
        for n in range(1, 31):
            try:
                eigenvalue(prob, n, opts, walk)
            except EigenvalueNotFound:
                break
            for p in walk[1]:
                assert spectrum_mod._point(p[0], *p[3:], prob.bc.beta, n) == p, (prob, n, p)
                checked += 1
    assert checked > 1000, checked


def test_bracketed_scans_leave_every_spectrum_bit_for_bit(monkeypatch):
    # a scan between two scanned points is passed their windings, and
    # _theta_scan then takes the winding from the sign of u(b); a run that
    # ignores them counts every scan.  They agree bit for bit except where
    # forward shooting loses the solution at b (ROADMAP item 5): there the
    # computed theta(b) is not monotone, the counted run's residuals are
    # large, and the two runs stay within the lambda tolerance
    scan = spectrum_mod._theta_scan
    opts = SolverOptions()
    rng7, rng3 = np.random.default_rng(7), np.random.default_rng(3)
    cases = [random_problem(rng7, max_pieces=6, allow_zero=False) for _ in range(300)]
    cases += [random_problem(rng3, max_pieces=6) for _ in range(150)]
    identical = lossy = 0
    for prob in cases:
        got = compute_spectrum(prob, 10)
        with monkeypatch.context() as m:
            m.setattr(spectrum_mod, "_theta_scan", lambda rec, state, lam, within: scan(rec, state, lam))
            counted = compute_spectrum(prob, 10)
        if got == counted:
            identical += 1
            continue
        assert max(ev.residual for ev in counted.eigenvalues) > 0.1, prob
        assert len(got.eigenvalues) == len(counted.eigenvalues), prob
        for ev, ref in zip(got.eigenvalues, counted.eigenvalues):
            tol = max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(ref.value))
            assert abs(ev.value - ref.value) <= tol, (prob, ev, ref)
        lossy += 1
    assert identical >= 440 and lossy <= 10, (identical, lossy)


def test_every_scan_between_two_scanned_points_is_passed_their_windings(monkeypatch):
    # the walk reads the winding from u(b) wherever a scan lies between two
    # points it has scanned: the guess between the carried ends, each
    # expansion step short of a carried end and each step inside the
    # bracket.  Where the computed theta(b) is monotone over an eigenvalue
    # call's points, those are the nearest of them on either side of the
    # scan; a scan with no point on one side counts
    scan, solve = spectrum_mod._theta_scan, spectrum_mod.eigenvalue
    calls = []  # per eigenvalue call: its carried (lambda, winding, frac), then its scans

    def spying_solve(prob, n, opts, carry):
        calls.append(([(p[0], p[3], p[4]) for p in carry[1]], []))
        return solve(prob, n, opts, carry)

    def spying_scan(records, state, lam, within):
        got = scan(records, state, lam, within)
        calls[-1][1].append(((lam, got[0], got[1]), within))
        return got

    def walk(prob):
        found = []
        try:
            found.extend(itertools.islice(spectrum_mod._ascending(prob), 15))
        except EigenvalueNotFound:
            pass
        return found

    rng = np.random.default_rng(23)
    cases = [random_problem(rng, max_pieces=8, allow_zero=False) for _ in range(80)]
    with monkeypatch.context() as m:
        m.setattr(spectrum_mod, "eigenvalue", spying_solve)
        m.setattr(spectrum_mod, "_theta_scan", spying_scan)
        walks = [walk(prob) for prob in cases]
    tally = {"carried ends": 0, "a carried end": 0, "scanned ends": 0, "counted": 0}
    lossy = 0
    for carried, scans in calls:
        points = carried + [point for point, _ in scans]
        ordered = sorted(points)
        if any(a[1:] > b[1:] for a, b in zip(ordered, ordered[1:])):
            lossy += 1  # forward shooting lost the solution at b (ROADMAP item 5)
            continue
        winding = {lam: w for lam, w, _ in points}
        known = {lam: True for lam, _, _ in carried}  # lambda: carried?
        for (lam, _, _), within in scans:
            below = max((x for x in known if x < lam), default=None)
            above = min((x for x in known if x > lam), default=None)
            expected = None
            if below is not None and above is not None and winding[above] - winding[below] <= 1:
                expected = (winding[below], winding[above])
            assert within == expected, (lam, below, above, within)
            if expected is None:
                tally["counted"] += 1
            else:
                carried_ends = known[below] + known[above]
                tally[("scanned ends", "a carried end", "carried ends")[carried_ends]] += 1
            known[lam] = False
    assert lossy <= 0.01 * len(calls), (lossy, len(calls))
    # guesses (and first expansion steps) between the carried ends, and
    # expansion and root steps next to a carried end, really were bracketed
    assert tally["carried ends"] > 50 and tally["a carried end"] > 500, tally

    # the same walks reading every winding by the zero count, bit for bit
    with monkeypatch.context() as m:
        m.setattr(spectrum_mod, "_theta_scan", lambda rec, state, lam, _: scan(rec, state, lam))
        assert [walk(prob) for prob in cases] == walks


def test_root_loop_clamps_a_step_next_to_the_far_end():
    # a constant Neumann problem, one of perfbench's closed-form spectra
    # cases: at these indices the interpolation lands within tol/2 of the
    # bracket end across from the newest point and is pulled back to it
    s, q, r = 0.7257536083590793, -22.54275261091521, 0.7329464048869161
    length, half_pi = 1.5060403453491558, 0.5 * math.pi
    coeffs = (PiecewiseConstant([0.0, length], [c]) for c in (s, q, r))
    prob = problem(*coeffs, alpha=half_pi, beta=half_pi)
    code = spectrum_mod.eigenvalue.__code__
    lines, _ = inspect.getsourcelines(code)
    clamp = code.co_firstlineno + next(
        i for i, line in enumerate(lines) if line.strip() == "t = 1.0 - tlim"
    )
    clamped = []  # the index of each clamped step

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == clamp:
            clamped.append(frame.f_locals["n"])
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        spec = compute_spectrum(prob, 300)
    finally:
        sys.settrace(previous)
    assert clamped, "the upper clamp never ran"
    assert len(spec.eigenvalues) == 300
    opts = SolverOptions()
    for ev in spec.eigenvalues:
        exact = q / r + ((ev.index - 1) * math.pi / length) ** 2 / (s * r)
        tol = max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(exact))
        assert abs(ev.value - exact) <= tol, ev


def test_interleaved_walks_share_no_state():
    rng = np.random.default_rng(5)
    a, b = random_problem(rng, max_pieces=6, allow_zero=False), _search_shape(rng)
    walk_a = spectrum_mod._ascending(a)
    found = [next(walk_a) for _ in range(5)]
    cold_b = eigenvalue(b, 7)
    walk_b = spectrum_mod._ascending(b)
    from_b = [next(walk_b) for _ in range(3)]
    found += [next(walk_a) for _ in range(7)]
    from_b += [next(walk_b) for _ in range(4)]
    assert tuple(found) == compute_spectrum(a, 12).eigenvalues  # bit for bit
    assert tuple(from_b) == compute_spectrum(b, 7).eigenvalues
    assert cold_b == eigenvalue(b, 7)


def test_scan_budget_per_eigenvalue(monkeypatch):
    calls = [0]
    scan = spectrum_mod._theta_scan

    def counting_scan(*args):
        calls[0] += 1
        return scan(*args)

    monkeypatch.setattr(spectrum_mod, "_theta_scan", counting_scan)
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(20):
        found += len(compute_spectrum(random_problem(rng, max_pieces=8), 20).eigenvalues)
    found += len(compute_spectrum(unit_problem(), 100).eigenvalues)
    # plain bisection needs about 42 scans per eigenvalue here
    assert calls[0] / found <= 20.0, calls[0] / found


def test_closed_form_scan_budget(monkeypatch):
    # constant coefficients: the guess, which counts the boundary angles and
    # q, is exact for these ends, so it meets the angle test at once and a
    # probe half a tolerance away closes the bracket: two scans (plain Brent
    # on theta(b) needed about 12.5 per eigenvalue here; a guess aimed at
    # index n for every end needed 5.6 for DN and ND and 6.3 for NN, and
    # expanding by the usual wide step from the exact guess 2.45-2.76)
    calls = [0]
    scan = spectrum_mod._theta_scan

    def counting_scan(*args):
        calls[0] += 1
        return scan(*args)

    monkeypatch.setattr(spectrum_mod, "_theta_scan", counting_scan)
    ends = {
        "DD": (0.0, math.pi),
        "NN": (0.5 * math.pi, 0.5 * math.pi),
        "DN": (0.0, 0.5 * math.pi),
        "ND": (0.5 * math.pi, math.pi),
    }
    for name, (alpha, beta) in ends.items():
        calls[0] = found = 0
        for length, s, q, r in ((1.0, 1.0, 0.0, 1.0), (2.0, 0.5, 30.0, 2.0), (0.7, 3.0, -40.0, 0.4)):
            for m in range(1, 5):
                mesh = [length * i / m for i in range(m + 1)]
                coeffs = [PiecewiseConstant(mesh, [c] * m) for c in (s, q, r)]
                found += len(compute_spectrum(problem(*coeffs, alpha=alpha, beta=beta), 100).eigenvalues)
        assert found == 3 * 4 * 100
        assert calls[0] / found <= 2.0, (name, calls[0] / found)


_piece = st.tuples(
    st.floats(0.05, 2.0),  # width
    st.floats(0.0, 3.0),  # s
    st.floats(-100.0, 100.0),  # q
    st.floats(0.0, 3.0),  # r
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_piece, min_size=1, max_size=4),
    st.floats(0.0, 3.1),  # alpha
    st.floats(0.01, math.pi),  # beta
    st.sampled_from([-1, 0, 0, 0, 1]),  # index offset from the one whose target is nearest
    st.floats(-500.0, 5000.0),  # lambda
)
def test_boundary_function_has_the_sign_of_the_angle_mismatch(pieces, alpha, beta, offset, lam):
    widths, svals, qvals, rvals = (list(col) for col in zip(*pieces))
    records = _scan_records(widths, svals, qvals, rvals, abs(lam))
    winding, frac, u, v = spectrum_mod._theta_scan(records, boundary_state(alpha), lam)
    # mostly the index whose target angle lies within pi of theta(b), where
    # h = rho sin f; the neighbours reach the continuation beyond |f| = pi
    n = max(1, winding + 1 + offset)
    _, f, h, _, _, _ = spectrum_mod._point(lam, winding, frac, math.hypot(u, v), beta, n)
    # every f, zero and subnormal included: the interpolation on h
    # must point where the sign tests on f orient the bracket
    assert (f > 0.0) == (h > 0.0) and (f < 0.0) == (h < 0.0), (f, h)


def _one_piece(h, s, q, r, alpha, beta):
    return problem(
        PiecewiseConstant([0.0, h], [s]),
        PiecewiseConstant([0.0, h], [q]),
        PiecewiseConstant([0.0, h], [r]),
        alpha=alpha,
        beta=beta,
    )


def test_decaying_state_collapse_does_not_crash():
    # the boundary state lies on the decaying direction of the piece, so
    # the e^w parts of the propagated state cancel to exactly (0, 0):
    # in the w > 35 branch (first), the cosh/sinh branch (second), and
    # with e^{-2w} underflowing as well (third)
    deep = _one_piece(
        2.0, 0.5316758066664767, -15.405866193351272, 2.885849219094312,
        3.122678863375931, 2.3766886530905076,
    )
    shallow = _one_piece(
        0.3606446788449189, 1.0535257230056778, 31.729974611563563, 2.5639236166158685,
        3.125953519546041, 1.0,
    )
    underflow = _one_piece(
        1.105849379485729, 2.603218874814671, -7.731277880234153, 0.9691644825584158,
        3.1372608538259112, 1.0,
    )
    # theta(b) itself is not resolved at these lambda in float64; only
    # the absence of a crash is asserted
    assert math.isfinite(prufer_angle(shallow, -1667.3713110438507).theta_b)
    assert math.isfinite(prufer_angle(underflow, -143151.27393635263).theta_b)
    for prob in (deep, shallow):
        spec = compute_spectrum(prob, 30)
        assert len(spec.eigenvalues) == 30 and not spec.truncated
        for ev in spec.eigenvalues:
            d = 1e-9 * max(1.0, abs(ev.value))
            left = mp_boundary_function(prob, ev.value - d)
            right = mp_boundary_function(prob, ev.value + d)
            assert left * right < 0, ev


def _late_start():
    """random_problem(rng 3, allow_zero=True)'s draw 6: r = 0 on the piece at b.

    theta(b) stays above beta + pi as lambda -> -inf, so indices 1 and 2
    have no eigenvalue, and the first one is index 3.
    """
    rng = np.random.default_rng(3)
    for _ in range(7):
        prob = random_problem(rng, allow_zero=True)
    return prob


def test_late_start_has_eigenvalues_from_index_3():
    prob = _late_start()
    assert prob.coeffs.breakpoints == (0.0, 1.3902563317608754, 2.0)
    assert prob.coeffs.r.values[1] == 0.0
    floor = prob.bc.beta + math.pi
    for lam in (-1e6, -1e12):
        assert floor < prufer_angle(prob, lam).theta_b < floor + math.pi
    assert prufer_angle(prob, 0.0).theta_b > prob.bc.beta + 2 * math.pi


@pytest.mark.xfail(strict=True, reason="the walk stops at n = 1 instead of starting where "
                   "the eigenvalues start (ROADMAP item 21)")
def test_spectrum_starts_where_its_eigenvalues_start():
    spec = compute_spectrum(_late_start(), 10)
    assert spec.eigenvalues, spec.truncation_note
