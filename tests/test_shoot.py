"""Transfer-matrix propagation and the Pruefer angle against independent integrators."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import slprime.shoot as shoot_mod
import slprime.spectrum as spectrum_mod
from helpers import hand_piece_matrix, random_problem, rk4_prufer_angle
from slprime.coeff import PiecewiseConstant, constant, problem, unit_problem
from slprime.errors import NotRightDefinite, OutOfDomain
from slprime.shoot import (
    _SERIES_CUT,
    _kernel_series,
    _scaled_piece,
    _scan_records,
    _theta_scan,
    boundary_state,
    integrate_system_scaled,
    prufer_angle,
)

rng = np.random.default_rng(20260814)


def kernel_matrix(s, q, r, lam, h):
    """The package's per-piece kernel as a plain 2x2 array, its scale e^ls multiplied back in."""
    m11, m12, m21, m22, ls = _scaled_piece(s, q, r, lam, h)
    return np.array([[m11, m12], [m21, m22]]) * math.exp(ls)


def terminal_state(prob, lam):
    """(u(b), v(b)) from integrate_system_scaled, scale multiplied back in."""
    u, v, log_scale = integrate_system_scaled(prob, lam)
    return u * math.exp(log_scale), v * math.exp(log_scale)


def test_boundary_state_alignment():
    assert boundary_state(0.0) == (0.0, -1.0)  # Dirichlet start: u = 0
    u, v = boundary_state(math.pi / 2)
    assert u == 1.0 and abs(v) < 1e-16
    # the state satisfies u cos(alpha) + v sin(alpha) = 0 for any alpha
    for alpha in rng.uniform(0, math.pi, 20):
        u, v = boundary_state(alpha)
        assert abs(u * math.cos(alpha) + v * math.sin(alpha)) < 1e-15


def test_phase_kernels_match_series_and_trig():
    # across the series/trig switchover the kernels must agree to machine
    # precision; with s = r = h = 1 and q = 0 the piece has z = lambda, and
    # its matrix holds c = m11 and sigma = -m12
    for z in (1e-6, 9.9e-5, 1.01e-4, 1e-3, -1e-6, -9.9e-5, -1.01e-4, -1e-3):
        c, m12, _, _, ls = _scaled_piece(1.0, 0.0, 1.0, z, 1.0)
        assert ls == 0.0 and c.imag == 0.0 and m12.imag == 0.0
        if z > 0:
            w = math.sqrt(z)
            assert c.real == pytest.approx(math.cos(w), abs=1e-15)
            assert -m12.real == pytest.approx(math.sin(w) / w, abs=1e-15)
        else:
            w = math.sqrt(-z)
            assert c.real == pytest.approx(math.cosh(w), rel=1e-15)
            assert -m12.real == pytest.approx(math.sinh(w) / w, rel=1e-15)
    c, m12, _, _, _ = _scaled_piece(1.0, 0.0, 1.0, 0.0, 1.0)
    assert (c, -m12) == (1.0, 1.0)


def test_piece_matrix_against_hand_formulas():
    cases = [
        (2.0, 1.0, 3.0, 4.0, 0.25),
        (0.5, -1.0, 1.0, 4.0, 0.75),
        (1.0, 0.0, 1.0, -25.0, 1.0),
        (0.0, 3.0, 2.0, 7.0, 0.5),  # s = 0: shear piece
        (1.5, 2.0, 0.0, 9.0, 0.3),  # r = 0: lambda drops out
        (1.0, 2.0, 3.0, 4.0 - 7.0j, 0.5),  # complex lambda, |Im sqrt(z)| ~ 1.5
        # |Im sqrt(z)| >= 30: the kernel factors e^|Im sqrt(z)| out into ls
        (1.0, 0.0, 1.0, -(40.0**2), 1.0),  # sqrt(z) = 40i
        (2.0, -5.0, 0.5, -4910.0, 0.5),  # sqrt(z) = 35i
        (1.0, 0.0, 1.0, -825.0 + 1400.0j, 1.0),  # sqrt(z) = 20 + 35i
    ]
    for s, q, r, lam, h in cases:
        got = kernel_matrix(s, q, r, lam, h)
        ref = hand_piece_matrix(s, q, r, lam, h)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-15), (s, q, r, lam, h)
    # the scaled branch really is taken on the last three cases
    for s, q, r, lam, h in cases[-3:]:
        assert _scaled_piece(s, q, r, lam, h)[4] >= 30.0


def test_piece_matrix_unimodular_in_safe_regime():
    # hyperbolic pieces: the determinant computed from float entries carries a
    # cancellation error ~ eps * cosh^2(sqrt(-z)), so 1e-10 is only testable
    # for z > -45 or so; oscillatory pieces are fine at any z
    for _ in range(200):
        s = float(rng.uniform(0, 2))
        q = float(rng.uniform(-30, 30))
        r = float(rng.uniform(0, 2))
        lam = float(rng.uniform(-300, 300))
        h = float(rng.uniform(0.05, 1.0))
        z = s * (lam * r - q) * h * h
        if z < -45.0:
            continue
        m = kernel_matrix(s, q, r, lam, h)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert det == pytest.approx(1.0, abs=1e-10), (s, q, r, lam, h, z)


def test_integrate_system_against_solve_ivp():
    for trial in range(5):
        prob = random_problem(rng, max_pieces=4, q_scale=20.0)
        lam = float(rng.uniform(-60, 60))
        widths, sv, qv, rv = prob.coeffs.piece_arrays()
        bps = prob.coeffs.breakpoints

        def rhs(x, y):
            i = min(np.searchsorted(bps, x, side="right") - 1, len(sv) - 1)
            i = max(i, 0)
            return [-sv[i] * y[1], (lam * rv[i] - qv[i]) * y[0]]

        sol = solve_ivp(
            rhs,
            (bps[0], bps[-1]),
            list(boundary_state(prob.bc.alpha)),
            rtol=1e-11,
            atol=1e-12,
            dense_output=False,
            max_step=min(widths) / 4,
        )
        u, v = terminal_state(prob, lam)
        scale = max(1.0, abs(sol.y[0, -1]), abs(sol.y[1, -1]))
        assert abs(u - sol.y[0, -1]) / scale < 1e-7, trial
        assert abs(v - sol.y[1, -1]) / scale < 1e-7, trial


def test_integrate_split_consistency():
    # splitting a piece anywhere must not change the result (exact propagation)
    s = constant(1.3, 0.0, 2.0)
    q = constant(-4.0, 0.0, 2.0)
    r = constant(0.9, 0.0, 2.0)
    whole = problem(s, q, r)
    for lam in (-80.0, -1.0, 0.0, 17.0, 400.0):
        ref_u, ref_v = terminal_state(whole, lam)
        mesh = (0.0, 0.17, 0.5, 1.111, 1.9, 2.0)
        split = problem(s.refine(mesh), q.refine(mesh), r.refine(mesh))
        u, v = terminal_state(split, lam)
        scale = max(abs(ref_u), abs(ref_v))
        assert abs(u - ref_u) / scale < 1e-12
        assert abs(v - ref_v) / scale < 1e-12


def test_scaled_propagation_matches_plain_when_safe():
    # plain: the unscaled product of the hand-derived piece matrices
    prob = problem(
        PiecewiseConstant([0.0, 0.3, 1.0], [1.0, 2.0]),
        PiecewiseConstant([0.0, 0.6, 1.0], [5.0, -3.0]),
        PiecewiseConstant([0.0, 1.0], [1.5]),
        alpha=0.4,
    )
    widths, sv, qv, rv = prob.coeffs.piece_arrays()
    for lam in (-500.0, 40.0, 1e4, 30.0 - 200.0j):
        plain = np.array(boundary_state(prob.bc.alpha))
        for h, s, q, r in zip(widths, sv, qv, rv):
            plain = hand_piece_matrix(s, q, r, lam, h) @ plain
        u, v = terminal_state(prob, lam)
        scale = max(abs(plain[0]), abs(plain[1]))
        assert abs(u - plain[0]) / scale < 1e-12
        assert abs(v - plain[1]) / scale < 1e-12


def test_scaled_propagation_survives_huge_negative_lambda():
    # |lambda| = 1e10 over unit length: e^(1e5) overflows any float, the
    # scaled path must return finite pieces with the growth in log_scale
    u, v, log_scale = integrate_system_scaled(unit_problem(), -1e10)
    assert math.isfinite(abs(u)) and math.isfinite(abs(v))
    # closed form: u = sinh(w x)/w, v = -cosh(w x), w = 1e5
    assert log_scale + math.log(abs(v)) == pytest.approx(1e5 - math.log(2), rel=1e-9)
    assert log_scale + math.log(abs(u)) == pytest.approx(
        1e5 - math.log(2) - 5 * math.log(10), rel=1e-9
    )


def test_prufer_angle_unit_closed_form():
    # theta(b) at lam = (n pi)^2 equals n pi exactly for the unit problem
    prob = unit_problem()
    for n in (1, 2, 3, 10, 37):
        res = prufer_angle(prob, (n * math.pi) ** 2)
        assert res.theta_b == pytest.approx(n * math.pi, abs=1e-9)
    # strictly between eigenvalues the angle sits strictly between multiples of pi
    res = prufer_angle(prob, 2.5 * math.pi**2)
    assert math.pi < res.theta_b < 2 * math.pi


def test_prufer_angle_monotone_in_lambda():
    prob = random_problem(rng, max_pieces=3, allow_zero=False, q_scale=10.0)
    lams = np.linspace(-40.0, 900.0, 120)
    thetas = [prufer_angle(prob, float(l)).theta_b for l in lams]
    diffs = np.diff(thetas)
    assert (diffs > 0).all(), f"theta(b) must increase with lambda, min diff {diffs.min()}"


@pytest.mark.parametrize("trial", range(8))
def test_prufer_angle_against_rk4(trial):
    local = np.random.default_rng(7000 + trial)
    prob = random_problem(local, max_pieces=4, q_scale=15.0)
    lam = float(local.uniform(-50, 700))
    ref = rk4_prufer_angle(prob, lam)
    got = prufer_angle(prob, lam).theta_b
    assert got == pytest.approx(ref, abs=2e-5), (trial, lam)


def test_prufer_angle_winding_consistent():
    prob = unit_problem()
    res = prufer_angle(prob, (7.5 * math.pi) ** 2)
    # 7.5 oscillations: theta(b) = 7.5 pi, so the winding (floor) is 7
    assert res.winding == 7
    assert res.theta_b == pytest.approx(7.5 * math.pi, rel=1e-10)


def test_prufer_angle_is_the_walks_scan_bit_for_bit(monkeypatch):
    # the boundary state reaches the kernel by two routes: prufer_angle
    # derives it per call, a spectrum walk once per problem.  At every
    # lambda a walk scans with counting, both read the same winding and
    # theta(b), bit for bit, though the walk's records are built at the
    # lambda cap and prufer_angle's at |lambda|
    scan, scanned = spectrum_mod._theta_scan, []

    def recording(records, state, lam, within):
        got = scan(records, state, lam, within)
        if within is None:
            scanned.append((lam, got[0], got[0] * math.pi + got[1]))
        return got

    monkeypatch.setattr(spectrum_mod, "_theta_scan", recording)
    local = np.random.default_rng(20261020)
    checked = 0
    for _ in range(60):
        prob = random_problem(local, max_pieces=6)
        scanned.clear()
        spectrum_mod.compute_spectrum(prob, 12)
        for lam, winding, theta_b in scanned:
            got = prufer_angle(prob, lam)
            assert (got.winding, got.theta_b.hex()) == (winding, theta_b.hex()), (prob, lam)
        checked += len(scanned)
    assert checked > 1000, checked


def test_prufer_angle_requires_right_definite_content():
    s = PiecewiseConstant([0.0, 1.0], [0.0])
    q = PiecewiseConstant([0.0, 1.0], [1.0])
    r = PiecewiseConstant([0.0, 1.0], [1.0])
    with pytest.raises(NotRightDefinite):
        prufer_angle(problem(s, q, r), 1.0)
    with pytest.raises(OutOfDomain):
        prufer_angle(unit_problem(), math.nan)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                 complex(0.0, math.nan), complex(1.0, math.inf)])
def test_integrate_system_scaled_names_a_non_finite_lambda(lam):
    # the unit problem's piece is fine at any finite lambda: the error must
    # blame lambda, not piece 0
    with pytest.raises(OutOfDomain, match="integrate_system_scaled needs finite lambda"):
        integrate_system_scaled(unit_problem(), lam)


def test_prufer_angle_refuses_overflowing_pieces():
    # on [0, 1e200], s h^2 (|q| + |lambda| r) = 1e400: the scan used to return
    # theta(b) = pi (u = sinh x has no zero, theta(b) -> pi/4) at lambda = -1
    # and a bare ValueError at lambda = 1
    one, zero = PiecewiseConstant([0.0, 1e200], [1.0]), PiecewiseConstant([0.0, 1e200], [0.0])
    wide = problem(one, zero, one)
    for lam in (-1.0, 1.0):
        with pytest.raises(OutOfDomain, match=r"piece 0 on \[0.0, 1e\+200\] overflows the theta-scan"):
            prufer_angle(wide, lam)
        with pytest.raises(OutOfDomain, match=r"overflows the propagator at \|lambda\| 1:"):
            integrate_system_scaled(wide, lam)
    # each piece passes the rule, but at lambda = 0 the state leaves piece 0 as
    # (0.84, -8.4e118), and u = 0.84 + s h 8.4e118 overflows piece 1: theta(b) was NaN
    mesh = [0.0, 1.0, 2.0]
    carried = problem(
        PiecewiseConstant(mesh, [1e-200, 1e200]),
        PiecewiseConstant(mesh, [1e119, 0.0]),
        PiecewiseConstant(mesh, [0.0, 1.0]),
        alpha=1.0,
    )
    with pytest.raises(OutOfDomain, match="theta\\(b\\) at lambda 0.0 is not finite"):
        prufer_angle(carried, 0.0)
    nan_state = _nan_state()
    for lam in (-1e12, -1e6, 0.0, 1e6):
        with pytest.raises(OutOfDomain, match=f"theta\\(b\\) at lambda {lam!r} is not finite"):
            prufer_angle(nan_state, lam)


def test_scan_refuses_r_h_past_the_float_range():
    # s = 1, q = 0, r = 1e300 on [0, 1e10]: at lambda_cap 1e-20, s k h^2 =
    # 1e300 and k h = 1e290 are finite, but the scan's record holds
    # r h = 1e310, and k h = lambda (r h) would be inf or NaN in the scan
    wide = problem(constant(1.0, 0.0, 1e10), constant(0.0, 0.0, 1e10), constant(1e300, 0.0, 1e10))
    piece = r"^piece 0 on \[0.0, 10000000000.0\] overflows the theta-scan at "
    with pytest.raises(OutOfDomain, match=piece + r"lambda_cap 1e-20: s h, r h, \|q\| h, "):
        spectrum_mod.compute_spectrum(wide, 3, spectrum_mod.SolverOptions(lambda_cap=1e-20))
    with pytest.raises(OutOfDomain, match=piece + r"\|lambda\| 0: "):
        prufer_angle(wide, 0.0)
    # the complex propagator keeps its own products: k h = 0 at lambda = 0
    assert integrate_system_scaled(wide, 0.0)[0] == 1.0


def _nan_state():
    """Every piece passes the overflow rule, yet the state overflows at every lambda.

    It leaves piece 1 as (1.7e58, -5.7e80), and the s = 0 piece's
    v += k h u with k h = -3.1e284 overflows it before the oscillating last
    piece.  The same document is cli_snapshot's `nanstate`.
    """
    mesh = [0.0, 0.5, 1.0, 1.5, 2.0]
    q = [3.8969425020917765e162, -1.6293214750500667e40, 6.179729093553748e284,
         -1.4159561397882008e284]
    return problem(
        PiecewiseConstant(mesh, [1.0, 1.0, 0.0, 1.0]),
        PiecewiseConstant(mesh, q),
        PiecewiseConstant(mesh, [7.334178569363634e-30, 0.0, 0.0, 0.0]),
        alpha=0.6137152057018777,
    )


def test_theta_scan_refuses_an_overflowed_state():
    # the counted scan once carried the overflowed state on and raised a
    # ValueError from floor() of the last piece's NaN phase, where the
    # bracketed one read NaN; both now stop at the size test that finds it
    nan_state = _nan_state()
    records = _scan_records(*shoot_mod._solver_pieces(nan_state, 1e12), 1e12)
    for lam in (-1e12, -1e6, -1.0, 0.0, 1.0, 1e6, 1e12):
        for within in (None, (0, 1)):
            with pytest.raises(OutOfDomain, match=f"^theta\\(b\\) at lambda {lam!r} is not finite"):
                _theta_scan(records, boundary_state(nan_state.bc.alpha), lam, within)


def test_an_overflowed_state_has_one_refusal(tmp_path, capsys):
    # prufer_angle, eigenvalue and the CLI all pass on the scan's own error:
    # eigenvalue's first scan, at its clamped guess, is at lambda_cap
    import json

    from slprime.cli import problem_to_document, run
    from slprime.spectrum import eigenvalue

    message = (
        "theta(b) at lambda 1000000000000.0 is not finite: the terminal state "
        "overflowed the theta-scan on these coefficients"
    )
    nan_state = _nan_state()
    for call in (lambda: prufer_angle(nan_state, 1e12), lambda: eigenvalue(nan_state, 1)):
        with pytest.raises(OutOfDomain) as err:
            call()
        assert str(err.value) == message
    cfg = tmp_path / "nanstate.json"
    cfg.write_text(json.dumps(problem_to_document(nan_state)))
    for command in ("spectrum", "incompat"):
        assert run([command, "--config", str(cfg), "--n-max", "20"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")



def _reference_start_sign(u, v):
    if u > 0.0:
        return 1
    if u < 0.0:
        return -1
    return 1 if v < 0.0 else -1


def _reference_parity_fixed(zc, ss, end_sign, end_frac):
    predicted = ss if zc % 2 == 0 else -ss
    if predicted == end_sign:
        return zc
    adjusted = zc + (1 if end_frac > 0.5 * math.pi else -1)
    return adjusted if adjusted >= 0 else zc + 1


def reference_theta_scan(widths, svals, qvals, rvals, alpha, lam):
    """The theta-scan kernel before it was inlined, kept as the bit-for-bit reference.

    It takes psi0's sector from the rounded atan2, so it undercounts when
    a zero of u lands on a breakpoint; on generic inputs it is exact.  It
    forms k h = lambda (r h) - q h and z = (s h)(k h) per piece, in the
    kernel's order.  It counts every oscillating piece by its phase,
    whatever w, so it checks the kernel's sign-flip count where w < pi.
    """
    u = math.sin(alpha)
    v = -math.cos(alpha)
    winding = 0
    for h, s, q, r in zip(widths, svals, qvals, rvals):
        kh = lam * (r * h) - q * h
        if s * h == 0.0:
            v += kh * u
        else:
            z = s * h * kh
            ss = _reference_start_sign(u, v)
            if z > _SERIES_CUT:
                w = math.sqrt(z)
                cw = math.cos(w)
                sg = math.sin(w) / w
                u1 = cw * u - s * h * sg * v
                v1 = kh * sg * u + cw * v
                psi0 = math.atan2(w * u, -s * h * v)
                psi1 = psi0 + w
                zc = math.floor(psi1 / math.pi) - math.floor(psi0 / math.pi)
                end_frac = psi1 - math.pi * math.floor(psi1 / math.pi)
                if u1 != 0.0:
                    zc = _reference_parity_fixed(zc, ss, 1 if u1 > 0.0 else -1, end_frac)
                else:
                    before = 1 if v1 > 0.0 else -1
                    zc = _reference_parity_fixed(zc - 1, ss, before, end_frac) + 1
            else:
                if z < -_SERIES_CUT:
                    w = math.sqrt(-z)
                    if w > 35.0:
                        e = math.exp(-2.0 * w)
                        cw = 0.5 * (1.0 + e)
                        sg = 0.5 * (1.0 - e) / w
                    else:
                        cw = math.cosh(w)
                        sg = math.sinh(w) / w
                else:
                    cw, sg = _kernel_series(z)
                u1 = cw * u - s * h * sg * v
                v1 = kh * sg * u + cw * v
                if u1 == 0.0 and v1 == 0.0:
                    a = s * h / w
                    b = kh / w
                    e = math.exp(-2.0 * w)
                    u1 = (u - a * v) + e * (u + a * v)
                    v1 = (b * u + v) + e * (v - b * u)
                    if u1 == 0.0 and v1 == 0.0:
                        u1, v1 = u + a * v, v - b * u
                if u1 == 0.0:
                    zc = 1
                else:
                    zc = 1 if (ss > 0) != (u1 > 0.0) else 0
            u, v = u1, v1
            winding += zc
        n = abs(u) + abs(v)
        if n > 1e120 or n < 1e-120:
            u /= n
            v /= n
    raw = math.atan2(u, -v)
    frac = raw + math.pi if raw < 0.0 else raw
    return winding, frac, u, v


def _random_scan_args(local):
    """(widths, s, q, r, alpha, lam) over every branch of the kernel, lambda up to 1e9."""
    n = int(local.integers(1, 17))
    widths = local.uniform(0.01, 2.0, n).tolist()
    svals = local.uniform(0.1, 3.0, n)
    svals[local.random(n) < 0.15] = 0.0  # shear pieces
    svals[0] = svals[0] or 1.0
    rvals = np.where(local.random(n) < 0.15, 0.0, local.uniform(0.1, 3.0, n))
    qvals = local.uniform(-200.0, 200.0, n)
    alpha = float(local.choice([0.0, 0.5 * math.pi, local.uniform(0.0, math.pi)]))
    mode = local.integers(0, 4)
    if mode == 0:
        lam = local.uniform(-300.0, 3000.0)  # hyperbolic and oscillatory pieces
    elif mode == 1:
        lam = 10.0 ** local.uniform(0.0, 9.0)
    elif mode == 2:
        lam = -(10.0 ** local.uniform(0.0, 5.0))  # deep hyperbolic, w > 35
    else:
        # lambda r - q within ~1e-5 of 0 on one piece: the series branch
        i = int(local.integers(0, n))
        rvals[i] = rvals[i] or 1.0
        lam = qvals[i] / rvals[i] + local.uniform(-1e-5, 1e-5)
    return widths, svals.tolist(), qvals.tolist(), rvals.tolist(), alpha, float(lam)


def flat_theta_scan(widths, svals, qvals, rvals, alpha, lam, cap=None):
    """_theta_scan on the reference kernel's arguments: four per-piece lists, alpha, lambda.

    The records are built at cap, |lambda| unless given, as prufer_angle builds them.
    """
    cap = abs(lam) if cap is None else cap
    return _theta_scan(_scan_records(widths, svals, qvals, rvals, cap), boundary_state(alpha), lam)


def _size_tested(widths, svals, qvals, rvals, cap):
    """Whether _scan_records at cap has _theta_scan test the size after some oscillating piece."""
    return any(rec[-1] for rec in _scan_records(widths, svals, qvals, rvals, cap))


def _bound_missing_args(local):
    """(widths, s, q, r, alpha, lam, cap): 32-48 random pieces at cap 1e12, half with one s near 1e-8.

    s > 0 on every piece, so the growth bound adds up over all of them, and
    most draws pass it: the size is then tested after some oscillating
    pieces.  lambda lies anywhere below cap, as a spectrum scans below its
    lambda_cap, and up to 1e9 where one piece has s near 1e-8.
    """
    widths, svals, qvals, rvals, alpha, lam = _random_scan_args(local)
    size = int(local.integers(32, 49))
    while len(widths) < size:
        extra = _random_scan_args(local)[:4]
        widths, svals, qvals, rvals = (a + b for a, b in zip((widths, svals, qvals, rvals), extra))
    widths, qvals, rvals = (col[:size] for col in (widths, qvals, rvals))
    svals = [s or 1.0 for s in svals[:size]]
    if local.random() < 0.5:
        i = int(local.integers(0, size))
        svals[i] = 1e-8 * local.uniform(0.5, 2.0)
        rvals[i] = rvals[i] or 1.0
        lam = float(10.0 ** local.uniform(0.0, 9.0))
    return widths, svals, qvals, rvals, alpha, lam, 1e12


# two equal pieces whose phase leaves the first on 3 pi at the first of
# these lambda, the only float within 3000 ulps where it does; the second
# is the next float up (test_theta_scan_keeps_a_zero_that_lands_on_a_breakpoint)
_BREAKPOINT_HALF = 1.8314215536284029 / 2
_BREAKPOINT_SQR = (1.2527198028361937, 28.462667776984148, 0.7698723122733672)
_BREAKPOINT_LAMS = (113.2470837023003, math.nextafter(113.2470837023003, math.inf))


# the unit problem cut into three pieces: at its lambda_7 = 49 pi^2 and
# lambda_28 = 784 pi^2 u(b) comes out as exactly +0.0
_THIRDS = [0.3333333333333333, 0.3333333333333333, 0.33333333333333337]
_UNIT_THIRDS_LAMS = (483.61061565337855, 7737.769850454057)


def _scanned_w(h, s, q, r, lam):
    """w = sqrt(z) of a piece as _theta_scan forms it from the piece's record."""
    return math.sqrt((s * h) * (lam * (r * h) - q * h))


def _near_integer_turns_args(local):
    """_random_scan_args with oscillatory pieces resized so h sqrt(s k) lies near K pi.

    Half the resized pieces lie within 1e-9 of K pi.  The others take K in
    1-3 and lie 0-3 ulps below K pi or 0-3 above it, in the w the scan
    computes: where its sign-flip count (w < pi) meets its phase count.
    A piece that starts on the exact zero of a Dirichlet start stays
    within 1e-9: a few ulps from K pi its end would fall within rounding
    of a zero, where the reference kernel undercounts.
    """
    widths, svals, qvals, rvals, alpha, lam = _random_scan_args(local)
    if local.random() < 0.3:
        lam = 1e12 * (1.0 - local.uniform(0.0, 1e-6))
    live = alpha != 0.0  # u is off zero at this piece's start
    for i, (s, q, r) in enumerate(zip(svals, qvals, rvals)):
        k = lam * r - q
        if s > 0.0 and k > 0.0 and local.random() < 0.6:
            root = math.sqrt(s * k)
            if not live or local.random() < 0.5:
                turns = max(1, round(widths[i] * root / math.pi))
                widths[i] = (turns * math.pi + local.uniform(-1e-9, 1e-9)) / root
            else:
                target = int(local.integers(1, 4)) * math.pi
                h = target / root
                # the least width whose w reaches target, then 0-3 ulps past it or below it
                while _scanned_w(h, s, q, r, lam) >= target:
                    h = math.nextafter(h, 0.0)
                while _scanned_w(h, s, q, r, lam) < target:
                    h = math.nextafter(h, math.inf)
                above = local.random() < 0.5
                if not above:
                    h = math.nextafter(h, 0.0)
                for _ in range(int(local.integers(0, 4))):
                    h = math.nextafter(h, math.inf if above else 0.0)
                widths[i] = h
        live = live or s > 0.0
    return widths, svals, qvals, rvals, alpha, lam


def _breakpoint_zero_args(local):
    """A zero of u on or within rounding of a breakpoint, followed by random pieces."""
    tail = _random_scan_args(local)[:4]
    mode = local.integers(0, 3)
    if mode == 0:
        # Dirichlet start behind shear pieces: u is exactly 0 where s turns on
        lead = int(local.integers(1, 3))
        head = ([0.5] * lead, [0.0] * lead, [0.0] * lead, [1.0] * lead)
        alpha = 0.0
        lam = float(10.0 ** local.uniform(0.0, 6.0))
    elif mode == 1:
        # lambda_7 or lambda_28 of the unit problem in three pieces: u is
        # exactly +0 after them, reached from above or from below
        head = (_THIRDS, [1.0] * 3, [0.0] * 3, [1.0] * 3)
        alpha, lam = 0.0, float(local.choice(_UNIT_THIRDS_LAMS))
    else:
        # within ulps of the breakpoint test's lambda; the reference kernel
        # loses 2 pi at the first of its lambda (see its docstring), so
        # that one is left to that test, which checks it against RK4
        lam = _BREAKPOINT_LAMS[1]
        for _ in range(int(local.integers(-60, 60))):
            lam = math.nextafter(lam, -math.inf)
        if lam == _BREAKPOINT_LAMS[0]:
            lam = _BREAKPOINT_LAMS[1]
        s, q, r = _BREAKPOINT_SQR
        head = ([_BREAKPOINT_HALF] * 2, [s] * 2, [q] * 2, [r] * 2)
        alpha = 0.5 * math.pi
    cols = [h + t for h, t in zip(head, tail)]
    return (*cols, alpha, lam)


def test_theta_scan_matches_reference_kernel_bit_for_bit():
    local = np.random.default_rng(20261018)
    margin = 1e-6  # w/pi this close to an integer counts as near-integer
    series = near_integer = off_margin = zero_starts = 0
    tested = {False: 0, True: 0}  # draws by whether every piece's size is tested
    # pieces within 8 ulps of K pi, K = 1-3, by (K, whether w >= K pi)
    edges = {(turns, above): 0 for turns in (1, 2, 3) for above in (False, True)}
    draws = [_random_scan_args] * 6000 + [_near_integer_turns_args] * 1500
    draws += [_breakpoint_zero_args] * 600 + [_bound_missing_args] * 600
    for draw in draws:
        args = draw(local)
        got = flat_theta_scan(*args)
        args = args[:6]
        ref = reference_theta_scan(*args)
        assert got[0] == ref[0], args
        assert [x.hex() for x in got[1:]] == [x.hex() for x in ref[1:]], args
        widths, svals, qvals, rvals, alpha, lam = args
        cap = 1e12 if draw is _bound_missing_args else abs(lam)
        tested[_size_tested(widths, svals, qvals, rvals, cap)] += 1
        series += any(
            s > 0.0 and abs(s * (lam * r - q) * h * h) <= _SERIES_CUT
            for h, s, q, r in zip(widths, svals, qvals, rvals)
        )
        live = False  # a piece with s > 0 came before
        for h, s, q, r in zip(widths, svals, qvals, rvals):
            if s == 0.0:
                continue
            z = s * (lam * r - q) * h * h
            if z > _SERIES_CUT:
                turns = math.sqrt(z) / math.pi
                if abs(turns - round(turns)) <= margin:
                    near_integer += 1
                else:
                    off_margin += 1
                # a Dirichlet start leaves u exactly 0 until s turns on
                zero_starts += alpha == 0.0 and not live
                w = _scanned_w(h, s, q, r, lam)
                turns = round(w / math.pi)
                if turns in (1, 2, 3) and abs(w - turns * math.pi) <= 8 * math.ulp(w):
                    edges[turns, w >= turns * math.pi] += 1
            live = True
    assert series > 500  # the series branch really was exercised
    # oscillatory pieces were counted whose w/pi lies near an integer,
    # well away from one, and that start on an exact zero of u
    assert near_integer > 1000 and off_margin > 10000, (near_integer, off_margin)
    assert zero_starts > 1000, zero_starts
    # pieces a few ulps either side of pi, 2 pi and 3 pi: at pi the count
    # moves from the sign flip (w < pi) to the phase (w >= pi)
    assert min(edges.values()) > 100, edges
    # both record kinds ran: the size tested after some oscillating
    # pieces, and only after the pieces that can move it past the growth bound
    assert tested[True] > 250 and tested[False] > 6000, tested


def test_scan_records_flag_the_size_test_per_piece():
    # the unit problem in m equal pieces at cap 1e12: each piece can move
    # the state by log10(1 + 1e6) decades, so 29 of them stay below 180 and
    # 30 do not; the size is tested after every 29th piece, and not at all
    # where the problem stays below 180 in all (168 decades at m = 28)
    for m, flagged in ((28, []), (32, [28]), (64, [28, 57]), (128, [28, 57, 86, 115])):
        records = _scan_records([1.0 / m] * m, [1.0] * m, [0.0] * m, [1.0] * m, 1e12)
        assert len(records) == m and [i for i, rec in enumerate(records) if rec[-1]] == flagged, m
    # sqrt(cap r / s) overflows on piece 1: the size is tested before it and after it
    records = _scan_records([0.5, 0.5], [1.0, 1e-300], [0.0, 0.0], [1.0, 1.0], 1e12)
    assert [rec[-1] for rec in records] == [True, True]
    # pieces with s = 0 add nothing to the bound (their size is always tested)
    assert not _size_tested([1.0, 1.0], [0.0, 1.0], [1e300, 0.0], [1.0, 1.0], 1e12)


def test_theta_scan_stays_finite_just_inside_the_growth_bound():
    # quarter turns at lambda = cap alternate between a piece that turns
    # (1, 0) into (0, 1e6) and one that turns (0, 1) into (-1e6, 0): the
    # state grows by 1e144 over 12 pairs, unrescaled between breakpoints,
    # against a bound of 170.4 decades.  36 pairs pass the bound: the size
    # is tested after pieces 24 and 49 only, where the next pair could
    # take it past 1e300, and the last 22 pieces grow it to 1e132 again
    cap = 1e12
    for pairs, flagged, floor in ((12, [], 1e140), (36, [24, 49], 1e130)):
        widths = [0.5 * math.pi / math.sqrt(cap), 0.5 * math.pi] * pairs
        svals, qvals, rvals = [1.0, 1e6] * pairs, [0.0, -1e-6] * pairs, [1.0, 0.0] * pairs
        decades = sum(
            math.log10(1.0 + max(math.sqrt((abs(q) + cap * r) / s), 100.0 * s * h))
            for h, s, q, r in zip(widths, svals, qvals, rvals)
        )
        assert 170.0 * pairs / 12 < decades < 179.0 * pairs / 12
        records = _scan_records(widths, svals, qvals, rvals, cap)
        assert [i for i, rec in enumerate(records) if rec[-1]] == flagged
        winding, frac, u, v = flat_theta_scan(widths, svals, qvals, rvals, 0.5 * math.pi, cap)
        assert floor < abs(u) + abs(v) < math.inf
        ref = reference_theta_scan(widths, svals, qvals, rvals, 0.5 * math.pi, cap)
        assert winding == ref[0]
        assert abs(frac - ref[1]) <= 4 * math.ulp(ref[1]), (frac, ref[1])


def test_theta_scan_keeps_a_zero_that_lands_on_a_breakpoint():
    # two equal pieces: at the first lambda the phase leaves piece 0 on 3 pi
    # exactly with u = +3e-16, and atan2 rounds piece 1's starting phase
    # onto pi although u > 0; the crossing at the breakpoint must still count
    half = _BREAKPOINT_HALF
    s, q, r = _BREAKPOINT_SQR
    # the reference kernel takes the rounded sector there and loses 2 pi
    args = ([half] * 2, [s] * 2, [q] * 2, [r] * 2, 0.5 * math.pi)
    assert [reference_theta_scan(*args, lam)[0] for lam in _BREAKPOINT_LAMS] == [3, 5]
    for lam in _BREAKPOINT_LAMS:
        winding, frac, _, _ = flat_theta_scan(*args, lam)
        assert winding == 5, lam
        mesh = [0.0, half, 2 * half]
        pieces = [PiecewiseConstant(mesh, [c, c]) for c in (s, q, r)]
        ref = rk4_prufer_angle(problem(*pieces, alpha=0.5 * math.pi, beta=0.5 * math.pi), lam)
        assert winding * math.pi + frac == pytest.approx(ref, abs=1e-6), lam


def test_theta_scan_exact_zero_at_b_counts_once():
    # u(b) = +0.0 exactly, so theta(b) = n pi exactly, not (n + 1) pi; u
    # reaches that zero from above at n = 7 and from below at n = 28
    for n, lam in zip((7, 28), _UNIT_THIRDS_LAMS):
        winding, frac, u, _ = flat_theta_scan(_THIRDS, [1.0] * 3, [0.0] * 3, [1.0] * 3, 0.0, lam)
        assert u == 0.0
        assert (winding, frac) == (n, 0.0)


def _bits(scan):
    """(winding, frac, u, v) with the floats as hex strings, for bit-for-bit comparison."""
    return scan[0], *(x.hex() for x in scan[1:])


def test_bracketed_scan_matches_the_counted_scan_bit_for_bit():
    # s, r > 0: theta(b) is non-decreasing in lambda, so the winding at a
    # lambda inside a bracket lies between those of its ends, and with at
    # most one between them the sign of u(b) names it.  A bracketed scan
    # counts no zeros on any piece, the non-oscillating ones included
    local = np.random.default_rng(20261019)
    checked = non_oscillating = 0
    for _ in range(200):
        prob = random_problem(local, max_pieces=6, allow_zero=False)
        records = _scan_records(*prob.coeffs.piece_arrays(), 1e6)
        state = boundary_state(prob.bc.alpha)
        for _ in range(10):
            lam = float(local.uniform(-300.0, 3000.0))
            width = 10.0 ** local.uniform(-14.0, 1.0) * max(1.0, abs(lam))
            lo, hi = lam - width * local.random(), lam + width * local.random()
            w_lo, w_hi = _theta_scan(records, state, lo)[0], _theta_scan(records, state, hi)[0]
            if w_hi - w_lo > 1:
                continue
            checked += 1
            got = _theta_scan(records, state, lam, (w_lo, w_hi))
            assert _bits(got) == _bits(_theta_scan(records, state, lam)), (prob, lo, lam, hi)
            non_oscillating += any(
                s * (lam * r - q) * h * h <= _SERIES_CUT
                for h, s, q, r in zip(*prob.coeffs.piece_arrays())
            )
    assert checked > 1500 and non_oscillating > 150, (checked, non_oscillating)


def _counting_rescans(monkeypatch):
    """Calls of _theta_scan made through its module binding: the bracketed scan's rescans."""
    calls = []
    scan = shoot_mod._theta_scan
    monkeypatch.setattr(shoot_mod, "_theta_scan", lambda *a: calls.append(a) or scan(*a))
    return scan, calls


def test_bracketed_scan_rescans_an_exact_zero_at_b(monkeypatch):
    # u(b) = +0.0: its sign names no parity, so the scan counts after all
    scan, rescans = _counting_rescans(monkeypatch)
    records = _scan_records(_THIRDS, [1.0] * 3, [0.0] * 3, [1.0] * 3, 1e4)
    for n, lam in zip((7, 28), _UNIT_THIRDS_LAMS):
        counted = scan(records, boundary_state(0.0), lam)
        assert counted[2] == 0.0 and counted[:2] == (n, 0.0)
        for within in ((n - 1, n), (n, n + 1)):
            rescans.clear()
            assert _bits(scan(records, boundary_state(0.0), lam, within)) == _bits(counted)
            assert rescans == [(records, boundary_state(0.0), lam)]


def test_bracketed_scan_rescans_a_parity_mismatch(monkeypatch):
    # equal windings at the ends whose parity is not that of u(b): the
    # scan counts rather than pick a winding outside the bracket
    scan, rescans = _counting_rescans(monkeypatch)
    records = _scan_records([1.0], [1.0], [0.0], [1.0], 1e4)
    lam = 30.0  # sqrt(30) / pi = 1.74 turns: winding 1, u(b) < 0
    counted = scan(records, boundary_state(0.0), lam)
    assert counted[0] == 1 and counted[2] < 0.0
    for within in ((0, 1), (1, 1), (1, 2)):
        assert _bits(scan(records, boundary_state(0.0), lam, within)) == _bits(counted)
    assert rescans == []
    for within in ((0, 0), (2, 2)):
        assert _bits(scan(records, boundary_state(0.0), lam, within)) == _bits(counted)
        assert rescans.pop() == (records, boundary_state(0.0), lam) and not rescans
