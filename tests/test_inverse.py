"""Levenberg-Marquardt search toward prime targets: gradient, determinism, monotone descent."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slprime.coeff import PiecewiseConstant
from slprime.errors import BadConfig
from slprime.inverse import (
    SearchConfig,
    _damped_solve,
    _jacobian,
    _uniform_mesh,
    objective,
    search,
    target_mu,
    worker_count,
)
from slprime.nonlinear import NonlinearProblem
from slprime.primes import nth_prime
from slprime.spectrum import SolverOptions, compute_spectrum

PI2 = math.pi**2


def test_uniform_mesh_is_numpy_linspace():
    for p in range(1, 1001):
        assert _uniform_mesh(p) == tuple(np.linspace(0, 1, p + 1).tolist()), p


def _mus(vals, n, opts=SolverOptions()):
    q = PiecewiseConstant(_uniform_mesh(len(vals)), tuple(vals))
    return compute_spectrum(NonlinearProblem(q).base(), n, opts).values()


def _widths(pieces):
    mesh = _uniform_mesh(pieces)
    return [x1 - x0 for x0, x1 in zip(mesh, mesh[1:])]


@pytest.mark.parametrize(
    "vals",
    [
        # the search's own shape: |q| up to 200 on 16 pieces, so the low mu_n
        # sit below q on several pieces
        *(np.random.default_rng((seed, 99)).uniform(-200.0, 200.0, 16).tolist() for seed in range(5)),
        # one steep hyperbolic piece, w = sqrt(q) h = 50, where the walk factors e^w out
        [1e4, 0.0],
    ],
)
def test_jacobian_matches_central_differences(vals):
    n, h = 8, 1e-4
    mus = _mus(vals, n)
    assert any(mus[0] < q for q in vals)  # a hyperbolic piece at mu_1
    jac = _jacobian(_widths(len(vals)), vals, mus)
    # the quotient divides each solve's error by 2h: at the default
    # lambda_tol_rel that allows up to tol / h ~ 1.9e-5 on the 1e4 piece,
    # above the bound; at 1e-14 it allows ~1.9e-7
    tight = SolverOptions(lambda_tol_rel=1e-14)
    for i in range(len(vals)):
        up, down = vals.copy(), vals.copy()
        up[i] += h
        down[i] -= h
        for m, (a, b) in enumerate(zip(_mus(up, n, tight), _mus(down, n, tight))):
            assert abs((a - b) / (2 * h) - jac[m][i]) <= 1e-6, (m, i)
    # a constant shift c moves every mu_n by c: each row sums to 1
    for row in jac:
        assert abs(math.fsum(row) - 1.0) <= 1e-9


def test_jacobian_row_on_a_series_piece_matches_quadrature():
    # at mu equal to piece 2's q, k = z = 0 there and the walk takes the
    # series kernels; the row must still be each piece's share of int u^2
    from scipy.integrate import solve_ivp

    vals = [30.0, -20.0, 50.0, 10.0]
    widths = _widths(len(vals))
    mu = vals[2]
    (row,) = _jacobian(widths, vals, [mu])
    state, shares = [0.0, -1.0], []
    for h, q in zip(widths, vals):
        # u' = -v, v' = (mu - q) u, and the running int u^2
        sol = solve_ivp(lambda x, y: [-y[1], (mu - q) * y[0], y[0] ** 2], (0.0, h), [*state, 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-14)
        state = list(sol.y[:2, -1])
        shares.append(sol.y[2, -1])
    total = math.fsum(shares)
    assert row == pytest.approx([x / total for x in shares], rel=1e-9)


def test_damped_solve_refuses_a_non_positive_pivot():
    # (gram + damp I) y = rhs by Cholesky
    gram, rhs = [[4.0, 2.0], [2.0, 3.0]], [1.0, 2.0]
    y = _damped_solve(gram, 0.5, rhs)
    for i in range(2):
        assert sum(gram[i][j] * y[j] for j in range(2)) + 0.5 * y[i] == pytest.approx(rhs[i])
    # indefinite at the first pivot, at the second, and singular: no solution
    assert _damped_solve([[-1.0]], 0.5, [1.0]) is None
    assert _damped_solve([[1.0, 2.0], [2.0, 1.0]], 0.0, rhs) is None
    assert _damped_solve([[0.0]], 0.0, [1.0]) is None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=6),
    st.floats(-300.0, 300.0),
    st.integers(1, 8),
)
def test_constant_shift_moves_every_eigenvalue(vals, c, n):
    # lambda_n(q + c) = lambda_n(q) + c when s = r = 1
    base, shifted = _mus(vals, n), _mus([v + c for v in vals], n)
    for a, b in zip(base, shifted):
        assert b == pytest.approx(a + c, rel=1e-9, abs=1e-8)


def test_target_mu_values():
    assert target_mu(1) == pytest.approx((2 * math.pi / math.log(2)) ** 2, rel=1e-14)
    assert target_mu(1) == pytest.approx(82.17, rel=1e-3)
    assert target_mu(3) == pytest.approx(95.26, rel=1e-3)
    assert target_mu(10) == pytest.approx(732.0, rel=1e-3)
    # the targets dip at n = 2 (p/log p is not monotone at small p), the
    # basic obstruction to matching them with an increasing spectrum
    assert target_mu(2) < target_mu(1)


def test_objective_zero_potential():
    q0 = PiecewiseConstant((0.0, 1.0), (0.0,))
    j1 = objective(q0, 1)
    assert j1 == pytest.approx((PI2 - target_mu(1)) ** 2 / target_mu(1) ** 2, rel=1e-9)
    assert j1 == pytest.approx(0.774, abs=5e-4)
    with pytest.raises(BadConfig):
        objective(q0, 0)


def test_objective_constant_shift_hits_one_target():
    c = target_mu(1) - PI2
    qc = PiecewiseConstant((0.0, 1.0), (c,))
    assert objective(qc, 1) < 1e-18


def test_search_single_constant_single_target():
    res = search(SearchConfig(pieces=1, bound=100.0, targets=1, seed=3, restarts=2))
    assert res.best_objective < 1e-8
    assert res.baseline_objective == pytest.approx(0.774, abs=5e-4)
    assert res.best_objective <= res.baseline_objective


def test_search_one_constant_cannot_match_eight_targets():
    # closed form: with q = c, mu_n = n^2 pi^2 + c exactly, so J(c) is a convex
    # quadratic with an explicit minimizer; the search cannot beat it
    targets = [target_mu(n) for n in range(1, 9)]
    weights = [1.0 / t**2 for t in targets]
    gaps = [t - n * n * PI2 for n, t in enumerate(targets, start=1)]
    c_star = sum(w * g for w, g in zip(weights, gaps)) / sum(weights)
    j_star = sum(w * (g - c_star) ** 2 for w, g in zip(weights, gaps))
    assert j_star > 0.1  # strictly positive: one constant cannot do it

    res = search(
        SearchConfig(pieces=1, bound=200.0, targets=8, seed=5, restarts=2, max_iters=200)
    )
    assert res.best_objective == pytest.approx(j_star, rel=1e-6)
    # the solver's mu_n carry ~1e-12 relative noise, so allow that much undercut
    assert res.best_objective >= j_star - 1e-8


def test_search_trace_monotone_and_incumbent():
    cfg = SearchConfig(pieces=4, bound=150.0, targets=4, seed=11, restarts=3, max_iters=40)
    res = search(cfg)
    assert res.best_objective <= res.baseline_objective
    assert len(res.trace) == 3
    for tr in res.trace:
        js = [j for _, j in tr]
        assert all(a >= b for a, b in zip(js, js[1:]))
        assert [it for it, _ in tr] == list(range(len(tr)))


def test_pool_and_serial_search_bit_identical(monkeypatch):
    cfg = SearchConfig(pieces=4, bound=150.0, targets=4, seed=9, restarts=3, max_iters=10)
    monkeypatch.setenv("SLPRIME_THREADS", "1")
    serial = search(cfg)
    monkeypatch.setenv("SLPRIME_THREADS", "2")  # the pool, wherever there are two cores
    pooled = search(cfg)
    assert serial == pooled
    assert serial.best_objective.hex() == pooled.best_objective.hex()


def test_search_runs_serially_when_the_pool_cannot_start(monkeypatch):
    import concurrent.futures

    cfg = SearchConfig(pieces=4, bound=150.0, targets=4, seed=9, restarts=3, max_iters=10)
    monkeypatch.setenv("SLPRIME_THREADS", "1")
    serial = search(cfg)
    attempts = []

    def no_pool(max_workers):
        attempts.append(max_workers)
        raise OSError("no process can start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SLPRIME_THREADS", "2")
    fallback = search(cfg)
    assert attempts == [2]  # the pool was asked for, failed, and the restarts ran here
    assert fallback == serial
    assert fallback.best_objective.hex() == serial.best_objective.hex()


@pytest.mark.parametrize("seed", range(4))
def test_restarts_past_the_lambda_cap_stop_at_once(monkeypatch, seed):
    # draws in +-1e13 put |q| past lambda_cap 1e12: the solve finds no
    # eigenvalue, the start's misfit is inf and the restart ends there
    cfg = SearchConfig(pieces=1, bound=1e13, targets=2, restarts=3, max_iters=2, seed=seed)
    monkeypatch.setenv("SLPRIME_THREADS", "1")
    serial = search(cfg)
    assert serial.trace[1:] == (((0, math.inf),), ((0, math.inf),))
    # restart 0's constant start stays inside the cap and gives the best
    assert serial.trace[0][-1][1] == serial.best_objective
    assert serial.best_objective == pytest.approx(0.11981462879232407, rel=1e-9)
    assert serial.baseline_objective == pytest.approx(0.9891054709689993, rel=1e-9)
    monkeypatch.setenv("SLPRIME_THREADS", "2")
    assert search(cfg) == serial


def test_default_shape_traces_descend_within_budget():
    # the benchmark's shape: 16 pieces, 8 targets, 4 restarts, 6 LM iterations
    res = search(SearchConfig(seed=7, max_iters=6))
    assert res.best_objective < 0.5 * res.baseline_objective
    for tr in res.trace:
        js = [j for _, j in tr]
        assert 1 <= len(js) <= 7
        assert all(a > b for a, b in zip(js, js[1:]))  # every recorded step improved
    assert res.best_objective == min(tr[-1][1] for tr in res.trace)
    assert objective(res.best_q, 8) == res.best_objective


def test_search_reproducible_bit_identical():
    cfg = SearchConfig(pieces=3, bound=80.0, targets=3, seed=21, restarts=2, max_iters=30)
    a = search(cfg)
    b = search(cfg)
    assert a.best_q == b.best_q
    assert a.best_objective == b.best_objective
    assert a.trace == b.trace
    assert a.per_target == b.per_target
    # independent recomputation of the reported objective
    assert objective(a.best_q, 3) == pytest.approx(a.best_objective, rel=1e-12)


def test_search_seed_changes_restart_draws():
    base = dict(pieces=3, bound=80.0, targets=3, restarts=2, max_iters=25)
    a = search(SearchConfig(seed=1, **base))
    b = search(SearchConfig(seed=2, **base))
    # restart 0 is deterministic (constant start) but the random restart differs
    assert a.trace[1] != b.trace[1]


def test_per_target_rows_flag_branch_minimum():
    res = search(SearchConfig(pieces=2, bound=50.0, targets=3, seed=13, restarts=1, max_iters=20))
    assert [row.index for row in res.per_target] == [1, 2, 3]
    for row in res.per_target:
        assert row.prime == nth_prime(row.index)
        assert row.target == pytest.approx(target_mu(row.index), rel=1e-15)
        if row.implied_lambda is None:
            assert row.achieved < (math.pi * math.e) ** 2
        else:
            lam = row.implied_lambda
            assert (math.pi * lam / math.log(lam)) ** 2 == pytest.approx(
                row.achieved, rel=1e-9
            )


def test_search_config_validation():
    with pytest.raises(BadConfig):
        SearchConfig(pieces=0)
    with pytest.raises(BadConfig):
        SearchConfig(bound=-5.0)
    with pytest.raises(BadConfig):
        SearchConfig(targets=0)
    with pytest.raises(BadConfig):
        SearchConfig(restarts=0)
    with pytest.raises(BadConfig):
        SearchConfig(seed=-1)  # numpy's default_rng rejects negative seeds
    with pytest.raises(BadConfig, match="pieces must be an integer"):
        SearchConfig(pieces=2.5)
    with pytest.raises(BadConfig, match="targets must be an integer"):
        SearchConfig(targets=True)
    with pytest.raises(BadConfig):
        SearchConfig(bound=1e308)  # the restart draw spans 2 * bound, which overflows
    assert SearchConfig(pieces=np.int64(3)).pieces == 3
    with pytest.raises(BadConfig, match="^bound must be positive and finite, got inf$"):
        SearchConfig(bound=10**400)  # past the float range
    assert type(SearchConfig(bound=np.int64(100)).bound) is float


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SLPRIME_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("SLPRIME_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("SLPRIME_THREADS", "not-a-number")
    assert worker_count() >= 1  # garbage falls back to auto
    monkeypatch.delenv("SLPRIME_THREADS")
    assert worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("SLPRIME_THREADS", "-3")
    assert worker_count() == (os.cpu_count() or 1)  # a negative cap also means auto
