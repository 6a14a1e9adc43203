"""Search for potentials whose composed spectrum approaches the squared primes.

With s = r = 1 and Dirichlet ends on [0, 1], the composed eigenvalues are
mu_n(q) = lambda_n(q) fed through nothing at all -- mu IS the linear
eigenvalue here, and the targets are mu*_n = (pi p_n / log p_n)^2 =
Lambda(p_n).  For n >= 2 inverting the lambda map on a target lands on
p_n; at n = 1 it lands on 4, because Lambda(2) = Lambda(4) and 2 lies
below e, off the principal branch.  A constant shift c moves every mu_n
by c, so it can match one target but not the prime gaps; the searcher
looks for piecewise structure that does better, restarting from random
potentials.  Each restart descends by projected Levenberg-Marquardt (More,
LNM 630, 1978) on the residuals (mu_n - mu*_n) / mu*_n, with the exact
Jacobian d mu_n / d q_i = int_{piece i} u_n^2 / int_0^1 u_n^2 of the
Hellmann-Feynman identity (Poeschel & Trubowitz, Inverse Spectral Theory,
1987), and accepts a step only when the objective itself falls.  The q = 0
baseline, each restart's start and every trial share one evaluation: the
eigenvalues are solved in index order and their squared residuals summed
as they come, and a trial stops solving once that sum reaches the
incumbent's.  Restarts are independent: search() runs them in this process
and in children forked from it, one per usable CPU (worker_count), and
gets bit-identical results for every worker count.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .coeff import PiecewiseConstant, _as_float
from .errors import BadConfig, EigenvalueNotFound, SlprimeError
from .nonlinear import NonlinearProblem, lambda_map, nonlinear_spectrum
from .primes import _rosser_bound, nth_prime, nth_primes
from .shoot import _SERIES_CUT, _kernel_series
# nothing here calls compute_spectrum: perfbench's hook test pins this binding
from .spectrum import _ascending, compute_spectrum  # noqa: F401

__all__ = [
    "SearchConfig",
    "SearchResult",
    "TargetRow",
    "objective",
    "search",
    "target_mu",
    "worker_count",
]

_PI_SQ = math.pi**2
# damping ladder, in units of the mean diagonal of J J^T: the first rung's
# damping, its growth per rejected rung, its shrink per accepted step, and
# the rungs tried before a restart ends
_LM_DAMP0 = 1e-2
_LM_UP = 4.0
_LM_DOWN = 3.0
_LM_RUNGS = 12
# a restart also ends after an accepted step that moved no q by more than
# _LM_STEP_FLOOR * bound or lowered the objective by no more than
# _LM_GAIN_FLOOR times its new value
_LM_STEP_FLOOR = 1e-9
_LM_GAIN_FLOOR = 1e-10


@lru_cache(maxsize=None)
def target_mu(n: int) -> float:
    """Target n-th composed eigenvalue (pi p_n / log p_n)^2."""
    return lambda_map(nth_prime(n))


def _uniform_mesh(pieces: int) -> tuple[float, ...]:
    # the floats np.linspace(0, 1, pieces + 1) gives: i * step, then exactly 1 at the end
    step = 1.0 / pieces
    return (*(i * step for i in range(pieces)), 1.0)


def _check_targets(name: str, n) -> None:
    """Refuse a target count that is not a prime index the sieve serves, as BadConfig naming it."""
    try:
        _rosser_bound(n)
    except SlprimeError as err:
        raise BadConfig(f"{name}: {err}") from None


def objective(q: PiecewiseConstant, n_targets: int) -> float:
    """Relative squared misfit sum_n ((mu_n(q) - mu*_n) / mu*_n)^2, as the search's trials sum it."""
    _check_targets("n_targets", n_targets)
    return _residuals(q, n_targets)[2]


@dataclass(frozen=True)
class SearchConfig:
    """Shape and budget of the restarted Levenberg-Marquardt search over step potentials.

    q has `pieces` equal steps on [0, 1], each kept in [-bound, bound], and
    is fitted to the first `targets` targets.  Restart 0 starts from the
    constant that meets target 1, restarts 1..restarts-1 from uniform draws
    seeded by (seed, restart); each runs at most max_iters LM iterations.
    """

    pieces: int = 16
    bound: float = 200.0
    targets: int = 8
    seed: int = 0
    restarts: int = 4
    max_iters: int = 400

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            real = f.name == "bound"
            if isinstance(v, bool) or not isinstance(v, numbers.Real if real else numbers.Integral):
                raise BadConfig(f"{f.name} must be {'a number' if real else 'an integer'}, got {v!r}")
        object.__setattr__(self, "bound", _as_float(self.bound))
        if self.pieces < 1:
            raise BadConfig(f"pieces must be >= 1, got {self.pieces}")
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise BadConfig(f"bound must be positive and finite, got {self.bound}")
        if not math.isfinite(2 * self.bound):
            # the restart draws span [-bound, bound], a width of 2 * bound
            raise BadConfig(f"2 * bound must be finite, got bound = {self.bound}")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed}")
        _check_targets("targets", self.targets)
        if self.restarts < 1:
            raise BadConfig(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise BadConfig(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class TargetRow:
    """One composed eigenvalue of the best potential next to its prime target."""

    index: int
    prime: int
    target: float
    achieved: float
    implied_lambda: float | None  # inverse image of `achieved`, None below branch minimum


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    best_q: PiecewiseConstant
    best_objective: float
    baseline_objective: float  # q = 0 incumbent; best_objective <= this always
    trace: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False)
    per_target: tuple[TargetRow, ...]


def worker_count() -> int:
    """Restart workers: the CPUs this process may run on, capped by SLPRIME_THREADS (0: no cap)."""
    raw = os.environ.get("SLPRIME_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 0:
        cap = 0
    if hasattr(os, "sched_getaffinity"):
        auto = len(os.sched_getaffinity(0))
    else:
        auto = os.cpu_count() or 1
    return auto if cap == 0 else min(cap, auto)


def _residuals(q: PiecewiseConstant, n_targets: int, stop: float = math.inf):
    """(residuals, mu_n, misfit) for n = 1..n_targets: the one misfit formula.

    The misfit is the sum of the squared residuals, taken in index order as
    the eigenvalues are solved.  Later terms are non-negative, so once the
    running sum reaches stop the full misfit would too, and the remaining
    solves are skipped.  Returns (None, None, inf) for a truncated
    spectrum or one cut short at stop.
    """
    res, mus, total = [], [], 0.0
    try:
        for ev in itertools.islice(_ascending(NonlinearProblem(q).base()), n_targets):
            target = target_mu(ev.index)
            x = (ev.value - target) / target
            total += x**2
            if total >= stop:
                return None, None, math.inf
            res.append(x)
            mus.append(ev.value)
    except EigenvalueNotFound:
        return None, None, math.inf
    return res, mus, total


def _jacobian(widths, qvals, mus):
    """Rows d mu_n / d q_i = int_{piece i} u_n^2 / int_0^1 u_n^2 (Hellmann-Feynman), s = r = 1.

    u_n is walked forward at mu_n from the Dirichlet state (u, v) = (0, -1).
    On a piece of width h with k = mu - q and z = k h^2, u = u0 c - v0 S
    with c = c(k x^2), S = x sigma(k x^2), so with S = h sigma(z) at x = h

        int_0^h u^2 = u0^2 (h + c S) / 2 - u0 v0 S^2 + v0^2 h^3 (1 - c sigma) / (2 z),

    where (1 - c sigma) / (2 z) = 1/3 - z/15 + ... near z = 0.  The state is
    rescaled at every breakpoint (and a steep hyperbolic piece has e^w
    factored out), each integral carrying its log scale, so a row sums to 1
    up to rounding.  Forward states lose accuracy where u_n decays towards
    b; the search only ever accepts a step on the objective itself.
    """
    rows = []
    for mu in mus:
        u, v, ls = 0.0, -1.0, 0.0
        parts = []
        for h, q in zip(widths, qvals):
            k = mu - q
            z = k * h * h
            e, grow = 1.0, 0.0
            if abs(z) < _SERIES_CUT:
                c, sg = _kernel_series(z)
                d = 1.0 / 3 + z * (-1.0 / 15 + z * (2.0 / 315 - z / 2835))
            else:
                if z > 0.0:
                    w = math.sqrt(z)
                    c, sg = math.cos(w), math.sin(w) / w
                else:
                    w = math.sqrt(-z)
                    if w > 35.0:
                        # c and sigma carry e^-w; e^-2w likewise scales the h terms
                        e, grow = math.exp(-2.0 * w), w
                        c, sg = 0.5 * (1.0 + e), 0.5 * (1.0 - e) / w
                    else:
                        c, sg = math.cosh(w), math.sinh(w) / w
                d = (e - c * sg) / (2.0 * z)
            sh = h * sg
            parts.append((0.5 * u * u * (h * e + c * sh) - u * v * sh * sh + v * v * h**3 * d,
                          2.0 * (ls + grow)))
            u, v = c * u - sh * v, k * sh * u + c * v
            ls += grow
            n = max(abs(u), abs(v))
            u, v, ls = u / n, v / n, ls + math.log(n)
        top = max(log2 for _, log2 in parts)
        weights = [w * math.exp(log2 - top) for w, log2 in parts]
        total = math.fsum(weights)
        rows.append([w / total for w in weights])
    return rows


def _damped_solve(gram, damp: float, rhs):
    """y with (gram + damp I) y = rhs by Cholesky; None when a pivot is not positive."""
    n = len(rhs)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = gram[i][j] - sum(low[i][m] * low[j][m] for m in range(j))
            if i == j:
                acc += damp
                if not acc > 0.0:
                    return None
                low[i][i] = math.sqrt(acc)
            else:
                low[i][j] = acc / low[j][j]
    y = [0.0] * n
    for i in range(n):
        y[i] = (rhs[i] - sum(low[i][m] * y[m] for m in range(i))) / low[i][i]
    for i in reversed(range(n)):
        y[i] = (y[i] - sum(low[m][i] * y[m] for m in range(i + 1, n))) / low[i][i]
    return y


def _lm_restart(cfg: SearchConfig, k: int):
    """One projected Levenberg-Marquardt descent; returns (values, objective, trace)."""
    mesh = _uniform_mesh(cfg.pieces)
    widths = [x1 - x0 for x0, x1 in zip(mesh, mesh[1:])]
    n, bound = cfg.targets, cfg.bound
    scale = [target_mu(m) for m in range(1, n + 1)]
    if k == 0:
        # a constant shift matching the first target exactly: mu_1(c) = pi^2 + c
        vals = [min(bound, max(-bound, target_mu(1) - _PI_SQ))] * cfg.pieces
    else:
        # numpy only for its seeded generator: the draws stay those of (seed, k)
        import numpy as np

        vals = np.random.default_rng((cfg.seed, k)).uniform(-bound, bound, cfg.pieces).tolist()
    res, mus, best = _residuals(PiecewiseConstant(mesh, tuple(vals)), n)
    trace = [(0, best)]
    damp = _LM_DAMP0
    for it in range(1, cfg.max_iters + 1):
        if res is None:
            break
        jac = [[g / t for g in row] for row, t in zip(_jacobian(widths, vals, mus), scale)]
        # a variable on the bound whose descent direction points out of the box stays put
        free = []
        for i, x in enumerate(vals):
            grad = sum(row[i] * r for row, r in zip(jac, res))
            if not ((x >= bound and grad < 0.0) or (x <= -bound and grad > 0.0)):
                free.append(i)
        cols = [[row[i] for i in free] for row in jac]
        gram = [[sum(a * b for a, b in zip(ra, rb)) for rb in cols] for ra in cols]
        # the damping's unit, so that it does not depend on how residuals are scaled
        unit = sum(gram[m][m] for m in range(n)) / n
        for _ in range(_LM_RUNGS):
            # delta = -J^T (J J^T + damp I)^-1 r over the free columns
            y = _damped_solve(gram, damp * unit, res)
            if y is not None:
                trial = vals.copy()
                for j, i in enumerate(free):
                    step = -sum(row[j] * ym for row, ym in zip(cols, y))
                    trial[i] = min(bound, max(-bound, vals[i] + step))
                if trial != vals:
                    # a misfit that reaches best is rejected anyway: stop its solves there
                    t_res, t_mus, t_best = _residuals(PiecewiseConstant(mesh, tuple(trial)), n, best)
                    if t_best < best:
                        break
            damp *= _LM_UP
        else:
            break  # no rung lowered the objective
        moved = max(abs(a - b) for a, b in zip(trial, vals))
        gain = best - t_best
        vals, res, mus, best = trial, t_res, t_mus, t_best
        trace.append((it, best))
        damp /= _LM_DOWN
        if moved <= _LM_STEP_FLOOR * bound or gain <= _LM_GAIN_FLOOR * best:
            break
    return tuple(vals), best, tuple(trace)


def _fork(work):
    """(pid, read end) of a forked child that pickles work() into a pipe.

    The child leaves by os._exit, 0 once the whole result is written and 1
    if anything raised, so it never returns into the caller's stack.
    """
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as out:
                pickle.dump(work(), out)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _run_restarts(cfg: SearchConfig, nw: int):
    """[outcome of restart k for k < cfg.restarts], restart k run by worker k mod nw.

    Worker 0 is this process.  It forks workers 1..nw-1 and runs its own
    share while they run theirs, then reads each child's result to EOF and
    reaps it.  A share whose child could not be forked, or did not exit 0,
    runs again here, so an exception surfaces here as it would serially.
    If this process's own work raises, every child not yet reaped is killed
    and reaped.
    """

    def share(w):
        return [_lm_restart(cfg, k) for k in range(w, cfg.restarts, nw)]

    done = {}  # worker -> its share's outcomes
    children = []  # (worker, pid, pipe), not yet reaped
    if nw > 1:
        # on the fork path only: pickle carries the children's outcomes, and
        # restarts past 0 draw their starts with numpy, imported once here
        # before the fork rather than once in every worker
        import pickle

        import numpy  # noqa: F401
    try:
        for w in range(1, nw):
            try:
                children.append((w, *_fork(lambda w=w: share(w))))
            except OSError:
                break
        done[0] = share(0)
        while children:
            w, pid, pipe = children[0]
            with pipe:
                report = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if os.waitstatus_to_exitcode(status) == 0:
                done[w] = pickle.loads(report)
        for w in range(1, nw):
            if w not in done:
                done[w] = share(w)
    finally:
        if children:
            # only when this process's own work raised: signal costs start-up time
            import signal

        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[k % nw][k // nw] for k in range(cfg.restarts)]


def search(config: SearchConfig | None = None) -> SearchResult:
    """Run the restarted search; deterministic for a fixed config.

    Restart 0 starts from the constant potential that meets target 1, the
    rest from uniform draws in the box seeded by (config.seed, restart
    index).  The zero potential, scored before any restart starts, is kept
    as incumbent, so the reported best is never worse than that baseline.
    Restarts are independent: this process and up to worker_count() - 1
    forked children share them, with bit-identical results for every
    worker count; where os.fork does not exist, they all run here.
    """
    cfg = config or SearchConfig()
    mesh = _uniform_mesh(cfg.pieces)

    zero = (0.0,) * cfg.pieces
    baseline = objective(PiecewiseConstant(mesh, zero), cfg.targets)
    nw = min(worker_count(), cfg.restarts) if hasattr(os, "fork") else 1

    best_vals, best_j = zero, baseline
    traces = []
    for vals, j_val, trace in _run_restarts(cfg, nw):
        traces.append(trace)
        if j_val < best_j:
            best_vals, best_j = vals, j_val

    best_q = PiecewiseConstant(mesh, best_vals)
    composed = nonlinear_spectrum(NonlinearProblem(best_q), cfg.targets)
    rows = [
        TargetRow(
            index=row.index,
            prime=p,
            target=target_mu(row.index),
            achieved=row.mu,
            implied_lambda=row.lam,
        )
        for row, p in zip(composed, nth_primes([row.index for row in composed]))
    ]
    return SearchResult(
        config=cfg,
        best_q=best_q,
        best_objective=best_j,
        baseline_objective=baseline,
        trace=tuple(traces),
        per_target=tuple(rows),
    )
