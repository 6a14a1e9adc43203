"""Search for potentials whose composed spectrum approaches the squared primes.

With s = r = 1 and Dirichlet ends on [0, 1], the composed eigenvalues are
mu_n(q) = lambda_n(q) fed through nothing at all -- mu IS the linear
eigenvalue here, and the targets are mu*_n = (pi p_n / log p_n)^2, the
values the linear spectrum would need so that inverting the lambda map
lands exactly on the primes.  A constant shift c moves every mu_n by c,
so it can match one target but not the prime gaps; the searcher looks for
piecewise structure that does better, restarting from random potentials
and descending by coordinate pattern search.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .coeff import PiecewiseConstant
from .errors import BadConfig
from .nonlinear import NonlinearProblem, lambda_map, nonlinear_spectrum
from .primes import nth_prime, prime_table
from .spectrum import compute_spectrum

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
_STEP_FLOOR_REL = 1e-6


@lru_cache(maxsize=None)
def target_mu(n: int) -> float:
    """Target n-th composed eigenvalue (pi p_n / log p_n)^2."""
    return lambda_map(nth_prime(n))


def _uniform_mesh(pieces: int) -> tuple[float, ...]:
    # the floats np.linspace(0, 1, pieces + 1) gives: i * step, then exactly 1 at the end
    step = 1.0 / pieces
    return (*(i * step for i in range(pieces)), 1.0)


def objective(q: PiecewiseConstant, n_targets: int) -> float:
    """Relative squared misfit sum_n ((mu_n(q) - mu*_n) / mu*_n)^2."""
    if n_targets < 1:
        raise BadConfig(f"need at least one target, got {n_targets}")
    spec = compute_spectrum(NonlinearProblem(q).base(), n_targets)
    if spec.truncated:
        return math.inf
    total = 0.0
    for ev in spec.eigenvalues:
        t = target_mu(ev.index)
        total += ((ev.value - t) / t) ** 2
    return total


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the restarted coordinate pattern search over step potentials."""

    pieces: int = 16
    bound: float = 200.0
    targets: int = 8
    seed: int = 0
    restarts: int = 4
    max_iters: int = 400
    initial_step: float | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.name == "initial_step":
                continue
            real = f.name in ("bound", "initial_step")
            if isinstance(v, bool) or not isinstance(v, numbers.Real if real else numbers.Integral):
                raise BadConfig(f"{f.name} must be {'a number' if real else 'an integer'}, got {v!r}")
        if self.pieces < 1:
            raise BadConfig(f"pieces must be >= 1, got {self.pieces}")
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise BadConfig(f"bound must be positive and finite, got {self.bound}")
        if not math.isfinite(2 * self.bound):
            # the restart draws span [-bound, bound], a width of 2 * bound
            raise BadConfig(f"2 * bound must be finite, got bound = {self.bound}")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed}")
        if self.targets < 1:
            raise BadConfig(f"targets must be >= 1, got {self.targets}")
        if self.restarts < 1:
            raise BadConfig(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise BadConfig(f"max_iters must be >= 1, got {self.max_iters}")
        if self.initial_step is not None and not 0.0 < self.initial_step <= 2 * self.bound:
            raise BadConfig(
                f"initial_step must lie in (0, 2*bound], got {self.initial_step}"
            )

    @property
    def step0(self) -> float:
        return self.bound / 4.0 if self.initial_step is None else self.initial_step


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
    """Parallel restart workers: SLPRIME_THREADS caps it, 0 or unset means auto."""
    raw = os.environ.get("SLPRIME_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 0:
        cap = 0
    auto = os.cpu_count() or 1
    return auto if cap == 0 else min(cap, auto)


def _pattern_search(cfg: SearchConfig, k: int):
    mesh = _uniform_mesh(cfg.pieces)
    n, bound = cfg.targets, cfg.bound

    def j_of(values: list[float]) -> float:
        return objective(PiecewiseConstant(mesh, tuple(values)), n)

    if k == 0:
        # a constant shift matching the first target exactly: mu_1(c) = pi^2 + c
        vals = [min(bound, max(-bound, target_mu(1) - _PI_SQ))] * cfg.pieces
    else:
        # numpy only for its seeded generator: the draws stay those of (seed, k)
        import numpy as np

        vals = np.random.default_rng((cfg.seed, k)).uniform(-bound, bound, cfg.pieces).tolist()
    best = j_of(vals)
    trace = [(0, best)]
    step = cfg.step0
    floor = _STEP_FLOOR_REL * bound
    for it in range(1, cfg.max_iters + 1):
        if step < floor:
            break
        improved = False
        for i in range(cfg.pieces):
            for delta in (step, -step):
                cand = min(bound, max(-bound, vals[i] + delta))
                if cand == vals[i]:
                    continue
                trial = vals.copy()
                trial[i] = cand
                j_trial = j_of(trial)
                if j_trial < best:
                    best, vals, improved = j_trial, trial, True
                    break
        trace.append((it, best))
        if not improved:
            step *= 0.5
    return tuple(vals), best, tuple(trace)


def search(config: SearchConfig | None = None) -> SearchResult:
    """Run the restarted search; deterministic for a fixed config.

    Restart 0 starts from the best constant potential, the rest from
    uniform draws in the box seeded by (config.seed, restart index).  The
    zero potential is kept as incumbent, so the reported best is never
    worse than the baseline.  Restarts are independent and run in
    parallel when more than one worker is available.
    """
    cfg = config or SearchConfig()
    mesh = _uniform_mesh(cfg.pieces)

    zero = (0.0,) * cfg.pieces
    baseline = objective(PiecewiseConstant(mesh, zero), cfg.targets)

    jobs = ([cfg] * cfg.restarts, range(cfg.restarts))
    nw = min(worker_count(), cfg.restarts)
    if nw > 1:
        # imported here: concurrent.futures pulls in multiprocessing, which
        # no other command needs at start-up
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=nw) as pool:
                outcomes = list(pool.map(_pattern_search, *jobs))
        except OSError:
            outcomes = list(map(_pattern_search, *jobs))
    else:
        outcomes = list(map(_pattern_search, *jobs))

    best_vals, best_j = zero, baseline
    traces = []
    for vals, j_val, trace in outcomes:
        traces.append(trace)
        if j_val < best_j:
            best_vals, best_j = vals, j_val

    best_q = PiecewiseConstant(mesh, best_vals)
    table = prime_table(cfg.targets)
    rows = [
        TargetRow(
            index=row.index,
            prime=table.nth(row.index),
            target=target_mu(row.index),
            achieved=row.mu,
            implied_lambda=row.lam,
        )
        for row in nonlinear_spectrum(NonlinearProblem(best_q), cfg.targets)
    ]
    return SearchResult(
        config=cfg,
        best_q=best_q,
        best_objective=best_j,
        baseline_objective=baseline,
        trace=tuple(traces),
        per_target=tuple(rows),
    )
