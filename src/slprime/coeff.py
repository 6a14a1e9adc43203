"""Step-function coefficients for Sturm-Liouville systems on a finite interval.

The system is written in flux form

    u' = -s(x) * v,    v' = (lambda * r(x) - q(x)) * u,

where s = 1/p is stored directly so that pieces with s = 0 represent
intervals where p is infinite (Atkinson-type problems).  All three
coefficients are piecewise constant on a shared mesh; every operation on
them is exact, no quadrature anywhere.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass

from .errors import (
    DomainMismatch,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneMesh,
    NotRightDefinite,
    OutOfDomain,
)

__all__ = [
    "Interval",
    "PiecewiseConstant",
    "CoefficientSet",
    "BoundaryCondition",
    "SLProblem",
    "make_piecewise",
    "refine_common_mesh",
    "weyl_constant",
]


def _as_float(v) -> float:
    """v as a Python float, the form in which every number of a problem or
    config is stored and then validated: a numpy scalar would reach each
    theta-scan, which runs ~4x slower on it, and an int or Fraction can
    round onto a value its own rules exclude.  An int past the float range
    reads inf, which every finiteness rule rejects."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Interval:
    """Finite interval [a, b], a < b, stored as floats."""

    a: float
    b: float

    def __post_init__(self):
        a, b = _as_float(self.a), _as_float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteValue("interval endpoints must be finite")
        if not a < b:
            raise NonMonotoneMesh(f"b must exceed a, got [{a}, {b}]")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function: values[i] on [x_i, x_{i+1}), stored as float tuples."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        xs, vs = tuple(map(_as_float, self.breakpoints)), tuple(map(_as_float, self.values))
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", vs)
        if len(xs) < 2:
            raise NonMonotoneMesh("need at least two breakpoints")
        if len(vs) != len(xs) - 1:
            raise LengthMismatch(
                f"{len(xs)} breakpoints require {len(xs) - 1} values, got {len(vs)}"
            )
        if not all(math.isfinite(x) for x in xs):
            raise NonFiniteValue("breakpoints must be finite")
        if not all(math.isfinite(v) for v in vs):
            raise NonFiniteValue("piece values must be finite")
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise NonMonotoneMesh(f"breakpoints must be strictly increasing: {xs}")

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    @property
    def interval(self) -> Interval:
        return Interval(self.a, self.b)

    def refine(self, mesh: tuple[float, ...]) -> "PiecewiseConstant":
        """Same function represented on a finer mesh.

        `mesh` must contain every existing breakpoint; new points only
        split pieces, values are copied, nothing is interpolated.
        """
        if mesh[0] != self.a or mesh[-1] != self.b:
            raise DomainMismatch(
                f"refinement mesh spans [{mesh[0]}, {mesh[-1]}], function lives on [{self.a}, {self.b}]"
            )
        missing = set(self.breakpoints) - set(mesh)
        if missing:
            raise NonMonotoneMesh(f"refinement mesh drops breakpoints {sorted(missing)}")
        vals = []
        for x0 in mesh[:-1]:
            i = bisect_right(self.breakpoints, x0) - 1
            vals.append(self.values[min(i, len(self.values) - 1)])
        return PiecewiseConstant(tuple(mesh), tuple(vals))


def make_piecewise(breakpoints, values) -> PiecewiseConstant:
    """Validate and build a step function from any two sequences of numbers."""
    return PiecewiseConstant(tuple(breakpoints), tuple(values))


def constant(value: float, a: float = 0.0, b: float = 1.0) -> PiecewiseConstant:
    """Single-piece step function equal to `value` on [a, b]."""
    return make_piecewise((a, b), (value,))


def merged_mesh(*fs: PiecewiseConstant) -> tuple[float, ...]:
    first = fs[0]
    for f in fs[1:]:
        if f.a != first.a or f.b != first.b:
            raise DomainMismatch(
                f"coefficients live on different intervals: [{first.a}, {first.b}] vs [{f.a}, {f.b}]"
            )
    points = set()
    for f in fs:
        points.update(f.breakpoints)
    return tuple(sorted(points))


@dataclass(frozen=True)
class CoefficientSet:
    """The triple (s, q, r) on one shared mesh.

    s and r must be nonnegative everywhere (the step-coefficient problems
    treated here are right-definite by construction); whether they vanish
    identically is checked at solve time, not here, because propagation
    and growth diagnostics remain meaningful for degenerate sets.
    """

    s: PiecewiseConstant
    q: PiecewiseConstant
    r: PiecewiseConstant

    def __post_init__(self):
        if not (self.s.breakpoints == self.q.breakpoints == self.r.breakpoints):
            raise DomainMismatch(
                "s, q, r must share one mesh; build the set with refine_common_mesh()"
            )
        if any(v < 0 for v in self.s.values):
            raise NotRightDefinite(f"s must be >= 0 everywhere, got {self.s.values}")
        if any(v < 0 for v in self.r.values):
            raise NotRightDefinite(f"r must be >= 0 everywhere, got {self.r.values}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.s.breakpoints

    @property
    def interval(self) -> Interval:
        return self.s.interval

    def piece_arrays(self):
        """(widths, s, q, r) as flat tuples, one entry per piece."""
        xs = self.breakpoints
        widths = tuple(x1 - x0 for x0, x1 in zip(xs, xs[1:]))
        return widths, self.s.values, self.q.values, self.r.values


def refine_common_mesh(
    s: PiecewiseConstant, q: PiecewiseConstant, r: PiecewiseConstant
) -> CoefficientSet:
    """Merge the three meshes (union of breakpoints) and build the set.

    Values are copied piece-by-piece, so every integral and every transfer
    matrix computed on the refined mesh equals the unrefined one exactly.
    """
    mesh = merged_mesh(s, q, r)
    return CoefficientSet(s.refine(mesh), q.refine(mesh), r.refine(mesh))


def weyl_constant(coeffs: CoefficientSet) -> float:
    """C = integral of sqrt((r*s)+) dx; the leading eigenvalue growth is n^2 pi^2 / C^2.

    Zero on any piece where r*s vanishes, so disjoint-support (finite
    spectrum) problems have C = 0.
    """
    widths, svals, _, rvals = coeffs.piece_arrays()
    return math.fsum(
        h * math.sqrt(sv * rv) for h, sv, rv in zip(widths, svals, rvals) if sv * rv > 0
    )


@dataclass(frozen=True)
class BoundaryCondition:
    """Separated conditions u(a) cos(alpha) + v(a) sin(alpha) = 0, same at b with beta.

    alpha in [0, pi), beta in (0, pi], stored as floats.  alpha = 0,
    beta = pi is Dirichlet (u vanishing at both ends).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        alpha, beta = _as_float(self.alpha), _as_float(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise NonFiniteValue("boundary angles must be finite")
        if not (0.0 <= alpha < math.pi):
            raise OutOfDomain(f"alpha must lie in [0, π), got {alpha}")
        if not (0.0 < beta <= math.pi):
            raise OutOfDomain(f"beta must lie in (0, π], got {beta}")


DIRICHLET = BoundaryCondition(0.0, math.pi)


@dataclass(frozen=True)
class SLProblem:
    """A complete problem: interval, coefficient triple, boundary angles."""

    interval: Interval
    coeffs: CoefficientSet
    bc: BoundaryCondition

    def __post_init__(self):
        ci = self.coeffs.interval
        if (ci.a, ci.b) != (self.interval.a, self.interval.b):
            raise DomainMismatch(
                f"coefficients on [{ci.a}, {ci.b}] do not span the interval [{self.interval.a}, {self.interval.b}]"
            )

    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of the full problem description.

        It digests the piece count, then the breakpoints, s, q, r, alpha
        and beta as little-endian float64: the numbers' exact bits, so a
        one-ulp move changes it and float, int or numpy inputs of the same
        values do not (every number is stored as a float).
        """
        c = self.coeffs
        nums = (*c.breakpoints, *c.s.values, *c.q.values, *c.r.values, self.bc.alpha, self.bc.beta)
        blob = struct.pack(f"<q{len(nums)}d", len(c.s.values), *nums)
        return hashlib.sha256(blob).hexdigest()[:16]


def problem(s, q, r, alpha: float = 0.0, beta: float = math.pi) -> SLProblem:
    """Convenience constructor from three step functions and boundary angles."""
    coeffs = refine_common_mesh(s, q, r)
    return SLProblem(coeffs.interval, coeffs, BoundaryCondition(alpha, beta))


def unit_problem(a: float = 0.0, b: float = 1.0) -> SLProblem:
    """s = r = 1, q = 0, Dirichlet: eigenvalues (n pi / (b - a))^2."""
    return problem(
        make_piecewise((a, b), (1.0,)),
        make_piecewise((a, b), (0.0,)),
        make_piecewise((a, b), (1.0,)),
    )
