"""Piecewise-constant coefficient containers: construction, refinement, hashing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from slprime.coeff import (
    BoundaryCondition,
    CoefficientSet,
    DIRICHLET,
    Interval,
    PiecewiseConstant,
    SLProblem,
    constant,
    merged_mesh,
    problem,
    refine_common_mesh,
    unit_problem,
    weyl_constant,
)
from slprime.errors import (
    DomainMismatch,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneMesh,
    NotRightDefinite,
    OutOfDomain,
)
from slprime.spectrum import compute_spectrum


def test_piecewise_basic():
    p = PiecewiseConstant((0.0, 0.5, 2.0), (3.0, -1.0))
    assert (p.a, p.b) == (0.0, 2.0)


def test_piecewise_rejects_bad_input():
    with pytest.raises(NonMonotoneMesh):
        PiecewiseConstant((0.0, 1.0, 1.0), (1.0, 2.0))
    with pytest.raises(NonMonotoneMesh):
        PiecewiseConstant((0.0,), ())
    with pytest.raises(LengthMismatch):
        PiecewiseConstant((0.0, 1.0, 2.0), (1.0,))
    with pytest.raises(NonFiniteValue):
        PiecewiseConstant((0.0, 1.0), (math.nan,))
    with pytest.raises(NonFiniteValue):
        PiecewiseConstant((0.0, math.inf), (1.0,))


def test_refine_preserves_values():
    p = PiecewiseConstant([0.0, 1.0, 3.0], [2.0, 5.0])
    q = p.refine((0.0, 0.25, 1.0, 2.0, 3.0))
    assert q.breakpoints == (0.0, 0.25, 1.0, 2.0, 3.0)
    assert q.values == (2.0, 2.0, 5.0, 5.0)
    with pytest.raises(DomainMismatch):
        p.refine((0.0, 0.5, 2.9))  # must cover the original domain
    with pytest.raises(NonMonotoneMesh):
        p.refine((0.0, 0.5, 3.0))  # drops the breakpoint at 1.0


def test_integrate_and_merge():
    p = PiecewiseConstant([0.0, 0.5, 2.0], [3.0, -1.0])
    q = constant(2.0, 0.0, 2.0)
    mesh = merged_mesh(p, q)
    assert mesh == (0.0, 0.5, 2.0)
    cs = refine_common_mesh(q, p, constant(5.0, 0.0, 2.0))
    assert cs.breakpoints == mesh
    assert cs.s.values == (2.0, 2.0)
    assert cs.q.values == p.values


def test_coefficient_set_validation():
    a, b = 0.0, 1.0
    one = constant(1.0, a, b)
    with pytest.raises(NotRightDefinite):
        CoefficientSet(s=constant(-0.5, a, b), q=one, r=one)
    with pytest.raises(NotRightDefinite):
        CoefficientSet(s=one, q=one, r=constant(-2.0, a, b))
    # mismatched meshes are refused
    with pytest.raises(DomainMismatch):
        CoefficientSet(s=one, q=one, r=constant(1.0, 0.0, 2.0))
    cs = CoefficientSet(s=one, q=constant(-7.0, a, b), r=one)
    widths, sv, qv, rv = cs.piece_arrays()
    assert widths == (1.0,) and sv == (1.0,) and qv == (-7.0,) and rv == (1.0,)


def test_weyl_constant_closed_forms():
    assert weyl_constant(unit_problem().coeffs) == pytest.approx(1.0, rel=1e-15)
    pr = problem(
        s=constant(1.0, 0.0, 1.0),
        q=constant(0.0, 0.0, 1.0),
        r=constant(4.0, 0.0, 1.0),
    )
    assert weyl_constant(pr.coeffs) == pytest.approx(2.0, rel=1e-15)
    # disjoint support: s r == 0 everywhere, so C = 0
    s = PiecewiseConstant([0.0, 1.0, 2.0], [1.0, 0.0])
    r = PiecewiseConstant([0.0, 1.0, 2.0], [0.0, 1.0])
    q = constant(0.0, 0.0, 2.0)
    assert weyl_constant(refine_common_mesh(s, q, r)) == 0.0


def test_boundary_condition_ranges():
    BoundaryCondition(0.0, math.pi)  # the Dirichlet pair
    BoundaryCondition(math.pi * 0.999, 1e-9)
    with pytest.raises(OutOfDomain) as err:
        BoundaryCondition(math.pi, math.pi)
    assert "alpha must lie in [0, π)" in str(err.value)
    with pytest.raises(OutOfDomain) as err:
        BoundaryCondition(0.0, 0.0)
    assert "beta must lie in (0, π]" in str(err.value)
    with pytest.raises(OutOfDomain):
        BoundaryCondition(-0.1, math.pi)
    assert DIRICHLET.alpha == 0.0 and DIRICHLET.beta == math.pi


def test_rules_hold_on_the_stored_floats():
    # each rule is checked on the floats that are kept: these inputs pass it
    # as exact numbers but round onto values it excludes
    big = 2**53
    with pytest.raises(NonMonotoneMesh):
        Interval(big, big + 1)
    with pytest.raises(NonMonotoneMesh):
        PiecewiseConstant((0, big, big + 1), (1, 1))
    with pytest.raises(OutOfDomain):
        BoundaryCondition(Fraction(math.pi) - Fraction(1, 10**30), math.pi)
    with pytest.raises(OutOfDomain):
        BoundaryCondition(0, Fraction(1, 10**400))
    # an int past the float range is not finite
    with pytest.raises(NonFiniteValue, match="interval endpoints"):
        Interval(0, 10**400)
    with pytest.raises(NonFiniteValue, match="piece values"):
        PiecewiseConstant((0.0, 1.0), (-(10**400),))
    p = PiecewiseConstant((0, big), (3,))
    assert p.breakpoints == (0.0, float(big)) and type(p.values[0]) is float


def test_content_hash_stable_and_sensitive():
    p1 = unit_problem()
    p2 = unit_problem()
    assert p1.content_hash() == p2.content_hash()
    assert len(p1.content_hash()) == 16
    shifted = problem(
        s=constant(1.0, 0.0, 1.0),
        q=constant(1e-9, 0.0, 1.0),
        r=constant(1.0, 0.0, 1.0),
    )
    assert shifted.content_hash() != p1.content_hash()
    # the digest of the numbers' float64 bits, pinned so that it stays stable
    assert p1.content_hash() == "548304b94a4293ab"

    # a one-ulp move of any single number, a moved breakpoint and swapped
    # alpha and beta each give a digest of their own
    def hashed(mesh, s, q, r, alpha, beta):
        return problem(*(PiecewiseConstant(mesh, v) for v in (s, q, r)), alpha, beta).content_hash()

    numbers = [0.0, 0.5, 1.25, 2.0, 1.0, 2.0, 3.0, -4.0, 0.0, 5.0, 1.5, 0.5, 2.5, 0.75, 2.25]
    cut = [0, 4, 7, 10, 13]

    def split(flat):
        return [flat[a:b] for a, b in zip(cut, cut[1:])] + flat[-2:]

    digests = {hashed(*split(numbers))}
    for i, x in enumerate(numbers):
        moved = list(numbers)
        moved[i] = math.nextafter(x, math.inf)
        digests.add(hashed(*split(moved)))
    mesh, s, q, r, alpha, beta = split(numbers)
    digests.add(hashed([0.0, 0.75, 1.25, 2.0], s, q, r, alpha, beta))
    digests.add(hashed(mesh, s, q, r, beta, alpha))
    assert len(digests) == len(numbers) + 3
    assert all(len(d) == 16 and set(d) <= set("0123456789abcdef") for d in digests)


def test_problem_interval_must_match_coefficients():
    one = constant(1.0, 0.0, 1.0)
    with pytest.raises(DomainMismatch):
        SLProblem(
            interval=Interval(0.0, 2.0),
            coeffs=CoefficientSet(s=one, q=one, r=one),
            bc=DIRICHLET,
        )


def test_numpy_inputs_are_stored_as_floats():
    # a problem built from numpy arrays and scalars is the float-built one:
    # same hash, same eigenvalues, and those come back as Python floats
    rng = np.random.default_rng(5)
    mesh = np.linspace(0.0, 2.0, 17)
    s, q, r = rng.uniform(0.5, 2.0, 16), rng.uniform(-20.0, 20.0, 16), rng.uniform(0.5, 2.0, 16)
    alpha, beta = np.float64(0.3), np.float64(2.0)

    def build(num, seq):
        coeffs = CoefficientSet(*(PiecewiseConstant(seq(mesh), seq(v)) for v in (s, q, r)))
        bc = BoundaryCondition(num(alpha), num(beta))
        return SLProblem(Interval(num(mesh[0]), num(mesh[-1])), coeffs, bc)

    from_numpy = build(np.float64, tuple)
    from_floats = build(float, lambda a: tuple(a.tolist()))
    assert type(from_numpy.bc.alpha) is float and type(from_numpy.interval.b) is float
    assert all(type(x) is float for x in (*from_numpy.coeffs.breakpoints, *from_numpy.coeffs.q.values))
    assert from_numpy.content_hash() == from_floats.content_hash()
    got, want = compute_spectrum(from_numpy, 20), compute_spectrum(from_floats, 20)
    assert all(type(ev.value) is float for ev in got.eigenvalues)
    assert got == want
