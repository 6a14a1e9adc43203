"""Piecewise-constant coefficient containers: construction, refinement, hashing."""

import math

import pytest

from slprime.coeff import (
    BoundaryCondition,
    CoefficientSet,
    DIRICHLET,
    Interval,
    PiecewiseConstant,
    SLProblem,
    constant,
    make_piecewise,
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
    p = make_piecewise([0.0, 1.0, 3.0], [2.0, 5.0])
    q = p.refine((0.0, 0.25, 1.0, 2.0, 3.0))
    assert q.breakpoints == (0.0, 0.25, 1.0, 2.0, 3.0)
    assert q.values == (2.0, 2.0, 5.0, 5.0)
    with pytest.raises(DomainMismatch):
        p.refine((0.0, 0.5, 2.9))  # must cover the original domain
    with pytest.raises(NonMonotoneMesh):
        p.refine((0.0, 0.5, 3.0))  # drops the breakpoint at 1.0


def test_integrate_and_merge():
    p = make_piecewise([0.0, 0.5, 2.0], [3.0, -1.0])
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
    s = make_piecewise([0.0, 1.0, 2.0], [1.0, 0.0])
    r = make_piecewise([0.0, 1.0, 2.0], [0.0, 1.0])
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


def test_problem_interval_must_match_coefficients():
    one = constant(1.0, 0.0, 1.0)
    with pytest.raises(DomainMismatch):
        SLProblem(
            interval=Interval(0.0, 2.0),
            coeffs=CoefficientSet(s=one, q=one, r=one),
            bc=DIRICHLET,
        )
