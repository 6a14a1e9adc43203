"""The composed eigenvalue map Lambda(lam) = (pi lam / log lam)^2 and its inversion."""

import math

import pytest

from helpers import bisect_lambda_over_log
from slprime.coeff import PiecewiseConstant
from slprime.errors import DomainMismatch, NoRoot, OutOfDomain
from slprime.nonlinear import (
    BRANCH_MIN,
    NonlinearProblem,
    invert_map,
    lambda_map,
    nonlinear_spectrum,
)


def test_lambda_map_minimum_at_e():
    e = math.e
    assert BRANCH_MIN == pytest.approx((math.pi * e) ** 2, rel=1e-15)
    assert lambda_map(e) == pytest.approx(BRANCH_MIN, rel=1e-14)
    assert lambda_map(e * 1.01) > BRANCH_MIN
    assert lambda_map(e * 0.99) > BRANCH_MIN
    with pytest.raises(OutOfDomain):
        lambda_map(1.0)
    with pytest.raises(OutOfDomain):
        lambda_map(0.5)


def test_invert_map_roundtrip():
    for mu in (BRANCH_MIN * 1.0001, 100.0**2, 12345.0, 1e8, 1e40):
        lam = invert_map(mu)
        assert lam >= math.e
        assert lambda_map(lam) == pytest.approx(mu, rel=1e-10)


def test_invert_map_below_minimum():
    with pytest.raises(NoRoot):
        invert_map(BRANCH_MIN * 0.999)
    with pytest.raises(NoRoot):
        invert_map(1.0)
    # exactly at the minimum the principal branch starts at e
    assert invert_map(BRANCH_MIN) == pytest.approx(math.e, rel=1e-6)


def test_invert_map_spot_values():
    # mu = (3 pi)^2 means lam / log lam = 3
    assert invert_map(9 * math.pi**2) == pytest.approx(4.536403654972851, rel=1e-10)
    assert invert_map(100 * math.pi**2) == pytest.approx(35.77152063957297, rel=1e-8)


def test_nonlinear_spectrum_unit_potential():
    nl = NonlinearProblem(PiecewiseConstant((0.0, 1.0), (0.0,)))
    rows = nonlinear_spectrum(nl, 12)
    assert [row.index for row in rows] == list(range(1, 13))
    # mu_n = n^2 pi^2 < (pi e)^2 for n <= 2: no real eigenvalue exists there
    assert rows[0].lam is None and rows[1].lam is None
    for row in rows[2:]:
        assert row.lam is not None
        # the defining equation: lam / log lam = n
        assert row.lam / math.log(row.lam) == pytest.approx(row.index, rel=1e-9)
        # cross-check against an independent bisection oracle
        assert row.lam == pytest.approx(bisect_lambda_over_log(row.index), rel=1e-9)


def test_nonlinear_rows_are_slotted_values():
    import pickle

    from slprime.nonlinear import NonlinearRow

    rows = nonlinear_spectrum(NonlinearProblem(PiecewiseConstant((0.0, 1.0), (0.0,))), 4)
    assert rows[0].lam is None and rows[3].lam is not None  # both kinds of row
    for row in rows:
        assert not hasattr(row, "__dict__")
        rebuilt = NonlinearRow(row.index, row.mu, row.lam)
        assert rebuilt == row and hash(rebuilt) == hash(row) and repr(rebuilt) == repr(row)
        assert pickle.loads(pickle.dumps(row)) == row


def test_nonlinear_rows_closer_to_n_log_n_at_large_n():
    nl = NonlinearProblem(PiecewiseConstant((0.0, 1.0), (0.0,)))
    rows = {row.index: row for row in nonlinear_spectrum(nl, 1000)}
    off_1000 = abs(rows[1000].lam / (1000 * math.log(1000)) - 1.0)
    off_100 = abs(rows[100].lam / (100 * math.log(100)) - 1.0)
    assert off_1000 < off_100


def test_nonlinear_problem_domain_guard():
    with pytest.raises(DomainMismatch):
        NonlinearProblem(PiecewiseConstant((0.0, 2.0), (0.0,)))

