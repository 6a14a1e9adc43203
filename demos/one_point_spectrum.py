"""A spectrum with exactly one point.

When the impedance term s and the density r live on disjoint parts of the
interval, the eigenvalue count can be finite.  Here s = 1 on [0, 1] only and
r = 1 on [1, 2] only, with u(0) = 0 and v(2) = 0; a hand computation with the
two transfer pieces gives v(2) = lambda - 1, so the spectrum is {1}.
"""

from math import pi

from slprime import PiecewiseConstant, compute_spectrum, problem

s = PiecewiseConstant([0.0, 1.0, 2.0], [1.0, 0.0])
q = PiecewiseConstant([0.0, 1.0, 2.0], [0.0, 0.0])
r = PiecewiseConstant([0.0, 1.0, 2.0], [0.0, 1.0])
prob = problem(s, q, r, alpha=0.0, beta=pi / 2)

spec = compute_spectrum(prob, 5)
print("requested 5 eigenvalues, found:", spec.values())
print("note:", spec.truncation_note)
