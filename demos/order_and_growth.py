"""
Entire-function fingerprints of the boundary value
==================================================

u(b; lambda) is entire in lambda.  Two numerical fingerprints pin down its
growth class:

 * the max modulus M(R) over circles |lambda| = R, bounded below by
   |u(b; -R)| and above by |u(b; -R - 2|c|)| for c below every zero, fits
   log log M(R) ~ 0.5 log R, i.e. order 1/2, over radii that start ten times
   past every turning point R r = |q| (so from R = 500 for q = 50);
 * pointwise, the logarithmic derivative of W = |lambda||u|^2 + |v|^2 stays
   inside sqrt(|lambda|)(r + s) + |q|/sqrt(|lambda|).  It is exact, not
   measured: W'/W is read from the propagated state (u, v) itself.

A prime-like spectrum would force a faster-growing, denser zero set than an
order-1/2 function can carry.
"""

from slprime import constant, growth_check, order_estimate, problem, unit_problem

for name, prob in [
    ("unit string", unit_problem()),
    ("q = 50", problem(constant(1.0), constant(50.0), constant(1.0))),
]:
    est = order_estimate(prob)
    print(f"{name}: fitted order {est.slope:.4f} (upper bound {est.slope_upper:.4f})")
    for rr, lm, kept in zip(est.radii, est.log_max_modulus, est.used):
        mark = "" if kept else "   (excluded: modulus too small)"
        print(f"    R = {rr:8.0f}   log M(R) = {lm:10.3f}{mark}")

print()
for lam in (1.0, -1e4, 1e6, 1e3j):
    rep = growth_check(unit_problem(), lam)
    print(f"lambda = {lam!s:>12}: min slack {rep.min_slack:12.4e}  "
          f"({'inside' if rep.passed else 'OUTSIDE'} the bound)")
