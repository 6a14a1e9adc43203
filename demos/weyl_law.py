"""Quadratic eigenvalue growth: lambda_n ~ n^2 pi^2 / C^2.

C is the integral of sqrt(s r); the ratio lambda_n / n^2 flattens onto
pi^2 / C^2 as n grows, for any right-definite step problem.
"""

import argparse
import math

from slprime import compute_spectrum, constant, problem, unit_problem, weyl_constant


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=120)
    args = ap.parse_args()

    probs = {
        "unit (C=1)": unit_problem(),
        "r=4 (C=2)": problem(constant(1.0), constant(0.0), constant(4.0)),
        "s=r=1.5 (C=1.5)": problem(constant(1.5), constant(0.0), constant(1.5)),
    }
    for name, prob in probs.items():
        spec = compute_spectrum(prob, args.n_max)
        print(f"{name:17s} pi^2/C^2 = {math.pi**2 / weyl_constant(prob.coeffs)**2:.6f}")
        # a few sample ratios to show the approach
        for ev in spec.eigenvalues[:: max(1, args.n_max // 4)]:
            print(f"    n={ev.index:4d}  lambda/n^2 = {ev.value / ev.index**2:.8f}")


if __name__ == "__main__":
    main()
