"""Searching for a step potential whose composed spectrum nears the primes.

No exact match is possible, but how close can a potential get?  The search
below tunes a step potential q so that the composed eigenvalues
mu_n(q) = Lambda(lambda_n) approach the targets (pi p_n / log p_n)^2 =
Lambda(p_n).  Those put lambda_n on p_n for n >= 2, but not at n = 1:
Lambda(2) = Lambda(4), and inverting the target gives 4.  A restarted
Levenberg-Marquardt search on the exact eigenvalue gradient does the
tuning; everything is deterministic for a fixed seed.

The default settings here are small so the demo runs in seconds; raise
--pieces/--targets/--restarts to reproduce a serious search.
"""

import argparse

from slprime import SearchConfig, search


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pieces", type=int, default=4)
    ap.add_argument("--targets", type=int, default=4)
    ap.add_argument("--restarts", type=int, default=2)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--max-iters", type=int, default=80)
    args = ap.parse_args()

    cfg = SearchConfig(pieces=args.pieces, targets=args.targets,
                       restarts=args.restarts, seed=args.seed,
                       max_iters=args.max_iters)
    res = search(cfg)

    print(f"baseline (q = 0) objective : {res.baseline_objective:.6f}")
    print(f"best found objective       : {res.best_objective:.6f}"
          f"   ({res.best_objective / res.baseline_objective:.1%} of baseline)")
    print(f"best q steps               : {[round(v, 3) for v in res.best_q.values]}")
    print()
    print(f"{'n':>3} {'p_n':>6} {'target mu*':>12} {'achieved mu':>12} {'implied lambda':>15}")
    for row in res.per_target:
        lam = f"{row.implied_lambda:.4f}" if row.implied_lambda is not None else "absent"
        print(f"{row.index:>3} {row.prime:>6} {row.target:>12.4f} {row.achieved:>12.4f} {lam:>15}")


if __name__ == "__main__":
    main()
