"""Command-line front end: JSON problem documents in, CSV/JSON plus verdict lines out.

Exit codes: 0 success (including TRUNCATED spectra, a legitimate outcome),
2 validation or I/O error (the message names the offending field),
3 an analysis verdict came out FAIL (so CI can gate on the claims).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .errors import BadConfig, SlprimeError

# Every other import sits in the function that needs it, so a command loads
# only the layers it runs.  Imported as a module, though, cli binds every
# layer at once: a tracer that patches the package's functions finds them in
# sys.modules.  Run as a program (`python -m slprime.cli`, `python -m slprime`
# or the installed `slprime` script, see __main__.py), cli defers them.
if __name__ != "__main__":
    from . import analysis, inverse, nonlinear, primes, spectrum  # noqa: F401

__all__ = ["run", "main", "document_to_problem", "problem_to_document"]

_ANGLE_STRINGS = {"pi": math.pi, "pi/2": math.pi / 2}
_UNIT_STRING_C = math.pi**2  # series' model c n^2 is the unit string's (n pi)^2


# ---------------------------------------------------------------- documents


def _expect_fields(obj, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise BadConfig(f"{path} must be a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise BadConfig(f"{path}: unknown field '{key}'")
    for key in required:
        if key not in obj:
            raise BadConfig(f"{path}.{key} is required")


def _number(value, path: str) -> float:
    from .coeff import _as_float

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadConfig(f"{path} must be a number")
    out = _as_float(value)  # an integer literal past the float range reads inf
    if not math.isfinite(out):
        raise BadConfig(f"{path} must be finite")
    return out


def _angle(value, path: str) -> float:
    if isinstance(value, str):
        if value in _ANGLE_STRINGS:
            return _ANGLE_STRINGS[value]
        raise BadConfig(f"{path}: only 'pi' and 'pi/2' are accepted as strings, got '{value}'")
    return _number(value, path)


def _owned(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs); the owning type's error comes back prefixed with its path."""
    try:
        return build(*args, **kwargs)
    except SlprimeError as exc:
        raise BadConfig(f"{prefix}{exc}") from exc


def _piecewise(obj, path: str) -> PiecewiseConstant:
    from .coeff import PiecewiseConstant

    _expect_fields(obj, path, {"breakpoints", "values"})
    bp = obj["breakpoints"]
    vals = obj["values"]
    if not isinstance(bp, list) or not isinstance(vals, list):
        raise BadConfig(f"{path}.breakpoints and {path}.values must be arrays")
    bps = tuple(_number(x, f"{path}.breakpoints[{i}]") for i, x in enumerate(bp))
    vs = tuple(_number(x, f"{path}.values[{i}]") for i, x in enumerate(vals))
    return _owned(f"{path}: ", PiecewiseConstant, bps, vs)


def _piecewise_doc(p: PiecewiseConstant) -> dict:
    return {"breakpoints": list(p.breakpoints), "values": list(p.values)}


def document_to_problem(doc) -> tuple[SLProblem, SolverOptions]:
    """Map a parsed JSON problem document onto (SLProblem, SolverOptions).

    This checks the JSON shape only; every range rule is the owning type's.
    """
    import dataclasses

    from .coeff import BoundaryCondition, Interval, SLProblem, refine_common_mesh
    from .spectrum import SolverOptions

    _expect_fields(doc, "document", {"interval", "coefficients", "bc"}, {"solver"})
    _expect_fields(doc["interval"], "interval", {"a", "b"})
    a = _number(doc["interval"]["a"], "interval.a")
    b = _number(doc["interval"]["b"], "interval.b")
    interval = _owned("interval.", Interval, a, b)

    _expect_fields(doc["coefficients"], "coefficients", {"s", "q", "r"})
    s = _piecewise(doc["coefficients"]["s"], "coefficients.s")
    q = _piecewise(doc["coefficients"]["q"], "coefficients.q")
    r = _piecewise(doc["coefficients"]["r"], "coefficients.r")

    _expect_fields(doc["bc"], "bc", {"alpha", "beta"})
    alpha = _angle(doc["bc"]["alpha"], "bc.alpha")
    beta = _angle(doc["bc"]["beta"], "bc.beta")
    bc = _owned("bc.", BoundaryCondition, alpha, beta)

    solver = doc.get("solver", {})
    _expect_fields(solver, "solver", set(), {f.name for f in dataclasses.fields(SolverOptions)})
    opts = _owned("solver.", SolverOptions, **solver)
    # each coefficient may have its own mesh; the set lives on their union
    coeffs = _owned("coefficients: ", refine_common_mesh, s, q, r)
    return _owned("coefficients: ", SLProblem, interval, coeffs, bc), opts


def problem_to_document(problem: SLProblem, opts: SolverOptions | None = None) -> dict:
    """Serialize back to the JSON document shape; parse(serialize(x)) == x."""
    import dataclasses

    from .spectrum import SolverOptions

    return {
        "interval": {"a": problem.interval.a, "b": problem.interval.b},
        "coefficients": {
            "s": _piecewise_doc(problem.coeffs.s),
            "q": _piecewise_doc(problem.coeffs.q),
            "r": _piecewise_doc(problem.coeffs.r),
        },
        "bc": {"alpha": problem.bc.alpha, "beta": problem.bc.beta},
        "solver": dataclasses.asdict(opts or SolverOptions()),
    }


def _read_json(path: str):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadConfig(f"cannot read config '{path}': {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadConfig(f"{path}: invalid JSON: {exc}") from exc


def _load_problem(path: str) -> tuple[SLProblem, SolverOptions, dict]:
    problem, opts = document_to_problem(_read_json(path))
    return problem, opts, problem_to_document(problem, opts)


# ---------------------------------------------------------------- output


def _write_csv(out_path: str | None, command: str, header, rows, **config) -> None:
    """Header and rows as CSV, after a line hashing the effective {"command": command, **config}.

    Each row goes straight to out_path (stdout if None), so no copy of the file is held;
    csv writes None as an empty cell, a float by repr and anything else by str.
    """
    import contextlib
    import csv
    import hashlib
    import json

    blob = json.dumps({"command": command, **config}, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w", encoding="utf-8")) as fh:
        fh.write(f"# slprime {__version__} config_sha256={digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _verdict(tag: str, verdict: str) -> int:
    print(f"VERDICT: {verdict} {tag}")
    return 3 if verdict == "FAIL" else 0


# ---------------------------------------------------------------- handlers


def _cmd_spectrum(args) -> int:
    from .spectrum import compute_spectrum

    problem, opts, doc = _load_problem(args.config)
    spec = compute_spectrum(problem, args.n_max, opts)
    rows = ((ev.index, ev.value, ev.residual) for ev in spec.eigenvalues)
    _write_csv(args.out, args.command, ("n", "lambda", "residual"), rows,
               doc=doc, n_max=args.n_max)
    if spec.truncated:
        print(spec.truncation_note)
    return 0


def _cmd_nonlinear(args) -> int:
    from .coeff import PiecewiseConstant
    from .nonlinear import NonlinearProblem, _composed_rows
    from .primes import nth_primes
    from .spectrum import SolverOptions, compute_spectrum

    if args.config is not None:
        problem, opts, doc = _load_problem(args.config)
        nl = NonlinearProblem(problem.coeffs.q)
        if problem != nl.base():
            raise BadConfig(
                "nonlinear needs s = r = 1 on [0, 1] with Dirichlet ends; "
                "only coefficients.q may vary"
            )
    else:
        nl = NonlinearProblem(PiecewiseConstant((0.0, 1.0), (0.0,)))
        opts, doc = SolverOptions(), None
    spec = compute_spectrum(nl.base(), args.n_max, opts)
    composed = _composed_rows(spec)
    # read the primes of the rows printed, not of the n_max asked for: a
    # truncated spectrum needs only its own
    rows = (
        (row.index, row.mu, row.lam, p, None if row.lam is None else row.lam - p)
        for row, p in zip(composed, nth_primes([row.index for row in composed]))
    )
    _write_csv(args.out, args.command, ("n", "mu", "lambda", "p_n", "lambda_minus_p"), rows,
               doc=doc, n_max=args.n_max)
    if spec.truncated:
        print(spec.truncation_note)
    return 0


def _prime_checkpoints(n_max: int) -> list[int]:
    pts = {n for n in range(1, 11) if n <= n_max}
    scale = 10
    while scale <= n_max:
        for mult in (1, 2, 5):
            if mult * scale <= n_max:
                pts.add(mult * scale)
        scale *= 10
    pts.add(n_max)
    return sorted(pts)


def _cmd_primes(args) -> int:
    from .primes import cesaro, nth_primes, pnt_asymptotic

    checkpoints = _prime_checkpoints(args.n_max)
    rows = []
    for n, p in zip(checkpoints, nth_primes(checkpoints)):
        asym = pnt_asymptotic(n) if n >= 2 else None
        ces = cesaro(n) if n >= 3 else None
        err_a = None if asym is None else abs(asym - p) / p
        err_c = None if ces is None else abs(ces - p) / p
        rows.append((n, p, asym, ces, err_a, err_c))
    _write_csv(
        args.out,
        args.command,
        ("n", "p_n", "n_log_n", "cesaro", "rel_err_pnt", "rel_err_cesaro"),
        rows,
        n_max=args.n_max,
    )
    return 0


def _cmd_incompat(args) -> int:
    from .analysis import incompatibility_report
    from .spectrum import compute_spectrum

    problem, opts, doc = _load_problem(args.config)
    spec = compute_spectrum(problem, args.n_max, opts)
    if spec.truncated:
        print(spec.truncation_note)
    report = incompatibility_report(spec, args.n_max)
    _write_csv(args.out, args.command, ("n", "lambda", "p_n", "ratio"), report.rows,
               doc=doc, n_max=args.n_max)
    print(report.note)
    return _verdict(args.command, report.verdict)


def _cmd_growth(args) -> int:
    from .analysis import _X_SAMPLES, growth_check

    problem, _, doc = _load_problem(args.config)
    lam = complex(args.lambda_re, args.lambda_im)
    report = growth_check(problem, lam)
    _write_csv(args.out, args.command, ("x", "measured", "bound", "slack"), report.samples,
               doc=doc, x_samples=_X_SAMPLES, **{"lambda": [args.lambda_re, args.lambda_im]})
    print(f"min_slack {report.min_slack!r}")
    return _verdict(args.command, report.verdict)


def _cmd_order(args) -> int:
    from .analysis import order_estimate

    problem, _, doc = _load_problem(args.config)
    est = order_estimate(problem)
    rows = zip(est.radii, est.log_max_modulus, est.log_max_modulus_upper, map(int, est.used))
    _write_csv(args.out, args.command, ("radius", "log_max_modulus", "log_max_modulus_upper",
               "used_in_fit"), rows, doc=doc, radii=est.radii)
    print(f"slope {est.slope!r}\nslope_upper {est.slope_upper!r}\ntype {est.type_ratio!r}\n"
          f"A {est.upper_a!r}\nB {est.upper_b!r}")
    return _verdict(args.command, est.verdict)


def _cmd_series(args) -> int:
    from .analysis import partial_sum_primes, partial_sum_spectrum, series_verdict

    prime_rows = partial_sum_primes(args.epsilon, args.n_max)
    model_rows = partial_sum_spectrum(_UNIT_STRING_C, args.epsilon, args.n_max)
    rows = [(m, sp, sm, tb) for (m, sp), (_, sm, tb) in zip(prime_rows, model_rows)]
    _write_csv(args.out, args.command, ("M", "prime_sum", "model_sum", "model_tail_bound"), rows,
               epsilon=args.epsilon, n_max=args.n_max, growth_constant=_UNIT_STRING_C)
    verdict, note = series_verdict(args.epsilon, prime_rows, model_rows)
    print(note)
    return _verdict(args.command, verdict)


def _cmd_invert(args) -> int:
    import dataclasses
    import json

    from .inverse import SearchConfig, search

    doc = _read_json(args.config)
    _expect_fields(doc, "document", set(), {f.name for f in dataclasses.fields(SearchConfig)})
    # JSON null leaves bound at its default
    kwargs = {k: v for k, v in doc.items() if not (k == "bound" and v is None)}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    cfg_obj = SearchConfig(**kwargs)

    result = search(cfg_obj)
    cfg_dict = dataclasses.asdict(cfg_obj)
    payload = {
        "config": cfg_dict,
        "baseline_objective": result.baseline_objective,
        "best_objective": result.best_objective,
        "best_q": _piecewise_doc(result.best_q),
        "trace": [[[it, j] for it, j in tr] for tr in result.trace],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    csv_path = args.csv
    if csv_path is None:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        csv_path = stem + "_targets.csv"
    rows = [
        (t.index, t.target, t.achieved, t.implied_lambda, t.prime)
        for t in result.per_target
    ]
    _write_csv(csv_path, args.command, ("n", "target_mu", "achieved_mu", "implied_lambda", "p_n"),
               rows, config=cfg_dict)
    print(
        f"invert: baseline {result.baseline_objective!r} "
        f"best {result.best_objective!r} -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slprime",
        description="Sturm-Liouville spectra, prime asymptotics, and the gap between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of a problem document")
    p.add_argument("--config", required=True)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("nonlinear", help="spectrum of the nonlinear eigenvalue problem")
    p.add_argument("--config", default=None)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_nonlinear)

    p = sub.add_parser("primes", help="prime counts against their asymptotics")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_primes)

    p = sub.add_parser("incompat", help="p_n/lambda_n decay report")
    p.add_argument("--config", required=True)
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_incompat)

    p = sub.add_parser("growth", help="log-derivative growth bound check")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda-re", type=float, default=-100.0)
    p.add_argument("--lambda-im", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("order", help="entire-function order estimate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("series", help="partial-sum dichotomy: primes vs model spectrum")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--n-max", type=int, default=10**6)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("invert", help="search potentials targeting the squared primes")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="search_result.json")
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_invert)

    return parser


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.handler(args)
    except (OSError, SlprimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
