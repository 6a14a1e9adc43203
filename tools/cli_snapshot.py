"""Run a fixed set of light slprime commands and keep everything they leave.

    python tools/cli_snapshot.py OUTDIR

Each command runs as its own `python -m slprime.cli` process against the
package in this checkout's `src/`, inside OUTDIR/<name>/, with every path
relative, so nothing in the output depends on where OUTDIR lies.  A
command's directory holds the files it wrote and its stdout (stdout.txt);
OUTDIR/exit_codes.tsv lists name, exit code and last stderr line per
command.  Every command runs with SLPRIME_THREADS=1 and with
PYTHONDONTWRITEBYTECODE=1, so that no run leaves __pycache__ under `src/`
(a tree holding .pyc files starts faster than one compiled from source);
the `invert` ones (PARALLEL) run once more with SLPRIME_THREADS=2, in a
directory removed afterwards, and the script exits 1 if that run's files,
exit code or last stderr line differ in any byte.  To compare two
checkouts, run each one's copy of this script into its own directory and
compare the two:

    python tools/cli_snapshot.py --compare OLD NEW

lists every file that is only in one of them or differs, and exits 1 if
any does.  For a CSV or JSON file it also gives the CSV columns and rows
that came or went (a row is matched by its first cell), how many numeric
cells changed, the largest relative change, and for eigenvalue columns
(LAMBDA_COLUMNS) the largest change in the solver's tolerance units,
max(lambda_tol_abs, lambda_tol_rel |lambda|) at the default options.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _pw(breakpoints, values):
    return {"breakpoints": breakpoints, "values": values}


def _doc(b, s, q, r, alpha=0.0, beta="pi", **extra):
    return {
        "interval": {"a": 0.0, "b": b},
        "coefficients": {"s": s, "q": q, "r": r},
        "bc": {"alpha": alpha, "beta": beta},
        **extra,
    }


def _unit(b=1.0, s=1.0, q=0.0, r=1.0, **kw):
    mesh = [0.0, b]
    return _doc(b, _pw(mesh, [s]), _pw(mesh, [q]), _pw(mesh, [r]), **kw)


def _seeded(pieces=4, seed=4):
    rng = random.Random(seed)
    mesh = [0.0, *sorted(round(rng.uniform(0.0, 1.0), 6) for _ in range(pieces - 1)), 1.0]

    def vals(lo, hi):
        return [round(rng.uniform(lo, hi), 6) for _ in range(pieces)]

    return _doc(1.0, _pw(mesh, vals(0.5, 2.0)), _pw(mesh, vals(-20.0, 20.0)),
                _pw(mesh, vals(0.5, 2.0)))


def documents() -> dict:
    split = _unit()
    split["coefficients"]["s"] = _pw([0.0, 0.5, 1.0], [1.0, 1.0])
    qstep = _unit()
    qstep["coefficients"]["q"] = _pw([0.0, 0.25, 0.5, 0.75, 1.0], [10.0, -5.0, 0.0, 20.0])
    atk_mesh = [0.0, 1.0, 2.0]
    small_mesh = [0.0, 0.002, 0.2, 0.202, 0.4, 0.402, 0.6, 0.602, 0.8, 0.802, 1.0]
    return {
        "unit": _unit(),
        "atkinson": _doc(2.0, _pw(atk_mesh, [1.0, 0.0]), _pw(atk_mesh, [0.0, 0.0]),
                         _pw(atk_mesh, [0.0, 1.0]), beta="pi/2"),
        "seeded4": _seeded(),
        "neumann": _unit(alpha="pi/2", beta="pi/2"),
        "robin": _unit(alpha=1.0, beta=2.0),
        "qstep": qstep,
        # the overflow cases: the unit document stretched to [0, 1e200], and s = q = r = 1e308
        "wide": _unit(b=1e200),
        "huge": _unit(s=1e308, q=1e308, r=1e308),
        # nu_1 = pi^2 - 500 < 0: a zero of u(b; .) on the negative axis
        "qneg": _unit(q=-500.0),
        # q/r = 1e4: order's radii start at 1e5, ten times the turning point
        "qheavy": _unit(q=1e4),
        # C = 0.01 from five s = 1 pieces of width 0.002 between s = 0 ones:
        # order's lower slope reads 0.36
        "smallc": _doc(1.0, _pw(small_mesh, [1.0, 0.0] * 5), _pw(small_mesh, [0.0] * 10),
                       _pw(small_mesh, [1.0] * 10)),
        # random_problem(rng 11, allow_zero=True, q_scale=5000)'s document 242: r = 0
        # and q = 3845 on a piece of width 1.50, and order's lower slope reads 0.365
        "r0heavy": _doc(2.0, *(_pw([0.0, 1.5020555309300676, 1.543723481415793, 2.0], v) for v in (
            [2.766380033295988, 2.352150840374514, 0.8818792406933684],
            [3844.875030115565, 320.03816339722925, -1179.5752180215381],
            [0.0, 2.0386950128657486, 1.309934780358961])),
            alpha=0.3390994553277778, beta=0.6372516616833906),
        # each piece passes the overflow gate, but the s = 0 piece's k h = -3.1e284
        # overflows the state: theta(b) is NaN
        "nanstate": _doc(2.0, *(_pw([0.0, 0.5, 1.0, 1.5, 2.0], v) for v in (
            [1.0, 1.0, 0.0, 1.0],
            [3.8969425020917765e162, -1.6293214750500667e40, 6.179729093553748e284,
             -1.4159561397882008e284],
            [7.334178569363634e-30, 0.0, 0.0, 0.0])),
            alpha=0.6137152057018777),
        "split_mesh": split,
        "capped": _unit(solver={"lambda_cap": 1000}),
        "invert_1piece": {"pieces": 1, "bound": 100.0, "targets": 2, "restarts": 2,
                          "max_iters": 20},
        "invert_3piece": {"pieces": 3, "bound": 80.0, "targets": 3, "restarts": 2,
                          "max_iters": 6},
        # one target past pi(10^9), the primes below the sieve ceiling
        "invert_ceiling": {"targets": 50_847_535},
    }


def commands() -> dict:
    def cfg(name):
        return ["--config", f"../docs/{name}.json"]

    return {
        "help": ["--help"],
        "spectrum_unit": ["spectrum", *cfg("unit"), "--n-max", "20", "--out", "out.csv"],
        "spectrum_atkinson": ["spectrum", *cfg("atkinson"), "--n-max", "3", "--out", "out.csv"],
        # no --out: the CSV goes to stdout, and the truncation note follows it there
        "spectrum_atkinson_stdout": ["spectrum", *cfg("atkinson"), "--n-max", "3"],
        "spectrum_seeded4": ["spectrum", *cfg("seeded4"), "--n-max", "30", "--out", "out.csv"],
        "spectrum_neumann": ["spectrum", *cfg("neumann"), "--n-max", "15", "--out", "out.csv"],
        "spectrum_robin": ["spectrum", *cfg("robin"), "--n-max", "15", "--out", "out.csv"],
        "spectrum_split_mesh": ["spectrum", *cfg("split_mesh"), "--n-max", "10", "--out", "out.csv"],
        "spectrum_wide": ["spectrum", *cfg("wide"), "--n-max", "3", "--out", "out.csv"],
        "spectrum_huge": ["spectrum", *cfg("huge"), "--n-max", "3", "--out", "out.csv"],
        "spectrum_nanstate": ["spectrum", *cfg("nanstate"), "--n-max", "3", "--out", "out.csv"],
        "spectrum_missing": ["spectrum", *cfg("missing"), "--out", "out.csv"],
        "incompat_unit": ["incompat", *cfg("unit"), "--n-max", "1000", "--out", "out.csv"],
        "incompat_seeded4": ["incompat", *cfg("seeded4"), "--n-max", "120", "--out", "out.csv"],
        # lambda_1 = 0 exactly: the row whose ratio p_n / lambda_n is undefined
        "incompat_neumann": ["incompat", *cfg("neumann"), "--n-max", "200", "--out", "out.csv"],
        "nonlinear_default": ["nonlinear", "--n-max", "100", "--out", "out.csv"],
        "nonlinear_qstep": ["nonlinear", *cfg("qstep"), "--n-max", "20", "--out", "out.csv"],
        "nonlinear_capped": ["nonlinear", *cfg("capped"), "--n-max", "14", "--out", "out.csv"],
        "primes_100": ["primes", "--n-max", "100", "--out", "out.csv"],
        "primes_100000": ["primes", "--n-max", "100000", "--out", "out.csv"],
        # many sieve segments and model-sum chunks: the streamed paths at full length
        "primes_3000000": ["primes", "--n-max", "3000000", "--out", "out.csv"],
        "growth_unit": ["growth", *cfg("unit"), "--lambda-re=-100", "--out", "out.csv"],
        "growth_seeded4": ["growth", *cfg("seeded4"), "--lambda-re", "0", "--lambda-im", "1e4",
                           "--out", "out.csv"],
        # many oscillations between samples, where W'/W swings the most
        "growth_seeded4_1e6": ["growth", *cfg("seeded4"), "--lambda-re", "1e6",
                               "--out", "out.csv"],
        "growth_wide": ["growth", *cfg("wide"), "--out", "out.csv"],
        "growth_huge": ["growth", *cfg("huge"), "--out", "out.csv"],
        "order_unit": ["order", *cfg("unit"), "--out", "out.csv"],
        "order_seeded4": ["order", *cfg("seeded4"), "--out", "out.csv"],
        "order_qneg": ["order", *cfg("qneg"), "--out", "out.csv"],
        "order_qheavy": ["order", *cfg("qheavy"), "--out", "out.csv"],
        "order_wide": ["order", *cfg("wide"), "--out", "out.csv"],
        "order_huge": ["order", *cfg("huge"), "--out", "out.csv"],
        "order_smallc": ["order", *cfg("smallc"), "--out", "out.csv"],
        "order_r0heavy": ["order", *cfg("r0heavy"), "--out", "out.csv"],
        # u(b; lambda) = 1: no radius passes log 10, and both slopes read nan
        "order_atkinson": ["order", *cfg("atkinson"), "--out", "out.csv"],
        "series_100000": ["series", "--n-max", "100000", "--out", "out.csv"],
        "series_2000000": ["series", "--n-max", "2000000", "--out", "out.csv"],
        # eps = 0.3: S(1e6) < 2 S(1e4), though the prime series diverges
        "series_eps03": ["series", "--epsilon", "0.3", "--n-max", "1000000", "--out", "out.csv"],
        "invert_1piece": ["invert", *cfg("invert_1piece"), "--seed", "3", "--out", "out.json"],
        "invert_3piece": ["invert", *cfg("invert_3piece"), "--seed", "5", "--out", "out.json",
                          "--csv", "targets.csv"],
        "invert_ceiling": ["invert", *cfg("invert_ceiling"), "--out", "out.json"],
    }


# run a second time on two workers, whose output must not differ from one worker's
PARALLEL = ("invert_1piece", "invert_3piece")

LAMBDA_COLUMNS = ("lambda", "mu", "achieved_mu")  # the columns that hold eigenvalues


def _cells(path: Path) -> dict | None:
    """{key: (column, row, value)} of a CSV (key column[row]) or JSON file (key $.path); else None.

    column is the CSV column or JSON key a value sits under; None marks a
    header or a container's keys or length, compared but never as numbers.
    row is the first cell of a CSV row (its n, M, x or radius, unique in
    every file the snapshot writes), so a row keeps its key when rows before
    it come or go; it is None in JSON, where a list's items are keyed by
    position.
    """
    if path.suffix == ".csv":
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        header, *rows = csv.reader(lines)
        cells = {"header": (None, None, header)}
        for row in rows:
            cells |= {f"{name}[{row[0]}]": (name, row[0], cell) for name, cell in zip(header, row)}
        return cells
    if path.suffix != ".json":
        return None
    cells = {}

    def walk(node, key, name):
        if isinstance(node, dict):
            cells[f"{key} keys"] = (None, None, list(node))
            for k, v in node.items():
                walk(v, f"{key}.{k}", k)
        elif isinstance(node, list):
            cells[f"{key} length"] = (None, None, len(node))
            for i, v in enumerate(node):
                walk(v, f"{key}[{i}]", name)
        else:
            cells[key] = (name, None, node)

    walk(json.loads(path.read_text()), "$", None)
    return cells


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def _describe(old: Path, new: Path, tol_abs: float, tol_rel: float) -> str:
    """What changed between two versions of one file, as one line's tail."""
    a, b = _cells(old), _cells(new)
    if a is None:
        return "differs"
    names_a, names_b = ({cell[0] for cell in cells.values()} - {None} for cells in (a, b))
    rows_a, rows_b = ({cell[1] for cell in cells.values()} - {None} for cells in (a, b))
    dropped, added = names_a - names_b, names_b - names_a
    gone, came = rows_a - rows_b, rows_b - rows_a
    for key in a.keys() ^ b.keys():
        name, row, _ = a.get(key) or b[key]
        if name not in dropped | added and row not in gone | came:
            return "differs in shape"  # JSON containers changed length, not whole columns or rows
    numeric = text = 0
    worst, worst_key, units = 0.0, None, 0.0
    for key, (name, _, x) in a.items():
        if key not in b or name is None and (dropped or added):
            continue  # a dropped column's or row's cells, or a header the column lists already name
        y = b[key][2]
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if name is None or fx is None or fy is None:
            text += 1
            continue
        numeric += 1
        rel = abs(fy - fx) / abs(fx) if fx else math.inf
        if worst_key is None or rel > worst:
            worst, worst_key = rel, key
        if name in LAMBDA_COLUMNS:
            units = max(units, abs(fy - fx) / max(tol_abs, tol_rel * abs(fx)))
    parts = [f"{label} columns {', '.join(sorted(names))}"
             for label, names in (("dropped", dropped), ("added", added)) if names]
    if gone or came:
        parts.append(f"rows added {len(came)}, dropped {len(gone)}")
    parts.append(f"{numeric} numeric cells changed")
    if numeric:
        parts.append(f"largest relative change {worst:.3g} at {worst_key}")
    if units:
        parts.append(f"eigenvalues {units:.3g} tolerance units")
    if text:
        parts.append(f"{text} other cells changed")
    return ", ".join(parts)


def compare(old: Path, new: Path) -> int:
    """Print every file only in one snapshot or differing between them; 1 if any, else 0."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from slprime.spectrum import SolverOptions

    tols = SolverOptions.lambda_tol_abs, SolverOptions().lambda_tol_rel

    a, b = _files(old), _files(new)
    lines = [f"only in {old}: {name}" for name in sorted(a.keys() - b.keys())]
    lines += [f"only in {new}: {name}" for name in sorted(b.keys() - a.keys())]
    for name in sorted(a.keys() & b.keys()):
        if a[name] != b[name]:
            lines.append(f"{name}: {_describe(old / name, new / name, *tols)}")
    print("\n".join(lines) if lines else f"{len(a)} files, all identical")
    return 1 if lines else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print("usage: python tools/cli_snapshot.py OUTDIR | --compare OLD NEW", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        # files left by an earlier run would show up in the diff as this run's
        print(f"{out} must be new or empty", file=sys.stderr)
        return 2
    (out / "docs").mkdir(parents=True, exist_ok=True)
    for name, doc in documents().items():
        (out / "docs" / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(SRC), "SLPRIME_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    table = {}
    for name, args in commands().items():
        work = out / name
        work.mkdir()
        table[name] = _run(args, work, env)
    (out / "exit_codes.tsv").write_text(
        "".join(f"{name}\t{code}\t{err}\n" for name, (code, err) in table.items())
    )
    print(f"{len(table)} commands -> {out / 'exit_codes.tsv'}")
    differ = []
    for name in PARALLEL:
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            row = _run(commands()[name], Path(tmp), {**env, "SLPRIME_THREADS": "2"})
            if row != table[name] or _files(Path(tmp)) != _files(out / name):
                differ.append(name)
    if differ:
        print(f"differ on two workers: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


def _run(args, work: Path, env) -> tuple[int, str]:
    """Run one command in work and keep its stdout there; (exit code, last stderr line)."""
    proc = subprocess.run(
        [sys.executable, "-m", "slprime.cli", *args],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    (work / "stdout.txt").write_text(proc.stdout)
    err = proc.stderr.strip().splitlines()
    return proc.returncode, err[-1] if err else ""


def _files(root: Path) -> dict:
    """{path relative to root: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # --compare imports the package: no __pycache__ there either
    sys.exit(main(sys.argv[1:]))
