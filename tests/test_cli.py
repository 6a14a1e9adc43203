"""CLI: document parsing, round-trips, CSV shape, exit codes, verdict lines."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slprime.primes as primes_mod
from helpers import random_problem
from slprime.cli import _build_parser, document_to_problem, problem_to_document, run
from slprime.errors import BadConfig
from slprime.spectrum import SolverOptions

UNIT_DOC = {
    "interval": {"a": 0.0, "b": 1.0},
    "coefficients": {
        "s": {"breakpoints": [0.0, 1.0], "values": [1.0]},
        "q": {"breakpoints": [0.0, 1.0], "values": [0.0]},
        "r": {"breakpoints": [0.0, 1.0], "values": [1.0]},
    },
    "bc": {"alpha": 0.0, "beta": "pi"},
}

ATKINSON_DOC = {
    "interval": {"a": 0.0, "b": 2.0},
    "coefficients": {
        "s": {"breakpoints": [0.0, 1.0, 2.0], "values": [1.0, 0.0]},
        "q": {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 0.0]},
        "r": {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 1.0]},
    },
    "bc": {"alpha": 0.0, "beta": "pi/2"},
}


def write_doc(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_document_round_trip():
    prob, opts = document_to_problem(UNIT_DOC)
    doc2 = problem_to_document(prob, opts)
    prob2, opts2 = document_to_problem(doc2)
    assert prob2 == prob
    assert opts2 == opts
    assert problem_to_document(prob2, opts2) == doc2  # serialization idempotent
    assert doc2["bc"]["beta"] == math.pi  # "pi" parsed to the exact float
    # seeded problems with non-default solver options survive the trip through JSON text
    rng = np.random.default_rng(17)
    for _ in range(10):
        prob = random_problem(rng, max_pieces=6)
        tol, rel, cap = (float(v) for v in 10.0 ** rng.uniform([-12, -14, 6], [-6, -8, 14]))
        opts = SolverOptions(angle_tol=tol, lambda_tol_rel=rel, lambda_cap=cap)
        doc = json.loads(json.dumps(problem_to_document(prob, opts)))
        assert document_to_problem(doc) == (prob, opts)


def test_document_rejects_unknown_and_missing_fields():
    bad = json.loads(json.dumps(UNIT_DOC))
    bad["extra"] = 1
    with pytest.raises(BadConfig) as err:
        document_to_problem(bad)
    assert "unknown field 'extra'" in str(err.value)

    bad = json.loads(json.dumps(UNIT_DOC))
    del bad["bc"]
    with pytest.raises(BadConfig) as err:
        document_to_problem(bad)
    assert "bc" in str(err.value)

    bad = json.loads(json.dumps(UNIT_DOC))
    bad["coefficients"]["s"]["values"] = [1.0, 2.0]
    with pytest.raises(BadConfig) as err:
        document_to_problem(bad)
    assert "coefficients.s" in str(err.value)


def test_document_angle_validation():
    bad = json.loads(json.dumps(UNIT_DOC))
    bad["bc"]["alpha"] = 3.5
    with pytest.raises(BadConfig) as err:
        document_to_problem(bad)
    assert "bc.alpha must lie in [0, π)" in str(err.value)

    bad["bc"]["alpha"] = "pi/3"
    with pytest.raises(BadConfig) as err:
        document_to_problem(bad)
    assert "'pi' and 'pi/2'" in str(err.value)

    bad = json.loads(json.dumps(UNIT_DOC))
    bad["bc"]["beta"] = 0.0
    with pytest.raises(BadConfig) as err:
        document_to_problem(bad)
    assert "bc.beta must lie in (0, π]" in str(err.value)


def test_spectrum_command_csv(tmp_path, capsys):
    cfg = write_doc(tmp_path, UNIT_DOC)
    out = tmp_path / "s.csv"
    code = run(["spectrum", "--config", cfg, "--n-max", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# slprime 0.1.0 config_sha256=")
    assert len(lines[0].split("config_sha256=")[1]) == 64
    assert lines[1] == "n,lambda,oscillation,residual"
    assert len(lines) == 7
    lam_col = [float(ln.split(",")[1]) for ln in lines[2:]]
    for n, lam in enumerate(lam_col, start=1):
        assert lam == pytest.approx(n * n * math.pi**2, rel=1e-8)


def test_spectrum_truncation_is_exit_zero(tmp_path, capsys):
    cfg = write_doc(tmp_path, ATKINSON_DOC)
    code = run(["spectrum", "--config", cfg, "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "TRUNCATED at n = 2" in captured.out
    # the one real eigenvalue is printed before the note
    assert ",0," in captured.out or "1,0.9999999999" in captured.out
    # on [0, 1e-300], lambda_1 = (pi / b)^2 lies far past the cap: the Weyl
    # guess is clamped before (n pi / C)^2 can overflow
    tiny = json.loads(json.dumps(UNIT_DOC))
    tiny["interval"]["b"] = 1e-300
    for name in "sqr":
        tiny["coefficients"][name]["breakpoints"] = [0.0, 1e-300]
    code = run(["spectrum", "--config", write_doc(tmp_path, tiny, "tiny.json"), "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "TRUNCATED at n = 1" in captured.out and "lambda cap" in captured.out
    # with alpha > beta the guess's index factor n - 1 + (beta - alpha)/pi is
    # negative at n = 1: the clamp must hold for x = -5e299 as well
    tiny["bc"] = {"alpha": 1.0, "beta": 0.5}
    code = run(["spectrum", "--config", write_doc(tmp_path, tiny, "tiny.json"), "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "TRUNCATED at n = 1: no lambda above -1e+12 brings theta(b) below" in captured.out


def test_validation_errors_exit_two(tmp_path, capsys):
    bad = json.loads(json.dumps(UNIT_DOC))
    bad["bc"]["alpha"] = 3.5
    cfg = write_doc(tmp_path, bad, "broken.json")
    code = run(["spectrum", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    assert "bc.alpha must lie in [0, π)" in captured.err

    code = run(["spectrum", "--config", str(tmp_path / "missing.json")])
    assert code == 2

    not_json = tmp_path / "nj.json"
    not_json.write_text("{broken")
    assert run(["spectrum", "--config", str(not_json)]) == 2
    # an integer literal past the float range is not finite
    huge_int = tmp_path / "huge.json"
    huge_int.write_text(json.dumps(UNIT_DOC).replace('"a": 0.0', '"a": -1' + "0" * 400, 1))
    assert run(["spectrum", "--config", str(huge_int)]) == 2
    assert "interval.a must be finite" in capsys.readouterr().err
    # the index range is compute_spectrum's rule, reported as an input error
    for argv in (["spectrum", "--config", write_doc(tmp_path, UNIT_DOC)], ["nonlinear"]):
        assert run([*argv, "--n-max", "0"]) == 2
        assert "n_max must be >= 1, got 0" in capsys.readouterr().err
    # and the prime index range is nth_primes's
    assert run(["primes", "--n-max", "0"]) == 2
    assert "prime index must be >= 1, got 0" in capsys.readouterr().err

    # the theta-scan would overflow: z = s k h^2 on a 1e200-wide interval and
    # with s = r = 1e308; then s h = inf where k = 0, and k h = inf where s = 0
    wide = json.loads(json.dumps(UNIT_DOC))
    wide["interval"]["b"] = 1e200
    for key in ("s", "q", "r"):
        wide["coefficients"][key]["breakpoints"] = [0.0, 1e200]
    huge = json.loads(json.dumps(UNIT_DOC))
    huge["coefficients"]["s"]["values"] = [1e308]
    huge["coefficients"]["r"]["values"] = [1e308]
    mesh = [0.0, 1e10, 1e10 + 1.0]

    def first_piece(s, q):
        return {
            "interval": {"a": 0.0, "b": mesh[-1]},
            "coefficients": {
                "s": {"breakpoints": mesh, "values": [s, 1.0]},
                "q": {"breakpoints": mesh, "values": [q, 0.0]},
                "r": {"breakpoints": mesh, "values": [0.0, 1.0]},
            },
            "bc": {"alpha": 1.0, "beta": "pi"},
        }

    for doc, piece in (
        (wide, "[0.0, 1e+200]"),
        (huge, "[0.0, 1.0]"),
        (first_piece(1e300, 0.0), "[0.0, 10000000000.0]"),
        (first_piece(0.0, 1e300), "[0.0, 10000000000.0]"),
    ):
        assert run(["spectrum", "--config", write_doc(tmp_path, doc), "--n-max", "3"]) == 2
        err = capsys.readouterr().err
        assert f"piece 0 on {piece} overflows the theta-scan at lambda_cap 1e+12" in err
    # growth and order propagate up to |lambda| under the same rule; before it,
    # they wrote all-nan CSVs with a false FAIL, or died in a math domain error
    huge_q = json.loads(json.dumps(huge))
    huge_q["coefficients"]["q"]["values"] = [1e308]
    out = tmp_path / "gate.csv"
    for doc, piece in ((wide, "[0.0, 1e+200]"), (huge_q, "[0.0, 1.0]")):
        for command, bound in (("growth", "100"), ("order", "1e+06")):
            argv = [command, "--config", write_doc(tmp_path, doc), "--out", str(out)]
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert f"piece 0 on {piece} overflows the propagator at |lambda| {bound}" in err
            assert not out.exists()
    # each piece passes that rule, but the state leaves piece 0 as
    # (0.84, -8.4e118) and overflows piece 1: theta(b) is NaN, reported
    # as an input error instead of a CSV of residual-pi/2 rows
    overflow = {
        "interval": {"a": 0.0, "b": 2.0},
        "coefficients": {
            "s": {"breakpoints": [0.0, 1.0, 2.0], "values": [1e-200, 1e200]},
            "q": {"breakpoints": [0.0, 1.0, 2.0], "values": [1e119, 0.0]},
            "r": {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 1.0]},
        },
        "bc": {"alpha": 1.0, "beta": "pi"},
    }
    out = tmp_path / "nan.csv"
    argv = ["spectrum", "--config", write_doc(tmp_path, overflow), "--n-max", "3", "--out", str(out)]
    assert run(argv) == 2
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()

    search_cfg = tmp_path / "search.json"
    search_cfg.write_text(json.dumps({"pieces": 2, "targets": 2, "restarts": 1}))
    out = str(tmp_path / "res.json")
    assert run(["invert", "--config", str(search_cfg), "--seed", "-1", "--out", out]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    search_cfg.write_text(json.dumps({"pieces": 2, "seed": -1}))
    assert run(["invert", "--config", str(search_cfg), "--out", out]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    # restart 0 draws nothing, so two restarts reach the draw over [-bound, bound]
    search_cfg.write_text(json.dumps({"pieces": 2, "restarts": 2, "bound": 1e308}))
    assert run(["invert", "--config", str(search_cfg), "--out", out]) == 2
    assert "2 * bound must be finite" in capsys.readouterr().err


def test_coefficients_may_have_their_own_meshes(tmp_path):
    # s split at 0.5 is the same problem as all three on the merged mesh,
    # down to the CSV's config hash
    split = json.loads(json.dumps(UNIT_DOC))
    split["coefficients"]["s"] = {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 1.0]}
    merged = json.loads(json.dumps(UNIT_DOC))
    for name, c in merged["coefficients"].items():
        c["breakpoints"], c["values"] = [0.0, 0.5, 1.0], c["values"] * 2
    texts = []
    for name, doc in (("split", split), ("merged", merged)):
        out = tmp_path / f"{name}.csv"
        argv = ["spectrum", "--config", write_doc(tmp_path, doc, f"{name}.json"), "--out", str(out)]
        assert run(argv) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_unknown_command_exit_two(capsys):
    assert run(["bogus"]) == 2
    assert run([]) == 2


def test_incompat_verdict_last_line(tmp_path, capsys):
    cfg = write_doc(tmp_path, UNIT_DOC)
    out = tmp_path / "inc.csv"
    code = run(["incompat", "--config", cfg, "--n-max", "1000", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1] == "VERDICT: PASS incompat"
    # below 100 rows the report refuses to judge
    code = run(["incompat", "--config", cfg, "--n-max", "60", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1] == "VERDICT: INCONCLUSIVE incompat"


def test_incompat_fail_exit_three(tmp_path, capsys):
    # n_max = 120: the final ratio has not yet fallen below 1% of the first,
    # so the trend verdict is FAIL and the exit code must be 3
    cfg = write_doc(tmp_path, UNIT_DOC)
    code = run(["incompat", "--config", cfg, "--n-max", "120", "--out", str(tmp_path / "i.csv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out.strip().splitlines()[-1] == "VERDICT: FAIL incompat"


def test_incompat_refuses_a_truncated_spectrum(tmp_path, capsys):
    # the Atkinson problem has one eigenvalue: the report would compare 1 row against 20 primes
    cfg = write_doc(tmp_path, ATKINSON_DOC)
    out = tmp_path / "i.csv"
    assert run(["incompat", "--config", cfg, "--n-max", "20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("TRUNCATED at n = 2: ")
    assert "incompat needs the full range" in captured.err
    assert not out.exists()


def test_incompat_neumann_zero_eigenvalue_has_no_ratio(tmp_path):
    # alpha = beta = pi/2 makes lambda_1 exactly 0: its row gets an empty
    # ratio, the first ratio is read at n = 2, and no traceback escapes
    doc = {**UNIT_DOC, "bc": {"alpha": "pi/2", "beta": "pi/2"}}
    cfg = write_doc(tmp_path, doc)
    out = tmp_path / "i.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "slprime.cli", "incompat", "--config", cfg, "--n-max", "200",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    assert rows[0] == ["1", "0.0", "2", ""]
    first = 3 / float(rows[1][1])
    assert float(rows[1][3]) == first
    # the verdict note quotes the first ratio, PASS or FAIL
    assert f"{first:.3e}" in proc.stdout


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_incompat_keeps_the_exit_code_contract(tmp_path_factory, seed):
    # any admissible document: a verdict (0 PASS or INCONCLUSIVE, 3 FAIL) or,
    # when the spectrum ends before n_max, the refusal 2; never an exception
    prob = random_problem(np.random.default_rng(seed), max_pieces=5)
    work = tmp_path_factory.mktemp("incompat")
    cfg = write_doc(work, problem_to_document(prob, SolverOptions()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(["incompat", "--config", cfg, "--n-max", "100", "--out", str(work / "i.csv")])
    if code == 2:
        assert out.getvalue().startswith("TRUNCATED at n = ")
        assert "incompat needs the full range" in err.getvalue()
    else:
        assert code in (0, 3), (code, err.getvalue())


def test_growth_command(tmp_path, capsys):
    cfg = write_doc(tmp_path, UNIT_DOC)
    out = tmp_path / "g.csv"
    code = run(["growth", "--config", cfg, "--lambda-re", "-100", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "VERDICT: PASS growth" in captured.out
    assert out.read_text().splitlines()[1] == "x,measured,bound,slack"
    # |lambda| < 1 is a validation error
    assert run(["growth", "--config", cfg, "--lambda-re", "0.5"]) == 2
    # so is a non-finite lambda, which would otherwise print a nan slack
    assert run(["growth", "--config", cfg, "--lambda-re", "nan"]) == 2
    assert run(["growth", "--config", cfg, "--lambda-im", "inf"]) == 2
    # the sample count is growth_check's 32, not an option
    assert run(["growth", "--config", cfg, "--x-samples", "6"]) == 2
    assert "unrecognized arguments: --x-samples" in capsys.readouterr().err


def test_order_command(tmp_path, capsys):
    cfg = write_doc(tmp_path, UNIT_DOC)
    code = run(["order", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert "VERDICT: PASS order" in captured.out
    # the unit string's zeros are positive, so the two bounds coincide
    slope, upper = captured.out.splitlines()[:2]
    assert slope.startswith("slope ") and upper == "slope_upper " + slope.split()[1]
    # M(R) is bounded on the negative axis, so there are no circle samples to
    # count, and the radii come from the document
    for option in ("--angular-samples", "--radii"):
        assert run(["order", "--config", cfg, option, "16"]) == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    # q = 1e4: the radii start at 10 |q|/r = 1e5, past the turning point, and
    # the slope reads 0.4976 where radii 1e2..1e6 read 0.2555, a FAIL
    heavy = json.loads(json.dumps(UNIT_DOC))
    heavy["coefficients"]["q"]["values"] = [1e4]
    code = run(["order", "--config", write_doc(tmp_path, heavy, "heavy.json"),
                "--out", str(tmp_path / "o2.csv")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "VERDICT: PASS order"
    assert [row.split(",")[0] for row in (tmp_path / "o2.csv").read_text().splitlines()[2:]] == [
        "100000.0", "1000000.0", "10000000.0", "100000000.0", "1000000000.0"
    ]
    # C = 0.01 from five s = 1 pieces of width 0.002: the slope reads 0.36, FAIL, exit 3
    bps = [0.0, 0.002, 0.2, 0.202, 0.4, 0.402, 0.6, 0.602, 0.8, 0.802, 1.0]
    small_c = json.loads(json.dumps(UNIT_DOC))
    small_c["coefficients"] = {
        key: {"breakpoints": bps, "values": values}
        for key, values in (("s", [1.0, 0.0] * 5), ("q", [0.0] * 10), ("r", [1.0] * 10))
    }
    code = run(["order", "--config", write_doc(tmp_path, small_c, "small_c.json"),
                "--out", str(tmp_path / "o3.csv")])
    assert code == 3
    assert capsys.readouterr().out.splitlines()[-1] == "VERDICT: FAIL order"
    # C = 0: u(b; lambda) = 1 on Atkinson's document, so no slope can be fitted
    assert run(["order", "--config", write_doc(tmp_path, ATKINSON_DOC, "atk.json")]) == 2
    assert "max modulus never exceeded 10" in capsys.readouterr().err


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats(-300.0, 1.0), st.floats(-2.0, 300.0),
                          st.booleans(), st.booleans()), min_size=1, max_size=4))
@example([(True, -300.0, 10.0, False, False)])  # |q|/r = 1e310: R_0 reads inf
@example([(True, -300.0, -2.0, False, True), (False, 0.0, 300.0, True, False)])
def test_order_keeps_the_exit_code_contract(tmp_path_factory, pieces):
    # s on or off, r = 10^r_exp or 0, q = +-10^q_exp on each piece, so |q|/r
    # runs past 1e300 and r down to 1e-300: a verdict (0 PASS, 3 FAIL) or an
    # input error 2, never an exception.  Where R_0 10^4 leaves the float
    # range, the refusal names the piece the propagator would overflow on
    n = len(pieces)
    bps = [2.0 * i / n for i in range(n + 1)]
    s = [1.0 if s_on else 0.0 for s_on, *_ in pieces]
    r = [0.0 if r_off else 10.0**r_exp for _, r_exp, _, r_off, _ in pieces]
    q = [(-1.0 if neg else 1.0) * 10.0**q_exp for _, _, q_exp, _, neg in pieces]
    s[0], r[0] = s[0] or 1.0, r[0] or 1.0  # neither vanishes identically
    doc = json.loads(json.dumps(UNIT_DOC))
    doc["interval"]["b"] = 2.0
    doc["coefficients"] = {key: {"breakpoints": bps, "values": values}
                           for key, values in (("s", s), ("q", q), ("r", r))}
    work = tmp_path_factory.mktemp("order")
    cfg = write_doc(work, doc)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(["order", "--config", cfg, "--out", str(work / "o.csv")])
    turn = max(abs(qq) / rr for qq, rr in zip(q, r) if rr > 0.0)
    if max(100.0, 10.0 * turn) * 1e4 == math.inf:
        assert code == 2
        assert re.search(r"piece \d+ on \[.*\] overflows the propagator at \|lambda\| inf",
                         err.getvalue()), err.getvalue()
    else:
        assert code in (0, 2, 3), (code, err.getvalue())


def test_series_command(tmp_path, capsys):
    code = run(["series", "--n-max", "1000000", "--out", str(tmp_path / "ser.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1] == "VERDICT: PASS series"
    # a short run cannot witness divergence: INCONCLUSIVE, still exit 0
    code = run(["series", "--n-max", "2000", "--out", str(tmp_path / "ser2.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert "VERDICT: INCONCLUSIVE series" in captured.out
    # epsilon outside (0, 1/2) is a validation error
    assert run(["series", "--epsilon", "0.9", "--n-max", "1000"]) == 2
    # the model's c is the unit string's pi^2, not an option
    assert run(["series", "--growth-constant", "9.0", "--n-max", "1000"]) == 2
    assert "unrecognized arguments: --growth-constant" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="the doubling clause needs eps <= 0.27 at n_max 1e6, "
                   "though the prime series diverges for every eps < 1/2")
def test_series_passes_wherever_the_prime_series_diverges(tmp_path, capsys):
    code = run(["series", "--epsilon", "0.3", "--n-max", "1000000", "--out", str(tmp_path / "s.csv")])
    assert capsys.readouterr().out.splitlines()[-1] == "VERDICT: PASS series"
    assert code == 0


# one light run per subcommand and the config_sha256 its CSV header carries;
# the hash covers the effective configuration, so it must not drift
CONFIG_HASHES = {
    "spectrum": (["--config", "{unit}", "--n-max", "5"],
                 "7bd4a77e2f2e6f9499fffafa266f672df41f4296b6a75a124f8826e5b32f23b5"),
    "nonlinear": (["--n-max", "5"],
                  "69e0851b158ead3593ee017a745d91b0ab1f8ae7217325c7be3f2f81c0dd6646"),
    "primes": (["--n-max", "100"],
               "d2181b0de13f4a1549832a20226c299f86ef73afa8c7157b9e7d8004855a5149"),
    "incompat": (["--config", "{unit}", "--n-max", "10"],
                 "44814700946a37d01f6d08401a8bf7183a32da85b1e5cd9fee98197baf4a0520"),
    "growth": (["--config", "{unit}"],
               "78e3661f114a2c2a1f32f32db4b05fac4548906b39f91e07a50d10cc4dab32f9"),
    "order": (["--config", "{unit}"],
              "7ba17640961970003e10d5e67d9f84983bc451fb22aab5b47234a093a23f84e7"),
    "series": (["--n-max", "2000"],
               "2cc445c5c784f00f06845afd48806697532bcd2c659931f50c9f7cceb66baae9"),
    "invert": (["--config", "{search}"],
               "23bb9d3294145a12bcd34cc2b06ac863ada9e82c3fa81173f62194ba964a7ce6"),
}


@pytest.mark.parametrize("command", list(CONFIG_HASHES))
def test_config_hash_is_pinned(tmp_path, capsys, command):
    paths = {"unit": write_doc(tmp_path, UNIT_DOC), "search": str(tmp_path / "search.json")}
    (tmp_path / "search.json").write_text(
        json.dumps({"pieces": 1, "targets": 1, "seed": 42, "restarts": 1, "max_iters": 5})
    )
    options, expected = CONFIG_HASHES[command]
    out = tmp_path / "out.json" if command == "invert" else tmp_path / "out.csv"
    assert run([command, *(opt.format(**paths) for opt in options), "--out", str(out)]) == 0
    csv_path = tmp_path / "out_targets.csv" if command == "invert" else out
    assert csv_path.read_text().splitlines()[0] == f"# slprime 0.1.0 config_sha256={expected}"


def test_nonlinear_command(tmp_path, capsys):
    code = run(["nonlinear", "--n-max", "5", "--out", str(tmp_path / "nl.csv")])
    assert code == 0
    lines = (tmp_path / "nl.csv").read_text().splitlines()
    assert lines[1] == "n,mu,lambda,p_n,lambda_minus_p"
    first = lines[2].split(",")
    assert first[0] == "1" and first[2] == ""  # lambda absent below the branch minimum
    # a cap below mu_11 = 121 pi^2 truncates: rows 1..10 stay, with spectrum's note
    capped = dict(json.loads(json.dumps(UNIT_DOC)), solver={"lambda_cap": 1000})
    out = tmp_path / "nl_cap.csv"
    argv = ["nonlinear", "--config", write_doc(tmp_path, capped), "--n-max", "14", "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == 0
    assert [ln.split(",")[0] for ln in out.read_text().splitlines()[2:]] == [
        str(n) for n in range(1, 11)
    ]
    assert capsys.readouterr().out == (
        "TRUNCATED at n = 11: theta(b) stays below the target angle 34.5575 up to the "
        "lambda cap 1000; no eigenvalue n = 11\n"
    )
    # a non-flat s, and Neumann or Robin ends, are rejected for the nonlinear
    # problem, which is posed with Dirichlet ends
    doc = json.loads(json.dumps(UNIT_DOC))
    doc["coefficients"]["s"]["values"] = [2.0]
    cfg = write_doc(tmp_path, doc)
    assert run(["nonlinear", "--config", cfg]) == 2
    for bc in ({"alpha": "pi/2", "beta": "pi/2"}, {"alpha": 1.0, "beta": 2.0}):
        doc = dict(json.loads(json.dumps(UNIT_DOC)), bc=bc)
        out = tmp_path / "nl_bc.csv"
        assert run(["nonlinear", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
        assert not out.exists()


def test_nonlinear_sieves_for_the_rows_it_prints(tmp_path, capsys):
    # lambda_cap 1e4 truncates at n = 32 however large n_max is: 6e7 lies
    # past pi(1e9), the sieve ceiling, yet only 31 rows need a prime
    capped = write_doc(tmp_path, dict(json.loads(json.dumps(UNIT_DOC)), solver={"lambda_cap": 1e4}))
    outputs = []
    for n_max in ("100", "60000000"):
        out = tmp_path / f"nl_{n_max}.csv"
        capsys.readouterr()
        assert run(["nonlinear", "--config", capped, "--n-max", n_max, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("TRUNCATED at n = 32: ")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# slprime ") and "config_sha256=" in lines[0]
        assert [ln.split(",")[0] for ln in lines[2:]] == [str(n) for n in range(1, 32)]
        outputs.append(lines[1:])
    assert outputs[0] == outputs[1]


def test_primes_command(tmp_path, monkeypatch):
    walks, sieved = [], []
    segments = primes_mod._segments
    monkeypatch.setattr(primes_mod, "_segments", lambda limit: walks.append(limit) or segments(limit))
    monkeypatch.setattr(primes_mod, "sieve", sieved.append)
    out = tmp_path / "p.csv"
    assert run(["primes", "--n-max", "100", "--out", str(out)]) == 0
    assert len(walks) == 1 and sieved == []  # one streamed walk serves every checkpoint
    lines = out.read_text().splitlines()
    assert lines[1] == "n,p_n,n_log_n,cesaro,rel_err_pnt,rel_err_cesaro"
    rows = {int(ln.split(",")[0]): ln.split(",") for ln in lines[2:]}
    assert int(rows[100][1]) == 541
    assert [int(rows[n][1]) for n in range(1, 11)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert rows[1][2] == ""  # n log n undefined at n = 1
    assert rows[2][3] == ""  # cesaro needs n >= 3


def test_invert_command_round_trip(tmp_path, capsys):
    cfg = tmp_path / "search.json"
    cfg.write_text(
        json.dumps({"pieces": 2, "bound": 60.0, "targets": 2, "seed": 4, "restarts": 1, "max_iters": 15})
    )
    out = tmp_path / "res.json"
    code = run(["invert", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best_objective"] <= payload["baseline_objective"]
    assert len(payload["best_q"]["values"]) == 2
    assert len(payload["trace"]) == 1
    targets_csv = tmp_path / "res_targets.csv"
    lines = targets_csv.read_text().splitlines()
    assert lines[1] == "n,target_mu,achieved_mu,implied_lambda,p_n"
    assert len(lines) == 4
    # rerun is bit-identical on disk
    out2 = tmp_path / "res2.json"
    run(["invert", "--config", str(cfg), "--out", str(out2)])
    assert out2.read_text() == out.read_text().replace(str(out), str(out2)) or (
        json.loads(out2.read_text()) == payload
    )
    # unknown keys rejected
    cfg.write_text(json.dumps({"pieces": 2, "bogus": 1}))
    assert run(["invert", "--config", str(cfg), "--out", str(out)]) == 2


def test_invert_rejects_initial_step(tmp_path, capsys):
    # the search has no step size to set: a document that names one is
    # refused by name, before any search runs or any file is written
    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps({"pieces": 2, "targets": 2, "initial_step": 10.0}))
    out = tmp_path / "res.json"
    assert run(["invert", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown field 'initial_step'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_cli_import_leaves_out_the_process_pool():
    # only invert's search uses the pool; every other command starts without it
    code = (
        "import sys, slprime.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def _numpy_after_each(argvs):
    """Run each argv through slprime.cli.run in one fresh process: is numpy imported after it?"""
    code = (
        "import sys, slprime.cli\n"
        "seen = ['numpy' in sys.modules]\n"
        f"for argv in {argvs!r}:\n"
        "    assert slprime.cli.run(argv) == 0, argv\n"
        "    seen.append('numpy' in sys.modules)\n"
        "print(seen, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stderr.strip()


def test_numpy_free_commands_start_without_numpy(tmp_path):
    # numpy is imported where arrays are built; --help, spectrum, growth and
    # order build none, and prime reads that fit one sieve segment (p_n up to
    # n = 145,969) sieve a bytearray, so these processes never pay for importing it
    cfg = write_doc(tmp_path, UNIT_DOC)
    search = tmp_path / "search.json"
    search.write_text(json.dumps({"pieces": 1, "targets": 1, "seed": 42, "restarts": 1,
                                  "max_iters": 60}))
    argvs = [
        ["--help"],
        ["spectrum", "--config", cfg, "--n-max", "5"],
        ["growth", "--config", cfg],
        ["order", "--config", cfg],
        ["primes", "--n-max", "100", "--out", str(tmp_path / "p.csv")],
        ["nonlinear", "--n-max", "1000", "--out", str(tmp_path / "nl.csv")],
        ["incompat", "--config", cfg, "--n-max", "10000", "--out", str(tmp_path / "inc.csv")],
        ["invert", "--config", str(search), "--out", str(tmp_path / "inv.json")],
    ]
    assert _numpy_after_each(argvs) == str([False] * (len(argvs) + 1))


def test_long_prime_walks_import_numpy(tmp_path):
    # series builds arrays of terms, and p_145970's walk outgrows one segment
    for argv in (["series", "--n-max", "1000", "--out", str(tmp_path / "s.csv")],
                 ["primes", "--n-max", "145970", "--out", str(tmp_path / "p.csv")]):
        assert _numpy_after_each([argv]) == "[False, True]", argv


def test_readme_command_lines_parse():
    # every example in README's "Command line" block is accepted as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("slprime ")]
    parser = _build_parser()
    commands = {parser.parse_args(shlex.split(ln)[1:]).command for ln in lines}
    assert commands == {
        "spectrum", "incompat", "nonlinear", "primes", "growth", "order", "series", "invert"
    }


def test_cli_snapshot_exit_codes(tmp_path):
    # the fixed command set that two checkouts' outputs are diffed over
    root = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(root / "tools" / "cli_snapshot.py"), str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    table = [ln.split("\t") for ln in (tmp_path / "exit_codes.tsv").read_text().splitlines()]
    codes = {name: int(code) for name, code, _ in table}
    failing = {"incompat_seeded4": 3, "incompat_neumann": 3}
    refused = {
        f"{command}_{doc}"
        for command in ("spectrum", "growth", "order")
        for doc in ("wide", "huge")
    } | {"spectrum_missing"}
    assert len(codes) == len(table) >= 25
    assert codes == {name: failing.get(name, 2 if name in refused else 0) for name in codes}
    last_err = {name: err for name, _, err in table}
    for name in refused - {"spectrum_missing"}:
        assert "piece 0 on" in last_err[name] and "overflows the" in last_err[name]
    assert all(last_err[name] == "" for name, code in codes.items() if code != 2)
    assert (tmp_path / "spectrum_split_mesh" / "out.csv").exists()
    assert (tmp_path / "nonlinear_capped" / "stdout.txt").read_text().startswith(
        "TRUNCATED at n = 11:"
    )
