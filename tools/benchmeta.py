"""What every tools/bench_*.py harness shares: its arguments, its provenance and its record.

Each harness takes a LABEL and --out FILE, and stores its run under LABEL
in the JSON file, next to the runs already there, so one file can hold
the same harness run on two checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from pathlib import Path


def git_head(path: Path) -> str | None:
    """HEAD of the checkout holding path, with "+dirty" when path differs from it.

    None outside a git checkout.  Only tracked files count: a run on an
    uncommitted change is never labelled with its parent's commit alone.
    """
    proc = subprocess.run(
        ["git", "-C", str(path), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(path), "diff", "--quiet", "HEAD", "--", "."])
    return proc.stdout.strip() + ("+dirty" if dirty.returncode == 1 else "")


def run_header(package: Path) -> dict:
    """git_head of the measured package, then Python version, machine and CPU count."""
    return {
        "git_head": git_head(package),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def bench_parser(doc: str, default_out: str) -> argparse.ArgumentParser:
    """A parser, described by doc's first line, for LABEL and --out (default default_out)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--out", default=default_out)
    return parser


def record(out: str | Path, label: str, run: dict) -> None:
    """Store run under label in the JSON file out, keeping every other label's run."""
    path = Path(out)
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc[label] = run
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
