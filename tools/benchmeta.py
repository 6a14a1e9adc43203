"""The provenance every tools/bench_*.py run records: code version and host."""

from __future__ import annotations

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
