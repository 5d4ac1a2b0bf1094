"""Environment block recorded with every benchmark result.

Thread-count variables are recorded as found and never set, so a run
measures what a user of the package gets.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JOBS_VAR = "MULTIGRAPHON_JOBS"


def drop_jobs_var() -> dict:
    """Remove the worker-pool variable so every benchmark cell runs serially."""
    found = os.environ.pop(JOBS_VAR, None)
    return {"variable": JOBS_VAR, "found": found, "removed": JOBS_VAR not in os.environ}


def _git(root, *args):
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def git_state(root) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def numeric_fingerprint() -> dict:
    """What decides whether floating-point results repeat bit for bit."""
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": cfg.get("SIMD Extensions", {}).get("found"),
        "cpu_count": os.cpu_count(),
    }


def environment(root, jobs: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git": git_state(root),
        "jobs_env": jobs,
        "fingerprint": numeric_fingerprint(),
    }
