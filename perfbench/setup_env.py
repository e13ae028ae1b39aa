"""Process set-up shared by the benchmark's entry scripts.

``prepare`` pins the BLAS thread count and puts the checkout's ``src`` first
on ``sys.path``; it must run before numpy or privsum is imported.  The
benchmark never uses an installed copy of privsum: it measures the source
tree it sits next to.
"""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The least-squares solve spreads 18-51 ms per trial when OpenBLAS starts
# one thread per core on two cores; a single thread is both faster and
# steadier here.  Forced, not defaulted, so that every commit runs with the
# same setting whatever the caller's environment holds.
BLAS_THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare() -> None:
    os.environ.update(BLAS_THREAD_VARS)
    if not (SRC / "privsum" / "__init__.py").is_file():
        raise SystemExit(f"no privsum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import privsum

    if Path(privsum.__file__).resolve().parent != SRC / "privsum":
        raise SystemExit(f"privsum imported from {privsum.__file__}, not {SRC}")


def _git_revision() -> str | None:
    # Only ask git when the checkout itself is a repository, so that git
    # never searches the directories above it.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    """SHA-256 over the package sources, naming the code measured even in a
    checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "privsum").rglob("*")):
        if path.suffix in (".py", ".yaml") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }
