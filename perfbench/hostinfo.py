"""Host facts stamped on every result, and the native-core guard."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path
from typing import Dict, Optional


class HostFault(RuntimeError):
    """The host cannot run the benchmark as specified (fails the run)."""


def require_native_core() -> str:
    """Load the program's native timing core; return its build tag.

    Without it every native cell falls back to Python loops 4-15x slower,
    and no result would say so, so a missing core stops the run.
    """
    from repro.sim import native

    library = native.load_library()
    if library is None:
        raise HostFault(
            "repro.sim.native.load_library() returned None: the native core "
            "did not build or load (is a C compiler installed?)"
        )
    return Path(library._name).stem.replace("repro_core_", "")


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is None:
            continue
        try:
            out = subprocess.run(
                [path, "--version"], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return path
        first = out.stdout.splitlines()[0] if out.stdout else path
        return first.strip()
    return None


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (identifies a checkout with no git)."""
    digest = hashlib.sha256()
    base = root / "src"
    for path in sorted(base.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(base)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(root: Path, native_tag: str) -> Dict[str, object]:
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "compiler": _compiler(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        "native_build_tag": native_tag,
        "machine": platform.machine(),
    }
