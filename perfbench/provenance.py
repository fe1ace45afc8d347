"""Where and on what a benchmark result was measured."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path


def _blas() -> dict:
    """The OpenBLAS library numpy loaded, its build line and thread count."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f
                            if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        paths = []
    info = {"library": os.path.basename(paths[0]) if paths else None, "config": None,
            "threads": None}
    if not paths:
        return info
    lib = ctypes.CDLL(paths[0])
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
        if threads is not None and config is not None:
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            info.update(threads=threads(), config=config().decode())
            break
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for ln in f:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for ln in (root / ".git" / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + name):
                return ln.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """sha256 over src/centpipe/*.py, so a result names its code even where
    no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "centpipe").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
