"""Host fingerprint recorded with every benchmark result.

Two results are only comparable when they were taken on the same kind of
host: the same core count and affinity, the same BLAS and its thread count,
the same numpy and Python, and the same filesystem under the write-ahead log.
``compare.py`` flags a pair of results whose fingerprints differ.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

#: statfs(2) ``f_type`` magic numbers of the filesystems a checkout is likely on
_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x794C7630: "overlayfs",
    0x6969: "nfs",
    0x2FC12FC1: "zfs",
    0x65735546: "fuse",
    0x858458F6: "ramfs",
    0x01021997: "9p",
}


class _StatFS(ctypes.Structure):
    # struct statfs on 64-bit Linux; only f_type is read.
    _fields_ = [("f_type", ctypes.c_long), ("_rest", ctypes.c_byte * 120)]


def filesystem_type(path: Path) -> str:
    """Name of the filesystem holding ``path`` (``"unknown"`` off Linux)."""

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        buf = _StatFS()
        if libc.statfs(os.fsencode(str(path)), ctypes.byref(buf)) != 0:
            return "unknown"
    except (OSError, AttributeError):
        return "unknown"
    magic = buf.f_type & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def _blas_info() -> Dict[str, Any]:
    """BLAS name, version and the thread count it actually runs with."""

    info: Dict[str, Any] = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
        lib_dir = blas.get("lib directory")
    except (TypeError, KeyError, AttributeError):
        lib_dir = None
    info["threads"] = _openblas_threads(lib_dir)
    return info


def _openblas_threads(lib_dir: Optional[str]) -> Optional[int]:
    """Ask the loaded OpenBLAS for its thread count; ``None`` if it cannot be asked."""

    # Wheels vendor the library next to the package; source builds link the
    # one named in the build configuration.
    vendored = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    candidates = [
        path
        for directory in (vendored, lib_dir)
        if directory
        for path in sorted(glob.glob(os.path.join(directory, "lib*openblas*.so*")))
    ]
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint(wal_dir: Path, seed: int) -> Dict[str, Any]:
    """Everything that makes two results comparable, plus the workload seed."""

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "blas": _blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "wal_filesystem": filesystem_type(wal_dir),
        "seed": seed,
    }


#: fingerprint keys that must match for two results to be compared (not the seed)
COMPARABLE_KEYS = ("cpu_count", "affinity", "blas", "numpy", "python", "wal_filesystem")
