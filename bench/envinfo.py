"""Environment record attached to every benchmark result."""

import ctypes
import hashlib
import os
import platform
from pathlib import Path

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Cap OpenBLAS at the usable core count before numpy is imported.

    An explicit OPENBLAS_NUM_THREADS is honoured when it is not above nproc;
    otherwise nproc is used, which is also OpenBLAS's own default.
    """
    cores = nproc()
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        wanted = cores
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(max(wanted, 1), cores))


def blas_threads_in_effect():
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        fields = (line.split() for line in fh)
        paths = {f[-1] for f in fields if len(f) == 6 and "openblas" in f[-1].lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src):
    """sha256 over the program's Python sources, so a result names its code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root, src, seed, shape, param_count):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_effect(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(Path(root)),
        "source_sha256": source_digest(src),
        "seed": seed,
        "shape": {
            "name": shape.name, "stack": "hbgru_lstm", "dtype": "float64",
            "embedding_dim": shape.embedding_dim, "gru_units": shape.gru_units,
            "lstm_units": shape.lstm_units, "vocab_size": shape.vocab_size,
            "max_len": shape.max_len, "batch_size": shape.batch_size,
            "parameters": param_count,
        },
    }
