"""SciPy's LAPACK wrappers, the f2py extension scipy.linalg._flapack,
without the ~0.3 s and ~20 MiB that importing scipy.linalg costs.

It is loaded from its file and registered in sys.modules under its full
name, so a later `import scipy.linalg` reuses the same wrappers; without
that file the plain import gives the same module.  No other module of the
package imports scipy at module level, and none imports scipy.sparse: the
eigensolves run on these wrappers too.

one_blas_thread runs a function with the OpenBLAS that these wrappers link
capped at one thread: a banded factorization of bandwidth ~27 runs several
times slower on two threads than on one.  The thread controls are found
once, through the extension's own file: ctypes looks a symbol up in the
libraries that file links as well.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType

NAME = "scipy.linalg._flapack"


def load(linalg_dir: Path | None) -> ModuleType:
    """scipy.linalg._flapack from its file in linalg_dir, loaded once per
    interpreter, or through scipy.linalg when the file is not there."""
    paths = [linalg_dir / f"_flapack{s}" for s in EXTENSION_SUFFIXES] if linalg_dir else []
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        from scipy.linalg import _flapack
        return _flapack
    if NAME not in sys.modules:
        spec = importlib.util.spec_from_file_location(NAME, path)
        sys.modules[NAME] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[NAME])
    return sys.modules[NAME]


_scipy = importlib.util.find_spec("scipy")  # locates the package, runs none of it
flapack = load(Path(_scipy.origin).parent / "linalg" if _scipy else None)


def thread_controls(path: str):
    """(get, set) of scipy_openblas_{get,set}_num_threads from the library
    at path or the libraries it links, or None where they are missing."""
    try:
        lib = ctypes.CDLL(path)
        get, set_threads = (lib.scipy_openblas_get_num_threads,
                            lib.scipy_openblas_set_num_threads)
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


THREADS = thread_controls(flapack.__file__)


def one_blas_thread(fn):
    """fn run with OpenBLAS capped at one thread and its previous thread
    count restored after; fn itself when THREADS is None (no controls)."""
    if THREADS is None:
        return fn
    get, set_threads = THREADS

    @functools.wraps(fn)
    def capped(*args, **kwargs):
        prev = get()
        set_threads(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_threads(prev)

    return capped
