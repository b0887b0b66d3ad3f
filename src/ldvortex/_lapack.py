"""SciPy's LAPACK wrappers, the f2py extension scipy.linalg._flapack,
without the ~0.3 s and ~20 MiB that importing scipy.linalg costs.

It is loaded from its file and registered in sys.modules under its full
name, so a later `import scipy.linalg` reuses the same wrappers; without
that file the plain import gives the same module.  No other module of the
package imports scipy at module level, and none imports scipy.sparse: the
eigensolves run on these wrappers too.
"""

from __future__ import annotations

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
