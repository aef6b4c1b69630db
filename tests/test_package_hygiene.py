"""Every module-level import of the package modules is used, and the
package imports nothing but numpy, the standard library and itself.

``__init__.py`` is left out of the first check: its imports are the
package's exports.  ``multiprocessing`` and ``mmap`` load only when a
Fourier product helper starts.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anovafourier

PACKAGE = Path(anovafourier.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: top-level modules the package may import: numpy is its one dependency
ALLOWED = {"numpy", "anovafourier"} | set(sys.stdlib_module_names)


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def foreign_imports(source: str) -> list:
    """Modules imported anywhere in the source, at module level or inside a
    function, that are neither numpy, the standard library nor the package.
    Relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [n for n in names if n.split(".")[0] not in ALLOWED]
    return found


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\nos.sep\nc()\n") \
        == ["sys", "b"]


def test_detects_a_foreign_import():
    source = ("import numpy as np\nimport os.path\nfrom . import lattice\n"
              "from anovafourier.anova import sensitivity\n"
              "def f():\n    import scipy.fft\n    from numba import njit\n")
    assert foreign_imports(source) == ["scipy.fft", "numba"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_numpy_and_stdlib(path):
    assert foreign_imports(path.read_text()) == []


#: imports the package and runs a one-chunk scattered detect, which starts
#: no product helper, then prints which of the helper's modules are loaded
_NO_HELPER_RUN = """
import sys
import anovafourier
from anovafourier import DetectionConfig, detect
from anovafourier.bench import testfun_value
loaded = [m for m in ("multiprocessing", "mmap") if m in sys.modules]
cfg = DetectionConfig(d=9, d_s=2, search={"type": "full_grid", "N": [6, 2]},
                      thresholds=[0.01, 0.01],
                      sampling={"kind": "scattered", "count": 1500, "seed": 1})
detect(cfg, testfun_value)
print(loaded, [m for m in ("multiprocessing", "mmap") if m in sys.modules])
"""


def test_no_multiprocessing_without_a_helper():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _NO_HELPER_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[] []"
