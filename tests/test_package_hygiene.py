"""Every module-level import and definition of the package modules is
used, and the package imports nothing but numpy, the standard library and
itself.

``__init__.py`` is left out of the first two checks: its imports are the
package's exports, and an export alone does not keep a definition.
``multiprocessing`` and ``mmap`` load only when a Fourier product helper
starts.
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
#: definitions kept although no package line reads them: perfbench records
#: the backend
UNREAD_KEPT = {"_kernels.BACKEND"}


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


def _defined(node) -> list:
    """Names a module-level statement defines: a function, a class or the
    plain names it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_definitions(sources: dict) -> list:
    """``module.name`` of each module-level function, class or constant that
    no other statement of the sources reads, by name or as an attribute.

    ``sources`` maps module names to source text.  A read inside an unread
    definition does not count, so a helper that only dead code calls is
    reported too.
    """
    stmts = []  # (qualified names defined, bare names read) per statement
    for module, source in sources.items():
        for node in ast.parse(source).body:
            reads = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                     or isinstance(n, ast.Attribute)}
            stmts.append(({f"{module}.{name}" for name in _defined(node)}, reads))
    unread = set()
    while True:
        live = [(names, reads) for names, reads in stmts
                if not names or not names <= unread]
        found = {q for names, _ in stmts for q in names
                 if not any(q.rsplit(".", 1)[1] in reads
                            for other, reads in live if other is not names)}
        if found == unread:
            return sorted(found)
        unread = found


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


def test_detects_an_unread_definition():
    sources = {"a": "X = 1\nY = 2\ndef f():\n    return X\n"
                    "def g(n):\n    return g(n - 1)\n"
                    "def h():\n    return Y\nclass C:\n    pass\n",
               "b": "from .a import C, h\nh()\ndef k(c: C):\n    return c.f\n"}
    # h is read at the top of b and Y by h; g reads only itself, k is read
    # nowhere, and C, f and X only under k
    assert unread_definitions(sources) == ["a.C", "a.X", "a.f", "a.g", "b.k"]


def test_every_definition_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert [q for q in unread_definitions(sources) if q not in UNREAD_KEPT] == []


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
