"""Package-shape guards: one import path per name, no code without a caller."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import qpot
from qpot.config import _SCHEMA

SRC = Path(qpot.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Where a call counts as a caller of a library option.
CALLERS = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
# Defaulted parameters kept although no caller sets them, with the reason.
UNSET_BUT_KEPT = {
    "spec": "the profile shape; every profile function takes the ProfileSpec "
            "qpot profile builds, so a sine or |P| packet is one argument away",
}

# Run in a fresh interpreter so that only what `import qpot` loads counts.
IMPORT_QPOT = """
import sys
import qpot
loaded = sorted(m for m in sys.modules if m == "qpot" or m.startswith("qpot."))
public = sorted(n for n in vars(qpot) if not n.startswith("__"))
print(loaded, public, "numpy" in sys.modules, qpot.__version__)
from qpot import config
print(callable(config.load_config))
"""

# What `import qpot.cli` must leave out: the scipy package inits (and the
# numpy.testing and numpy.f2py they pull in) and multiprocessing.
IMPORT_CLI = """
import sys
import qpot.cli
print(sorted(m for m in sys.argv[1:] if m in sys.modules),
      "scipy.linalg._flapack" in sys.modules)
"""
NOT_LOADED_BY_CLI = ("scipy.linalg", "scipy.special", "numpy.testing", "numpy.f2py",
                     "multiprocessing")

# Imports the modules named on the command line in that order and counts the
# times scipy's LAPACK extension module is created.
ONE_FLAPACK = """
import importlib
import sys
from importlib.machinery import ExtensionFileLoader

created = []
create = ExtensionFileLoader.create_module


def counting(self, spec):
    if spec.name == "scipy.linalg._flapack":
        created.append(spec.name)
    return create(self, spec)


ExtensionFileLoader.create_module = counting
for name in sys.argv[1:]:
    importlib.import_module(name)
from qpot import propagate
from scipy.linalg import lapack
print(propagate.zgttrf is lapack.zgttrf, propagate.zgttrs is lapack.zgttrs,
      len(created))
"""

# Library results the acceptance checks call; no command reads them.
CHECKED_BY_ACCEPTANCE = {"quantum_potential", "residual_potential",
                         "residual_potential_expanded", "profile_node_mask"}


def _fresh(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_qpot_loads_only_the_version():
    first, second = _fresh(IMPORT_QPOT).splitlines()
    assert first == (f"['qpot', 'qpot.version'] ['version'] False "
                     f"{qpot.__version__}")
    assert second == "True"


def test_cli_import_loads_no_scipy_package_init():
    assert _fresh(IMPORT_CLI, *NOT_LOADED_BY_CLI) == "[] True"


@pytest.mark.parametrize("order", [("qpot.propagate", "scipy.linalg.lapack"),
                                   ("scipy.linalg.lapack", "qpot.propagate")])
def test_one_lapack_module_whatever_the_import_order(order):
    assert _fresh(ONE_FLAPACK, *order) == "True True 1"


def test_missing_lapack_module_is_an_import_error(tmp_path):
    # a scipy without linalg/_flapack: no fallback to another LAPACK path
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("", encoding="utf-8")
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "try:\n"
            "    import qpot.propagate\n"
            "except ImportError as exc:\n"
            "    print(exc, '|', exc.name)\n")
    assert _fresh(code, str(tmp_path)) == ("cannot find scipy.linalg._flapack | "
                                           "scipy.linalg._flapack")


def test_every_public_name_has_a_caller_in_src():
    """A public top-level def or class of src/qpot is referenced, as a name,
    an attribute or an imported name, from a module of the package other
    than __init__.py; test-only helpers live in the tests."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    defined = {node.name: name for name, tree in modules.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    uncalled = sorted(f"{module}:{fn}" for fn, module in defined.items()
                      if fn not in used | CHECKED_BY_ACCEPTANCE)
    assert uncalled == []
    assert CHECKED_BY_ACCEPTANCE <= set(defined)


def _options():
    """(module:function, call name, parameter, position) for every parameter
    with a default of a public function, or of a public class's public
    method or __init__, in src/qpot. The call name is what a call spells (the
    class for __init__); the position is the parameter's index among a
    call's positional arguments, None when it is keyword-only."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f"{node.name}.{fn.name}",
                        node.name if fn.name == "__init__" else fn.name, fn, 1)
                       for fn in node.body if isinstance(fn, ast.FunctionDef)
                       and (fn.name == "__init__" or not fn.name.startswith("_"))]
            else:
                continue
            for where, call, fn, skip in fns:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                for i, arg in enumerate(args[first:], start=first):
                    yield f"{path.stem}:{where}", call, arg.arg, i - skip
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield f"{path.stem}:{where}", call, arg.arg, None


def _calls():
    """Per call name: the keywords some call passes by name, and the most
    positional arguments a call passes ahead of any * spread."""
    named, positional = defaultdict(set), defaultdict(int)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            given = next((i for i, arg in enumerate(node.args)
                          if isinstance(arg, ast.Starred)), len(node.args))
            positional[name] = max(positional[name], given)
            named[name].update(k.arg for k in node.keywords if k.arg is not None)
    return named, positional


def test_every_library_option_has_a_caller():
    """A parameter with a default is set by some call in src/qpot, the
    acceptance checks, bench/ or perfbench/ (by name or position; a **
    spread does not count), or is a config key, or is kept on purpose;
    otherwise it is a constant dressed as an option."""
    named, positional = _calls()
    config_keys = {key for section in _SCHEMA.values() for key in section}
    unset = sorted(f"{where}({param})" for where, call, param, pos in _options()
                   if param not in named[call]
                   and (pos is None or positional[call] <= pos)
                   and param not in config_keys | set(UNSET_BUT_KEPT))
    assert not unset, f"options no caller sets: {', '.join(unset)}"
