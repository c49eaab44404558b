"""Package-shape guards: one import path per name, no code without a caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qpot

SRC = Path(qpot.__file__).resolve().parent

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

# Library results the acceptance checks call; no command reads them.
CHECKED_BY_ACCEPTANCE = {"quantum_potential", "residual_potential",
                         "residual_potential_expanded", "profile_node_mask"}


def test_import_qpot_loads_only_the_version():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_QPOT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    assert first == (f"['qpot', 'qpot.version'] ['version'] False "
                     f"{qpot.__version__}")
    assert second == "True"


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
