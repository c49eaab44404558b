"""Package-shape guards: one import path per name, no code without a caller."""

import ast
import inspect
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import qpot
from qpot import errors
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

# What `import qpot.cli` must leave out: any scipy module (qpot's LAPACK is
# the one numpy.linalg links), numpy.testing and numpy.f2py, multiprocessing,
# and the thread pool module with the logging it imports.
IMPORT_CLI = """
import sys
import qpot.cli
print(sorted(m for m in sys.argv[1:] if m in sys.modules),
      sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
NOT_LOADED_BY_CLI = ("numpy.testing", "numpy.f2py", "multiprocessing",
                     "concurrent.futures", "logging")

# Looks the LAPACK routines up in a library that lacks the named symbols.
LOOKUP_WITHOUT = """
import sys
import types
from qpot import propagate

lib = types.SimpleNamespace(**{name: types.SimpleNamespace() for name in sys.argv[1:]})
try:
    propagate._routines(lib)
except ImportError as exc:
    print(exc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

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
    assert _fresh(IMPORT_CLI, *NOT_LOADED_BY_CLI) == "[] []"


@pytest.mark.parametrize("present, missing", [
    ((), "scipy_zgttrf_64_"),
    (("scipy_zgttrf_64_",), "scipy_zgttrs_64_"),
])
def test_lapack_without_the_symbols_is_an_import_error(present, missing):
    # named, and no fallback loads scipy's LAPACK instead
    assert _fresh(LOOKUP_WITHOUT, *present) == f"numpy's LAPACK has no {missing} []"


# Each module imports only modules before it: the propagator knows no packet
# or study, and every study sits below the config, io and cli layers.
LAYER_ORDER = ("errors", "version", "core", "propagate", "potentials", "engineering",
               "bohmian", "experiments", "config", "io", "cli")


def test_modules_import_only_earlier_layers():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYER_ORDER + ("__init__",))
    later = []
    for rank, module in enumerate(LAYER_ORDER):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            names = [node.module] if node.module else [a.name for a in node.names]
            later += [f"{module} imports {name}" for name in names
                      if name not in LAYER_ORDER[:rank]]
    assert later == []


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
                      if fn not in used)
    assert uncalled == []


def test_every_oracle_is_used_by_a_test():
    """A public top-level def or class of tests/oracles.py is used, as a name
    or an attribute, in some tests/test_*.py; an import alone does not count,
    so an oracle no test reads cannot stay."""
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    defined = {node.name for node in oracles.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert "quantum_potential" in defined
    assert sorted(defined - used) == []


def test_every_error_class_is_raised():
    """Each QpotError subclass of errors.py appears in a raise, and
    TruncationWarning in a warnings.warn call, in another module of
    src/qpot; an import alone does not count."""
    raised, warned = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_call_name(exc))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "warnings.warn":
                warned.update(_call_name(arg) for arg in node.args)
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)
               and issubclass(obj, errors.QpotError) and obj is not errors.QpotError}
    assert "NumericsError" in classes
    assert sorted(classes - raised) == []
    assert "TruncationWarning" in warned


def test_only_core_names_hbar():
    """One spelling of hbar: core.HBAR backs PhysicalParams.hbar, and every
    other module reads params.hbar."""
    naming = [p.name for p in sorted(SRC.glob("*.py"))
              if re.search(r"\bHBAR\b", p.read_text(encoding="utf-8"))]
    assert naming == ["core.py"]


# Where a potential stack is built and a packet evolved: the one owner for a
# packet named in experiments.PACKETS, and the study whose imprinted packets
# have no name there.
EVOLVE_OWNERS = {"experiments.evolve_packet", "experiments.run_preparation_study"}


def _callers(names, passes=lambda call: True):
    """module.name of each top-level statement of src/qpot holding a call to
    one of `names` that `passes`."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers.update(f"{path.stem}.{getattr(top, 'name', '<module>')}"
                           for node in ast.walk(top) if isinstance(node, ast.Call)
                           and _call_name(node.func) in names and passes(node))
    return callers


def test_only_the_owners_build_a_stack_and_evolve():
    """Calls to total_potential and evolve in src/qpot sit in EVOLVE_OWNERS
    only, so that a change to how a named packet is evolved has one site."""
    assert _callers(("total_potential", "evolve")) == EVOLVE_OWNERS


def test_only_compare_forms_a_ratio():
    """In src/qpot only experiments._compare calls absorption_ratio_series:
    a sweep point, a comparison and the fitted control each form their
    benchmark / engineered ratio through it."""
    assert _callers(("absorption_ratio_series",)) == {"experiments._compare"}


def test_the_cli_checks_no_config_value():
    """In cli.py only _run raises ConfigError, for which command reads which
    section and [params] key; every value is checked where config parses it
    or the library reads it, and no private error takes another exit code."""
    assert {c for c in _callers(("ConfigError",)) if c.startswith("cli.")} == {"cli._run"}
    assert "_UsageError" not in (SRC / "cli.py").read_text(encoding="utf-8")


def _captures(call):
    """Whether an evolve or evolve_packet call passes a capture or a snapshot
    stride: by name, or as a fifth positional argument."""
    named = {k.arg for k in call.keywords}
    return len(call.args) > 4 or bool(named & {"capture", "snapshot_stride"})


def test_only_qpot_evolve_captures():
    """The one call in src/qpot that hands evolve or evolve_packet a capture
    or a snapshot stride is qpot evolve's snapshot writer: no study takes
    snapshots, so none can be handed a stride."""
    assert _callers(("evolve", "evolve_packet"), _captures) == {"cli._evolve_streaming"}


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in node.decorator_list)


def _fields(cls):
    """(name, default or None) per __init__ field of a dataclass, in order;
    a field(init=False) is not one."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and not any(
                k.arg == "init" and getattr(k.value, "value", True) is False
                for k in getattr(node.value, "keywords", ())):
            yield node.target.id, node.value


def _options():
    """(label, call name, parameter, position) for every parameter with a
    default of a public function, of a public class's public method or
    __init__, and of a public dataclass's generated __init__ (its fields), in
    src/qpot. The call name is what a call spells (the class for __init__);
    the position is the parameter's index among a call's positional
    arguments, None when it is keyword-only."""
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
                if _is_dataclass(node):
                    for i, (name, default) in enumerate(_fields(node)):
                        if default is not None:
                            yield f"{path.stem}:{node.name}.{name}", node.name, name, i
            else:
                continue
            for where, call, fn, skip in fns:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                for i, arg in enumerate(args[first:], start=first):
                    yield f"{path.stem}:{where}({arg.arg})", call, arg.arg, i - skip
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield f"{path.stem}:{where}({arg.arg})", call, arg.arg, None


def _call_name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _spread_sections():
    """Per call name, the config sections spread into it: a section counts
    only for what cli.cmd_<section> or config.<section>_from spreads it into,
    the function handed to cli._settings or the callee of a ** argument."""
    spread = defaultdict(set)
    for path in (SRC / "cli.py", SRC / "config.py"):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(fn, "name", "")
            section = name.removeprefix("cmd_").removesuffix("_from")
            if section == name or section not in _SCHEMA:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if _call_name(node.func) == "_settings":
                    spread[_call_name(node.args[0])].add(section)
                elif any(k.arg is None for k in node.keywords):
                    spread[_call_name(node.func)].add(section)
    return spread


def _calls():
    """Per call name: the keywords some call passes by name, and the most
    positional arguments a call passes ahead of any * spread."""
    named, positional = defaultdict(set), defaultdict(int)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            given = next((i for i, arg in enumerate(node.args)
                          if isinstance(arg, ast.Starred)), len(node.args))
            positional[name] = max(positional[name], given)
            named[name].update(k.arg for k in node.keywords if k.arg is not None)
    return named, positional


def test_every_library_option_has_a_caller():
    """A parameter or dataclass field with a default is set by some call in
    src/qpot, the acceptance checks, bench/ or perfbench/ (by name or
    position; a ** spread does not count), or is a key of a config section
    spread into that very callee, or is kept on purpose; otherwise it is a
    constant dressed as an option."""
    named, positional = _calls()
    spread = _spread_sections()
    unset = sorted(label for label, call, param, pos in _options()
                   if param not in named[call]
                   and (pos is None or positional[call] <= pos)
                   and param not in UNSET_BUT_KEPT
                   and not any(param in _SCHEMA[name] for name in spread[call]))
    assert not unset, f"options no caller sets: {', '.join(unset)}"


# A key of a spread section that is no parameter of its callee, with its reader.
READ_ELSEWHERE = {
    ("evolve", "packet"): "cli.cmd_evolve hands the packet name to "
                          "experiments.evolve_packet; config.evolve_from drops "
                          "it, and rejects it for a study",
    ("evolve", "snapshot_stride"): "cli.cmd_evolve hands the stride to "
                                   "propagate.evolve through evolve_packet; "
                                   "config.evolve_from drops it, and rejects it "
                                   "for a study",
}


def test_every_spread_key_is_a_parameter_of_its_callee():
    """Each key of a config section is a parameter or field of the callee the
    section is spread into, so a command hands its section over with no
    translation of its own."""
    from qpot import bohmian, core, engineering, experiments, propagate

    names = {}
    for module in (bohmian, core, engineering, experiments, propagate):
        names.update(vars(module))
    unmatched = sorted(
        f"[{section}] {key} -> {callee}"
        for callee, sections in _spread_sections().items() for section in sections
        for key in _SCHEMA[section]
        if key not in inspect.signature(names[callee]).parameters
        and (section, key) not in READ_ELSEWHERE)
    assert unmatched == []
    assert all(key in _SCHEMA[section] for section, key in READ_ELSEWHERE)


def test_config_sections_reach_their_callees():
    """The sections the option guard credits, and where, pinned so that a new
    ** spread in a command cannot quietly credit its section to another
    callee."""
    assert _spread_sections() == {
        "PhysicalParams": {"params"}, "Grid1D": {"grid"}, "EvolveConfig": {"evolve"},
        "SweepSpec": {"sweep"}, "ProfileSpec": {"profile"},
        "weighted_fields": {"fields"}, "run_comparison": {"compare"},
        "run_fitted_control": {"fitted"}, "run_preparation_study": {"prepare"},
        "convergence_report": {"converge"},
    }
