"""Static guards on the package source: every name a module imports is used
in that module, every module-level private name is read somewhere in the
package, every public module-level name or class method is read somewhere
in the package, every dataclass field is read somewhere in the package
or by the benchmark's tracer, and every parameter default is overridden with
another value by some call in the package or the benchmark driver (tests
do not count, so a default only a test sets is flagged; the allow-list
names the exceptions and why). ``experiment.py`` opens a file for writing,
and calls ``os.replace``, only inside its one atomic writer. Every error
class the package defines is caught by name in ``cli.main``, so it ends
with an exit code, not a traceback.

No linter ships with the toolchain, so these are the unused-import and
dead-code checks.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paal"
SOURCES = sorted(PACKAGE.glob("*.py"))
# reads fields of the package's results (ClusterModel.inertia_history)
TRACING = ROOT / "benchmarks" / "tracing.py"
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
# defaults that only tests set, each kept for a reason
SINGLE_VALUE_ALLOWED = {
    # tests generate data with other class profiles, and so will a second
    # built-in profile
    "data.py: generate(profile)",
    # Conv2D(kernel): the k=5 finite-difference oracles, and the tracer
    # reads ``.kernel``
    "nn.py: __init__(kernel)",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that no code reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def module_names(tree: ast.Module) -> list[str]:
    """Names the module body defines by ``def``, ``class`` or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def method_names(tree: ast.Module) -> list[str]:
    """Methods of the classes the module body defines."""
    return [item.name for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)]


def read_names(tree: ast.Module) -> set[str]:
    """Every name the code loads, plus every attribute it touches."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_x`` definitions that no module of ``sources`` reads,
    by name or as a module attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in module_names(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public module-level names and class methods that no module of
    ``sources`` reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in module_names(tree) + method_names(tree)
            if not name.startswith("_") and name not in read]


def dataclass_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for every annotated field of the module's dataclasses."""
    def is_dataclass(node):  # ``@dataclass`` or ``@dataclass(...)``
        return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                   for d in node.decorator_list)
    return [f"{node.name}.{item.target.id}" for node in tree.body
            if isinstance(node, ast.ClassDef) and is_dataclass(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Dataclass fields that no module of ``sources`` loads as an attribute
    or spells as a string constant."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= {node.value for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [f"{module}: {field}" for module, tree in trees.items()
            for field in dataclass_fields(tree)
            if field.split(".")[1] not in read]


def field_sources() -> dict[str, str]:
    """The package's modules plus the tracer, by file name."""
    return {p.name: p.read_text(encoding="utf-8") for p in SOURCES + [TRACING]}


_UNKNOWN = object()


def _constant(node: ast.expr, constants: dict[str, object]) -> object:
    """The value of a literal or of a module-level constant's name."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id, _UNKNOWN)
    return _UNKNOWN


def _overrides(call: ast.Call, param: str, index: int | None, default: object,
               constants: dict[str, object]) -> bool:
    """Whether ``call`` passes ``param`` a value other than its ``default``:
    by keyword, through ``**kwargs``, or, for a positional parameter at
    ``index``, by enough (or starred) positional arguments."""
    def differs(node):
        value = _constant(node, constants)
        return value is _UNKNOWN or value != default
    for k in call.keywords:
        if k.arg is None or (k.arg == param and differs(k.value)):
            return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index and differs(call.args[index])


def single_value_parameters(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``def(param)`` for every parameter default of a ``def`` in ``sources``
    that no call in ``callers`` overrides with another value; passing the
    default's own literal or constant does not count. Calls match by name;
    a method skips ``self``, and a call to a class is a call to its
    ``__init__``. Constants are the module-level names of ``sources`` bound
    to a literal."""
    constants = {target.id: node.value.value for source in sources.values()
                 for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    flagged = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            method = id(node) in owner
            args = node.args
            positional = [(a.arg, i - method) for i, a in
                          enumerate(args.posonlyargs + args.args)]
            params = [(param, index, d) for (param, index), d in zip(
                positional[len(positional) - len(args.defaults):], args.defaults)]
            params += [(a.arg, None, d) for a, d in
                       zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = owner[id(node)] if node.name == "__init__" else node.name
            flagged += [f"{module}: {node.name}({param})"
                        for param, index, default in params
                        if not any(_overrides(call, param, index,
                                              _constant(default, constants),
                                              constants)
                                   for call in calls.get(name, []))]
    return flagged


def writes_outside(source: str, writer: str) -> list[str]:
    """``os.replace`` calls, and ``open`` calls whose mode writes (or is not
    a constant), outside the function named ``writer``."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == writer
              for node in ast.walk(fn)}
    flagged = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "replace"
                and isinstance(func.value, ast.Name) and func.value.id == "os"):
            flagged.append(f"line {node.lineno}: os.replace")
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                flagged.append(f"line {node.lineno}: open")
    return flagged


def _name(node: ast.expr) -> str | None:
    """``X`` for ``X`` or ``module.X``."""
    return getattr(node, "attr", getattr(node, "id", None))


def uncaught_errors(sources: dict[str, str], cli: str) -> list[str]:
    """Classes of ``sources`` with an ``*Error`` base that no ``except`` in
    the ``main`` function of ``cli`` names."""
    caught = set()
    for fn in ast.walk(ast.parse(cli)):
        if isinstance(fn, ast.FunctionDef) and fn.name == "main":
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    kinds = getattr(node.type, "elts", [node.type])
                    caught |= {_name(kind) for kind in kinds}
    return [f"{module}: {node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            and any((_name(base) or "").endswith("Error") for base in node.bases)
            and node.name not in caught]


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from numpy.lib.stride_tricks import sliding_window_view\n"
              "x = np.zeros(3)\n")
    assert unused_imports(source) == ["line 3: sliding_window_view"]


def test_guard_flags_an_unread_private_name():
    sources = {
        "strategies.py": ("_LIMIT = 4\n"
                          "def _positions(ids):\n    return ids[:_LIMIT]\n"
                          "def _lookup(ids):\n    return _positions(ids)\n"
                          "def select(ids):\n    return ids\n"),
        "experiment.py": ("from . import strategies\n"
                          "_KEYS = strategies._LIMIT\n"),
    }
    assert unread_private_names(sources) == ["strategies.py: _lookup",
                                             "experiment.py: _KEYS"]


def test_guard_flags_an_unread_public_name():
    sources = {
        "nn.py": ("class Network:\n"
                  "    def forward(self, x):\n        return x\n"
                  "    def astype(self, dtype):\n        return self\n"
                  "def finite_diff_check(net, x):\n"
                  "    return net.astype(float).forward(x)\n"),
        "models.py": ("from .nn import Network\n"
                      "def seg_forward(net, x):\n    return net.forward(x)\n"
                      "def build_seg_model():\n    return Network()\n"),
        "orchestrator.py": ("from .models import build_seg_model, seg_forward\n"
                            "seg_forward(build_seg_model(), 0)\n"),
        "__init__.py": "from .nn import finite_diff_check\n",
    }
    assert unread_public_names(sources) == ["nn.py: finite_diff_check"]


def test_guard_flags_a_restored_inertia_field():
    sources = field_sources()
    kept = "    assignments: np.ndarray"
    assert kept in sources["kmeans.py"]
    sources["kmeans.py"] = sources["kmeans.py"].replace(
        kept, "    inertia: float\n" + kept)
    assert unread_fields(sources) == ["kmeans.py: ClusterModel.inertia"]


def test_guard_flags_a_never_passed_default():
    sources = {
        "nn.py": ("class Conv2D:\n"
                  "    def __init__(self, c, k=3, *, bias=True):\n        pass\n"
                  "    def forward(self, x, train=False):\n        return x\n"
                  "def adamw_step(params, lr, beta1=0.9, eps=1e-8):\n"
                  "    pass\n"),
    }
    callers = [sources["nn.py"],
               "conv = Conv2D(1, 5)\nconv.forward(0, True)\n"
               "adamw_step([], 0.1, eps=0.0)\n",
               "Conv2D(1, **{'bias': False})\n"]
    assert single_value_parameters(sources, callers) == ["nn.py: adamw_step(beta1)"]


def test_guard_flags_a_default_passed_only_its_own_value():
    sources = {
        "strategies.py": ("CLIP = 1e-6\n"
                          "def query_weights(p, eps=CLIP, *, floor=0.0):\n"
                          "    pass\n"
                          "def cluster_count(b, scale=4):\n    pass\n"),
    }
    callers = [sources["strategies.py"],
               "query_weights(0, 1e-6)\nquery_weights(0, eps=CLIP)\n"
               "query_weights(0, floor=0.0)\n"
               "cluster_count(1, 4)\ncluster_count(1, scale=SCALE)\n"]
    assert single_value_parameters(sources, callers) == [
        "strategies.py: query_weights(eps)", "strategies.py: query_weights(floor)"]


def test_guard_flags_a_write_outside_the_writer():
    source = ("import os\n"
              "def _replacing(path):\n"
              "    with open(path + '.tmp', 'w') as fh:\n        yield fh\n"
              "    os.replace(path + '.tmp', path)\n"
              "def load(path, mode):\n"
              "    open(path, 'rb')\n    open(path, mode='r')\n"
              "    open(path, 'a')\n    open(path, mode)\n"
              "    os.replace(path, path + '.old')\n")
    assert writes_outside(source, "_replacing") == [
        "line 9: open", "line 10: open", "line 11: os.replace"]


def test_guard_flags_an_uncaught_error():
    sources = {
        "nn.py": ("class ShapeError(ValueError):\n    pass\n"
                  "class NumericalError(ArithmeticError):\n    pass\n"
                  "class Layer:\n    pass\n"),
        "data.py": "class DatasetFormatError(errors.BaseError):\n    pass\n",
    }
    cli = ("def run():\n    try:\n        pass\n"
           "    except ShapeError:\n        pass\n"
           "def main():\n    try:\n        pass\n"
           "    except (data_mod.DatasetFormatError, OSError):\n        pass\n"
           "    except NumericalError as exc:\n        pass\n"
           "    except:\n        pass\n")
    assert uncaught_errors(sources, cli) == ["nn.py: ShapeError"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


def test_no_unread_public_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_public_names(sources) == []


def test_no_unread_dataclass_fields():
    assert unread_fields(field_sources()) == []


def test_no_single_value_parameters():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    callers = [p.read_text(encoding="utf-8") for p in SOURCES + BENCHMARKS]
    flagged = single_value_parameters(sources, callers)
    assert sorted(set(flagged) - SINGLE_VALUE_ALLOWED) == []
    assert SINGLE_VALUE_ALLOWED <= set(flagged)  # no stale allowance


def test_experiment_writes_only_through_its_atomic_writer():
    source = (PACKAGE / "experiment.py").read_text(encoding="utf-8")
    assert writes_outside(source, "_replacing") == []


def test_every_package_error_reaches_an_exit_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert uncaught_errors(sources, sources["cli.py"]) == []
