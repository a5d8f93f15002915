"""The lazily loaded package namespace, and which modules each command loads."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normtrace
from normtrace import jsonio, norms

AUDIT_STACK = ("normtrace.audit", "normtrace.margins", "normtrace.channels")

# the child imports the normtrace under test, installed or not
CHILD_PATH = [str(Path(normtrace.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]

# runs cli.main on argv[1:] (no call when empty), then prints which audit
# modules are loaded and the exit code
CHILD = """
import contextlib, io, json, sys
import normtrace
code = None
if sys.argv[1:]:
    from normtrace import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([[m for m in {stack!r} if m in sys.modules], code]))
""".format(stack=AUDIT_STACK)


def run_child(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(CHILD_PATH)},
    ).stdout


def loaded_after(*argv):
    return json.loads(run_child(CHILD, *argv))


@pytest.fixture()
def bipartite_file(tmp_path):
    path = tmp_path / "w.json"
    jsonio.write_matrix_file(path, np.diag(np.arange(1.0, 7.0)))
    return str(path)


def test_every_public_name_is_its_submodules_object():
    for name in normtrace.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"normtrace.{normtrace._SOURCE[name]}")
        value = getattr(normtrace, name)
        assert value is getattr(module, name), name
        # the table names the module that defines the name, not one that re-exports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from normtrace import *", namespace)
    assert set(normtrace.__all__) <= set(namespace)
    for name in normtrace.__all__:
        assert namespace[name] is getattr(normtrace, name), name


def test_dir_lists_the_public_names_and_submodules():
    listed = dir(normtrace)
    assert set(normtrace.__all__) <= set(listed)
    assert {"audit", "cli", "linalg", "margins"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        normtrace.no_such_name  # noqa: B018
    assert not hasattr(normtrace, "eval_kpn1")  # a submodule's name that is not public


def test_names_are_not_cached_in_the_package(monkeypatch):
    # a name resolved while a submodule's function is swapped must not keep the swap
    original = norms.kp_norm

    def swapped(*args):
        return original(*args)

    monkeypatch.setattr(norms, "kp_norm", swapped)
    assert normtrace.kp_norm is swapped
    monkeypatch.undo()
    assert normtrace.kp_norm is norms.kp_norm is original
    assert "kp_norm" not in vars(normtrace)


def test_submodule_attribute_loads_on_first_use():
    child = "import normtrace; print(normtrace.audit.run_audit.__module__)"
    assert run_child(child).split() == ["normtrace.audit"]


# start-up guard: compute and ptrace run without the audit modules
def test_import_loads_no_audit_module():
    assert loaded_after() == [[], None]


def test_compute_loads_no_audit_module(bipartite_file):
    assert loaded_after("compute", "norm", bipartite_file, "--k", "2", "--p", "3") == [[], 0]


def test_ptrace_loads_no_audit_module(bipartite_file):
    assert loaded_after("ptrace", bipartite_file, "--dims", "2x3", "--oracle") == [[], 0]


def test_audit_loads_the_audit_modules():
    assert loaded_after("audit", "--trials", "1", "--case", "KPN1") == [list(AUDIT_STACK), 0]


def _names_the_package_uses() -> set:
    """The names that a module of the package loads, imports or reads off a submodule."""
    used = set()
    for path in Path(normtrace.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":  # where the public names are declared
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in normtrace._SUBMODULES:  # such as jsonio.dumps
                    used.add(node.attr)
    return used


def _public_names_the_library_never_calls() -> set:
    """The names of normtrace._SOURCE that no module of the package loads or imports."""
    return set(normtrace._SOURCE) - _names_the_package_uses()


def _public_methods_the_library_never_calls() -> set:
    """Class.method for each method, dunders aside, of a class of normtrace._SOURCE that no other function reads."""
    trees = [ast.parse(path.read_text()) for path in Path(normtrace.__file__).parent.glob("*.py")]
    methods = {f"{cls.name}.{x.name}": x.name for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name in normtrace._SOURCE
               for x in cls.body if isinstance(x, ast.FunctionDef) and not x.name.startswith("__")}
    read = {node.attr for tree in trees for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function) if isinstance(node, ast.Attribute) and node.attr != function.name}
    return {name for name, method in methods.items() if method not in read}


def test_readme_lists_the_public_symbols_the_library_never_calls():
    # README gives a reason for each public symbol or method of a public class
    # whose only callers are tests, the benchmark or users: its list is that
    # set, no more and no less
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("methods of public classes have no caller"):]
    section = section[:section.index("\n## ")]
    listed = re.findall(r"^- `([\w.]+)`", section, re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == _public_names_the_library_never_calls() | _public_methods_the_library_never_calls()


def test_every_module_function_and_class_is_public_or_has_a_caller_in_the_package():
    # a module-level def or class that no module of the package names, and that
    # normtrace._SOURCE does not make public, is dead code: an ast scan, so no
    # helper outlives its last caller.  A name counts as called where a module,
    # its own included, loads it, imports it or reads it off a submodule
    defined = {(path.stem, x.name) for path in Path(normtrace.__file__).parent.glob("*.py")
               for x in ast.parse(path.read_text()).body
               if isinstance(x, (ast.FunctionDef, ast.ClassDef)) and not x.name.startswith("__")}
    public = {(module, name) for name, module in normtrace._SOURCE.items()}
    used = _names_the_package_uses()
    assert {(module, name) for module, name in defined if name not in used} - public == set()


def test_every_spectra_method_has_a_caller_in_the_package():
    # README says every method of margins.Spectra has a caller in the evaluators
    # or the runner: an ast scan of the package, so no method outlives its last caller
    trees = {path.name: ast.parse(path.read_text()) for path in Path(normtrace.__file__).parent.glob("*.py")}
    (spectra,) = [x for x in trees["margins.py"].body if isinstance(x, ast.ClassDef) and x.name == "Spectra"]
    methods = {x.name for x in spectra.body if isinstance(x, ast.FunctionDef) and not x.name.startswith("__")}
    assert {"norm", "antinorm", "in_bound"} <= methods
    read = set()  # attributes read off a variable, as sp.norm, by a function other than the one of that name
    for tree in trees.values():
        # np.linalg.norm is an attribute of a module, not a call of Spectra.norm
        modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                read.update(node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name) and node.value.id not in modules
                            and node.attr != function.name)
    assert methods - read == set()


def test_every_evaluator_serves_a_case():
    # an ast scan of margins.py: every eval_* is some registry case's evaluate,
    # or is called inside one, as eval_satwrqa calls eval_kpn1 and eval_kqn1,
    # so no evaluator outlives the last case that reads it
    from normtrace.audit import REGISTRY

    tree = ast.parse((Path(normtrace.__file__).parent / "margins.py").read_text())
    defined = {x.name: x for x in tree.body if isinstance(x, ast.FunctionDef) and x.name.startswith("eval_")}
    served = {case.evaluate.__name__ for case in REGISTRY.values()}
    assert served <= set(defined)
    called = {node.func.id for name in served for node in ast.walk(defined[name])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert set(defined) - served - called == set()


def test_readme_names_the_cases_each_shared_evaluator_serves():
    # README's "`eval_x` serves ..." sentence of each evaluator that two or more
    # registry cases read lists exactly those ids, in registry order, so the
    # next evaluator merge cannot leave the table behind
    from normtrace.audit import REGISTRY

    serving = {}
    for cid, case in REGISTRY.items():
        serving.setdefault(case.evaluate.__name__, []).append(cid)
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    listed = {name: re.split(r", | and ", ids) for name, ids in re.findall(r"`(eval_\w+)` serves ([^;.]+)", readme)}
    assert listed == {name: ids for name, ids in serving.items() if len(ids) >= 2}


def test_no_module_compares_against_or_keys_by_a_case_id():
    # the registry is data: a case's axes and their domains, its extra field and
    # its witnesses sit on its row, so no module of the package compares a value
    # against a case id literal, or builds a dict keyed by one, as a branch per case would
    from normtrace.audit import REGISTRY_IDS

    found = []
    for path in sorted(Path(normtrace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Dict):
                operands = [key for key in node.keys if key is not None]  # None: a ** entry
            else:
                continue
            found += [(path.name, node.lineno, x.value) for operand in operands for x in ast.walk(operand)
                      if isinstance(x, ast.Constant) and isinstance(x.value, str) and x.value in REGISTRY_IDS]
    assert found == []
