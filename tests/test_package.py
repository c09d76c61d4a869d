"""Checks on the package source and its documentation."""

import ast
import importlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

import gradflow1d
from gradflow1d import cli

SRC = Path(gradflow1d.__file__).parent
TESTS = Path(__file__).parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))
README = Path(__file__).parents[1] / "README.md"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Names bound by the module's imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize(
    "path", [*(SRC / m for m in MODULES), *(TESTS / m for m in TEST_MODULES)],
    ids=[*MODULES, *(f"tests/{m}" for m in TEST_MODULES)])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_export_has_a_caller_in_the_package():
    # each name the package exports is read somewhere in its modules besides
    # its definition and its export, so no test-only API is exported
    exported = {alias.asname or alias.name
                for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert exported
    assert sorted(exported - read) == []


def test_every_defaulted_parameter_is_set_by_a_caller_in_the_package():
    # an option that no run sets is code that no run uses: each defaulted
    # parameter of a package function is passed, by keyword or by position,
    # at some call of that name in the package.  Calls are matched to
    # definitions by name only (f(...) or obj.f(...)), so where two
    # functions share a name, a call of one counts for the other too (such
    # as _Objective.value(x, dx) for a dx of MobilityMapEnergy.value).  The
    # console script calls main() without argv.
    trees = {m: ast.parse((SRC / m).read_text()) for m in MODULES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)

    def sets(call, index, name):
        # a *args or **kwargs at the call may set any parameter
        return (any(k.arg in (name, None) for k in call.keywords)
                or len(call.args) > index
                or any(isinstance(a, ast.Starred) for a in call.args))

    unset = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = int(bool(positional)
                        and positional[0].arg in ("self", "cls"))
            options = [(i - bound, a.arg) for i, a in enumerate(positional)
                       if i >= len(positional) - len(args.defaults)]
            options += [(math.inf, a.arg) for a, default
                        in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
            unset += [f"{module[:-3]}.{fn.name}({name})"
                      for index, name in options
                      if not any(sets(c, index, name)
                                 for c in calls.get(fn.name, []))]
    assert sorted(set(unset) - {"cli.main(argv)"}) == []


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})


def test_third_party_imports_are_declared_dependencies():
    # pyproject.toml is read with a regex: Python 3.10 has no tomllib
    block = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(),
                      re.M | re.S).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block))
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert third_party >= {"numpy", "scipy", "orjson"}
    assert sorted(third_party - declared) == []


def test_readme_package_layout_names_real_objects():
    # every backticked Python identifier in "Package layout" is a module of
    # the package or an attribute of the package or of one of its modules
    text = README.read_text()
    section = re.search(r"^## Package layout\n(.*?)^## ", text, re.M | re.S)
    names = [span for span in re.findall(r"`([^`]+)`", section.group(1))
             if span.isidentifier()]
    modules = [gradflow1d] + [importlib.import_module(f"gradflow1d.{m[:-3]}")
                              for m in MODULES]
    assert names
    assert [n for n in names
            if not any(hasattr(mod, n) for mod in modules)] == []


def test_readme_config_table_lists_the_keys_the_loader_accepts(tmp_path):
    table = re.search(r"^### Config schema.*?\n\n(\|.*?)\n\n",
                      README.read_text(), re.M | re.S).group(1)
    documented = {key for row in table.splitlines()[2:]
                  for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert documented == set(cli.DEFAULTS)
    # each of them may be set in a file, and no other key
    for key in [*documented, "undocumented"]:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: cli.DEFAULTS.get(key, 0),
                                    "m": 32, "k": 32}))
        if key in documented:
            cli.load_config(path)
        else:
            with pytest.raises(gradflow1d.ConfigurationError,
                               match="unknown config key"):
                cli.load_config(path)


def test_readme_certificates_are_the_cli_checks():
    # the "Certificates:" list names exactly the checks the CLI runs, and
    # every `--check NAME` of the shell examples is one of them
    text = README.read_text()
    listed = re.search(r"^Certificates: (.*?)\.\n", text, re.M | re.S)
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(cli.ALL_CHECKS)
    blocks = re.findall(r"^```sh\n(.*?)```", text, re.M | re.S)
    named = re.findall(r"--check (\S+)", "".join(blocks))
    assert named
    assert sorted(set(named) - set(cli.ALL_CHECKS)) == []
