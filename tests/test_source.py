"""Properties of the package source rather than of its results."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import abfib

SRC = Path(abfib.__file__).parent


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; engine invariants must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_imports_only_stdlib_numpy_and_abfib():
    # numpy is the only runtime dependency declared in pyproject.toml
    allowed = set(sys.stdlib_module_names) | {"numpy", "abfib"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert found == []


def test_no_process_wide_memo_caches_in_src():
    # a module-level cache outlives the command that filled it; memo tables
    # belong to one object (e.g. `FiniteGroup.linear_parts`) instead
    banned = {"lru_cache", "cache"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in banned]
    assert found == []


def test_exact_commands_never_import_numpy():
    script = (
        "import sys\n"
        "from abfib.cli import main\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "for argv in (['classify', 'all'], ['torus', 'd8'], ['jacfib']):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
