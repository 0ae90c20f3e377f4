"""Properties of the package source rather than of its results."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import abfib

SRC = Path(abfib.__file__).parent


def _assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; engine invariants must raise
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _assert_lines(path.read_text())
    ]
    assert found == []
    # the walk reaches asserts nested in functions, classes and branches
    nested = "class C:\n    def f(self, x):\n        if x:\n            assert x > 0, x\n"
    assert _assert_lines(nested) == [4]


def _is_object(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "object") or (
        isinstance(node, ast.Constant) and node.value in ("O", "object")
    )


def _second_arithmetic_path(source: str, fractions_allowed: bool) -> list[int]:
    """Lines that build a numpy object array (dtype=object, .astype(object),
    np.dtype(object)) or, unless allowed, import fractions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword):
            hit = node.arg == "dtype" and _is_object(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in ("astype", "dtype") and any(map(_is_object, node.args))
        elif isinstance(node, ast.Import):
            hit = not fractions_allowed and any(a.name == "fractions" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = not fractions_allowed and node.module == "fractions"
        else:
            continue
        if hit:
            found.append(node.value.lineno if isinstance(node, ast.keyword) else node.lineno)
    return sorted(found)


def test_one_int64_arithmetic_path():
    # F_p forms are int64 matrices only: no src/ module builds a numpy
    # object array, and weierstrass imports no Fraction to fall back on
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _second_arithmetic_path(path.read_text(), path.stem != "weierstrass")
    ]
    assert found == []
    sample = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "a = np.zeros(3, dtype=object)\n"
        "b = a.astype(object)\n"
        "c = np.array([], dtype='O')\n"
        "d = np.dtype(object)\n"
        "e = np.zeros(3, dtype=np.int64)\n"
    )
    assert _second_arithmetic_path(sample, False) == [1, 2, 3, 4, 5, 6]
    assert _second_arithmetic_path(sample, True) == [3, 4, 5, 6]


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
    # a module-level cache outlives the command that filled it; what is
    # computed once belongs to one object (e.g. `FiniteGroup.parts`) instead
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


# Top-level `src/` names and class members (module.Class.name) that may go
# unread inside `src/`, each with its reader outside it.  perfbench calls or
# rebinds a name by its module attribute, so a rename there breaks the
# benchmark, not tier-1; test_externally_read_names_exist catches it.
EXTERNAL_READERS = {
    "__init__.__version__": "package metadata, for importers of abfib",
    "cli.main": "the console script (pyproject.toml); perfbench worker.py and selfcheck.py call it, tracing.py rebinds it",
    "report.build_classify": "perfbench tracing.py rebinds it; record_golden.py calls it",
    "report.build_torus": "perfbench tracing.py rebinds it",
    "report.build_weierstrass": "perfbench tracing.py rebinds it",
    "report.build_jacfib": "perfbench tracing.py rebinds it; record_golden.py calls it",
    "report.build_properties": "perfbench tracing.py rebinds it",
    "report.build_report_all": "perfbench tracing.py rebinds it",
    "report.render_json": "perfbench tracing.py rebinds it",
    "report.render_text": "perfbench tracing.py rebinds it; worker.py calls it",
    "weierstrass.smoothness_trials": "perfbench tracing.py rebinds it; record_golden.py calls it",
    "weierstrass.transversality_trials": "perfbench record_golden.py calls it",
    "weierstrass.random_family": "perfbench tracing.py rebinds it; checks.py calls it",
    "weierstrass.discriminant": "perfbench tracing.py rebinds it",
    "weierstrass.is_smooth_curve": "perfbench tracing.py rebinds it",
    "weierstrass.transversal_intersection": "perfbench tracing.py rebinds it",
    "scenario.resolve_scenario": "perfbench tracing.py rebinds it",
    "scenario.load_scenario": "perfbench tracing.py rebinds it",
    "scenario.run_scenario": "perfbench tracing.py rebinds it",
    "scenario.generate_group": "perfbench tracing.py rebinds it (imported from torusquot)",
    "scenario.action_free": "perfbench tracing.py rebinds it (imported from torusquot)",
    "scenario.invariant_form_dims": "perfbench tracing.py rebinds it (imported from torusquot)",
    "scenario.quotient_hodge": "perfbench tracing.py rebinds it (imported from torusquot)",
    "scenario.delegated_elements": "perfbench tracing.py rebinds it (imported from torusquot)",
    "torusquot.smith_normal_form": "perfbench tracing.py rebinds it",
    "torusquot.FiniteGroup": "perfbench tracing.py rebinds its element_orders and is_abelian",
    "weierstrass.ScanResult.points": "perfbench tracing.py reads it to count the scanned points",
    "classifier.classify": "perfbench tracing.py rebinds it",
    "classifier.admissible_class_ids": "perfbench tracing.py rebinds it",
    "classifier.split_candidates": "perfbench tracing.py rebinds it",
    "jacfib.classify_jacobian_fibrations": "perfbench tracing.py rebinds it",
    "jacfib.admissible_cases": "perfbench tracing.py rebinds it",
}


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [
        node.id
        for target in targets
        if target is not None
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    ]


def _read_names(stmt: ast.stmt) -> set[str]:
    # a load of the name, an attribute of that name, or an import of it
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_top_level_name_is_read_in_src():
    # code that only tests read belongs in tests/oracles.py
    statements = [
        (path.stem, stmt, _defined_names(stmt), _read_names(stmt))
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    unread = [
        f"{module}.{name}"
        for module, stmt, defined, _ in statements
        for name in defined
        if not any(name in read for _, other, _, read in statements if other is not stmt)
    ]
    assert sorted(set(unread) - set(EXTERNAL_READERS)) == []


def _unconstructed_classes(modules) -> list[str]:
    """module.Class for each top-level class that no call in any of the
    (module, tree) pairs constructs, as Class(...), mod.Class(...) or
    object.__new__(Class)."""
    made = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "__new__" and node.args:
                func = node.args[0]
            made.add(getattr(func, "id", getattr(func, "attr", None)))
    return sorted(
        f"{module}.{cls.name}"
        for module, tree in modules
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name not in made
    )


def test_every_src_class_is_constructed_in_src():
    # a class that src/ only isinstance-checks is test-only, although the
    # top-level guard counts the isinstance read as a use
    modules = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    assert _unconstructed_classes(modules) == []
    sample = (
        "class Made: pass\n"
        "class Qualified: pass\n"
        "class Fresh: pass\n"
        "class Raised(ValueError): pass\n"
        "class OnlyChecked: pass\n"
        "def f(x):\n"
        "    if isinstance(x, OnlyChecked):\n"
        "        raise Raised('bad')\n"
        "    return Made(), m.Qualified(), object.__new__(Fresh)\n"
    )
    assert _unconstructed_classes([("m", ast.parse(sample))]) == ["m.OnlyChecked"]


def test_externally_read_names_exist():
    # a member may be a dataclass field without a default, which the class
    # itself does not carry: it is found among the annotations
    missing = []
    for key in EXTERNAL_READERS:
        module, *path, name = key.split(".")
        owner = importlib.import_module("abfib" if module == "__init__" else f"abfib.{module}")
        for attr in path:
            owner = getattr(owner, attr)
        if not (hasattr(owner, name) or name in getattr(owner, "__annotations__", {})):
            missing.append(key)
    assert missing == []


def _class_members(tree: ast.Module) -> list[str]:
    """Class.name for the public methods and properties of each top-level
    class, its class-level annotated fields (dataclass and NamedTuple
    fields) and the self.<name> attributes its __init__ sets.  Exceptions
    (a base named *Error or *Exception) are skipped."""
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or any(
            getattr(base, "id", getattr(base, "attr", "")).endswith(("Error", "Exception"))
            for base in cls.bases
        ):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.append(f"{cls.name}.{node.target.id}")
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("_"):
                found.append(f"{cls.name}.{node.name}")
            elif node.name == "__init__":
                found += [
                    f"{cls.name}.{target.attr}"
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ]
    return found


def _unread_members(modules) -> list[str]:
    """module.Class.name for each member of `_class_members` whose name no
    attribute load in any of the (module, tree) pairs reads."""
    read = {
        node.attr
        for _, tree in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(
        f"{module}.{member}"
        for module, tree in modules
        for member in _class_members(tree)
        if member.split(".")[1] not in read
    )


def test_every_class_member_is_read_in_src():
    # a method, property, field or instance attribute that only tests read
    # belongs in tests/oracles.py or nowhere; matched by attribute name like
    # the top-level guard
    modules = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    assert sorted(set(_unread_members(modules)) - set(EXTERNAL_READERS)) == []
    sample = (
        "@dataclass(frozen=True)\n"
        "class Cert:\n"
        "    free: bool\n"
        "    unread: int = 0\n"
        "    LIMIT = 3\n"
        "class G:\n"
        "    def __init__(self, x):\n"
        "        self.x = self.y = x\n"
        "    @property\n"
        "    def order(self):\n"
        "        return self.x\n"
        "    def only_tests(self):\n"
        "        return 1\n"
        "class E(ValueError):\n"
        "    def __init__(self, h):\n"
        "        self.h = h\n"
        "def size(g, c):\n"
        "    return g.order if c.free else 0\n"
    )
    assert _unread_members([("m", ast.parse(sample))]) == ["m.Cert.unread", "m.G.only_tests", "m.G.y"]


def _record_builders(tree: ast.Module) -> list[str]:
    """Name of the top-level function (or `<module>`) around each call of
    Record(...) or mod.Record(...), one entry per call."""
    found = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [
            owner
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Record"
        ]
    return found


def test_report_statuses_come_from_three_helpers():
    # a record's status is decided by _derived (from whether a recomputation
    # matched), _documented, or the one DISCREPANCY builder; no other builder
    # writes a status
    tree = ast.parse((SRC / "report.py").read_text())
    allowed = {"_derived", "_documented", "discrepancy_record"}
    assert sorted(set(_record_builders(tree)) - allowed) == []
    sample = (
        "def _derived(c, ok):\n"
        "    return Record(c, PASS if ok else FAIL)\n"
        "def build(c):\n"
        "    return [_derived(c, True), Record(c, PASS), report.Record(c, FAIL)]\n"
        "EXTRA = Record('x', PASS)\n"
    )
    assert _record_builders(ast.parse(sample)) == ["_derived", "build", "build", "<module>"]


# The commands the reachability guard runs in one process, with their exit
# codes: every subcommand, `report all` in both formats, every bundled
# scenario, the hand-written scenarios below and the exit-2 paths.
HAND_WRITTEN_SCENARIOS = {
    "neg.scn": "version 1\nname neg\nfactor torus e1\ngenerator -z1\n",
    "ecy.scn": "version 1\nname ecy\nfactor torus e1\nfactor cy3 -1\ngenerator -z1+1/2, -\n",
    "ek3.scn": "version 1\nname ek3\nfactor torus e1\nfactor k3 -1\ngenerator z1+1/2, -\n",
    "canon.scn": (
        "version 1\nname canon\nfactor torus e1\nfactor torus e2\nfactor torus e3\n"
        "factor torus e4\ngenerator z1+1/2, z2, z3, -z4\nexpect hodge 1,0,0,0,1\n"
    ),
    "broken.scn": "version 1\nname broken\nfactor torus e1\ngenerator z2\n",
}
REACH_COMMANDS = [
    ("classify all", 0),
    ("classify SU2xSU2 --format json", 0),
    *((f"torus {path.stem}", 0) for path in sorted((SRC / "scenarios").glob("*.scn"))),
    ("torus neg.scn", 1),
    ("torus ecy.scn", 0),
    ("torus ek3.scn --format json", 0),
    ("torus canon.scn", 1),
    ("weierstrass --l 1 --p 101 --trials 5", 0),
    ("weierstrass --l 2 --p 5 --trials 6 --fibre-product --l2 1 --format json", 0),
    ("jacfib", 0),
    ("report all", 0),
    ("report all --format json", 0),
    # exit 2: a usage error, a bad scenario, a missing file, inputs past a budget
    ("nope", 2),
    ("torus broken.scn", 2),
    ("torus missing.scn", 2),
    ("classify all --window 5 1", 2),
    ("weierstrass --trials 0", 2),
    ("weierstrass --l 9 --trials 1", 2),
    ("weierstrass --p 4 --trials 1", 2),
]

# Functions and methods in `src/` that no command above runs, each with why
# it stays; names perfbench reads take their reason from EXTERNAL_READERS.
ZERO_ON_THE_PLANE = "only a discriminant that vanishes on every F_p-point reaches it"
PLAIN_CURVE = "the tests' plain-curve reference"
PLAIN_SCANS_ONLY = "runs only under is_smooth_curve and transversal_intersection"
VALUE_SEMANTICS = "value semantics that the tests compare forms by"
UNREACHED = {
    "weierstrass.poly_mul": ZERO_ON_THE_PLANE,
    "weierstrass.discriminant": ZERO_ON_THE_PLANE,
    "weierstrass.HomogPoly.is_zero": ZERO_ON_THE_PLANE,
    **{
        name: f"{EXTERNAL_READERS[name]}; {PLAIN_CURVE}"
        for name in ("weierstrass.is_smooth_curve", "weierstrass.transversal_intersection")
    },
    "weierstrass._curve": PLAIN_SCANS_ONLY,
    "weierstrass._check_scan_args": PLAIN_SCANS_ONLY,
    "weierstrass.HomogPoly.terms": "perfbench checks.py and tracing.py read it",
    "weierstrass.HomogPoly.__setattr__": "runs only on a mutation attempt",
    "weierstrass.HomogPoly.__eq__": VALUE_SEMANTICS,
    "weierstrass.HomogPoly.__hash__": VALUE_SEMANTICS,
    "weierstrass.HomogPoly.__repr__": VALUE_SEMANTICS,
}

# runs each command through cli.main with sys.settrace on, recording the
# qualified name of every code object in `src/` that is called
TRACE_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
src, commands = sys.argv[1], json.loads(sys.argv[2])
ran = set()

def called(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        ran.add(Path(code.co_filename).stem + "." + code.co_qualname)

sys.settrace(called)
from abfib.cli import main
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv.split()))
        except SystemExit as e:
            codes.append(e.code)
sys.settrace(None)
print(json.dumps([codes, sorted(ran)]))
"""


def _function_names(tree: ast.AST, prefix: str = "") -> list[str]:
    """The __qualname__ of every def in tree, nested ones included."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(prefix + node.name)
            found += _function_names(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            found += _function_names(node, f"{prefix}{node.name}.")
        else:
            found += _function_names(node, prefix)
    return found


def test_every_src_function_runs_under_some_command(tmp_path):
    # code that no command runs is kept only for tests, unless UNREACHED
    # names it with a reason
    for name, text in HAND_WRITTEN_SCENARIOS.items():
        (tmp_path / name).write_text(text)
    commands = [argv for argv, _ in REACH_COMMANDS]
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {k: v for k, v in os.environ.items() if k != "ABFIB_SEED"} | {"PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, f"{SRC}{os.sep}", json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, ran = json.loads(proc.stdout)
    assert dict(zip(commands, codes)) == dict(REACH_COMMANDS)
    defined = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _function_names(ast.parse(path.read_text()))
    }
    assert sorted(defined - set(ran)) == sorted(UNREACHED)
    sample = (
        "def f():\n"
        "    def g():\n"
        "        pass\n"
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        return [lambda: 0]\n"
        "    if True:\n"
        "        async def h(self):\n"
        "            pass\n"
    )
    assert _function_names(ast.parse(sample)) == ["f", "f.<locals>.g", "C.p", "C.h"]
