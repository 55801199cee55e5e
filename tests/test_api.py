"""The names other code looks up at run time must keep resolving.

``bench/tracing.py`` wraps the functions in its ``TARGETS`` by name and
reads the ``trials`` argument of the ``montecarlo`` ones, so a rename there
would break the traced benchmark rather than any import. The package's
runtime dependencies are exactly the third-party modules it imports. The
package root holds its submodules, ``RNG_LAYOUT`` and ``__version__`` only,
and the installed command exits through ``cli.entry``. A ``bounds`` op
leaves the lazily loaded ``minimax`` and ``montecarlo`` unloaded, and a
dataclass is kept only where construction validates or caches. No module reaches
into another's underscored names beyond three of ``model``'s (the score,
the symmetrizer and the array freezer); the simulation kernel stays inside
``model``. A helper that several test modules share has one definition, in
``tests/oracles.py``.
With no linter installed, a check here keeps the source and test files to
one final newline and two blank lines above each top-level definition.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ltibounds
import ltibounds.cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    # read-only: no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ltibounds_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in ltibounds.__all__ if not hasattr(ltibounds, name)] == []


SUBMODULES = ["bounds", "linalg", "minimax", "model", "montecarlo", "rng"]


def test_the_root_holds_only_its_submodules_and_versions():
    # every function is imported from its defining module
    assert sorted(ltibounds.__all__) == sorted(["RNG_LAYOUT", "__version__", *SUBMODULES])
    # a fresh process, so no other test's import has bound a submodule yet
    script = "import ltibounds; print(sorted(n for n in vars(ltibounds) if not n.startswith('_')))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        check=True,
    )
    assert proc.stdout.strip() == repr(sorted(["RNG_LAYOUT", *SUBMODULES]))


def test_a_bounds_op_leaves_the_monte_carlo_modules_unloaded():
    # a fresh process: the lazy modules stay unloaded until an op reads them
    script = (
        "import sys, types\n"
        "import ltibounds.cli\n"
        "lazy = ['ltibounds.minimax', 'ltibounds.montecarlo']\n"
        "seen = []\n"
        "for cmd, config in (('bounds', sys.argv[1]), ('verify', sys.argv[2])):\n"
        "    code = ltibounds.cli.main([cmd, '--config', config, '--out', sys.argv[3]])\n"
        "    assert code == 0, code\n"
        "    seen.append([type(sys.modules[name]) is types.ModuleType for name in lazy])\n"
        "print(seen)\n"
    )
    golden = ROOT / "tests" / "golden"
    configs = [str(golden / f"{name}.json") for name in ("bounds_stable_n256", "verify_d3_n64_t50")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *configs, os.devnull],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        check=True,
    )
    # loaded after verify only
    assert proc.stdout.strip() == "[[False, False], [True, True]]"


def test_every_dataclass_validates_or_caches():
    # a record that only holds values is a NamedTuple: defining a frozen
    # dataclass costs each process about 0.8 ms, a NamedTuple about 0.2 ms
    plain = []
    for path in sorted((ROOT / "src" / "ltibounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                continue
            methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
            if not any(
                n.name == "__post_init__" or "cached_property" in map(ast.unparse, n.decorator_list)
                for n in methods
            ):
                plain.append(f"{path.stem}.{node.name}")
    assert plain == []


def test_the_installed_command_ends_through_the_entry_function():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module_name, name = scripts["ltibounds"].split(":")
    assert getattr(importlib.import_module(module_name), name) is ltibounds.cli.entry


def test_every_traced_target_exists(monkeypatch):
    targets = _load_tracing(monkeypatch).TARGETS
    assert ("montecarlo", "empirical_risk") in targets
    for module_name, name in targets:
        fn = getattr(importlib.import_module(f"ltibounds.{module_name}"), name)
        assert callable(fn), (module_name, name)
        if module_name == "montecarlo":
            assert "trials" in inspect.signature(fn).parameters, name


def test_runtime_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "ltibounds").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - set(sys.stdlib_module_names) - {"ltibounds"}) == sorted(declared)


# the only underscored names of one ltibounds module that another may import:
# model's score and symmetrizer, which the statistics read, and the array
# freezer; the recursion, Gram sums and least squares run only inside model
SHARED_PRIVATE = {("model", name) for name in ("_data_score", "_sym", "_frozen")}


def test_no_module_imports_another_modules_underscored_name():
    reached = []
    for path in sorted((ROOT / "src" / "ltibounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("ltibounds"):
                continue
            module = (node.module or "").removeprefix("ltibounds.")
            for alias in node.names:
                if alias.name.startswith("_") and (module, alias.name) not in SHARED_PRIVATE:
                    reached.append(f"{path.stem} <- {module}.{alias.name}")
    assert reached == []


def test_no_two_test_modules_define_the_same_helper():
    owners: dict[str, list[str]] = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("test_"):
                owners.setdefault(node.name, []).append(path.stem)
    assert {name: stems for name, stems in owners.items() if len(stems) > 1} == {}


def _blank_lines_above(lines: list[str], lineno: int) -> int:
    """Blank lines above 1-based ``lineno``, past the comment lines right above it."""
    i = lineno - 2
    while i >= 0 and lines[i].lstrip().startswith("#"):
        i -= 1
    blanks = 0
    while i >= 0 and not lines[i].strip():
        blanks, i = blanks + 1, i - 1
    return blanks


def test_each_source_file_ends_in_one_newline_and_spaces_its_definitions_by_two_lines():
    stray = []
    for path in sorted([*(ROOT / "src" / "ltibounds").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        text = path.read_text()
        name = path.relative_to(ROOT)
        if not text.endswith("\n") or text.endswith("\n\n"):
            stray.append(f"{name}: does not end in exactly one newline")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                if _blank_lines_above(lines, first) != 2:
                    stray.append(f"{name}:{first}: not two blank lines above {node.name}")
    assert stray == []
