"""Meta-tests: public-API surface and documentation hygiene."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return out


def test_every_module_imports():
    for name in _walk_modules():
        importlib.import_module(name)


def test_every_module_has_docstring():
    for name in _walk_modules():
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), (
            "module %s lacks a docstring" % name
        )


def test_public_classes_documented():
    undocumented = []
    for name in _walk_modules():
        module = importlib.import_module(name)
        for attr_name, member in vars(module).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isclass(member) and member.__module__ == name:
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append("%s.%s" % (name, attr_name))
    assert undocumented == []


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_no_circular_import_surprises():
    # Importing the leaf-most integration modules from scratch must not
    # require anything to be pre-imported (fresh interpreter simulated
    # by importlib.reload ordering).
    import repro.experiments.registry as registry

    importlib.reload(registry)
    assert registry.all_experiment_ids()


def test_only_sources_reads_index_structures():
    """The seam of ``repro/quel``: candidate sources live in
    ``sources.py``, below the executor, and the three planning and
    execution modules together stay no larger than ``executor.py`` and
    ``planner.py`` were before the sources moved out (1,720 lines)."""
    quel = Path(repro.__file__).parent / "quel"
    index_read = re.compile(
        r"text_index_for|any_index_for|matching_chunks|overlap_counts"
        r"|size_cells|\.probe\(|\.fetch\("
    )
    text = {path.name: path.read_text() for path in quel.glob("*.py")}
    readers = sorted(name for name in text if index_read.search(text[name]))
    assert readers == ["sources.py"]
    assert not re.search(
        r"^\s*(from|import)\s.*\bexecutor\b", text["sources.py"], re.MULTILINE
    )
    lines = {name: source.count("\n") for name, source in text.items()}
    assert lines["executor.py"] < 900
    assert sum(
        lines[name] for name in ("executor.py", "sources.py", "planner.py")
    ) <= 1720


def test_only_the_shared_harnesses_drive_programs_and_crashes():
    """The seam of the correctness harness: op programs are generated,
    shrunk and replayed by ``tests/props/program.py``, crash schedules
    probed and aimed by ``tests/crash/oracle.py``.  No other test module
    defines a shrinker, a ``REPLAY_OPS``, a probe or every-barrier
    driver, or hands ``FaultPlan`` a crash point it computed."""
    tests = Path(__file__).parent
    shared = {tests / "props" / "program.py", tests / "crash" / "oracle.py"}
    found = []
    for path in sorted(tests.rglob("*.py")):
        if path in shared:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and re.search(
                r"^_?shrink|^(probe|count_syncpoints|every_barrier)$", node.name
            ):
                found.append((path.name, node.name))
            elif isinstance(node, ast.Name) and node.id == "REPLAY_OPS":
                found.append((path.name, node.id))
            elif (
                isinstance(node, ast.keyword)
                and node.arg in ("crash_at_sync", "crash_at_write")
                and not isinstance(node.value, ast.Constant)
            ):
                found.append((path.name, node.arg))
    assert found == []
