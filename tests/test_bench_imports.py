"""Every library name the benchmark imports resolves, so a change that
deletes or renames one fails here and not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def library_imports():
    """(file, module, name) for each import from the library in bench/*.py;
    name is None for a plain ``import multifaced...``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multifaced":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multifaced":
                        yield path.name, alias.name, None


def test_bench_library_imports_resolve():
    imports = list(library_imports())
    assert any(module == "multifaced" for _, module, _ in imports)
    assert any(module == "multifaced.verify" for _, module, _ in imports)
    missing = [
        (filename, module, name)
        for filename, module, name in imports
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
