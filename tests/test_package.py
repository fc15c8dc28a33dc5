"""The runtime is pure stdlib: each module of the package imports only the
standard library and the package itself."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "logbase_ir"


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    outside = {}
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in {*sys.stdlib_module_names, "logbase_ir"}:
                    outside.setdefault(source.name, []).append(name)
    assert outside == {}
