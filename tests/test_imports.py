"""No dead imports: every name a module imports is read somewhere in it.
And no module state is rebound: no ``global`` statement under ``src/``.
And no result hangs on the host's byte order: nothing under ``src/``
reads ``sys.byteorder``, and every ``from_bytes``/``to_bytes`` call in
the pure kernel names its byte order.

Scans every module under ``src/``, ``tests/`` and ``tools/`` for imports.
A name listed in the module's ``__all__`` counts as read, since
re-exporting it is its use. ``from __future__`` imports are directives,
not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """``"name (line n)"`` for each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def global_statements(source: str) -> list[str]:
    """``"names (line n)"`` for each ``global`` statement in ``source``."""
    return [f"{', '.join(node.names)} (line {node.lineno})"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


def byteorder_reads(source: str) -> list[str]:
    """``"line n"`` for each read of ``sys.byteorder`` in ``source``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "byteorder"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
            or isinstance(node, ast.ImportFrom) and node.module == "sys"
            and any(alias.name == "byteorder" for alias in node.names)]


def defaulted_byte_orders(source: str) -> list[str]:
    """``"name (line n)"`` for each ``from_bytes``/``to_bytes`` call in ``source``
    that leaves out its byte order."""
    return [f"{node.func.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("from_bytes", "to_bytes") and len(node.args) < 2
            and all(keyword.arg != "byteorder" for keyword in node.keywords)]


def test_the_scan_finds_a_dead_import():
    source = "import os, os.path as p\nfrom a import b as c, d\n__all__ = ['d']\nprint(p)\n"
    assert unused_imports(source) == ["c (line 2)", "os (line 1)"]


def test_every_imported_name_is_used():
    assert Path(__file__).resolve() in MODULES
    dead = {}
    for path in MODULES:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            dead[str(path.relative_to(ROOT))] = names
    assert dead == {}


def test_the_scan_finds_a_global_statement():
    source = "x = None\ndef f():\n    def g():\n        global x, y\n        x = 1\n"
    assert global_statements(source) == ["x, y (line 4)"]


def test_no_module_under_src_rebinds_module_state():
    rebinds = {}
    for path in MODULES:
        if path.is_relative_to(ROOT / "src"):
            found = global_statements(path.read_text(encoding="utf-8"))
            if found:
                rebinds[str(path.relative_to(ROOT))] = found
    assert rebinds == {}


def test_the_scans_find_a_byte_order_left_to_the_host():
    source = ("import sys\nfrom sys import byteorder\nnative = sys.byteorder\n"
              "int.from_bytes(b'ab')\nint.from_bytes(b'ab', 'big')\n"
              "(5).to_bytes(2, byteorder='little')\nx.to_bytes(2)\n")
    assert byteorder_reads(source) == ["line 2", "line 3"]
    assert defaulted_byte_orders(source) == ["from_bytes (line 4)", "to_bytes (line 7)"]


def test_no_result_hangs_on_the_host_byte_order():
    reads = {}
    for path in MODULES:
        if path.is_relative_to(ROOT / "src"):
            found = byteorder_reads(path.read_text(encoding="utf-8"))
            if found:
                reads[str(path.relative_to(ROOT))] = found
    assert reads == {}
    kernel = ROOT / "src" / "hllrt" / "_kernel" / "_pykernel.py"
    assert defaulted_byte_orders(kernel.read_text(encoding="utf-8")) == []
