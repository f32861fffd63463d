"""Every name the package exports is used by the package.

A name imported in ``crawlcount/__init__.py`` has to be referred to in
some other module of the package (a name, an attribute or an import; its
own ``def`` or ``class`` does not count).  Anything else is API that only
tests reach, and goes.  A mention in the README does not exempt a name.

The package's own imports are relative or name a standard-library module.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ``neighbors`` is the metered oracle itself: every bulk charge in the
# package stands for calls to it, so it is the API even though no module
# calls it one vertex at a time.
EXEMPT = {"neighbors"}


def unused_exports(package: Path) -> set[str]:
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used: set[str] = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return exports - used


def test_every_export_is_used_or_documented():
    unused = unused_exports(ROOT / "src" / "crawlcount") - EXEMPT
    assert not unused, f"exported, but not used by the package: {sorted(unused)}"


def test_rule_flags_a_name_only_its_def_mentions(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import called, caller, lonely\n")
    (tmp_path / "mod.py").write_text(
        "def called():\n    return 1\n\n"
        "def caller():\n    return called()\n\n"
        "class lonely:\n    pass\n"
    )
    (tmp_path / "other.py").write_text("from .mod import caller\n")
    assert unused_exports(tmp_path) == {"lonely"}


def non_stdlib_imports(package: Path) -> set[str]:
    """Top-level modules imported under ``package`` that are neither relative nor stdlib."""
    found: set[str] = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names


def test_runtime_imports_only_the_standard_library():
    extra = non_stdlib_imports(ROOT / "src" / "crawlcount")
    assert not extra, f"imported, but not in the standard library: {sorted(extra)}"


def test_rule_flags_a_third_party_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import f\nfrom collections import Counter\n")
    (tmp_path / "mod.py").write_text("import numpy as np\nimport os.path\n\ndef f():\n    return np\n")
    assert non_stdlib_imports(tmp_path) == {"numpy"}
