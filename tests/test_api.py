"""Every name the package exports is used by the package.

A name imported in ``crawlcount/__init__.py`` has to be referred to in
some other module of the package (a name, an attribute or an import; its
own ``def`` or ``class`` does not count).  Anything else is API that only
tests reach, and goes.  A mention in the README does not exempt a name.
"""

import ast
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
