"""Every name the package exports is used by the package or documented.

A name imported in ``crawlcount/__init__.py`` has to be referred to in
some other module of the package (a name, an attribute or an import; its
own ``def`` or ``class`` does not count) or be named in backticks in the
README.  Anything else is API that only tests reach, and goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_exports(package: Path, readme: str) -> set[str]:
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
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", readme))
    return exports - used - documented


def test_every_export_is_used_or_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = unused_exports(ROOT / "src" / "crawlcount", readme)
    assert not unused, f"exported, but neither used by the package nor in README: {sorted(unused)}"


def test_rule_flags_a_name_only_its_def_mentions(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import called, documented, lonely\n")
    (tmp_path / "mod.py").write_text(
        "def called():\n    return 1\n\n"
        "def documented():\n    return called()\n\n"
        "class lonely:\n    pass\n"
    )
    assert unused_exports(tmp_path, "Use `documented` for this.") == {"lonely"}
    assert unused_exports(tmp_path, "") == {"documented", "lonely"}
