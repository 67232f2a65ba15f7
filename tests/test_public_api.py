"""Every public name is referenced by the library itself, not only by tests.

A name in `diffinv.__all__` must appear as a `Name` or `Attribute` node in
the syntax tree of some `src/diffinv/*.py` module other than `__init__.py`.
Strings and docstrings do not count, so a name that is only documented or
only exported fails.
"""

import ast
from pathlib import Path

import diffinv

PACKAGE = Path(diffinv.__file__).parent


def referenced_names(package: Path = PACKAGE) -> set[str]:
    names = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_library_reference():
    referenced = referenced_names()
    assert [name for name in diffinv.__all__ if name not in referenced] == []


def test_strings_definitions_and_the_init_module_do_not_count(tmp_path):
    (tmp_path / "__init__.py").write_text("from .module import lonely\n\nlonely()\n")
    (tmp_path / "module.py").write_text(
        '"""lonely is documented here."""\n\n\ndef lonely():\n    return "lonely"\n'
    )
    assert "lonely" not in referenced_names(tmp_path)
