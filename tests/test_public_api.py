"""Every public name, and every defaulted parameter, is used by the library itself.

A name in `diffinv.__all__` must appear as a `Name` or `Attribute` node in
the syntax tree of some `src/diffinv/*.py` module other than `__init__.py`.
Strings and docstrings do not count, so a name that is only documented or
only exported fails.  Likewise every defaulted parameter of a public
function, or of a public class's classmethod, must be passed by position or
by keyword in some call in those modules: a default no library call
overrides is a setting only tests set.  The same holds for every defaulted
field of a public frozen dataclass (the settings objects); mutable result
classes are outside the rule.
"""

import ast
import dataclasses
import inspect
import math
import re
from collections import defaultdict
from pathlib import Path

import diffinv

PACKAGE = Path(diffinv.__file__).parent


def library_nodes(package: Path = PACKAGE):
    """Every syntax-tree node of the package's modules other than `__init__.py`."""
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def referenced_names(package: Path = PACKAGE) -> set[str]:
    names = set()
    for node in library_nodes(package):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def call_arguments(package: Path = PACKAGE) -> dict[str, list[tuple[float, set]]]:
    """For each called name, the positional count and keyword names of every library call.

    A `*args` call counts as passing every position, and a `**kwargs` call
    shows up as the keyword None.
    """
    calls = defaultdict(list)
    for node in library_nodes(package):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = math.inf if starred else len(node.args)
            calls[name].append((count, {keyword.arg for keyword in node.keywords}))
    return calls


def defaulted_parameters():
    """(public name, function name, position or None, parameter) per defaulted parameter.

    Covers the functions in `diffinv.__all__` and the public classmethods of
    its classes; the position is None for a keyword-only parameter.
    """
    for public in diffinv.__all__:
        obj = getattr(diffinv, public)
        if inspect.isfunction(obj):
            functions = [(public, obj)]
        elif inspect.isclass(obj):
            functions = [
                (f"{public}.{attr}", getattr(obj, attr))
                for attr, raw in vars(obj).items()
                if isinstance(raw, classmethod) and not attr.startswith("_")
            ]
        else:
            continue
        for qualname, function in functions:
            for i, param in enumerate(inspect.signature(function).parameters.values()):
                if param.default is not param.empty:
                    position = i if param.kind is param.POSITIONAL_OR_KEYWORD else None
                    yield qualname, function.__name__, position, param.name


def defaulted_fields():
    """(class name, class name, position, field) per defaulted field of a public frozen dataclass."""
    for public in diffinv.__all__:
        obj = getattr(diffinv, public)
        if dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen:
            for i, param in enumerate(inspect.signature(obj).parameters.values()):
                if param.default is not param.empty:
                    yield public, public, i, param.name


def unpassed(defaulted, calls):
    """The `qualname(param)` of each defaulted item that no library call passes."""
    return [
        f"{qualname}({param})"
        for qualname, name, position, param in defaulted
        if not any(
            param in keywords or None in keywords or (position is not None and count > position)
            for count, keywords in calls[name]
        )
    ]


def test_every_public_name_has_a_library_reference():
    referenced = referenced_names()
    assert [name for name in diffinv.__all__ if name not in referenced] == []


def test_every_defaulted_parameter_is_passed_by_a_library_call():
    assert unpassed(defaulted_parameters(), call_arguments()) == []


def test_every_defaulted_settings_field_is_set_by_a_library_call():
    # ROADMAP item 2(c) makes the tolerance stop the default budget, which
    # gives residual_tol a library setter; that change deletes this exemption.
    exempt = ["FixedPointConfig(residual_tol)"]
    assert unpassed(defaulted_fields(), call_arguments()) == exempt


def test_strings_definitions_and_the_init_module_do_not_count(tmp_path):
    (tmp_path / "__init__.py").write_text("from .module import lonely\n\nlonely()\n")
    (tmp_path / "module.py").write_text(
        '"""lonely is documented here."""\n\n\ndef lonely():\n    return "lonely"\n'
    )
    assert "lonely" not in referenced_names(tmp_path)


def test_calls_count_positions_keywords_and_not_the_init_module(tmp_path):
    (tmp_path / "__init__.py").write_text("f(1, 2, c=3)\n")
    (tmp_path / "module.py").write_text("f(1, b=2)\nobj.f(*args)\ng(**options)\n")
    calls = call_arguments(tmp_path)
    assert calls["f"] == [(1, {"b"}), (math.inf, set())]
    assert calls["g"] == [(0, {None})]


def private_imports(package: Path = PACKAGE) -> list[str]:
    """`module: from .x import _name` for each private name a module imports from a sibling."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_no_module_imports_a_private_helper_of_another():
    assert private_imports() == []


def test_private_imports_are_found(tmp_path):
    (tmp_path / "a.py").write_text("from .b import _hidden, shown\nfrom . import _c\n")
    (tmp_path / "b.py").write_text("from os import _exit\n\n\ndef _hidden():\n    pass\n")
    assert private_imports(tmp_path) == ["a: from .b import _hidden", "a: from . import _c"]


def alpha_bar_subscripts(package: Path = PACKAGE) -> list[str]:
    """`module:line` of each `<expr>.alpha_bar[...]` outside `schedule.py`.

    `NoiseSchedule.levels` owns the timestep rule, so every other module
    reads a step's noise levels through it.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "schedule.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "alpha_bar"
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_the_schedule_subscripts_alpha_bar():
    assert alpha_bar_subscripts() == []


def test_alpha_bar_subscripts_are_found(tmp_path):
    (tmp_path / "schedule.py").write_text("a = s.alpha_bar[t]\n")
    (tmp_path / "step.py").write_text(
        '"""s.alpha_bar[t] in a docstring."""\nab = s.alpha_bar\nx = s.alpha_bar[t]\n'
    )
    assert alpha_bar_subscripts(tmp_path) == ["step:3"]


NUMPY_FILE_FUNCTIONS = re.compile(r"(save|load)\w*|genfromtxt|fromfile")


def touches_a_file(node: ast.AST) -> bool:
    """Whether `node` calls `open` or a NumPy file function, or imports `numpy.lib.format`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "open"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        return func.attr == "tofile" or (
            isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and NUMPY_FILE_FUNCTIONS.fullmatch(func.attr) is not None
        )
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.lib.format") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.lib.format" or (
            node.module == "numpy.lib" and any(alias.name == "format" for alias in node.names)
        )
    return False


def open_calls(package: Path = PACKAGE) -> list[str]:
    """`module:line` of each place outside `fileio.py` that touches a file, in line order.

    That is a call to the builtin `open`, to NumPy's file functions
    (`np.save*`, `np.load*`, `np.savetxt`, `np.loadtxt`, `np.genfromtxt`,
    `np.fromfile`, `.tofile`), or an import of `numpy.lib.format`.
    `fileio` owns every file the library reads or writes, so no other module
    opens one, through NumPy either.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "fileio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = sorted(node.lineno for node in ast.walk(tree) if touches_a_file(node))
        found += [f"{path.stem}:{line}" for line in lines]
    return found


def test_only_fileio_opens_files():
    assert open_calls() == []


def test_open_calls_are_found(tmp_path):
    (tmp_path / "fileio.py").write_text("fh = open(p)\n")
    (tmp_path / "csv.py").write_text(
        '"""open(p) in a docstring."""\nfh = path.open()\n\nwith open(p, "w") as fh:\n    pass\n'
    )
    assert open_calls(tmp_path) == ["csv:4"]


def test_numpy_file_calls_are_found(tmp_path):
    (tmp_path / "fileio.py").write_text("from numpy.lib import format\nnp.save(p, a)\n")
    (tmp_path / "store.py").write_text(
        '"""np.load(p) in a docstring."""\n'
        "import numpy.lib.format as npy\n"
        "from numpy.lib import format, npyio\n"
        "from numpy.lib.format import write_array\n"
        "a = np.loadtxt(p)\n"
        "numpy.savez(p, a)\n"
        "a.tofile(fh)\n"
        "b = np.fromfile(fh, count=3)\n"
        "c = np.genfromtxt(p)\n"
        "np.savetxt(fh, a)\n"
        "from numpy.lib import npyio\n"
        "d = model.load(p) + np.asarray(a).sum() + np.lib.stride_tricks.as_strided(a)\n"
    )
    assert open_calls(tmp_path) == [f"store:{line}" for line in range(2, 11)]
