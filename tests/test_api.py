"""Every public name, private helper, constant and dataclass field of vlab has a reader.

A public module-level function or class of ``src/vlab``, and every name
``vlab/__init__.py`` exports, must be loaded (read as a name or an
attribute) somewhere in ``src/vlab`` or ``bench/`` outside its own
definition, and so must every private module-level function or class and
every UPPER_CASE module constant of ``src/vlab``.  Every field of a
dataclass defined in ``src/vlab`` must be read as an attribute
(``x.field``) somewhere in ``src/vlab`` or ``bench/``.  Tests do not
count as callers, so an API, a helper or a result field kept only for the
tests fails here.  The exceptions are reference implementations that
tests compare the fast paths against.  No module of ``src/vlab`` reads
the environment: a run is set by its flags and config file alone.
Outside ``__init__.py``, a relative import takes a public name from the
module that defines it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vlab"

# Reference implementations with no caller outside the tests, on purpose.
REFERENCES = {"conditional_average", "partial_sum", "vilenkin_char"}


def _trees(*dirs):
    paths = [path for d in dirs for path in sorted(d.glob("*.py"))]
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _public_names(trees):
    """{name: defining file} of public module-level functions and classes, plus the exports."""
    names = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and not node.name.startswith("_"):
                names[node.name] = path
    init = trees[PACKAGE / "__init__.py"]
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, init)
    return names


def _loads(tree):
    """Names and attributes read in one file, skipping reads of a definition's own name in its body."""
    loaded = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                name = sub.attr
            else:
                continue
            if name != own:
                loaded.add(name)
    return loaded


def _loaded_names(trees):
    """Names and attributes read anywhere, skipping reads of a definition's own name in its body."""
    return set().union(*map(_loads, trees.values()))


def test_every_public_name_has_a_caller():
    trees = _trees(PACKAGE, ROOT / "bench")
    public = _public_names({p: t for p, t in trees.items() if p.parent == PACKAGE})
    loaded = _loaded_names(trees)
    unused = sorted(
        f"{path.name}: {name}"
        for name, path in public.items()
        if name not in loaded and name not in REFERENCES
    )
    assert not unused, f"public names with no caller in src/vlab or bench/: {unused}"


def _private_and_constant_names(tree):
    """Private module-level functions and classes of one file, and its
    UPPER_CASE module constants (leading underscores allowed)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.strip("_").isupper()}
    return names


def test_every_private_helper_and_constant_has_a_reader():
    # a read counts in the defining file, or in a file that defines no name
    # of its own by that name, so a helper left behind when its last reader
    # is deleted fails here even if another module has a namesake
    trees = _trees(PACKAGE, ROOT / "bench")
    loads = {path: _loads(tree) for path, tree in trees.items()}
    defined = {p: _private_and_constant_names(t) for p, t in trees.items() if p.parent == PACKAGE}
    unread = sorted(
        f"{path.name}: {name}"
        for path, names in defined.items()
        for name in names
        if not any(
            name in loads[other] and (other == path or name not in defined.get(other, ()))
            for other in trees
        )
    )
    assert not unread, f"private helpers or constants with no reader in src/vlab or bench/: {unread}"


def _defined_names(tree):
    """Names one module defines at top level: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_relative_imports_take_public_names_from_their_definitions():
    # outside __init__.py, ``from .m import n`` must name something module m
    # defines itself, not a name m imports, and nothing private; so a
    # module's private helpers and its own imports stay its own business
    trees = _trees(PACKAGE)
    defined = {path.stem: _defined_names(tree) for path, tree in trees.items()}
    bad = sorted(
        f"{path.name}: from .{node.module} import {alias.name}"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_") or alias.name not in defined[node.module]
    )
    assert not bad, f"relative imports of private or re-exported names: {bad}"


def test_references_are_still_defined():
    public = _public_names(_trees(PACKAGE))
    assert REFERENCES <= public.keys()


def _dataclass_fields(trees):
    """[(class, field)] of every annotated field of a ``@dataclass`` class."""
    found = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
                continue
            found += [
                (node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def test_every_dataclass_field_is_read():
    trees = _trees(PACKAGE, ROOT / "bench")
    read = {
        sub.attr
        for tree in trees.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    fields = _dataclass_fields({p: t for p, t in trees.items() if p.parent == PACKAGE})
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert not unread, f"dataclass fields never read in src/vlab or bench/: {unread}"


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    reads = sorted(
        f"{path.name}:{sub.lineno}"
        for path, tree in _trees(PACKAGE).items()
        for sub in ast.walk(tree)
        if (isinstance(sub, ast.Attribute) and sub.attr in ENV_READS)
        or (isinstance(sub, ast.ImportFrom) and ENV_READS & {a.name for a in sub.names})
    )
    assert not reads, f"environment reads in src/vlab: {reads}"
