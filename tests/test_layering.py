"""Rules on the package's source, read with ``ast``: the modules import one
another without a cycle (each import a module makes at load time points
down the layers, never back up), no check is an ``assert``, which
``python -O`` strips, ``adi`` takes only the mode numbers from ``grid``, and
``models.get_model`` alone tells a model's name from its spec."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rdspectral"


def _load_time_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that ``path`` imports outside any function body."""
    found = set()
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rdspectral."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("rdspectral."))
        pending.extend(ast.iter_child_nodes(node))
    return found & modules


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a path that returns to its start, or None."""
    done: set[str] = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for target in sorted(graph[node]):
            if cycle := visit(target, path + [node]):
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        if cycle := visit(start, []):
            return cycle
    return None


def test_the_package_modules_import_without_a_cycle():
    paths = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    graph = {name: _load_time_imports(path, set(paths)) - {name}
             for name, path in paths.items()}
    assert len(graph) >= 8
    assert "grid" in graph["steppers"]
    cycle = _cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_the_package_has_no_assert_statement():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 8
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/rdspectral: " + ", ".join(found)


def test_adi_imports_nothing_from_the_package_but_the_mode_numbers():
    # adi.py is the dense algebra alone: make_grid and integrate check its
    # inputs, so it needs no check helper of the package
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "adi.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("rdspectral")):
            module = (node.module or "").removeprefix("rdspectral.")
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names
                            if alias.name.startswith("rdspectral"))
    assert imported == {("grid", "_modes")}


def test_only_get_model_asks_whether_a_value_is_a_name():
    # every other function takes a name or a spec through get_model
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node): f.name for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(f)}
        found += [f"{path.stem}.{inside.get(id(node), '<module>')}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and isinstance(node.args[1], ast.Name) and node.args[1].id == "str"]
    assert found and all(where.startswith("models.get_model:") for where in found), found
