import ast
import pathlib

import pamfk


def test_every_export_resolves():
    missing = [name for name in pamfk.__all__ if not hasattr(pamfk, name)]
    assert missing == []


def test_every_import_is_used():
    # a name imported only for another tool carries "# noqa: F401"
    unused = []
    for path in sorted(pathlib.Path(pamfk.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= {elt.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__"
                         for t in node.targets)
                 for elt in node.value.elts}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if (name not in used
                        and "# noqa: F401" not in lines[alias.lineno - 1]):
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_one_module_imports_the_process_pool():
    # parallel work is split on the outer loop only
    importers = []
    for path in sorted(pathlib.Path(pamfk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(alias.name.split(".")[-1] == "ProcessPoolExecutor"
                            for alias in node.names)):
                importers.append(path.name)
    assert importers == ["experiments.py"]
