"""Print the tracked size counts of the package, read with ``ast`` only.

    python3 tools/size_report.py [SRC]

``SRC`` defaults to the repository's ``src/``.
The three counts are:

- ``src_lines``: the lines of every ``.py`` file under ``SRC`` (as ``wc -l``);
- ``root_names``: the public names that ``import cantorscale`` binds on the
  package, the submodules it loads included;
- ``defaulted_params``: the parameters with a default value in the
  signatures of every function and lambda under ``SRC``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = "cantorscale"


def _relative_imports(tree: ast.Module) -> set[str]:
    """The sibling modules a module's top-level statements import."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def root_names(pkg: Path) -> int:
    """Public names on the package after ``import``: the names that
    ``__init__.py`` imports or assigns at its top level and every submodule
    that the import loads."""
    init = ast.parse((pkg / "__init__.py").read_text())
    names = set()
    for node in init.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    loaded, todo = set(), _relative_imports(init)
    while todo:
        mod = todo.pop()
        path = pkg / f"{mod}.py"
        if mod in loaded or not path.exists():
            continue
        loaded.add(mod)
        todo |= _relative_imports(ast.parse(path.read_text()))
    return len({n for n in names | loaded if not n.startswith("_")})


def defaulted_params(files) -> int:
    count = 0
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    return count


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src"
    files = sorted(src.rglob("*.py"))
    lines = sum(p.read_text().count("\n") for p in files)
    print(f"src_lines {lines}")
    print(f"root_names {root_names(src / PACKAGE)}")
    print(f"defaulted_params {defaulted_params(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
