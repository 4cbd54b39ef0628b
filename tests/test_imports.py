"""Every name a ``src/`` module imports is used in that module.

No linter runs in CI, so this test keeps unused imports out: it parses each
module and flags an imported name that occurs only once as a word in the
module's text, i.e. only on its own import line.  Re-exports in an
``__init__.py`` pass (they are named again in ``__all__``), and so do
``TYPE_CHECKING`` imports used in string annotations.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name.split(".")[0]


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    words = Counter(re.findall(r"\w+", text))
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for line, name in _imported_names(ast.parse(text))
        if words[name] == 1
    ]


def test_every_imported_name_is_used():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
