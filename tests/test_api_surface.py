"""The package keeps no function, class or method that nothing uses.

A name counts as used when it appears, as a whole word, more often than it
is defined: in the package, in the benchmark's modules, in the README or
in the acceptance tests.  The other tests do not count, so a helper that
only they call is flagged.  Dunder names are left out.  A name that is
also a common word or a builtin (such as `join` or `size`) slips past.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcsolve"


def _definitions() -> Counter:
    defined = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    return defined


def _referencing_text() -> str:
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    return "\n".join(path.read_text() for path in paths)


def unused_names() -> list[str]:
    text = _referencing_text()
    return sorted(
        name for name, count in _definitions().items()
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count
    )


def test_every_defined_name_is_used():
    assert unused_names() == []
