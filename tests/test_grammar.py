import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench", "ci") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    """Every source file parses under the grammar of the oldest supported
    Python (``requires-python = ">=3.10"``).

    This guards the grammar only. ``feature_version`` is best effort: it
    accepts some later syntax, such as star-annotations (``*args: *Ts``),
    and it does not check that a stdlib API used exists in 3.10.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
