"""The reference oracles must not lean on the code they check: a fast
path and an oracle that share a helper agree even when both are wrong.

``tests/oracles.py`` is read as source, so this holds for any name it
imports, however it imports it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

ORACLES = Path(__file__).resolve().with_name("oracles.py")
FORBIDDEN_MODULES = ("flowcheck.matching", "flowcheck.scenario")
FORBIDDEN_NAMES = {"normalize_fields", "normalized"}


def _imported():
    """(module, name) for every import in the oracle module; name is None
    for a plain ``import module``."""
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


def _forbidden(module: str) -> bool:
    return any(module == bad or module.startswith(bad + ".") for bad in FORBIDDEN_MODULES)


def test_oracles_import_nothing_from_matching_or_scenario():
    for module, name in _imported():
        assert not _forbidden(module), f"oracles.py imports {module}"
        if name is None or not module.startswith("flowcheck"):
            continue
        assert name not in FORBIDDEN_NAMES, f"oracles.py imports {name}"
        value = getattr(importlib.import_module(module), name)
        home = value.__name__ if isinstance(value, ModuleType) else getattr(value, "__module__", module)
        assert not _forbidden(home), f"oracles.py imports {name} from {home}"


def test_oracles_do_not_normalize_through_the_model():
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        used = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        assert used not in FORBIDDEN_NAMES, f"oracles.py uses {used} (line {node.lineno})"
