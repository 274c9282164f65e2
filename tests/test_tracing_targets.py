"""The benchmark's tracer (`perfbench/tracing.py`) wraps envlab functions
named by (module, qualified name) in its TARGETS; a name that no longer
resolves breaks every benchmark run.  The file is read, not imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING.name}")


def test_every_traced_target_resolves_in_envlab():
    targets = traced_targets()
    assert len(targets) > 0
    missing = []
    for module, qualname in targets:
        obj = importlib.import_module(f"envlab.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert missing == []
