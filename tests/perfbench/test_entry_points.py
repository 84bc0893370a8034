"""The benchmark's tracer and probes name methods that still exist.

``perfbench/tracer.py`` wraps every name in its ``ENTRY_POINTS`` table and
``perfbench/op.py`` wraps the ``(owner, attr, key)`` triples of its
``_probe`` loop, both through ``vars(owner)[attr]``.  A refactor that
renames or moves one of those methods would break ``run.py --trace 1`` (or
every operation) without failing any other test.  This test loads
``tracer.py`` by path and parses ``op.py`` (neither file nor ``sys.path``
changes) and checks each name against the class or module that defines it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _tracer_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (target, attr)
        for _layer, target, names in module.ENTRY_POINTS
        for attr in names.split()
    ]


def _op_probes():
    """``module:Class`` and attribute of every call the ``_probe`` loop wraps."""
    tree = ast.parse((PERFBENCH / "op.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    }
    probes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_probe"
            for call in ast.walk(node)
        ):
            for element in node.iter.elts:
                owner, attr = element.elts[0].id, element.elts[1].value
                probes.append((f"{imported[owner]}:{owner}", attr))
    return probes


TRACED = _tracer_entry_points()
PROBED = _op_probes()


def _owner(target):
    module_name, class_name = target.split(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_both_tables_were_found():
    assert len(TRACED) > 50
    assert len(PROBED) >= 5


@pytest.mark.parametrize(
    ("target", "attr"), TRACED + PROBED, ids=[f"{t}.{a}" for t, a in TRACED + PROBED]
)
def test_named_method_is_defined_by_its_owner(target, attr):
    assert attr in vars(_owner(target)), f"{target} no longer defines {attr}"
