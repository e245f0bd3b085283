"""Each data layout is stated in one module.  The numerator and
denominator dicts of `RatFunc2` are read and built only in
`orefields.ratfunc`: other modules go through its surface
(`constant_rep`, `scaled`, `is_constant`, the arithmetic), so a change of
the fraction's form stays inside that module.  A `ValueRecord` states its
fields once, in __slots__, from which the base works out the tuple it is
equal and hashed by; no subclass restates it as `_fields`."""

import ast
import importlib
import inspect
import pathlib

import pytest

import orefields
from orefields.fields import ValueRecord

SRC = pathlib.Path(orefields.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ratfunc.py"],
                         ids=lambda p: p.name)
def test_fraction_dicts_are_read_only_in_ratfunc(path):
    tree = parsed(path)
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("num", "den")]
    built = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and any(k.arg == "_normalized" for k in node.keywords)]
    assert not reads, f"{path.name} reads RatFunc2.num or .den at lines {reads}"
    assert not built, f"{path.name} passes _normalized= at lines {built}"


def test_records_state_their_fields_once():
    records = []
    for path in MODULES:
        module = importlib.import_module(
            "orefields" if path.stem == "__init__" else f"orefields.{path.stem}")
        for node in ast.walk(parsed(path)):
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if inspect.isclass(cls) and issubclass(cls, ValueRecord) and cls is not ValueRecord:
                records.append(cls.__name__)
                names = {t.id for n in node.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                         for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                         if isinstance(t, ast.Name)}
                names |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                assert "_fields" not in names, f"{cls.__name__} restates its fields"
    assert {"FieldSpec", "CaseSpec", "Mat2Z", "OrbitData", "FiniteOrbitReport"} <= set(records)
