"""One tolerance policy: every cutoff is a named, documented module constant.

A small float written inline is a tolerance nobody can find; a ``tol``
parameter that no caller sets is an option with one value in use.  These
tests pin the constants, keep the README table in step with them, and
keep ``--tol`` (through ``residual_tol``) the only tolerance a user sets.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import mapproc
from mapproc.processor import Processor
from mapproc.vnmeas import SlotAssignment

SRC = Path(mapproc.__file__).parent
README = Path(__file__).parents[1] / "README.md"
MODULES = [importlib.import_module(f"mapproc.{m.name}") for m in pkgutil.iter_modules([str(SRC)])]

TOLERANCES = {
    "qcore.ATOL": 1e-10,
    "qcore.RANK_CUTOFF": 1e-9,
    "processor.PROB_FLOOR": 1e-12,
    "processor.STATE_TOL": 1e-8,
    "tomography.PROB_SUM_TOL": 1e-6,
    "tomography.RESIDUAL_TOL": 1e-6,
    "vnmeas.POSTULATE_ATOL": 1e-8,
    "vnmeas.POSTULATE_FLOOR": 1e-10,
    "vnmeas.REALIZED_ATOL": 1e-9,
}

# the tolerances a caller may set, as (function, parameter)
SETTABLE = {
    ("qcore.is_density_operator", "tol"),
    ("tomography.reconstruct_from_probabilities", "residual_tol"),
    ("tomography.reconstruct_from_counts", "residual_tol"),
}


def small_literals(tree):
    """(line, value) of float literals 0 < |x| < 1e-3 outside UPPER_CASE module constants."""
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
            isinstance(t, ast.Name) and t.id.isupper() for t in node.targets
        ):
            allowed.update(id(n) for n in ast.walk(node.value))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-3 and id(node) not in allowed
    ]


def test_no_inline_tolerance_literals():
    found = {
        f"{path.name}:{line}": value
        for path in sorted(SRC.glob("*.py"))
        for line, value in small_literals(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_every_tolerance_constant_is_pinned():
    # float constants each module defines (imported names are the defining module's)
    constants = {}
    for module in MODULES:
        short = module.__name__.split(".")[-1]
        for node in ast.parse(inspect.getsource(module)).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                name = getattr(target, "id", "")
                if name.isupper() and isinstance(getattr(module, name), float):
                    constants[f"{short}.{name}"] = getattr(module, name)
    assert constants == TOLERANCES


def test_readme_table_lists_exactly_the_pinned_names():
    notes = README.read_text(encoding="utf-8").split("## Numerical notes", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|", notes, flags=re.MULTILINE)
    assert {f"{module}.{name}": float(value) for name, module, value in rows} == TOLERANCES
    assert len(rows) == len(TOLERANCES)


def public_callables():
    for module in MODULES:
        short = module.__name__.split(".")[-1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    public = attr == "__init__" or not attr.startswith("_")
                    if inspect.isfunction(member) and public:
                        yield f"{short}.{name}.{attr}", member


def test_only_the_documented_tolerances_are_parameters():
    found = {
        (qualname, parameter)
        for qualname, func in public_callables()
        for parameter in inspect.signature(func).parameters
        if parameter == "tol" or parameter.endswith("_tol")
    }
    assert found == SETTABLE


def test_slot_assignment_holds_only_its_slot_maps():
    assert [f.name for f in dataclasses.fields(SlotAssignment)] == ["slot_maps"]
    assert SlotAssignment(slot_maps=((0, 1), (2, 3))).program_dim == 4
    assert SlotAssignment(slot_maps=((0,), (0,), (0,))).program_dim == 3
    # a processor is its gate: the program is measured in the computational basis
    assert [f.name for f in dataclasses.fields(Processor)] == ["data_dim", "program_dim", "gate"]
