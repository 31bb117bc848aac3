"""Every fully qualified docstring cross-reference to ``repro.…`` in ``src/`` resolves.

A role such as ``:class:`~repro.engine.compiled.CompiledRule``` names a real
object: the longest importable module prefix is imported and the rest is
looked up with ``getattr``.  The last name of a class reference may also be
an instance attribute — a dataclass field or a ``self.<name> =`` assignment
in the class source.  A renamed or deleted object leaves its references
dangling, and this test names them.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import repro

ROLE = re.compile(r":(?:class|func|meth|attr|mod|data|exc):`~?(repro(?:\.\w+)*)`")
SOURCE = Path(repro.__file__).resolve().parent


def _references():
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{path.relative_to(SOURCE.parent)}:{line}", match.group(1)


def _is_instance_attribute(owner, name: str) -> bool:
    if not inspect.isclass(owner):
        return False
    if dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}:
        return True
    assigned = re.compile(rf"self\.{name}\s*(?::[^=\n]+)?=(?!=)")
    return bool(assigned.search(inspect.getsource(owner)))


def _resolves(target: str) -> bool:
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        rest = parts[split:]
        for index, name in enumerate(rest):
            if hasattr(owner, name):
                owner = getattr(owner, name)
            elif index == len(rest) - 1 and _is_instance_attribute(owner, name):
                return True
            else:
                return False
        return True
    return False


def test_every_qualified_reference_resolves():
    references = list(_references())
    assert len(references) > 100  # the scan finds the references at all
    dangling = [f"{where}: {target}" for where, target in references if not _resolves(target)]
    assert dangling == []


def test_a_dangling_reference_is_reported():
    assert _resolves("repro.engine.compiled.CompiledRule.lowering_refusal")
    assert _resolves("repro.engine.query.QueryResult.output")
    assert not _resolves("repro.engine.compiled.CompiledRule.no_such_attribute")
    assert not _resolves("repro.engine.no_such_module.Name")
