"""Every span boundary of the repository benchmark's tracer names a real callable.

``benchmarks/e2e/tracing.py`` patches each target in its ``BOUNDARIES`` by
module and qualified name, the way its ``install`` looks them up: a class
attribute from the class's own ``__dict__``, anything else with ``getattr``.
A refactor that renames, moves or deletes one breaks every traced benchmark
run; resolving the targets here, without installing the tracer, makes it
fail the unit tests too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def _target(module_name: str, qualified: str):
    """The object ``install`` would wrap, or ``None`` when it would fail to."""
    try:
        owner = importlib.import_module(module_name)
        *path, attribute = qualified.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            return owner.__dict__[attribute]
        return getattr(owner, attribute)
    except (ImportError, AttributeError, KeyError):
        return None


def test_every_boundary_target_resolves():
    targets = [
        (name, module_name, qualified)
        for name, spec in _boundaries().items()
        for module_name, qualified in spec["at"]
    ]
    assert len(targets) > 20  # the boundaries were read at all
    unresolved = [
        f"{name}: {module_name}.{qualified}"
        for name, module_name, qualified in targets
        if not callable(_target(module_name, qualified))
    ]
    assert unresolved == []


def test_an_unresolved_target_is_reported():
    assert callable(_target("repro.engine.query", "QuerySession.run"))
    assert _target("repro.engine.query", "QuerySession.no_such_method") is None
    assert _target("repro.engine.no_such_module", "name") is None
    # ``install`` reads a class's own ``__dict__``: an inherited name is not a target.
    assert _target("repro.io.serialization", "EncodedAnswer.append") is None
