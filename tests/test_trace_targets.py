"""The benchmark's span tracer patches library attributes by name.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` of its
``PATCHES`` table while a traced run lasts, and fails that run when one is
missing.  This loads the table (without patching anything) so that a
renamed or removed trace target fails here, in the fast suite, too.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for owner, attr, name, _ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
