"""Every name the benchmark's tracer patches exists.

`perfbench/tracing.py` replaces driftlearn functions by (module, attribute)
while `--trace 1` is on; a name deleted or renamed here would make that
tracing fail, so the list is checked against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [*tracing.SPANS.values(), *(t for group in tracing.COUNTS.values() for t in group)]
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert len(targets) > 40 and missing == []
