"""The traced benchmark run (``bench/run.py --trace 1``) wraps each name in
``bench/spans.py`` ``HOOKS`` at the module its caller looks it up in. A
rename in ``mmfsk`` must show up here rather than as a crash of the traced
run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, *_ in spans.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.HOOKS and not missing
