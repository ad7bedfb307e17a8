"""The benchmark's tracer (perfbench/tracing.py) still finds the program
names it hooks: a per-layer metric whose hooks are all absent reads null,
and the benchmark's self-test rejects a null."""

import importlib
from pathlib import Path


def test_every_layer_metric_has_a_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unhooked = [
            metric
            for metric, hooks in tracing.REQUIRES.items()
            if all(h in tracer.absent for h in hooks)
        ]
    finally:
        tracer._unpatch()
    assert unhooked == []
