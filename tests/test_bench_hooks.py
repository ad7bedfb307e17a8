"""The benchmark's tracer (perfbench/tracing.py) still finds the program
names it hooks, and a traced sweep pass gives a finite number for every
per-layer metric: a null or non-finite metric makes the benchmark's last
line unreadable, and its self-test rejects a null."""

import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_layer_metric_has_a_hook(tracing):
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


def test_traced_sweep_metrics_are_finite(tracing):
    workloads = importlib.import_module("workloads")
    sweep = workloads.WORKLOADS["sweep"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = sweep.run("tiny", 1, 0, None, 0.0, tracer)[0]
    finally:
        tracer._unpatch()
    assert res.failed == 0
    bytes_per_perm = tracing.sort_map_bytes_per_perm(workloads.SWEEP_N["tiny"][0], sweep.workers)
    metrics = tracer.layer_metrics(
        sweep.workers, res.wall_s, res.cpu_self_s, res.cpu_children_s, bytes_per_perm
    )
    bad = {
        name: value
        for name, value in metrics.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    }
    assert bad == {}
