"""One fresh benchmark process: import permstack, warm up, then measure.

Run by run.py as ``python3 perfbench/worker.py '<json config>'`` with
PYTHONPATH pointing at the checkout's src/.  Prints one JSON line.

Modes: "setup" stops after the warm-up; "pass" runs one pass (or only its
operation number op_index); "traced" runs it under the tracer and adds the
per-layer numbers.
"""

import json
import os
import sys
import time
from dataclasses import asdict


def main() -> int:
    cfg = json.loads(sys.argv[1])
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import permstack
    import permstack.cli  # noqa: F401  (the CLI is part of set-up)
    import_s = time.perf_counter() - t0

    src = os.path.join(cfg["root"], "src") + os.sep
    if not os.path.abspath(permstack.__file__).startswith(src):
        print(f"permstack was imported from {permstack.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]]
    if cfg.get("inject") == "swap":
        workloads.inject_swap()
    t1 = time.perf_counter()
    wl.warm_up(cfg["size"])
    setup_s = import_s + time.perf_counter() - t1
    probe.stop()
    out = {"setup_s": setup_s, "scaled_setup_s": (setup_s - probe.spent()[0]) * probe.scale()}
    if cfg["mode"] == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if cfg["mode"] == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    samples = wl.run(cfg["size"], cfg["seed"], cfg["pass_index"], cfg["op_index"], cfg["seconds"], tracer)
    out["ops_total"] = wl.ops_total
    out["samples"] = [asdict(res) for res in samples]
    if tracer is not None:
        res = samples[0]
        bytes_per_perm = 0.0  # measured on the sweep workloads only
        if isinstance(wl, workloads.Sweep):
            bytes_per_perm = tracing.sort_map_bytes_per_perm(workloads.SWEEP_N[cfg["size"]][0], wl.workers)
        out["layers"] = tracer.layer_metrics(wl.workers, res.wall_s, res.cpu_self_s, res.cpu_children_s,
                                             bytes_per_perm)
        out["absent_hooks"] = sorted(tracer.absent)
        tracer.dump(cfg["spans_path"], {k: cfg[k] for k in ("workload", "seed", "pass_index", "size")})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
