"""The permstack benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads: sweep, verify, query,
sweep-par2 (why each exists is in workloads.py).  The work runs in fresh
processes (worker.py) that import permstack from ./src, warm up untimed,
measure, and check every output outside the timed window: one process per
sweep call, one per verify pass, and one for all of query's blocks of
requests.  Sweep and verify passes repeat until their measured time
reaches --seconds; query serves a fixed number of blocks, about --seconds
long on the reference machine, so that every run of a given length attempts
and fails the same number of requests.

--trace 0 prints the end-to-end metrics, each the median over the run:
  setup_s      import of permstack and permstack.cli plus the warm-up, in a
               fresh process (median of the set-up probes and every pass)
  wall_s       wall time of one pass
  cpu_s        user+sys CPU of one pass, the process plus its reaped children
  peak_rss_mb  the larger of the process's and its children's ru_maxrss
The three times are scaled to the machine's nominal speed (speed.py); the
unscaled ones are printed above the result, with, where they apply,
perms_per_s, queries_per_s, query.p50_ms, query.p99_ms (with the sample
count) and error_rate, and the run record (Python, nproc, revision, seed,
load).

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics (tracing.py), with trace.overhead_ratio = traced / untraced wall.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  "failed" counts every operation that did not succeed;
"correct" is false when some output was wrong.  Raw per-pass numbers, the
run record and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Worker processes each workload asks of the program.
WORKERS = {"sweep": 1, "verify": 1, "query": 1, "sweep-par2": 2}
SETUP_PROBES = 3
#: The run must end within 180 s; no pass starts that could cross this.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env.pop("PYTHONSTARTUP", None)
        env.pop("PERMSTACK_MAX_N", None)  # the over-cap requests assume the built-in cap
        self.env = env

    def worker(self, mode: str, pass_index: int, op_index=None, seconds: float = 0.0) -> dict:
        a = self.args
        cfg = {
            "root": ROOT, "workload": a.workload, "seed": a.seed, "size": a.size, "inject": a.inject,
            "mode": mode, "pass_index": pass_index, "op_index": op_index, "seconds": seconds,
            "spans_path": os.path.join(OUT_DIR, f"spans-{a.workload}-s{a.seed}.jsonl"),
        }
        remaining = DEADLINE_S - self.elapsed()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker for {a.workload} ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def percentile(sorted_values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def merge(parts: list) -> dict:
    """Sums over samples: one pass from operations measured in separate
    processes, or the whole run."""
    out = dict(parts[0])
    for p in parts[1:]:
        for key in ("wall_s", "cpu_self_s", "cpu_children_s", "scaled_wall_s", "scaled_cpu_s",
                    "work", "attempted", "failed", "wrong"):
            out[key] += p[key]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], p["peak_rss_mb"])
        out["latencies_s"] = out["latencies_s"] + p["latencies_s"]
        out["failures"] = {k: out["failures"].get(k, 0) + p["failures"].get(k, 0)
                           for k in set(out["failures"]) | set(p["failures"])}
    return out


def measured_run(runner: Runner, args) -> tuple[dict, list, dict]:
    """Passes until their measured time reaches --seconds.  A sweep pass runs
    each call in its own process, so the seeded call order cannot change
    what the memo or the heap hold; query's one pass serves a fixed number
    of blocks of requests in one process, each block one sample."""
    setups = [runner.worker("setup", 0) for _ in range(SETUP_PROBES)]
    passes = []
    pass_index = longest = 0
    while not passes or (sum(p["wall_s"] for p in passes) < args.seconds
                         and runner.elapsed() + 1.5 * longest < DEADLINE_S):
        started = runner.elapsed()
        parts, op, total = [], 0, 1
        while op < total:
            out = runner.worker("pass", pass_index, op, args.seconds)
            setups.append(out)
            total = out["ops_total"]
            parts.append(out["samples"])
            op += 1
        passes.extend([merge([s for part in parts for s in part])] if total > 1 else parts[0])
        pass_index += 1
        longest = max(longest, runner.elapsed() - started)
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(s["scaled_setup_s"] for s in setups),
        "wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["scaled_cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    total = merge(passes)
    attempted, failed = total["attempted"], total["failed"]
    na = f"n/a on {args.workload}"
    notes = {"perms_per_s": na, "queries_per_s": na, "query.p50_ms": na, "query.p99_ms": na,
             "error_rate": f"{failed / attempted:.6f} ratio ({failed} failed of {attempted} attempted)",
             "samples": f"{len(passes)} passes, {len(setups)} set-ups",
             "unscaled": (f"setup_s {statistics.median(s['setup_s'] for s in setups)} s, "
                          f"wall_s {statistics.median(walls)} s, cpu_s "
                          f"{statistics.median(p['cpu_self_s'] + p['cpu_children_s'] for p in passes)} s")}
    if args.workload in ("sweep", "sweep-par2"):
        rate = statistics.median(p["work"] / p["wall_s"] for p in passes)
        notes["perms_per_s"] = f"{rate:.1f} 1/s ({passes[0]['work']} permutations per pass)"
    if args.workload == "query":
        lat = sorted(total["latencies_s"])
        p50, _ = percentile(lat, 0.50)
        p99, beyond = percentile(lat, 0.99)
        notes["queries_per_s"] = f"{total['work'] / total['wall_s']:.1f} 1/s"
        notes["query.p50_ms"] = f"{1e3 * p50:.4f} ms ({len(lat)} samples)"
        notes["query.p99_ms"] = f"{1e3 * p99:.4f} ms ({len(lat)} samples, {beyond} beyond)"
    if args.workload == "verify":
        notes["samples"] += f", {passes[0]['work']} checks per pass"
    return metrics, passes, notes


def traced_run(runner: Runner, args) -> tuple[dict, list, dict]:
    """One pass untraced, then the same pass traced, each in one process."""
    base = runner.worker("pass", 0)["samples"][0]
    traced = runner.worker("traced", 0)
    pass_ = traced["samples"][0]
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = pass_["scaled_wall_s"] / base["scaled_wall_s"]
    notes = {"absent hooks": ", ".join(traced["absent_hooks"]) or "none",
             "wall_s untraced, traced": f"{base['scaled_wall_s']}, {pass_['scaled_wall_s']} s "
                                        f"(unscaled {base['wall_s']}, {pass_['wall_s']} s)"}
    return layers, [base, pass_], notes


def parse_args(argv):
    p = argparse.ArgumentParser(description="permstack benchmark")
    p.add_argument("--workload", required=True, choices=tuple(WORKERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the self-test's smoke size and injected fault
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--inject", choices=("none", "swap"), default="none", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": nproc(), "revision": git_revision(),
        "load1_start": os.getloadavg()[0],
    }
    if not os.path.isfile(os.path.join(ROOT, "src", "permstack", "__init__.py")):
        print(f"no permstack sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if WORKERS[args.workload] > record["nproc"]:
        print(f"{args.workload} needs {WORKERS[args.workload]} workers but nproc is {record['nproc']}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args)
    try:
        values, passes, notes = (traced_run if args.trace else measured_run)(runner, args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record["load1_end"] = os.getloadavg()[0]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print("the metrics measured do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    total = merge(passes)
    failures = total["failures"]
    result = {"correct": total["wrong"] == 0, "attempted": total["attempted"], "failed": total["failed"],
              "metrics": metrics}
    path = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        slim = [{k: v for k, v in p.items() if k != "latencies_s"} for p in passes]
        json.dump({"record": record, "notes": notes, "failures": failures, "passes": slim, "result": result},
                  fh, indent=1)
    print("# run " + " ".join(f"{k}={v}" for k, v in record.items()))
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for key, count in sorted(failures.items()):
        print(f"# failure {key}: {count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
