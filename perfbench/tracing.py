"""Spans at the permstack module boundaries, recorded from outside the program.

The traced run replaces module attributes (``machine._can_push``,
``dynamics.sort_images``, ``verify.SUITES[...]`` and so on) with wrappers,
always where callers reach them, so the program itself is unchanged.  Two
kinds of wrapper:

- a *span* records (id, name, start, end, parent, request id) for every call;
- a *hot* boundary (the push decision, ``contains``, ``sort`` ...) runs
  millions of times, so it only adds to a count and a total time kept per
  parent span.

A layer's self time is its span's duration minus its child spans and the
outermost hot calls made directly under it.  A hook whose target no longer
exists is reported as absent (None), never as zero.  Forked pool workers
put the originals back, so they run untraced and their work is seen only as
child CPU time.
"""

from __future__ import annotations

import json
import math
import os
import time
import tracemalloc
from collections import defaultdict

from permstack import cli, dynamics, machine, textio, verify

#: Reductions over one sweep of S_n (or of the two-stage machine).
REDUCTIONS = (
    "image_size", "verify_bijective", "fertility_max", "sort_map", "orbit_partition",
    "periodic_points", "preimage_map", "complement_conjugation_check",
    "trivial_periodic_points_only", "sort_count", "sort_set",
)

SUITE_NAMES = ("bijectivity", "recursion", "bound", "sharpness", "periodic", "complement",
               "machine-catalan", "conjectures")

#: Hot boundaries: name -> the (module, attribute) pairs callers go through.
HOT = {
    "parse": [(textio, "parse_word"), (textio, "parse_patterns"), (cli, "parse_word"), (cli, "parse_patterns")],
    "format": [(textio, "format_word"), (cli, "format_word"), (verify, "format_word")],
    "push": [(machine, "_can_push"), (dynamics, "_can_push")],
    "contains": [(machine, "contains")],
    "sort": [(machine, "sort"), (dynamics, "sort"), (verify, "sort"), (cli, "sort")],
    "sort_recursive": [(machine, "sort_recursive"), (verify, "sort_recursive")],
    "reconstruct": [(dynamics, "reconstruct_input")],
}
#: Recursive boundaries: only the outermost call is counted.
OUTERMOST_ONLY = {"sort_recursive"}

#: Spans: name -> (module, attribute).
SPANS = {
    "cli.main": (cli, "main"),
    "sort_images": (dynamics, "sort_images"),
    "machine_images": (dynamics, "machine_images"),
    "preimages": (dynamics, "preimages"),
    "orbit": (dynamics, "orbit"),
    **{f"reduce.{name}": (dynamics, name) for name in REDUCTIONS},
}


#: The hooks each per-layer number is read from; absent when all are missing.
REQUIRES = {
    "textio.parse.us": ("parse",), "textio.format.us": ("format",), "cli.main.self_us": ("cli.main",),
    "machine.push.calls": ("push",), "machine.push.us": ("push",), "machine.push.hit_ratio": ("memo",),
    "machine.sort.calls": ("sort",), "machine.sort.us": ("sort",),
    "machine.sort_recursive.us": ("sort_recursive",), "machine.reconstruct.calls": ("reconstruct",),
    "words.contains.calls": ("contains",), "words.contains.us": ("contains",),
    "dynamics.sweep.leaves": ("sort_images",), "dynamics.sweep.us_per_leaf": ("sort_images",),
    "dynamics.reduce.self_s": tuple(f"reduce.{r}" for r in REDUCTIONS),
    "dynamics.two_stage.us_per_perm": ("machine_images",),
    "dynamics.preimages.us": ("preimages",), "dynamics.preimages.yield": ("preimages",),
    "dynamics.orbit.us": ("orbit",), "dynamics.orbit.sorts_per_call": ("orbit",),
    "dynamics.pool.starts": ("pool",),
    "verify.checks": tuple(f"verify.{s}" for s in SUITE_NAMES),
    **{f"verify.{s}.s": (f"verify.{s}",) for s in SUITE_NAMES},
}


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _preimage_candidates(args, kwargs) -> int | None:
    gamma, tset = args[0], args[1]
    if kwargs.get("method", args[2] if len(args) > 2 else "movement") != "movement":
        return None
    n, k = len(gamma), tset.min_len
    return _catalan(n - k + 2) if n >= k - 2 else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, rid)
        self.data: dict[int, object] = {}   # span id -> what the call produced
        self.stack = [0]                    # open span ids; 0 is the root
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> [calls, s, outermost s]
        self.hot_depth = 0
        self.rid = -1
        self._next_id = 1
        self.absent: set[str] = set()
        self._restore: list[tuple] = []
        self.pool_starts = 0
        self.cache0 = None
        self.cache1 = None

    # --- spans opened by the benchmark itself

    def open_request(self, rid: int):
        self.rid = rid
        return self.open("request")

    def open(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, name, parent, time.perf_counter()

    def close(self, token, data=None) -> None:
        end = time.perf_counter()
        sid, name, parent, start = token
        self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.rid))
        if data is not None:
            self.data[sid] = data

    # --- wrappers

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            token = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(token, self._describe(name, args, kwargs, result))
        return wrapper

    @staticmethod
    def _describe(name, args, kwargs, result):
        if result is None:
            return None
        if name in ("sort_images", "machine_images"):
            return len(result)
        if name == "preimages":
            cands = _preimage_candidates(args, kwargs)
            return None if cands is None else (len(result), cands)
        if name.startswith("verify."):
            return len(result)
        return None

    def _hot(self, name: str, fn, active: list):
        hot, stack, clock = self.hot, self.stack, time.perf_counter
        outermost_only = name in OUTERMOST_ONLY

        def wrapper(*args, **kwargs):
            if outermost_only and active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            self.hot_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[0] = False
                self.hot_depth -= 1
                cell = hot[(stack[-1], name)]
                cell[0] += 1
                cell[1] += dt
                if not self.hot_depth:
                    cell[2] += dt
        return wrapper

    def _patch(self, owner, attr, new, getter=getattr, setter=setattr) -> None:
        old = getter(owner, attr)
        setter(owner, attr, new)
        self._restore.append((owner, attr, old, setter))

    def install(self) -> None:
        for name, targets in HOT.items():
            found = [(m, a) for m, a in targets if hasattr(m, a)]
            if not found:
                self.absent.add(name)
            active = [False]
            for mod, attr in found:
                self._patch(mod, attr, self._hot(name, getattr(mod, attr), active))
        for name, (mod, attr) in SPANS.items():
            if hasattr(mod, attr):
                self._patch(mod, attr, self._span(name, getattr(mod, attr)))
            else:
                self.absent.add(name)
        suites = getattr(verify, "SUITES", None)
        for suite in SUITE_NAMES:
            if isinstance(suites, dict) and suite in suites:
                self._patch(suites, suite, self._span(f"verify.{suite}", suites[suite]),
                            dict.__getitem__, dict.__setitem__)
            else:
                self.absent.add(f"verify.{suite}")
        pool = getattr(dynamics, "ProcessPoolExecutor", None)
        if pool is None:
            self.absent.add("pool")
        else:
            tracer = self

            class CountingPool(pool):
                def __init__(self, *args, **kwargs):
                    tracer.pool_starts += 1
                    super().__init__(*args, **kwargs)

            self._patch(dynamics, "ProcessPoolExecutor", CountingPool)
        memo = getattr(getattr(machine, "_push_keeps_avoiding", None), "cache_info", None)
        self._memo = memo
        if memo is None:
            self.absent.add("memo")
        else:
            self.cache0 = memo()
        os.register_at_fork(after_in_child=self._unpatch)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, old, setter = self._restore.pop()
            setter(owner, attr, old)

    def stop(self) -> None:
        """Put the originals back; called once the measured pass ends."""
        self._unpatch()
        if self._memo is not None and self.cache1 is None:
            self.cache1 = self._memo()

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": header}) + "\n")
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"span": {"id": sid, "name": name, "start": start, "end": end,
                                              "parent": parent, "request": rid}}) + "\n")
            for (parent, name), (calls, total, outer) in self.hot.items():
                fh.write(json.dumps({"hot": {"parent": parent, "name": name, "calls": calls,
                                             "total_s": total, "outermost_s": outer}}) + "\n")

    # --- derived per-layer numbers

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _rid in self.spans:
            covered[parent] += end - start
        for (parent, _name), (_calls, _total, outer) in self.hot.items():
            covered[parent] += outer
        return {sid: (end - start) - covered[sid] for sid, _n, start, end, _p, _r in self.spans}

    def layer_metrics(self, workers: int, wall_s: float, cpu_self_s: float, cpu_children_s: float,
                      bytes_per_perm: float | None) -> dict[str, float | None]:
        spans_by_name: dict[str, list] = defaultdict(list)
        for span in self.spans:
            spans_by_name[span[1]].append(span)
        selfs = self.self_times()

        def hot_total(name, parents=None):
            calls = total = 0
            for (parent, hname), (c, t, _o) in self.hot.items():
                if hname == name and (parents is None or parent in parents):
                    calls += c
                    total += t
            return calls, total

        def per_call_us(name):
            calls, total = hot_total(name)
            return 1e6 * total / calls if calls else 0.0

        def span_total(name):
            return sum(end - start for _s, _n, start, end, _p, _r in spans_by_name[name])

        def span_mean_us(name):
            spans = spans_by_name[name]
            return 1e6 * span_total(name) / len(spans) if spans else 0.0

        def data(name):
            return [self.data[s[0]] for s in spans_by_name[name] if s[0] in self.data]

        leaves = sum(data("sort_images"))
        two_stage = sum(data("machine_images"))
        pre = data("preimages")
        orbit_ids = {s[0] for s in spans_by_name["orbit"]}
        memo_calls = None
        if self.cache0 is not None and self.cache1 is not None:
            hits = self.cache1.hits - self.cache0.hits
            memo_calls = (hits, hits + self.cache1.misses - self.cache0.misses)
        m = {
            "textio.parse.us": per_call_us("parse"),
            "textio.format.us": per_call_us("format"),
            "cli.main.self_us": (1e6 * sum(selfs[s[0]] for s in spans_by_name["cli.main"])
                                 / len(spans_by_name["cli.main"]) if spans_by_name["cli.main"] else 0.0),
            "machine.push.calls": hot_total("push")[0],
            "machine.push.us": per_call_us("push"),
            "machine.push.hit_ratio": (memo_calls[0] / memo_calls[1] if memo_calls and memo_calls[1] else 0.0),
            "machine.sort.calls": hot_total("sort")[0],
            "machine.sort.us": per_call_us("sort"),
            "machine.sort_recursive.us": per_call_us("sort_recursive"),
            "machine.reconstruct.calls": hot_total("reconstruct")[0],
            "words.contains.calls": hot_total("contains")[0],
            "words.contains.us": per_call_us("contains"),
            "dynamics.sweep.leaves": leaves,
            "dynamics.sweep.us_per_leaf": 1e6 * span_total("sort_images") / leaves if leaves else 0.0,
            "dynamics.reduce.self_s": sum(selfs[s[0]] for name in REDUCTIONS
                                          for s in spans_by_name[f"reduce.{name}"]),
            "dynamics.sweep.bytes_per_perm": bytes_per_perm,
            "dynamics.two_stage.us_per_perm": (1e6 * span_total("machine_images") / two_stage
                                               if two_stage else 0.0),
            "dynamics.preimages.us": span_mean_us("preimages"),
            "dynamics.preimages.yield": (sum(f for f, _ in pre) / sum(c for _, c in pre) if pre else 0.0),
            "dynamics.orbit.us": span_mean_us("orbit"),
            "dynamics.orbit.sorts_per_call": (hot_total("sort", orbit_ids)[0] / len(orbit_ids)
                                              if orbit_ids else 0.0),
            "dynamics.pool.starts": self.pool_starts,
            "dynamics.pool.child_cpu_s": cpu_children_s,
            "dynamics.pool.busy_ratio": (cpu_self_s + cpu_children_s) / (wall_s * workers),
        }
        for suite in SUITE_NAMES:
            m[f"verify.{suite}.s"] = span_total(f"verify.{suite}")
        m["verify.checks"] = sum(sum(data(f"verify.{suite}")) for suite in SUITE_NAMES)
        for metric, hooks in REQUIRES.items():
            if all(h in self.absent for h in hooks):
                m[metric] = None
        return m


def sort_map_bytes_per_perm(n: int, workers: int) -> float | None:
    """tracemalloc peak during one sort_map over S_n, per permutation."""
    sort_map = getattr(dynamics, "sort_map", None)
    if sort_map is None:
        return None
    from permstack.words import pattern_set

    tset = pattern_set("123", "132")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = sort_map(tset, n, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del table
    return peak / math.factorial(n)
