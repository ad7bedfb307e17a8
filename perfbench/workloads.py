"""The permstack benchmark workloads, their inputs and their correctness checks.

Why each workload exists, and what it stresses:

sweep
    image_size({21},8), orbit_partition({123,132},8), fertility_max({2134},8),
    verify_bijective({132,312},8) and build_sort_table(7), all with workers=1.
    The prefix-tree sweep in ``dynamics``, the push test in ``machine`` under
    heavy sharing, and the reductions over the images do almost all the work.
    Push-memo hit ratios run from about 100% for {21} down to about 83% for
    {2134}.  Inputs are exhaustive, so the seed only shuffles the call order.
    A change to the sweep engine must show here.
sweep-par2
    The same calls with workers=2.  Only this workload runs the process-pool
    fan-out in ``dynamics`` (4 pool starts from sort_images, 15 from
    machine_images).
verify
    run_suites(all eight suites in CLI order, max_n=6, workers=1), the work
    of ``permstack verify --suite all --max-n 6``.  The sweep does little
    here: most of the time goes to ``preimages`` by the movement strategy
    (reconstruct_input plus one sort per candidate), the rest to
    sort_recursive/clumping, n! calls to orbit and the two-stage machine.
    It is the research command users run; it takes no seed.
query
    A seeded closed-loop stream of independent single-word requests from
    one client.  Each request parses text, runs one operation and formats
    the result; about one request in ten goes through ``cli.main`` with
    stdout captured, half of those invalid.  It skips the prefix-tree sweep
    entirely and stacks grow up to 40 deep, where the sweep's stop at 8: a
    sweep-only change should leave it unchanged, and a change that slows
    the plain sort/push path shows here.

Which layer metric (traced run) should move which end-to-end metric:

    textio.parse.us, textio.format.us            query      -> wall_s
    cli.main.self_us                              query      -> wall_s
    machine.push.calls, machine.push.us           sweep      -> wall_s
                                                  query      -> wall_s
    machine.push.hit_ratio                        sweep, verify, query (informational)
    machine.sort.calls, machine.sort.us           verify, query -> wall_s
    machine.sort_recursive.us                     verify, query -> wall_s
    machine.reconstruct.calls                     verify, query
    words.contains.calls, words.contains.us       sweep ({2134}), query -> wall_s
    dynamics.sweep.leaves, .us_per_leaf           sweep      -> wall_s
    dynamics.reduce.self_s                        sweep      -> wall_s
    dynamics.sweep.bytes_per_perm                 sweep      -> peak_rss_mb
    dynamics.two_stage.us_per_perm                sweep (the table) -> wall_s
    dynamics.preimages.us, .yield                 verify, query -> wall_s
    dynamics.orbit.us, .sorts_per_call            verify, query -> wall_s
    dynamics.pool.starts, .child_cpu_s,
    .busy_ratio                                   sweep-par2 -> wall_s, cpu_s
    verify.<suite>.s, verify.checks               verify     -> wall_s

On sweep, wall_s is the inverse of permutations mapped per second (the pass
is fixed work); on query it is the inverse of requests per second.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from permstack import cli, dynamics, machine, textio, verify
from permstack.words import pattern_set
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Inputs per size.  "full" is what the benchmark measures; "tiny" is the
#: self-test's smoke size.
SWEEP_N = {"full": (8, 7), "tiny": (5, 4)}          # (sweep n, table max_n)
SWEEP_WARMUP_N = {"full": (6, 5), "tiny": (4, 3)}
VERIFY_MAX_N = {"full": 6, "tiny": 3}
VERIFY_WARMUP_MAX_N = {"full": 4, "tiny": 2}
QUERY_BLOCK = {"full": 500, "tiny": 40}
#: Seconds one block takes, unscaled, on a 2-vCPU Sapphire Rapids guest: a
#: run serves ceil(--seconds / this) blocks.  The count is fixed, not timed,
#: so every run of a given length attempts, and fails, the same requests.
QUERY_BLOCK_S = {"full": 1.0, "tiny": 0.05}
QUERY_WARMUP = {"full": 150, "tiny": 20}
#: The push memo and the held responses grow with every request served, so
#: query's peak RSS is read after a fixed number of blocks, not at the end.
QUERY_RSS_BLOCKS = 5

#: The sweep calls: name -> compact patterns (the table takes none).
SWEEP_CALLS = {
    "image_size": "21",
    "orbit_partition": "123,132",
    "fertility_max": "2134",
    "verify_bijective": "132,312",
    "table": None,
}

TABLE_PAIRS = 15


def rusage_cpu() -> tuple[float, float]:
    """User+sys CPU seconds of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """What one measured pass did; times exclude the correctness checks.
    The scaled times are at the machine's nominal speed (speed.py)."""

    wall_s: float = 0.0
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    work: int = 0                  # permutations mapped, checks run or requests served
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: dict = field(default_factory=dict)     # "status:label" -> count
    latencies_s: list = field(default_factory=list)

    def record(self, status: str, label: str) -> None:
        self.attempted += 1
        if status == "ok":
            return
        self.failed += 1
        if status == "wrong":
            self.wrong += 1
        key = f"{status}:{label}"
        self.failures[key] = self.failures.get(key, 0) + 1



class Timed:
    """Wall and CPU time of a region, the machine's speed during it, and peak
    RSS at its end."""

    def __enter__(self):
        self.probe = SpeedProbe()
        self.probe.start()
        self.cpu0 = rusage_cpu()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        cpu1 = rusage_cpu()
        self.probe.stop()
        self.cpu_self = cpu1[0] - self.cpu0[0]
        self.cpu_children = cpu1[1] - self.cpu0[1]
        self.peak_rss_mb = peak_rss_mb()
        return False

    def fill(self, res: PassResult) -> None:
        (spent_wall, spent_cpu), scale = self.probe.spent(), self.probe.scale()
        res.wall_s = self.wall
        res.cpu_self_s = self.cpu_self
        res.cpu_children_s = self.cpu_children
        res.scaled_wall_s = (self.wall - spent_wall) * scale
        res.scaled_cpu_s = (self.cpu_self + self.cpu_children - spent_cpu) * scale
        res.peak_rss_mb = self.peak_rss_mb


# ---------------------------------------------------------------------------
# sweep and sweep-par2


def sweep_perms(name: str, n: int) -> int:
    if name == "table":
        return TABLE_PAIRS * sum(math.factorial(m) for m in range(1, n + 1))
    return math.factorial(n)


def sweep_call(name: str, n: int, workers: int):
    """One sweep through the public API; returns the raw result."""
    if name == "table":
        return dynamics.build_sort_table(n, workers)
    tset = pattern_set(*SWEEP_CALLS[name].split(","))
    return getattr(dynamics, name)(tset, n, workers)


def canonical(name: str, result):
    """A JSON-able form of a sweep result, the same for the program and the
    oracle in derive_digests.py."""
    if name == "image_size":
        return result
    if name == "orbit_partition":
        return [[list(p) for p in cycle] for cycle in result]
    if name == "fertility_max":
        return {
            "max_count": result.max_count,
            "bound": result.bound,
            "witnesses": sorted(list(w) for w in result.witnesses),
        }
    if name == "verify_bijective":
        return True if result is True else [list(p) for p in result]
    if name == "table":
        return [[list(r.sigma), list(r.tau), list(r.counts), r.is_catalan] for r in result.rows]
    raise KeyError(name)


def digest_key(name: str, n: int) -> str:
    return f"{name}@{n}"


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)["digests"]


def _sweep_sizes(name: str, sizes: tuple[int, int]) -> int:
    return sizes[1] if name == "table" else sizes[0]


class Sweep:
    """The five sweep calls; each call is one operation of the pass."""

    def __init__(self, workers: int):
        self.workers = workers

    def warm_up(self, size: str) -> None:
        sizes = SWEEP_WARMUP_N[size]
        for name in SWEEP_CALLS:
            sweep_call(name, _sweep_sizes(name, sizes), self.workers)
        if self.workers > 1 and size == "full":
            # the pool only engages from 7! = 5040 permutations up
            dynamics.image_size(pattern_set("21"), 7, self.workers)

    ops_total = len(SWEEP_CALLS)  # one process per call

    def run(self, size: str, seed: int, pass_index: int, op_index=None, seconds=0.0, tracer=None):
        """The pass's calls in seeded order, or only call number op_index."""
        sizes = SWEEP_N[size]
        order = list(SWEEP_CALLS)
        random.Random(f"sweep-{seed}-{pass_index}").shuffle(order)
        if op_index is not None:
            order = order[op_index:op_index + 1]
        res = PassResult()
        outcomes = []
        with Timed() as timed:
            for rid, name in enumerate(order):
                n = _sweep_sizes(name, sizes)
                span = tracer.open_request(rid) if tracer else None
                try:
                    outcomes.append((name, n, "ok", sweep_call(name, n, self.workers)))
                except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                    outcomes.append((name, n, "error", repr(exc)))
                if tracer:
                    tracer.close(span)
        timed.fill(res)
        if tracer:
            tracer.stop()
        expected = load_digests()
        for name, n, status, value in outcomes:
            res.work += sweep_perms(name, n)
            if status == "ok":
                status = "ok" if digest(canonical(name, value)) == expected[digest_key(name, n)] else "wrong"
            res.record(status, name)
        return [res]


# ---------------------------------------------------------------------------
# verify


class Verify:
    """All eight suites in CLI order; each check is one operation."""

    workers = 1

    def warm_up(self, size: str) -> None:
        verify.run_suites(list(verify.SUITES), VERIFY_WARMUP_MAX_N[size], 1)

    ops_total = 1

    def run(self, size: str, seed: int, pass_index: int, op_index=None, seconds=0.0, tracer=None):
        res = PassResult()
        span = tracer.open_request(0) if tracer else None
        with Timed() as timed:
            checks = verify.run_suites(list(verify.SUITES), VERIFY_MAX_N[size], 1)
        if tracer:
            tracer.close(span)
            tracer.stop()
        timed.fill(res)
        if not checks:
            res.record("wrong", "no checks ran")
        for c in checks:
            res.record("ok" if c.ok else "wrong", c.name)
        res.work = len(checks)
        return [res]


# ---------------------------------------------------------------------------
# query

GENERAL_SETS = ("21", "123,132", "213", "2134", "1234", "2413,3142", "123,2143")
INVERSE_SETS = ("132,312", "123,213", "1234,2134")
DIRECT_MIX = (("sort", 45), ("trace", 10), ("clump", 10), ("inverse", 10), ("orbit", 15), ("preimages", 10))
CLI_SHARE = 0.1
CLI_INVALID_SHARE = 0.5
CLI_VALID_KINDS = ("sort", "inverse", "orbit", "preimages", "clump")
INVALID_CLASSES = ("malformed-word", "malformed-patterns", "non-perm-pattern", "non-perm-word",
                   "non-bijective-inverse", "over-cap", "negative-n")
#: The negative-size requests, (command, k) for a size of -k, in the order
#: a run serves them.
NEGATIVE_SIZES = tuple((cmd, k) for k in range(4) for cmd in ("image", "periodic", "fertility", "table")
                       if k > 0 or cmd == "table")
QUERY_SIZES = {
    "full": {"sort": (10, 40), "trace": (10, 40), "clump": (8, 20), "inverse": (10, 40),
             "orbit": (8, 12), "preimages": (6, 8)},
    "tiny": {"sort": (4, 9), "trace": (4, 9), "clump": (4, 9), "inverse": (4, 9),
             "orbit": (4, 7), "preimages": (3, 5)},
}
#: sort_recursive costs about 1.5 ms at n = 20 but 30 ms at n = 40, 40 times
#: the request itself, so longer sort, trace and inverse responses get the
#: recurrence oracle on a seeded sample; every response gets the cheap checks.
ORACLE_FULL_MAX_N = 20
ORACLE_SAMPLE = 16
#: Brute-force preimage comparison, as method="brute", up to this length.
BRUTE_MAX_N = 7
#: Exit codes the CLI documents for bad input.
DOCUMENTED_ERRORS = (2, 3, 4)

# The oracles hold the functions as imported, so neither a trace hook nor an
# injected fault reaches them.
_sort = machine.sort
_sort_recursive = machine.sort_recursive


@dataclass
class Request:
    kind: str                  # a DIRECT_MIX kind, or "cli"
    patterns: str = ""
    word: tuple = ()
    text: str = ""             # the word as the client sends it
    oracle: bool = True        # apply the recurrence oracle
    argv: list | None = None   # cli requests
    expect: tuple = (0,)       # documented exit codes for cli requests
    label: str = ""            # cli: the request class, for the failure breakdown
    cli_kind: str = ""         # cli: the operation a valid request runs


def _word_text(rng: random.Random, w: tuple) -> str:
    if max(w, default=0) <= 9 and rng.random() < 0.5:
        return "".join(map(str, w))
    body = ",".join(map(str, w))
    return f"[{body}]" if rng.random() < 0.2 else body


def _perm(rng: random.Random, n: int) -> tuple:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def _direct_request(rng: random.Random, kind: str, pats: str, n: int) -> Request:
    w = _perm(rng, n)
    oracle = n <= ORACLE_FULL_MAX_N or rng.randrange(ORACLE_SAMPLE) == 0
    return Request(kind, pats, w, _word_text(rng, w), oracle)


def _invalid_cli(rng: random.Random, label: str, slot: int) -> Request:
    """One bad request of the given class, with its documented exit codes.
    slot counts the requests of this class served before it in the run."""
    pats = rng.choice(GENERAL_SETS)
    if label == "malformed-word":
        return Request("cli", argv=["sort", "--patterns", pats, "--perm",
                                    rng.choice(("12a", "1,,2", "[1,2", "3.1", "1,-2"))],
                       expect=(2,), label=label)
    if label == "malformed-patterns":
        return Request("cli", argv=["sort", "--patterns", rng.choice(("1[2", "12]3", "1a2", "[1,2")),
                                    "--perm", "312"], expect=(2,), label=label)
    if label == "non-perm-pattern":
        return Request("cli", argv=["sort", "--patterns", rng.choice(("11", "13", "21,1", "122", ",")),
                                    "--perm", "312"], expect=(3,), label=label)
    if label == "non-perm-word":
        cmd = rng.choice(("orbit", "preimages"))
        return Request("cli", argv=[cmd, "--patterns", pats, "--perm", rng.choice(("1123", "1,2,4", "2,3"))],
                       expect=(2,), label=f"{label} {cmd}")
    if label == "non-bijective-inverse":
        return Request("cli", argv=["inverse", "--patterns", pats, "--perm", "2413"], expect=(3,), label=label)
    if label == "over-cap":
        n = rng.randint(13, 16)
        cmd = rng.choice(("orbit", "preimages", "image", "table"))
        if cmd in ("orbit", "preimages"):
            argv = [cmd, "--patterns", pats, "--perm", ",".join(map(str, _perm(rng, n)))]
        elif cmd == "image":
            argv = [cmd, "--patterns", pats, "--n", str(n)]
        else:
            argv = [cmd, "--max-n", str(n)]
        return Request("cli", argv=argv, expect=(4,), label=f"{label} {cmd}")
    # negative sizes: image/periodic --n -k and table --max-n 0 leak a
    # ValueError traceback today; they stay in the mix on purpose.  They are
    # taken in a fixed cycle, not drawn, so a run of a given length always
    # holds the same ones and two runs fail the same number of requests.
    cmd, k = NEGATIVE_SIZES[slot % len(NEGATIVE_SIZES)]
    argv = ["table", "--max-n", str(-k)] if cmd == "table" else [cmd, "--patterns", pats, "--n", str(-k)]
    return Request("cli", argv=argv, expect=DOCUMENTED_ERRORS, label=f"{label} {cmd}")


def _valid_cli(req: Request) -> Request:
    kind = req.kind
    argv = [kind, "--patterns", req.patterns, "--perm", req.text]
    if kind in ("orbit", "preimages", "clump"):
        argv += ["--format", "json"]
    return Request("cli", req.patterns, req.word, req.text, req.oracle, argv, (0,), f"valid {kind}", kind)


@functools.lru_cache(maxsize=None)
def _grid(kind: str, size: str) -> tuple:
    """Every (patterns, n) a kind draws from, in one fixed order."""
    lo, hi = QUERY_SIZES[size][kind]
    pool = INVERSE_SETS if kind == "inverse" else GENERAL_SETS
    grid = [(p, n) for n in range(lo, hi + 1) for p in pool]
    random.Random(f"grid-{kind}").shuffle(grid)
    return tuple(grid)


def make_requests(rng: random.Random, count: int, size: str, block: int) -> list[Request]:
    """One block of requests.  The mix is stratified: every block holds the
    same number of each kind, and block b takes the same slice of each
    kind's (patterns, n) grid and the same invalid classes whatever the
    seed, so heavy requests (long orbits, preimages of {21}) and the
    requests the program fails come in the same number.  The seed picks
    the words, their text form and the order."""
    cli_count = round(count * CLI_SHARE)
    invalid = round(cli_count * CLI_INVALID_SHARE)
    direct = count - cli_count
    quota = {kind: direct * weight // 100 for kind, weight in DIRECT_MIX}
    quota["sort"] += direct - sum(quota.values())
    plan = [(kind, False, i, c) for kind, c in quota.items() for i in range(c)]
    valid = cli_count - invalid
    plan += [(CLI_VALID_KINDS[i % len(CLI_VALID_KINDS)], True, i, valid) for i in range(valid)]
    out = []
    for kind, via_cli, i, c in plan:
        grid = _grid(kind, size)
        req = _direct_request(rng, kind, *grid[(block * c + i) % len(grid)])
        out.append(_valid_cli(req) if via_cli else req)
    for i in range(invalid):
        slot, cls = divmod(block * invalid + i, len(INVALID_CLASSES))
        out.append(_invalid_cli(rng, INVALID_CLASSES[cls], slot))
    rng.shuffle(out)
    return out


def serve(req: Request):
    """Answer one request the way a client of the library would: parse the
    text, run one operation, format the result."""
    if req.kind == "cli":
        return serve_cli(req.argv)
    tset = textio.parse_patterns(req.patterns)
    w = textio.parse_word(req.text)
    fmt = textio.format_word
    if req.kind == "sort":
        return fmt(machine.sort(w, tset))
    if req.kind == "trace":
        out, steps, _events = machine.sort_with_trace(w, tset)
        return fmt(out), steps
    if req.kind == "clump":
        c = machine.clumping(w, tset)
        rec = fmt(machine.sort_recursive(w, tset))
        if c is None:
            return None, rec
        return ([fmt(s) for s in c.segments], fmt(c.witness_pattern), list(c.witness_indices)), rec
    if req.kind == "inverse":
        return fmt(dynamics.inverse_sort(w, tset))
    if req.kind == "orbit":
        rep = dynamics.orbit(w, tset)
        return [fmt(q) for q in rep.tail], [fmt(q) for q in rep.cycle]
    if req.kind == "preimages":
        return [fmt(q) for q in sorted(dynamics.preimages(w, tset))]
    raise ValueError(f"unknown request kind {req.kind!r}")


def serve_cli(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


# --- the query oracle, independent of the path each request took


def parse_formatted(text: str) -> tuple:
    """Read back a word printed by format_word, without using textio."""
    if text == "[]":
        return ()
    if text.startswith("["):
        return tuple(int(x) for x in text[1:-1].split(","))
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return tuple(int(ch) for ch in text)


def _ranks(w) -> tuple:
    order = sorted(set(w))
    return tuple(order.index(x) for x in w)


def replay(w: tuple, steps: str):
    """Follow an N/X step string on w; None when it is not a valid run."""
    if len(steps) != 2 * len(w):
        return None
    rest, stack, out = list(w), [], []
    for ch in steps:
        if ch == "N" and rest:
            stack.append(rest.pop(0))
        elif ch == "X" and stack:
            out.append(stack.pop())
        else:
            return None
    return tuple(out)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


class QueryOracle:
    """Checks responses against machine.sort_recursive, the simulation and a
    brute-force preimage table; caches the brute tables per pattern set."""

    def __init__(self):
        self.brute: dict = {}

    def _brute(self, patterns: str, n: int) -> dict:
        key = (patterns, n)
        if key not in self.brute:
            tset = pattern_set(*patterns.split(","))
            table: dict = {}
            for p in itertools.permutations(range(1, n + 1)):
                table.setdefault(_sort(p, tset), set()).add(p)
            self.brute[key] = table
        return self.brute[key]

    def check(self, req: Request, resp) -> str:
        """'ok', 'wrong' (a result that fails its oracle, or bad input
        accepted) or 'error' (a traceback or an undocumented exit code)."""
        if isinstance(resp, BaseException):
            return "error"
        if req.kind != "cli":
            return "ok" if self._check_value(req, req.kind, resp) else "wrong"
        code, stdout = resp
        if req.cli_kind:
            if code != 0:
                return "error"
            return "ok" if self._check_value(req, req.cli_kind, self._from_cli(req.cli_kind, stdout)) else "wrong"
        if code == 0:
            return "wrong"
        return "ok" if code in req.expect else "error"

    @staticmethod
    def _from_cli(kind: str, stdout: str):
        """Put CLI output in the shape serve() returns for the same kind."""
        if kind in ("sort", "inverse"):
            return stdout.strip()
        payload = json.loads(stdout)
        fmt = textio.format_word
        if kind == "orbit":
            return [fmt(tuple(q)) for q in payload["tail"]], [fmt(tuple(q)) for q in payload["cycle"]]
        if kind == "preimages":
            return [fmt(tuple(q)) for q in payload["preimages"]]
        c = payload["clumping"]  # the CLI prints no recurrence output
        if c is None:
            return None, None
        return ([fmt(tuple(s)) for s in c["segments"]], fmt(tuple(c["witness_pattern"])), c["witness_indices"]), None

    def _check_value(self, req: Request, kind: str, value) -> bool:
        tset = pattern_set(*req.patterns.split(","))
        w = req.word
        rec = lambda u: _sort_recursive(u, tset)  # noqa: E731
        if kind == "sort":
            out = parse_formatted(value)
            return sorted(out) == sorted(w) and (not req.oracle or out == rec(w))
        if kind == "trace":
            text, steps = value
            out = parse_formatted(text)
            return replay(w, steps) == out and (not req.oracle or out == rec(w))
        if kind == "inverse":
            out = parse_formatted(value)
            return sorted(out) == sorted(w) and (not req.oracle or rec(out) == w)
        if kind == "clump":
            c, rec_text = value
            simulated = _sort(w, tset)
            if rec_text is not None and parse_formatted(rec_text) != simulated:
                return False
            if c is None:  # no blocking occurrence: the machine only reverses
                return simulated == w[::-1]
            segments, sigma, idxs = c
            segs = [parse_formatted(s) for s in segments]
            sigma = parse_formatted(sigma)
            starts = list(itertools.accumulate(len(s) for s in segs))[:-1]
            return (
                sum(segs, ()) == w
                and len(segs) == len(idxs) + 1
                and starts == list(idxs)
                and sigma in tset
                and _ranks([w[i] for i in idxs]) == _ranks(sigma[::-1])
            )
        if kind == "orbit":
            tail, cycle = value
            seq = [parse_formatted(q) for q in tail + cycle]
            step = lambda u: _sort(u, tset)  # noqa: E731  (iterate the map again)
            return (
                bool(cycle)
                and seq[0] == w
                and len(set(seq)) == len(seq)
                and all(step(a) == b for a, b in zip(seq, seq[1:]))
                and step(seq[-1]) == seq[len(tail)]
            )
        if kind == "preimages":
            found = [parse_formatted(q) for q in value]
            n, k = len(w), tset.min_len
            bound = catalan(n - k + 2) if n >= k - 2 else 1
            if len(set(found)) != len(found) or len(found) > bound:
                return False
            if not all(_sort(q, tset) == w for q in found):
                return False
            return n > BRUTE_MAX_N or set(found) == self._brute(req.patterns, n).get(w, set())
        raise ValueError(f"unknown request kind {kind!r}")


class Query:
    """The closed-loop request stream; each request is one operation."""

    workers = 1

    def warm_up(self, size: str) -> None:
        for req in make_requests(random.Random("query-warmup"), QUERY_WARMUP[size], size, 0):
            try:
                serve(req)
            except Exception:  # warm-up answers are not scored
                pass

    ops_total = 1

    def run(self, size: str, seed: int, pass_index: int, op_index=None, seconds=0.0, tracer=None):
        """A fixed number of blocks of requests, about seconds long.  The
        checks wait until every block is timed, so the oracle's tables are
        not in the measured peak RSS."""
        count = max(1, math.ceil(seconds / QUERY_BLOCK_S[size]))
        blocks = [self._block(size, seed, index, tracer) for index in range(count)]
        peak = blocks[min(QUERY_RSS_BLOCKS, len(blocks)) - 1][0].peak_rss_mb
        oracle = QueryOracle()
        for res, reqs, responses in blocks:
            res.peak_rss_mb = peak
            for req, resp in zip(reqs, responses):
                res.record(oracle.check(req, resp), req.label or req.kind)
        return [b[0] for b in blocks]

    def _block(self, size, seed, index, tracer):
        reqs = make_requests(random.Random(f"query-{seed}-{index}"), QUERY_BLOCK[size], size, index)
        res = PassResult(work=len(reqs))
        responses = []
        lat = res.latencies_s
        clock = time.perf_counter
        with Timed() as timed:
            for rid, req in enumerate(reqs):
                span = tracer.open_request(rid) if tracer else None
                t0 = clock()
                try:
                    resp = serve(req)
                except Exception as exc:  # the client sees a failed request and moves on
                    resp = exc
                lat.append(clock() - t0)
                if tracer:
                    tracer.close(span)
                responses.append(resp)
        timed.fill(res)
        if tracer:
            tracer.stop()
        return res, reqs, responses


WORKLOADS = {
    "sweep": Sweep(1),
    "verify": Verify(),
    "query": Query(),
    "sweep-par2": Sweep(2),
}


# ---------------------------------------------------------------------------
# fault injection for the self-test


def inject_swap() -> None:
    """Make every sort the program reaches swap its first two output letters."""
    real = machine.sort

    def bad_sort(w, tset):
        out = real(w, tset)
        return (out[1], out[0]) + out[2:] if len(out) >= 2 else out

    for mod in (machine, dynamics, verify, cli):
        mod.sort = bad_sort
