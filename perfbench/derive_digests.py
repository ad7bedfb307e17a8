"""Derive the sweep digests in digests.json from the slow oracle.

    python3 perfbench/derive_digests.py

Every answer is computed from per-permutation ``machine.sort`` over S_n,
never from the prefix-tree sweep the benchmark measures, then reduced by
code written here and hashed in the canonical form of workloads.canonical.
Run it once when the inputs change; the result is committed.
"""

import itertools
import json
import math
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from permstack.machine import sort  # noqa: E402
from permstack.words import pattern_set  # noqa: E402

import workloads  # noqa: E402


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def images(patterns: str, n: int) -> dict:
    tset = pattern_set(*patterns.split(","))
    return {p: sort(p, tset) for p in itertools.permutations(range(1, n + 1))}


def oracle(name: str, n: int):
    if name == "table":
        classical = pattern_set("21")
        s3 = sorted(itertools.permutations((1, 2, 3)))
        rows = []
        for sigma, tau in itertools.combinations(s3, 2):
            tset = pattern_set(sigma, tau)
            counts = [
                sum(1 for p in itertools.permutations(range(1, m + 1))
                    if sort(sort(p, tset), classical) == tuple(range(1, m + 1)))
                for m in range(1, n + 1)
            ]
            rows.append([list(sigma), list(tau), counts, counts == [catalan(m) for m in range(1, n + 1)]])
        return rows
    patterns = workloads.SWEEP_CALLS[name]
    f = images(patterns, n)
    if name == "image_size":
        return len(set(f.values()))
    if name == "fertility_max":
        counts = Counter(f.values())
        top = max(counts.values())
        k = min(len(p) for p in patterns.split(","))
        return {"max_count": top, "bound": catalan(n - k + 2),
                "witnesses": sorted(list(g) for g, c in counts.items() if c == top)}
    if name == "verify_bijective":
        seen = {}
        for p in sorted(f):
            if f[p] in seen:
                return [list(seen[f[p]]), list(p)]
            seen[f[p]] = p
        return True
    if name == "orbit_partition":
        periodic = set()
        for start in f:
            walk, cur = [], start
            while cur not in walk:
                walk.append(cur)
                cur = f[cur]
            periodic.update(walk[walk.index(cur):])
        cycles, done = [], set()
        for p in sorted(periodic):
            if p in done:
                continue
            cyc, cur = [p], f[p]
            while cur != p:
                cyc.append(cur)
                cur = f[cur]
            done.update(cyc)
            cycles.append([list(q) for q in cyc])
        return cycles
    raise KeyError(name)


def main() -> None:
    digests = {}
    for size in ("full", "tiny"):
        for name in workloads.SWEEP_CALLS:
            n = workloads.SWEEP_N[size][1 if name == "table" else 0]
            digests[workloads.digest_key(name, n)] = workloads.digest(oracle(name, n))
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump({"about": "sha256 of workloads.canonical(result), derived by derive_digests.py "
                            "from per-permutation machine.sort",
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
