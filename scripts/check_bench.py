#!/usr/bin/env python3
"""CI gates for the bench smoke runs.

Reads a google-benchmark --benchmark_out JSON and checks the property one bench exists
for. Every gate compares numbers from the SAME run on the SAME runner (a ratio or a
deterministic counter), so absolute wall-clock is never gated.

  ring        fences per 4 KiB write at ring depth 8 must be strictly lower than at
              depth 1 (one epoch close per drain pass amortizes the fence).
  delegation  at 1 MiB, the batched data path must move bytes at least as fast as the
              per-chunk path (one Submit + one fence per 4 KiB chunk), compared at the
              lowest thread count in the run.
  fleet       grant lookups with 8 shards + the lock-free fast path must beat the
              legacy one-mutex controller (shards:1) at its best thread count, and the
              fast-path hit counter must be live.
  tier        with the absorb tier (dataset 4x NVM) the sync path must stay within
              1.25x of NVM-only with digestion live, and the promote cache must serve
              >= 90% of Zipfian hot-read tier lookups with a nonzero hit count.

Usage: check_bench.py {ring|delegation|fleet|tier} <bench.json>
"""

import json
import sys


def series(bench, metric, pick="max", **params):
    """One number from the run: `metric` of benchmark `bench` restricted to the
    name parameters in `params`, reduced over the rest ("max", or "min_threads": the
    entry with the lowest thread count)."""
    return {"bench": bench, "metric": metric, "pick": pick, "params": params}


def ratio(a, b):
    return a / b if b else float("inf")


# Each gate: the series it reads, its checks in order, and the values derived from the
# series for the messages. A check is (passes(v), failure message) where v maps series
# names to numbers; the OK line is printed when every check passes.
GATES = {
    "ring": {
        "series": {
            "d1": series("BM_RingWrite4K", "fences_per_op", depth="1"),
            "d8": series("BM_RingWrite4K", "fences_per_op", depth="8"),
        },
        "checks": [
            (lambda v: v["d1"] > 0 and v["d8"] > 0,
             "degenerate fence counters (depth1={d1}, depth8={d8})"),
            (lambda v: v["d8"] < v["d1"],
             "depth-8 fences/op ({d8:.4f}) not lower than depth-1 ({d1:.4f}) - "
             "group-commit coalescing is broken"),
        ],
        "derived": lambda v: {"ratio": ratio(v["d1"], v["d8"])},
        "ok": "fences/op depth1={d1:.4f} depth8={d8:.4f} ({ratio:.1f}x coalescing)",
    },
    "delegation": {
        "series": {
            "batched": series("BM_DelegatedWriteBatched", "bytes_per_second",
                              pick="min_threads", bytes="1048576"),
            "per_chunk": series("BM_DelegatedWritePerChunk", "bytes_per_second",
                                pick="min_threads", bytes="1048576"),
        },
        "checks": [
            (lambda v: v["batched"] > 0 and v["per_chunk"] > 0,
             "degenerate throughput (batched={batched}, per_chunk={per_chunk})"),
            (lambda v: v["batched"] >= v["per_chunk"],
             "batched 1 MiB writes ({batched_mb:.1f} MB/s) slower than per-chunk "
             "({per_chunk_mb:.1f} MB/s) - batching regressed"),
        ],
        "derived": lambda v: {"batched_mb": v["batched"] / 1e6,
                              "per_chunk_mb": v["per_chunk"] / 1e6,
                              "ratio": ratio(v["batched"], v["per_chunk"])},
        "ok": "1 MiB writes batched={batched_mb:.1f} MB/s per_chunk={per_chunk_mb:.1f} MB/s "
              "({ratio:.2f}x)",
    },
    "fleet": {
        "series": {
            "legacy": series("BM_GrantLookup", "items_per_second", shards="1"),
            "sharded": series("BM_GrantLookup", "items_per_second", shards="8"),
            "fast_hits": series("BM_GrantLookup", "fast_hits", shards="8"),
        },
        "checks": [
            (lambda v: v["legacy"] > 0 and v["sharded"] > 0,
             "degenerate throughput (shards1={legacy}, shards8={sharded})"),
            (lambda v: v["sharded"] > v["legacy"],
             "8-shard lookup rate ({sharded:.0f}/s) not above the one-mutex baseline "
             "({legacy:.0f}/s) - shard scale-out is broken"),
            (lambda v: v["fast_hits"] > 0,
             "sharded run recorded zero grant_fast_hits - the lock-free fast path never "
             "engaged"),
        ],
        "derived": lambda v: {"ratio": ratio(v["sharded"], v["legacy"])},
        "ok": "grant lookups/s shards1={legacy:.0f} shards8={sharded:.0f} ({ratio:.2f}x), "
              "fast_hits={fast_hits:.0f}",
    },
    "tier": {
        "series": {
            "nvm": series("BM_TierSyncWrite", "items_per_second", mode="0"),
            "tier": series("BM_TierSyncWrite", "items_per_second", mode="1"),
            "digest_pages": series("BM_TierSyncWrite", "digest_pages", mode="1"),
            "hit_rate": series("BM_TierHotRead", "hit_rate", threads="1"),
            "promote_hits": series("BM_TierHotRead", "promote_hits", threads="1"),
        },
        "checks": [
            (lambda v: v["nvm"] > 0 and v["tier"] > 0,
             "degenerate sync throughput (nvm={nvm}, tier={tier})"),
            (lambda v: ratio(v["nvm"], v["tier"]) <= 1.25,
             "absorb-tier sync path is {slowdown:.2f}x slower than NVM-only (limit 1.25x) "
             "- the oversized dataset is leaking into the sync path"),
            (lambda v: v["digest_pages"] > 0,
             "absorb run digested zero pages - the tier never engaged and the sync "
             "comparison is meaningless"),
            (lambda v: v["hit_rate"] >= 0.90,
             "promote-cache hit rate {hit_rate:.3f} below 0.9 on the Zipfian hot-read "
             "workload"),
            (lambda v: v["promote_hits"] > 0,
             "zero promote-cache hits - the cache never engaged"),
        ],
        "derived": lambda v: {"slowdown": ratio(v["nvm"], v["tier"])},
        "ok": "sync slowdown {slowdown:.2f}x (limit 1.25x, digest_pages={digest_pages:.0f}), "
              "promote hit rate {hit_rate:.3f} (hits={promote_hits:.0f})",
    },
}


def name_params(name):
    """'BM_X/depth:8/real_time/threads:4' -> ('BM_X', {'depth': '8', 'threads': '4'})."""
    tokens = name.split("/")
    params = dict(t.split(":", 1) for t in tokens[1:] if ":" in t)
    return tokens[0], params


def read_series(benchmarks, spec):
    """The series' value, or None when the run has no matching entry."""
    matches = []
    for bench in benchmarks:
        base, params = name_params(bench.get("name", ""))
        if base != spec["bench"] or spec["metric"] not in bench:
            continue
        if any(params.get(k) != want for k, want in spec["params"].items()):
            continue
        matches.append((int(params.get("threads", 1)), bench[spec["metric"]]))
    if not matches:
        return None
    if spec["pick"] == "min_threads":
        return min(matches)[1]
    return max(value for _, value in matches)


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[1] not in GATES:
        print(__doc__, file=sys.stderr)
        return 2
    gate = GATES[sys.argv[1]]
    with open(sys.argv[2]) as f:
        benchmarks = json.load(f).get("benchmarks", [])

    values = {}
    for key, spec in gate["series"].items():
        value = read_series(benchmarks, spec)
        if value is None:
            params = ",".join(f"{k}:{v}" for k, v in spec["params"].items())
            print(f"FAIL: no {spec['bench']} {spec['metric']} result for {params} "
                  f"in {sys.argv[2]}")
            return 1
        values[key] = value

    fields = dict(values, **gate["derived"](values))
    for passes, message in gate["checks"]:
        if not passes(values):
            print("FAIL: " + message.format(**fields))
            return 1
    print("OK: " + gate["ok"].format(**fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
