#!/usr/bin/env python3
"""Gate a probase-bench storage report (BENCH_storage.json).

Usage: check_storage_bench.py REPORT.json

The load gate compares min-of-reps timings of the copying and the
memory-mapped loader on the same file in the same process, so runner
noise largely cancels; it rides the systematic cost the copying
decoder always pays (allocate + decode the whole file). The zero-copy
and heap gates are not timings and must hold on any machine.

Exits non-zero on any violated gate. ci.yml re-runs this script on a
doctored report to prove the gate is live.
"""
import json
import sys

if len(sys.argv) != 2:
    sys.exit(f"usage: {sys.argv[0]} REPORT.json")

report = json.load(open(sys.argv[1]))
exp = next(e for e in report["experiments"] if e["name"] == "storage")
r = exp["result"]

print(f"load mmap vs copy {r['mmap_load_speedup']:.2f}x (zero_copy={r['mmap_zero_copy']})")
print(
    f"first query: copy {r['first_query_copy_us']:.0f}us vs mmap {r['first_query_mmap_us']:.0f}us; "
    f"gc pause: copy {r['gc_pause_copy_us']:.0f}us vs mmap {r['gc_pause_mmap_us']:.0f}us; "
    f"heap: copy {r['heap_copy_bytes']} vs mmap {r['heap_mmap_bytes']} bytes"
)

if not r["mmap_zero_copy"]:
    sys.exit("mapped loader fell back to a heap copy on this runner")
if r["mmap_load_speedup"] <= 1.0:
    sys.exit("memory-mapped load is not faster than the copying decode")
if r["heap_mmap_bytes"] >= r["heap_copy_bytes"]:
    sys.exit("mapped graph does not reduce live heap vs the copying load")
