#!/usr/bin/env python3
"""Checks one bench's JSON result against its CI gates.

Usage: python3 bench/check_gates.py <bench>

<bench> is one of the names in GATES. Each gate reads the JSON file the
bench wrote into the working directory, prints its headline numbers and
exits non-zero (AssertionError) when a bound is violated.
"""
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_smoke():
    data = load("BENCH_throughput.json")
    speedup = data["speedup_8_tenants"]
    print(f"speedup_8_tenants = {speedup:.3f}")
    assert speedup >= 2.0, f"sharded dispatch regressed: {speedup:.3f}x < 2x"


def bench_swap():
    data = load("BENCH_swap.json")
    ratio = data["bytes_ratio"]
    speedup = data["ops_speedup"]
    print(f"bytes_ratio = {ratio:.4f}, ops_speedup = {speedup:.3f}")
    assert ratio <= 0.5, f"incremental swap regressed: {ratio:.4f} > 0.5x naive bytes"
    assert speedup >= 1.5, f"incremental swap regressed: {speedup:.3f}x < 1.5x naive ops/s"


def bench_paging():
    data = load("BENCH_paging.json")
    ratio = data["bytes_ratio"]
    speedup = data["ops_speedup"]
    hit_rate = data["tlb_hit_rate"]
    print(f"bytes_ratio = {ratio:.4f}, ops_speedup = {speedup:.3f}, "
          f"tlb_hit_rate = {hit_rate:.4f}")
    assert ratio <= 0.5, f"paged engine regressed: {ratio:.4f} > 0.5x entry bytes"
    assert speedup >= 1.5, f"paged engine regressed: {speedup:.3f}x < 1.5x entry ops/s"


def trace_overhead():
    data = load("BENCH_trace_overhead.json")
    ratio = data["overhead_ratio"]
    print(f"overhead_ratio = {ratio:.4f}")
    assert ratio <= 1.10, f"tracing overhead regressed: {ratio:.4f}x > 1.10x wall time"


def cluster_lb():
    data = load("BENCH_cluster_lb.json")
    ratio = data["ll_over_rr_makespan"]
    print(f"ll_over_rr_makespan = {ratio:.4f}")
    assert ratio <= 0.9, f"least-loaded placement regressed: {ratio:.4f} > 0.9x round-robin"


def bench_migration():
    data = load("BENCH_migration.json")
    stop_over_image = data["stop_copy_over_image"]
    total_over_naive = data["total_over_naive"]
    print(f"stop_copy_over_image = {stop_over_image:.4f}, "
          f"total_over_naive = {total_over_naive:.4f}")
    assert stop_over_image <= 0.5, \
        f"stop-and-copy regressed: {stop_over_image:.4f} > 0.5x image bytes"
    assert total_over_naive <= 0.5, \
        f"migration traffic regressed: {total_over_naive:.4f} > 0.5x naive bytes"


def bench_preempt():
    data = load("BENCH_preempt.json")
    ratio = data["makespan_ratio"]
    preemptions = data["tq"]["preemptions"]
    print(f"makespan_ratio = {ratio:.4f}, tq preemptions = {preemptions}")
    assert ratio <= 0.9, f"TQ rotation regressed: {ratio:.4f} > 0.9x FCFS makespan"
    assert preemptions > 0, "quantum never expired: the bench is vacuous"


def bench_scale():
    data = load("BENCH_scale.json")
    quick = data["quick"]
    print(f"speedup = {quick['speedup']:.2f}, agreement = {quick['agreement']}, "
          f"headline = {data['headline_events_per_sec']:.0f} events/sec")
    assert quick["agreement"], "task and threaded drivers diverged on modeled outcomes"
    assert quick["speedup"] >= 10.0, \
        f"discrete-event fast path regressed: {quick['speedup']:.2f}x < 10x threaded"
    big = [row for row in data["sweep"] if row["gpus_total"] >= 1024]
    assert big, "sweep lost its 1024-GPU configurations"
    for row in big:
        print(f"{row['name']}: {row['events']} events at {row['gpus_total']} GPUs, "
              f"{row['events_per_sec']:.0f} events/sec")
        assert row["events"] >= 1_000_000, \
            f"{row['name']} shrank below 1M events: {row['events']}"


GATES = {
    "bench-smoke": bench_smoke,
    "bench-swap": bench_swap,
    "bench-paging": bench_paging,
    "trace-overhead": trace_overhead,
    "cluster-lb": cluster_lb,
    "bench-migration": bench_migration,
    "bench-preempt": bench_preempt,
    "bench-scale": bench_scale,
}


def main(argv):
    if len(argv) != 2 or argv[1] not in GATES:
        sys.exit(f"usage: {argv[0]} {{{','.join(GATES)}}}")
    GATES[argv[1]]()


if __name__ == "__main__":
    main(sys.argv)
