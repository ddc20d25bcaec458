"""The mrcode benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload presorted-lowk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One caller, one thread, closed loop: each library call is issued only after
the previous one returned.  Every operation sends one message through the
``mrcode encode`` / ``mrcode decode`` pipeline, and every output is checked
outside the timed region.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the JSON result; the lines before it are for people.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("presorted-lowk", "unsorted-highk", "codec-roundtrip")

SETUP_REPEATS = 3
MIN_CALLS = 100  # construct_lengths calls per run, so >= 10 lie beyond p90
MIN_PASSES = 5

# Counted comparisons of detailed-sorted construction on example41, from the
# ROADMAP baseline; printed beside the measured counts, never gated, since
# later versions are expected to count fewer.
ROADMAP_SORTED_COMPARISONS = {6146: 125, 24578: 146}


def _probe_ns() -> int:
    """Time of a fixed ~1 ms pure-Python loop on the current CPU."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


class CpuPicker:
    """Keeps this process on the least contended of the CPUs it may use.

    On a shared VM each virtual CPU can run 1.45x slower for 1 to 50 s at a
    time, independently of the other.  Every half second, outside any timed
    region, the current CPU and one other are timed on a fixed loop and the
    process moves to the faster.  Only this process's own affinity changes.
    """

    INTERVAL_S = 0.5

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.rng = random.Random(0)
        self.due = 0.0
        self.current = None
        self.probes: list[int] = []  # probe time on the CPU kept, for the report

    def update(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() < self.due:
            return
        if self.current is None:
            self.current = self.cpus[0]
            os.sched_setaffinity(0, {self.current})
        other = self.rng.choice([c for c in self.cpus if c != self.current])
        here = min(_probe_ns(), _probe_ns())
        os.sched_setaffinity(0, {other})
        there = min(_probe_ns(), _probe_ns())
        if there < here:
            self.current = other
        else:
            os.sched_setaffinity(0, {self.current})
        self.probes.append(min(here, there))
        self.due = time.perf_counter() + self.INTERVAL_S


class Runner:
    """Issues operations, times the public calls and checks every output."""

    def __init__(self, mrcode):
        self.construct = mrcode.construct
        self.codec = mrcode.codec
        self.profile_type = mrcode.CodeLengthProfile
        self.mode = mrcode.ConstructionMode("detailed")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # op index -> (lengths, comparisons, iterations) first seen
        self.reference: dict[int, tuple] = {}
        self.cpu = CpuPicker()

    def run(self, index: int, op):
        """One operation; returns its sample dict, or None if it failed."""
        self.attempted += 1
        clock = time.perf_counter_ns
        codec = self.codec
        self.cpu.update()
        gc.collect()
        try:
            t0 = clock()
            profile, stats = self.construct.construct_lengths(op.alphabet.weights,
                                                              self.mode)
            t1 = clock()
            table = codec.canonical_codes(profile)
            payload, bits = codec.encode(op.message, table)
            blob = codec.pack_container(profile.lengths, payload, bits)
            t2 = clock()
            lengths, payload_in, bits_in = codec.unpack_container(blob)
            table_in = codec.canonical_codes(self.profile_type(tuple(lengths)))
            decoded = codec.decode(payload_in, bits_in, table_in)
            t3 = clock()
            error = (check_profile(op.alphabet, profile.lengths, stats.iterations)
                     or check_message(op.message, profile.lengths, bits, lengths,
                                      payload_in, bits_in, decoded)
                     or self._check_repeat(index, profile.lengths,
                                           stats.weight_comparisons, stats.iterations))
        except Exception as exc:  # any raise is a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.alphabet.label}: {error}")
            return None
        return {"index": index, "construct_ns": t1 - t0, "write_ns": t2 - t1, "read_ns": t3 - t2,
                "weights": len(op.alphabet.values), "symbols": len(op.message),
                "bits": bits, "comparisons": stats.weight_comparisons,
                "iterations": stats.iterations}

    def _check_repeat(self, index, lengths, comparisons, iterations):
        seen = self.reference.setdefault(index, (lengths, comparisons, iterations))
        if seen[0] != lengths:
            return "length profile differs from an earlier run of the same input"
        if seen[1:] != (comparisons, iterations):
            return (f"counts {comparisons}/{iterations} differ from an earlier run "
                    f"of the same input ({seen[1]}/{seen[2]})")
        return None

    def run_pass(self, ops, order=None, on_op=None):
        samples = []
        for i in order or range(len(ops)):
            s = self.run(i, ops[i])
            if on_op is not None:
                on_op()
            if s is not None:
                samples.append(s)
        return samples


def check_profile(alphabet, lengths, iterations):
    """Optimal cost, Kraft sum exactly 1, monotone, iterations <= 2k."""
    values = alphabet.values
    n = len(values)
    if len(lengths) != n:
        return f"{len(lengths)} lengths for {n} weights"
    if min(lengths) < 1:
        return "a codeword length below 1"
    top = max(lengths)
    if n > 1 and sum(1 << (top - l) for l in lengths) != 1 << top:
        return "Kraft sum is not 1"
    cost = sum(v * l for v, l in zip(values, lengths))
    if cost != alphabet.ref_cost:
        return f"cost {cost}, optimal {alphabet.ref_cost}"
    shortest_below = None  # shortest length among strictly smaller values
    group_value = group_min = None
    for i in alphabet.by_value:
        v, l = values[i], lengths[i]
        if v != group_value:
            if group_min is not None:
                shortest_below = group_min if shortest_below is None else min(shortest_below, group_min)
            group_value, group_min = v, l
        else:
            group_min = min(group_min, l)
        if shortest_below is not None and l > shortest_below:
            return f"weight {v} gets a longer codeword than a smaller weight"
    k = len(set(lengths))
    if iterations > 2 * k:
        return f"{iterations} iterations exceed 2k = {2 * k}"
    return None


def check_message(message, lengths, bits, lengths_in, payload_in, bits_in, decoded):
    """Byte-exact round trip; the bit count is the sum of codeword lengths."""
    if decoded != message:
        return "decoded message differs from the one encoded"
    if tuple(lengths_in) != tuple(lengths):
        return "container lengths differ from the profile"
    expected = sum(lengths[s] for s in message)
    if bits != expected or bits_in != expected:
        return f"bit count {bits}/{bits_in}, codeword lengths sum to {expected}"
    if len(payload_in) != (expected + 7) // 8:
        return "payload is not the bit count rounded up to bytes"
    return None


def set_up(workloads, runner, name, seed):
    """Generate inputs, build weight lists and reference costs, warm up once."""
    t0 = time.perf_counter()
    ops = workloads.build(name, seed)
    gc.collect()
    gc.freeze()  # keeps the collection before each operation short
    for i, op in enumerate(ops):
        runner.run(i, op)
    return ops, time.perf_counter() - t0


def end_to_end(workloads, runner, args):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        ops = None
        gc.unfreeze()
        gc.collect()
        ops, dt = set_up(workloads, runner, args.workload, args.seed)
        setup_times.append(dt)
    print(f"inputs sha256 {workloads.fingerprint(ops)}")
    print(f"operations per pass {len(ops)}, set-up runs {[round(t, 3) for t in setup_times]} s")

    samples = []
    passes = 0
    start = time.perf_counter()
    while (passes < MIN_PASSES or len(samples) < MIN_CALLS
           or time.perf_counter() - start < args.seconds):
        # a new order each pass, so every input is timed at several moments
        order = list(range(len(ops)))
        random.Random(passes).shuffle(order)
        samples += runner.run_pass(ops, order)
        passes += 1
        if not samples:
            return {}
    print(f"passes {passes}, construct_lengths calls {len(samples)}")

    # Each input's time is the fastest of its passes: the CPU of a shared
    # VM can run 1.45x slower for 1 to 50 s at a time, far longer than a call.
    best = {}
    for s in samples:
        b = best.setdefault(s["index"], dict(s))
        for key in ("construct_ns", "write_ns", "read_ns"):
            b[key] = min(b[key], s[key])
    calls_ms = [best[s["index"]]["construct_ns"] / 1e6 for s in samples]
    p50, p90 = (statistics.quantiles(calls_ms, n=10, method="inclusive")[i] for i in (4, 8))
    if args.workload == "presorted-lowk":
        for b in best.values():
            if b["weights"] in ROADMAP_SORTED_COMPARISONS:
                print(f"baseline check n={b['weights']}: {b['comparisons']} counted "
                      f"comparisons, ROADMAP baseline {ROADMAP_SORTED_COMPARISONS[b['weights']]}")

    def total(key):
        return sum(b[key] for b in best.values())

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "construct_ms_p50": (p50, "ms"),
        "construct_ms_p90": (p90, "ms"),
        "weights_per_s": (total("weights") / total("construct_ns") * 1e9, "weights/s"),
        "comparisons_per_weight": (total("comparisons") / total("weights"),
                                   "cmp/weight"),
        "encode_symbols_per_s": (total("symbols") / total("write_ns") * 1e9, "symbols/s"),
        "decode_symbols_per_s": (total("symbols") / total("read_ns") * 1e9, "symbols/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workloads, tracing, oracle, runner, args):
    ops, _ = set_up(workloads, runner, args.workload, args.seed)
    print(f"inputs sha256 {workloads.fingerprint(ops)}")
    sorted_lists = [op.alphabet.weights if op.alphabet.weights.sorted_flag
                    else op.alphabet.weights.sorted_copy() for op in ops]

    def pass_ns(samples):
        return sum(s["construct_ns"] + s["write_ns"] + s["read_ns"] for s in samples)

    untraced, traced, heap, two_queue, snapshots = [], [], [], [], []
    reference = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds / 2:
        plain = runner.run_pass(ops)
        with tracing.Tracer() as tracer:
            samples = runner.run_pass(ops, on_op=tracer.end_op)
        if len(plain) != len(ops) or len(samples) != len(ops):
            return {}
        untraced.append(pass_ns(plain))
        traced.append(pass_ns(samples))
        snapshots.append(dict(tracer.totals))
        reference = samples
        t_heap = t_two = 0
        for w in sorted_lists:
            t0 = time.perf_counter_ns()
            oracle.huffman_lengths(w)
            t1 = time.perf_counter_ns()
            oracle.huffman_sorted_lengths(w)
            t2 = time.perf_counter_ns()
            t_heap += t1 - t0
            t_two += t2 - t1
        heap.append(t_heap)
        two_queue.append(t_two)
    with tracing.Tracer(capture_keys=True) as keyed:
        runner.run_pass(ops, on_op=keyed.end_op)
    snapshots.append(dict(keyed.totals))
    for name in tracer.missing:
        print(f"not traced (attribute missing): {name}")

    exact = [k for k in snapshots[0] if not k.endswith("_ns") and k != "split.fsi_keys"]
    differ = sorted({k for snap in snapshots[1:] for k in exact if snap[k] != snapshots[0][k]})
    if differ:
        runner.failed += 1
        runner.errors.append(f"exact counts differ between traced passes: {differ[:5]}")
    print(f"traced passes {len(traced)} plus one key-capture pass; exact counts "
          f"{'DO NOT repeat' if differ else 'repeat'}")

    counts = snapshots[0]

    def best_ms(key):
        return min(s[key] for s in snapshots[:-1]) / 1e6

    m = {}
    for p in tracing.PHASES:
        m[f"construct.{p}.calls"] = (counts[f"construct.{p}.calls"], "count")
        m[f"construct.{p}.self_ms"] = (best_ms(f"construct.{p}.self_ns"), "ms")
        m[f"construct.{p}.comparisons"] = (counts[f"construct.{p}.phase_cmp"], "count")
    passes = counts["construct.next_level.calls"]
    iterations = sum(s["iterations"] for s in reference)
    m["construct.passes"] = (passes, "count")
    m["construct.iterations"] = (iterations, "count")
    m["construct.assign_hit_frac"] = ((iterations - len(reference)) / passes if passes else 0.0,
                                      "ratio")
    m["construct.levels_slice.calls"] = (counts["construct.levels_slice.calls"], "count")
    m["construct.levels_slice.self_ms"] = (best_ms("construct.levels_slice.self_ns"), "ms")
    m["construct.levels_apply_move.self_ms"] = (best_ms("construct.levels_apply_move.self_ns"),
                                                "ms")
    m["pool.calls"] = (counts["pool.calls"], "count")
    m["pool.self_ms"] = (best_ms("pool.self_ns"), "ms")
    m["pool.comparisons"] = (counts["pool.self_cmp"], "count")
    for q in tracing.SPLIT_QUERIES:
        m[f"split.{q}.calls"] = (counts[f"split.{q}.calls"], "count")
        m[f"split.{q}.self_ms"] = (best_ms(f"split.{q}.self_ns"), "ms")
        m[f"split.{q}.comparisons"] = (counts[f"split.{q}.self_cmp"], "count")
    for q in ("node_count", "min_index"):
        m[f"split.{q}.calls"] = (counts[f"split.{q}.calls"], "count")
        m[f"split.{q}.self_ms"] = (best_ms(f"split.{q}.self_ns"), "ms")
    m["split.max_depth"] = (counts["split.max_depth"], "count")
    fsi_calls = snapshots[-1]["split.fsi.calls"]
    m["split.fsi_distinct_frac"] = (snapshots[-1]["split.fsi_keys"] / fsi_calls if fsi_calls
                                    else 0.0, "ratio")
    m["selection.select_rank.calls"] = (counts["selection.select_rank.calls"], "count")
    m["selection.select_rank.self_ms"] = (best_ms("selection.select_rank.self_ns"), "ms")
    m["selection.select_rank.comparisons"] = (counts["selection.select_rank.self_cmp"], "count")
    m["selection.select_rank.items"] = (counts["selection.select_rank.items"], "count")
    m["oracle.heap_ms"] = (min(heap) / 1e6, "ms")
    m["oracle.two_queue_ms"] = (min(two_queue) / 1e6, "ms")
    for fn in ("canonical_codes", "encode", "pack", "unpack", "decode"):
        m[f"codec.{fn}.self_ms"] = (best_ms(f"codec.{fn}.self_ns"), "ms")
    m["codec.bits_per_symbol"] = (sum(s["bits"] for s in reference)
                                  / sum(s["symbols"] for s in reference), "bits/symbol")
    m["trace.overhead_frac"] = (min(traced) / min(untraced) - 1, "ratio")
    attributed = sum(counts[f"construct.{p}.phase_cmp"] for p in tracing.PHASES)
    print(f"comparisons attributed to driver phases {attributed} of "
          f"{sum(s['comparisons'] for s in reference)} counted")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mrcode" / "__init__.py").is_file():
        print(f"perfbench: mrcode sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mrcode
    from mrcode import oracle
    import tracing
    import workloads

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    runner = Runner(mrcode)
    if args.trace:
        metrics = per_layer(workloads, tracing, oracle, runner, args)
    else:
        metrics = end_to_end(workloads, runner, args)
    for err in runner.errors:
        print(f"FAILED {err}")
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    if runner.cpu.probes:
        print(f"cpu probe ms: fastest {min(runner.cpu.probes) / 1e6:.3f}, "
              f"median {statistics.median(runner.cpu.probes) / 1e6:.3f}")
    print(f"failed_frac {failed_frac} ({runner.failed} of {runner.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
