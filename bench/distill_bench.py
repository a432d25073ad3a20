#!/usr/bin/env python3
"""Distills Google-Benchmark JSON into the committed BENCH_*.json files.

Default mode pairs BM_<op>_baseline/<size> with BM_<op>_optimized/<size>
and emits one record per (op, size) with ns/op for both sides, the
speedup, and the peak-rows counter where the benchmark reports one. The
SIMD kernel pairs in bench_parallel use this naming too, so the kernels
distill takes bench_report's AND bench_parallel's raw JSON together.

--mode parallel instead groups BM_<op>_t<threads>/<size> (bench_parallel):
t1 is the true serial kernel, every other thread count gets a speedup
relative to it. machine.num_cpus is recorded, and any thread entry with
threads > num_cpus is stamped oversubscribed=true so readers can tell
real scaling from oversubscription on a small machine.

--mode service takes plain BM_<op>/<size> names (bench_service) and emits
ns/op plus any serving-layer counters the benchmark reported: rates
(hit_rate, shed_rate, rejected_rate, requests), exact per-request
latency quantiles (p50_ns, p99_ns, p999_ns — computed by the benchmark
from sorted latency vectors, not from histogram buckets), throughput
(achieved_qps), and the clustered local/remote serving split. Rows that
report a worker_threads counter get the same oversubscribed=true stamp as
--mode parallel when worker_threads > machine.num_cpus, so overload and
saturation numbers from a small machine are not read as real capacity.
(The counter is worker_threads, not threads: the library's own threads
field would shadow a counter of that name.)
net_* ops (the two-node loopback saturation sweep) are split into a
separate "saturation" section of the trajectory entry.

Usage: distill_bench.py <benchmark-json>... <output-json>
                        --build-type CMAKE_BUILD_TYPE [--label LABEL]
                        [--mode kernels|parallel|service]

machine.build_type records --build-type: the CMAKE_BUILD_TYPE the
benchmarked binaries were compiled with. (Google Benchmark's own
library_build_type describes how the benchmark library was packaged, not
the code under test, so it is not recorded.)

Multiple input files are merged benchmark-by-benchmark (first file's
machine context wins) before distilling. Repeated runs of one benchmark
(--benchmark_repetitions) distill to the per-cell MINIMUM time: on a
shared machine the minimum is the least-contended estimate, and both
sides of every pair get the same treatment.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys


def git_head() -> str:
    """HEAD commit of the repo containing this script, or "unknown"."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"

NAME_RE = re.compile(r"^BM_(?P<op>\w+?)_(?P<side>baseline|optimized)/(?P<size>\d+)$")
PARALLEL_RE = re.compile(r"^BM_(?P<op>\w+?)_t(?P<threads>\d+)/(?P<size>\d+)$")
# Pinned-iteration benchmarks (BM_net_saturation) get an "/iterations:N"
# name suffix from the library; tolerate it.
SERVICE_RE = re.compile(
    r"^BM_(?P<op>\w+)/(?P<size>\d+)(?:/iterations:\d+)?$"
)
SERVICE_COUNTERS = (
    "hit_rate",
    "shed_rate",
    "rejected_rate",
    "requests",
    "worker_threads",
    "achieved_qps",
    "local_hit_rate",
    "remote_hit_rate",
    "remote_compute_rate",
    "p50_ns",
    "p99_ns",
    "p999_ns",
)


def keep_min(cell, slot, bench):
    """Fills cell[slot] with the fastest of the repetitions seen."""
    prev = cell.get(slot)
    if prev is None or bench["real_time"] < prev["real_time"]:
        cell[slot] = bench


def distill_kernels(report):
    """(op, size) -> {baseline, optimized} records for bench_report."""
    cells = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        m = NAME_RE.match(bench["name"])
        if not m:
            continue
        key = (m.group("op"), int(m.group("size")))
        keep_min(cells.setdefault(key, {}), m.group("side"), bench)

    kernels = []
    for (op, size), sides in sorted(cells.items()):
        if "baseline" not in sides or "optimized" not in sides:
            sys.stderr.write(f"warning: unpaired benchmark {op}/{size}\n")
            continue
        base = sides["baseline"]
        opt = sides["optimized"]
        base_ns = base["real_time"]  # time_unit is ns by default
        opt_ns = opt["real_time"]
        record = {
            "op": op,
            "size": size,
            "baseline_ns_per_op": round(base_ns, 1),
            "optimized_ns_per_op": round(opt_ns, 1),
            "speedup": round(base_ns / opt_ns, 2) if opt_ns > 0 else None,
        }
        if "peak_rows" in opt:
            record["peak_rows"] = int(opt["peak_rows"])
        kernels.append(record)
    return kernels


def distill_parallel(report, num_cpus=None):
    """(op, size) -> per-thread-count records for bench_parallel."""
    cells = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        m = PARALLEL_RE.match(bench["name"])
        if not m:
            continue
        key = (m.group("op"), int(m.group("size")))
        keep_min(cells.setdefault(key, {}), int(m.group("threads")), bench)

    kernels = []
    for (op, size), by_threads in sorted(cells.items()):
        if 1 not in by_threads:
            sys.stderr.write(f"warning: no t1 baseline for {op}/{size}\n")
            continue
        serial_ns = by_threads[1]["real_time"]
        record = {
            "op": op,
            "size": size,
            "serial_ns_per_op": round(serial_ns, 1),
            "threads": [],
        }
        for threads in sorted(by_threads):
            if threads == 1:
                continue
            ns = by_threads[threads]["real_time"]
            entry = {
                "threads": threads,
                "ns_per_op": round(ns, 1),
                "speedup_vs_serial": round(serial_ns / ns, 2)
                if ns > 0
                else None,
            }
            if num_cpus is not None and threads > num_cpus:
                entry["oversubscribed"] = True
            record["threads"].append(entry)
        kernels.append(record)
    return kernels


def distill_service(report, num_cpus=None):
    """BM_<op>/<size> -> (kernels, saturation) records for bench_service.

    net_* ops — the networked saturation sweep — land in the second list;
    everything else in the first. Rows reporting a threads counter above
    num_cpus are stamped oversubscribed=true (same convention as
    --mode parallel).
    """
    kernels = []
    saturation = []
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        m = SERVICE_RE.match(bench["name"])
        if not m:
            continue
        # real_time is reported in the benchmark's own unit (ns or ms).
        scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            bench.get("time_unit", "ns"), 1
        )
        record = {
            "op": m.group("op"),
            "size": int(m.group("size")),
            "ns_per_op": round(bench["real_time"] * scale, 1),
        }
        for counter in SERVICE_COUNTERS:
            if counter in bench:
                record[counter] = round(float(bench[counter]), 4)
        if (
            num_cpus is not None
            and record.get("worker_threads") is not None
            and record["worker_threads"] > num_cpus
        ):
            record["oversubscribed"] = True
        target = saturation if m.group("op").startswith("net_") else kernels
        target.append(record)
    kernels.sort(key=lambda k: (k["op"], k["size"]))
    saturation.sort(key=lambda k: (k["op"], k["size"]))
    return kernels, saturation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths", nargs="+", metavar="json",
        help="one or more benchmark JSON inputs followed by the output path",
    )
    parser.add_argument("--label", default="trajectory entry")
    parser.add_argument(
        "--build-type", required=True,
        help="CMAKE_BUILD_TYPE of the benchmarked build (e.g. Release)",
    )
    parser.add_argument(
        "--mode", choices=["kernels", "parallel", "service"], default="kernels"
    )
    opts = parser.parse_args()
    if len(opts.paths) < 2:
        sys.stderr.write("error: need at least one input and one output\n")
        return 1
    in_paths, out_path, label = opts.paths[:-1], opts.paths[-1], opts.label

    report = {"context": {}, "benchmarks": []}
    for in_path in in_paths:
        try:
            with open(in_path) as f:
                part = json.load(f)
        except OSError as e:
            sys.stderr.write(f"error: cannot read {in_path}: {e.strerror}\n")
            return 1
        except json.JSONDecodeError as e:
            sys.stderr.write(f"error: {in_path} is not valid JSON: {e}\n")
            return 1
        if not report["context"]:
            report["context"] = part.get("context", {})
        report["benchmarks"].extend(part.get("benchmarks", []))

    if opts.mode == "parallel":
        kernels = distill_parallel(
            report, num_cpus=report.get("context", {}).get("num_cpus")
        )
        if not kernels:
            sys.stderr.write("error: no BM_<op>_t<threads>/<size> benchmarks\n")
            return 1
    elif opts.mode == "service":
        kernels, saturation = distill_service(
            report, num_cpus=report.get("context", {}).get("num_cpus")
        )
        if not kernels and not saturation:
            sys.stderr.write("error: no BM_<op>/<size> benchmarks\n")
            return 1
    else:
        kernels = distill_kernels(report)
        if not kernels:
            sys.stderr.write(
                "error: no paired BM_<op>_<side>/<size> benchmarks\n"
            )
            return 1

    context = report.get("context", {})
    out = {
        "generated_by": "bench/run_benchmarks.sh",
        "machine": {
            "git_head": git_head(),
            # cspdb-lint: allow(wallclock) -- provenance stamp, not a measurement
            "generated_at": datetime.date.today().isoformat(),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "cpu_scaling_enabled": context.get("cpu_scaling_enabled"),
            "build_type": opts.build_type,
        },
        "trajectory": [
            {
                "entry": label,
                # cspdb-lint: allow(wallclock) -- provenance stamp, not a measurement
                "date": datetime.date.today().isoformat(),
                "kernels": kernels,
            }
        ],
    }
    if opts.mode == "service":
        out["trajectory"][0]["saturation"] = saturation
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    if opts.mode == "service":
        kernels = kernels + saturation
    for k in kernels:
        if opts.mode == "service":
            rates = "  ".join(
                f"{c} {k[c]}" for c in SERVICE_COUNTERS if c in k
            )
            print(
                f"{k['op']:>20}/{k['size']:<6} "
                f"{k['ns_per_op']:>14.1f} ns  {rates}"
            )
        elif opts.mode == "parallel":
            scaling = "  ".join(
                f"t{t['threads']} {t['speedup_vs_serial']}x"
                for t in k["threads"]
            )
            print(
                f"{k['op']:>16}/{k['size']:<6} "
                f"serial {k['serial_ns_per_op']:>12.1f} ns  {scaling}"
            )
        else:
            print(
                f"{k['op']:>16}/{k['size']:<6} "
                f"baseline {k['baseline_ns_per_op']:>12.1f} ns  "
                f"optimized {k['optimized_ns_per_op']:>12.1f} ns  "
                f"speedup {k['speedup']}x"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
