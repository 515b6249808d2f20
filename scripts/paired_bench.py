#!/usr/bin/env python3
"""Paired benchmark runs of the working tree against a parent revision.

Usage:

    scripts/paired_bench.py PARENT_REV WORKLOADS PAIRS SECONDS [--first-seed N]
                            [--json FILE]

WORKLOADS is one workload or a comma list (`cold,warm,drift`). The
script exports PARENT_REV (`git archive`) into a temporary directory,
builds the benchmark once on each side, then, workload by workload,
runs the `BENCHMARK.json` command (`--workload W --seed N --seconds
SECONDS --trace 0`) PAIRS times on each side. Pair i uses seed N + i on
both sides (N defaults to 1000, away from the seeds small smoke runs
use), and the side that runs first alternates from pair to pair, so a
slow stretch of the machine falls on both sides alike.

Each run ends with one JSON line whose `metrics` map holds the
end-to-end metrics. For each workload, and every end-to-end metric of
`BENCHMARK.json`, the script prints each side's median and quartiles,
the change of the medians, how many pairs the working tree won (in the
metric's `better` direction), and whether the median gain exceeds the
parent's quartile spread. It also prints `failed` per side. So one
command gives both a change's claimed gain and its no-regression rows.
The temporary directory is removed on exit.

With `--json FILE` the same numbers are also written to FILE as one
JSON object, to be committed as a bench point: per workload the seeds,
`failed` and each run's machine speed (the kernel speed the run reports
its times against) per side, and per end-to-end metric each side's
quartiles, the change of the medians, the wins and whether the gain
exceeds the parent's quartile spread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


# Each side builds into its own checkout's target directory; a shared
# CARGO_TARGET_DIR would make the two sides overwrite each other's build.
ENV = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def run(cmd, cwd, capture=False):
    """Runs `cmd` in `cwd`, failing loudly; returns stdout if captured."""
    result = subprocess.run(
        cmd, cwd=cwd, env=ENV, check=True, text=True,
        stdout=subprocess.PIPE if capture else None,
    )
    return result.stdout


def build_command(command):
    """The build step of a `cargo run ... -- ARGS` command, or None."""
    if len(command) < 2 or command[0] != "cargo" or command[1] != "run":
        return None
    head = command[: command.index("--")] if "--" in command else command
    return ["cargo", "build"] + head[2:]


# The run's summary line reports the median machine speed of its passes
# after this marker.
SPEED_MARK = "at median machine speed "


def bench_once(command, cwd, workload, seed, seconds):
    """One benchmark run; returns (metrics, failed, machine speed)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = run(command + args, cwd, capture=True)
    lines = out.splitlines()
    last = [line for line in lines if line.startswith("{")][-1]
    record = json.loads(last)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    speed = next((float(line.split(SPEED_MARK)[1].split(";")[0])
                  for line in lines if SPEED_MARK in line), None)
    return metrics, record["failed"], speed


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_pairs(command, sides, workload, pairs, seconds, first_seed, metrics):
    """PAIRS alternating runs of one workload; returns (results, failed,
    speeds), each keyed by side."""
    results = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    speeds = {"parent": [], "change": []}
    for i in range(pairs):
        seed = first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            m, f, speed = bench_once(command, sides[side], workload, seed,
                                     seconds)
            results[side].append(m)
            failed[side] += f
            speeds[side].append(speed)
        print(f"{workload} pair {i + 1}/{pairs} seed {seed}: " + ", ".join(
            f"{s} {results[s][-1].get(metrics[0]['name'], float('nan')):.4g}"
            for s in order), file=sys.stderr, flush=True)
    return results, failed, speeds


def summarize(metrics, results):
    """Per end-to-end metric: each side's quartiles, the relative change
    of the medians, wins, pairs, and whether the gain exceeds the
    parent's quartile spread. Metrics no run reported are left out."""
    rows = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(p[name], c[name])
                 for p, c in zip(results["parent"], results["change"])
                 if name in p and name in c]
        if not pairs:
            continue
        p_q = quartiles([p for p, _ in pairs])
        c_q = quartiles([c for _, c in pairs])
        gain = c_q[1] - p_q[1] if higher else p_q[1] - c_q[1]
        rows[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": dict(zip(("q1", "median", "q3"), p_q)),
            "change": dict(zip(("q1", "median", "q3"), c_q)),
            "change_pct": ((c_q[1] - p_q[1]) / p_q[1] * 100
                           if p_q[1] else None),
            "wins": sum(1 for p, c in pairs if (c > p if higher else c < p)),
            "pairs": len(pairs),
            "beyond_iqr": gain > p_q[2] - p_q[0],
        }
    return rows


def print_table(workload, pairs, seconds, first_seed, rows, failed):
    """One workload's per-metric medians, quartiles and wins."""
    print(f"workload {workload}, {pairs} pairs x {seconds} s, "
          f"seeds {first_seed}..{first_seed + pairs - 1}")
    print(f"failed: parent {failed['parent']}, change {failed['change']}")
    header = (f"{'metric':<18} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'change':>8} {'wins':>6} beyond-IQR")
    print(header)
    fmt = lambda q: "/".join(f"{q[k]:.4g}" for k in ("q1", "median", "q3"))
    for name, row in rows.items():
        rel = row["change_pct"] if row["change_pct"] is not None else float("nan")
        print(f"{name:<18} {fmt(row['parent']):>32} {fmt(row['change']):>32} "
              f"{rel:>+7.1f}% {row['wins']:>3}/{row['pairs']:<2} "
              f"{'yes' if row['beyond_iqr'] else 'no'}")
    print(flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("workloads", help="one workload or a comma list")
    parser.add_argument("pairs", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--json", metavar="FILE",
                        help="also write the results to FILE as JSON")
    opts = parser.parse_args()
    workloads = [w for w in opts.workloads.split(",") if w]

    root = run(["git", "rev-parse", "--show-toplevel"],
               os.path.dirname(os.path.abspath(__file__)), capture=True).strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    metrics = bench["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="paired-bench-")
    parent = os.path.join(tmp, "parent")
    os.mkdir(parent)
    try:
        archive = subprocess.Popen(["git", "archive", opts.parent_rev],
                                   cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", parent], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"git archive {opts.parent_rev} failed")
        sides = {"parent": parent, "change": root}
        build = build_command(command)
        if build:
            for cwd in sides.values():
                run(build, cwd)
        point = {
            "parent_rev": run(["git", "rev-parse", opts.parent_rev], root,
                              capture=True).strip(),
            "command": command,
            "pairs": opts.pairs,
            "seconds": opts.seconds,
            "workloads": {},
        }
        for workload in workloads:
            results, failed, speeds = run_pairs(
                command, sides, workload, opts.pairs, opts.seconds,
                opts.first_seed, metrics)
            rows = summarize(metrics, results)
            print_table(workload, opts.pairs, opts.seconds, opts.first_seed,
                        rows, failed)
            point["workloads"][workload] = {
                "seeds": [opts.first_seed + i for i in range(opts.pairs)],
                "failed": failed,
                "machine_speed": speeds,
                "metrics": rows,
            }
        if opts.json:
            with open(opts.json, "w") as f:
                json.dump(point, f, indent=2)
                f.write("\n")
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
