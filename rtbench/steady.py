#!/usr/bin/env python3
"""Runs the benchmark over several seeds and checks that it is steady.

Run from the repository root:

    python3 rtbench/steady.py                  # every workload, 10 seeds
    python3 rtbench/steady.py --seeds 5 --workloads churn_14x14

For each workload it runs the `BENCHMARK.json` command untraced, for
`run_seconds`, in two sets A and B over the same seeds, interleaved in time
(A B, B A, A B, ...). Per end-to-end metric it prints each set's median and
spread `(q3 - q1) / median` against a third of the metric's bound, and how
much worse set B's median is than set A's against the bound. It then runs
the first seed traced twice, prints every per-layer metric, asserts that
the counts declared exact repeat exactly, shows how far the other counts
moved, and checks that each workload stresses the layer it claims. Exits
non-zero when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Counts that vary between identical runs: under a finite cache budget the
# admission decision weighs measured decode time. Reported, never asserted.
VARIABLE_COUNTS = [
    "decode.count",
    "cache.warm_hits",
    "cache.demotions",
    "cache.promotions",
    "pool.reused",
    "pool.fresh",
    "multi.staged_decodes",
]

# (workload, larger per-layer metric, smaller per-layer metric): the layer
# split each workload is built to show.
CLAIMS = [
    ("dense_100x100", "placement.us.sum", "decode.us.sum"),
    ("churn_14x14", "decode.us.sum", "placement.us.sum"),
    ("fleet_2x24x24", "multi.queue_wait_us", "load.us.mean"),
]


def run(bench, workload, seed, seconds, trace):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    text = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        text.setdefault(key, []).append(rest)
    return result, text


def exact_counts(text):
    return dict(kv.split("=") for kv in text["exact"][0].split())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give a spread")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    seeds = range(1, args.seeds + 1)
    problems = []

    for workload in workloads:
        values = {s: {name: [] for name in e2e} for s in "AB"}
        samples = []
        for seed in seeds:
            for s in "AB" if seed % 2 else "BA":
                result, text = run(bench, workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} seed {seed}: incorrect run: "
                                    f"{text.get('FAILED', [])[:3]}")
                if set(result["metrics"]) != set(e2e):
                    problems.append(f"{workload}: untraced metrics "
                                    f"{sorted(result['metrics'])}")
                for name in e2e:
                    values[s][name].append(result["metrics"][name]["value"])
                samples.append(text["samples"][0].split()[2])
        print(f"== {workload}: 2 x {args.seeds} seeds, {seconds} s, "
              f"load samples per run {', '.join(samples)}")
        for name, spec in e2e.items():
            limit = spec["bound"] / 3
            a, b = values["A"][name], values["B"][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            # How much worse B's median is than A's, as a share of A's.
            worse = (med_b - med_a) / med_a
            if spec["better"] == "higher":
                worse = -worse
            line = f"  {name:<16} {spec['unit']:<6}"
            for s, v, med in (("A", a, med_a), ("B", b, med_b)):
                sp = spread(v)
                flag = "" if sp < limit else " UNSTEADY"
                if flag:
                    problems.append(f"{workload} {name} set {s}: spread "
                                    f"{sp:.4f} >= {limit:.4f}")
                line += f" {s} {med:.6g} spread {sp:.4f}{flag};"
            flag = "" if worse <= spec["bound"] else " DRIFT"
            if flag:
                problems.append(f"{workload} {name}: B worse than A by "
                                f"{worse:.4f} > {spec['bound']}")
            print(f"{line} B worse by {worse:+.4f} "
                  f"(limits {limit:.4f}, {spec['bound']}){flag}")
            for s in "AB":
                print(f"    {s}: {' '.join(f'{x:.5g}' for x in values[s][name])}")

        # Traced runs: per-layer metrics, exact counts, layer split.
        first = None
        for repeat in range(2):
            result, text = run(bench, workload, seeds[0], seconds, 1)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: incorrect traced run")
            if set(result["metrics"]) != set(layer_names):
                missing = set(layer_names) ^ set(result["metrics"])
                problems.append(f"{workload}: per-layer metrics differ: "
                                f"{sorted(missing)}")
            if first is None:
                first = (result, text)
                for line in text["layer"]:
                    print(f"  layer {line}")
        exact_a, exact_b = exact_counts(first[1]), exact_counts(text)
        print(f"  exact counts {exact_a}: "
              f"{'repeat' if exact_a == exact_b else 'DIFFER ' + str(exact_b)}")
        if exact_a != exact_b:
            problems.append(f"{workload}: exact counts differ")
        metrics_a, metrics_b = first[0]["metrics"], result["metrics"]
        moved = [f"{n} {metrics_a[n]['value']:g}..{metrics_b[n]['value']:g}"
                 for n in VARIABLE_COUNTS if n not in exact_a]
        print(f"  non-exact counts over two runs: {'; '.join(moved)}")
        for name, big, small in CLAIMS:
            if name == workload:
                b, s = metrics_a[big]["value"], metrics_a[small]["value"]
                ok = b > s
                print(f"  claim {big} {b:g} > {small} {s:g}: "
                      f"{'holds' if ok else 'FAILS'}")
                if not ok:
                    problems.append(f"{workload}: {big} <= {small}")

    for p in problems:
        print(f"PROBLEM {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
