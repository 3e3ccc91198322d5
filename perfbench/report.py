#!/usr/bin/env python3
"""Prints and compares the serving benchmark's result records.

    python3 perfbench/report.py show [RESULTS ...]
    python3 perfbench/report.py diff BASE NEW

RESULTS, BASE and NEW are record files written by perfbench/run.py or
directories of them (default .bench_build/results). `show` prints, per
workload, every end-to-end and per-layer metric by name and unit with the
median and quartiles over the records, plus the host fingerprints and the
traced runs' notes. `diff` puts two result sets side by side: each metric's
median and quartiles on both sides and the ratio NEW/BASE together with its
base. Records whose host fingerprints (nproc, compiler, build type) differ
are flagged as not comparable. With a BENCHMARK.json next to perfbench/, an
end-to-end metric that got worse by more than its bound is flagged.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_RESULTS = os.path.join(os.path.dirname(HERE), ".bench_build", "results")
HOST_KEYS = ("nproc", "compiler", "build_type")


def load(paths):
    """Every record under `paths` (files or directories)."""
    records = []
    for path in paths:
        files = (sorted(glob.glob(os.path.join(path, "*.json")))
                 if os.path.isdir(path) else [path])
        for name in files:
            with open(name) as f:
                records.append(json.load(f))
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# (section, record key, title): the gated end-to-end metrics, the
# workload's own end-to-end figures under their specific names, the layers.
SECTIONS = (("e2e", "end_to_end", "end to end"),
            ("detail", "details", "workload details"),
            ("layer", "per_layer", "per layer"))


def collect(records):
    """{workload: {section: {name: (unit, [values])}}}."""
    out = {}
    for r in records:
        w = out.setdefault(r["workload"], {s: {} for s, _, _ in SECTIONS})
        for section, key, _ in SECTIONS:
            for name, m in r.get(key, {}).items():
                w[section].setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
    return out


def host(record):
    return tuple(record["fingerprint"].get(k) for k in HOST_KEYS)


def fingerprints(records):
    """Distinct host fingerprints and the git shas seen, as text."""
    hosts = sorted({host(r) for r in records}, key=str)
    shas = sorted({r["fingerprint"].get("git_sha", "?") for r in records})
    seeds = sorted({r["fingerprint"].get("seed") for r in records})
    lines = ["host nproc=%s compiler=%s build=%s" % h for h in hosts]
    lines.append("git %s; seeds %s" % (",".join(shas),
                                       ",".join(str(s) for s in seeds)))
    return lines


def show(records, out=sys.stdout):
    for line in fingerprints(records):
        print(line, file=out)
    for workload, sections in sorted(collect(records).items()):
        runs = [r for r in records if r["workload"] == workload]
        print("\n== %s: %d records, %d correct, attempted %d, failed %d, "
              "wrong %d" % (workload, len(runs),
                            sum(1 for r in runs if r["correct"]),
                            sum(r["attempted"] for r in runs),
                            sum(r["failed"] for r in runs),
                            sum(r.get("wrong", 0) for r in runs)), file=out)
        for section, _, title in SECTIONS:
            if not sections[section]:
                continue
            print("  %s%s %6s %3s %14s %14s %14s" % (
                title, " " * (34 - len(title)), "unit", "n", "median", "q1",
                "q3"), file=out)
            for name, (unit, values) in sorted(sections[section].items()):
                q1, med, q3 = quartiles(values)
                print("    %-32s %6s %3d %14.4f %14.4f %14.4f" % (
                    name, unit, len(values), med, q1, q3), file=out)
        for r in runs:
            for note in r.get("notes", []):
                print("  note (seed %s): %s" % (r["fingerprint"]["seed"], note),
                      file=out)


def bounds():
    """End-to-end bounds and directions from BENCHMARK.json, if present."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def diff(base, new, out=sys.stdout):
    """Prints the comparison; returns False when the sets are not comparable
    or an end-to-end metric regressed past its bound."""
    ok = True
    base_hosts = {host(r) for r in base}
    new_hosts = {host(r) for r in new}
    print("base: " + "; ".join(fingerprints(base)), file=out)
    print("new:  " + "; ".join(fingerprints(new)), file=out)
    if len(base_hosts | new_hosts) != 1:
        print("NOT COMPARABLE: host fingerprints differ", file=out)
        ok = False
    limits = bounds()
    a, b = collect(base), collect(new)
    for workload in sorted(set(a) & set(b)):
        print("\n== %s (%d base, %d new records)" % (
            workload, sum(r["workload"] == workload for r in base),
            sum(r["workload"] == workload for r in new)), file=out)
        for section, _, _ in SECTIONS:
            names = sorted(set(a[workload][section]) & set(b[workload][section]))
            for name in names:
                unit, bv = a[workload][section][name]
                _, nv = b[workload][section][name]
                bq1, bmed, bq3 = quartiles(bv)
                nq1, nmed, nq3 = quartiles(nv)
                ratio = nmed / bmed if bmed else float("nan")
                verdict = ""
                if section == "e2e" and name in limits and bmed:
                    better, bound = limits[name]
                    worse = ratio - 1 if better == "lower" else 1 - ratio
                    if worse > bound:
                        verdict = "  WORSE than bound %.2f" % bound
                        ok = False
                print("  %-34s %-6s base %12.4f [%.4f, %.4f]  new %12.4f "
                      "[%.4f, %.4f]  x%.3f of %.4f%s" % (
                          name, unit, bmed, bq1, bq3, nmed, nq1, nq3, ratio,
                          bmed, verdict), file=out)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_show = sub.add_parser("show")
    p_show.add_argument("results", nargs="*", default=[DEFAULT_RESULTS])
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    args = parser.parse_args()
    if args.command == "show":
        records = load(args.results)
        if not records:
            print("no records found", file=sys.stderr)
            return 1
        show(records)
        return 0
    base, new = load([args.base]), load([args.new])
    if not base or not new:
        print("no records found", file=sys.stderr)
        return 1
    return 0 if diff(base, new) else 1


if __name__ == "__main__":
    sys.exit(main())
