#!/usr/bin/env python3
"""Render the paper's Table I / Fig. 11 / Fig. 13 CSVs from sched reports.

Usage:
    paper_figures.py --out DIR [--check] EVENT=SCHED_JSON [EVENT=... ]

Each positional argument names one event and the acx_sched --json output
modeling it (``sanfernando=/tmp/sf/sched.json``).  Writes three CSVs to
DIR:

  table1.csv  one row per event: measured seq / seq-opt wall clock (when
              the sched report carries those anchors) next to the four
              modeled driver makespans and their speedups vs the
              report's anchor driver — the Table I reproduction.
  fig11.csv   one row per pipeline stage of the event with the most
              points: sequential cost, share of the anchor's paper-chain
              (record-scoped) work — or, for a station-scoped stage, its
              share of all anchor work in its own column — modeled cost
              on P procs, per-stage modeled speedup — Fig. 11.
  fig13.csv   one row per event sorted by points ascending: full-driver
              modeled speedup and throughput (points per modeled
              second) — the Fig. 13 scaling story.

``--check`` additionally enforces the paper's qualitative claims on
every event and exits 1 on violation:

  * the full driver's modeled speedup exceeds the partial driver's,
    which exceeds the sequential-optimized driver's;
  * the response stage (Stage IX) has the largest modeled per-stage
    speedup and the largest share of the paper chain's work;
  * every driver's makespan respects Brent's bounds
    max(T1/P, Tinf) <= Tp <= T1/P + Tinf (small float tolerance).

Exit codes: 0 ok, 1 --check violation, 2 usage/input error.
"""

import argparse
import json
import os
import sys

SCHED_VERSION = 2

TABLE1_COLUMNS = [
    "event", "records", "points", "seq_measured_s", "seq_opt_measured_s",
    "seq_model_s", "seq_opt_model_s", "partial_model_s", "full_model_s",
    "seq_opt_speedup", "partial_speedup", "full_speedup",
]
FIG11_COLUMNS = [
    "stage", "redundant", "station_scoped", "tasks", "seq_seconds", "share",
    "station_share", "modeled_seconds", "modeled_speedup",
]
FIG13_COLUMNS = [
    "event", "records", "points", "full_speedup", "points_per_second",
]


def load_sched(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"paper_figures: cannot read {path}: {exc}")
    if doc.get("version") != SCHED_VERSION or doc.get("tool") != "acx_sched":
        raise SystemExit(
            f"paper_figures: {path} is not an acx_sched v{SCHED_VERSION} "
            "report")
    for key in ("procs", "anchor", "records", "points", "drivers", "stages"):
        if key not in doc:
            raise SystemExit(f"paper_figures: {path} lacks '{key}'")
    return doc


def driver_row(doc, name):
    for row in doc["drivers"]:
        if row["driver"] == name:
            return row
    return None


def measured_seconds(doc, name):
    for row in doc.get("measured", []):
        if row["driver"] == name:
            return row["total_seconds"]
    return None


def fmt(value, places=6):
    if value is None:
        return ""
    return f"{value:.{places}f}"


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def check_event(event, doc, failures):
    procs = doc["procs"]
    seq_opt = driver_row(doc, "seq-opt")
    partial = driver_row(doc, "partial")
    full = driver_row(doc, "full")
    if not (seq_opt and partial and full):
        failures.append(f"{event}: missing a modeled driver row")
        return
    if not full["speedup"] > partial["speedup"] > seq_opt["speedup"]:
        failures.append(
            f"{event}: speedup order violated "
            f"(full {full['speedup']:.2f} / partial {partial['speedup']:.2f}"
            f" / seq-opt {seq_opt['speedup']:.2f})")
    best = max(doc["stages"], key=lambda s: s["speedup"])
    if best["stage"] != "response":
        failures.append(
            f"{event}: largest per-stage speedup is {best['stage']} "
            f"({best['speedup']:.2f}x), expected response")
    paper = [s for s in doc["stages"] if not s["station_scoped"]]
    heaviest = max(paper, key=lambda s: s["share"])
    if heaviest["stage"] != "response":
        failures.append(
            f"{event}: largest paper-chain share is {heaviest['stage']} "
            f"({heaviest['share']:.4f}), expected response")
    for row in doc["drivers"]:
        lower = max(row["work"] / procs, row["span"])
        upper = row["work"] / procs + row["span"]
        slack = 1e-9 + 1e-6 * upper
        if not (lower - slack <= row["makespan"] <= upper + slack):
            failures.append(
                f"{event}: {row['driver']} makespan {row['makespan']:.6f}"
                f" outside Brent bounds [{lower:.6f}, {upper:.6f}]")


def main(argv):
    parser = argparse.ArgumentParser(
        prog="paper_figures", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--check", action="store_true",
                        help="enforce the paper's qualitative claims")
    parser.add_argument("events", nargs="+", metavar="EVENT=SCHED_JSON")
    args = parser.parse_args(argv)

    pairs = []
    for spec in args.events:
        if "=" not in spec:
            parser.error(f"'{spec}' is not EVENT=SCHED_JSON")
        event, path = spec.split("=", 1)
        pairs.append((event, load_sched(path)))

    os.makedirs(args.out, exist_ok=True)

    table1 = []
    for event, doc in pairs:
        seq = driver_row(doc, "seq")
        seq_opt = driver_row(doc, "seq-opt")
        partial = driver_row(doc, "partial")
        full = driver_row(doc, "full")
        table1.append({
            "event": event,
            "records": doc["records"],
            "points": int(doc["points"]),
            "seq_measured_s": fmt(measured_seconds(doc, "seq")),
            "seq_opt_measured_s": fmt(measured_seconds(doc, "seq-opt")),
            "seq_model_s": fmt(seq["makespan"] if seq else None),
            "seq_opt_model_s": fmt(seq_opt["makespan"] if seq_opt else None),
            "partial_model_s": fmt(partial["makespan"] if partial else None),
            "full_model_s": fmt(full["makespan"] if full else None),
            "seq_opt_speedup": fmt(seq_opt["speedup"] if seq_opt else None,
                                   3),
            "partial_speedup": fmt(partial["speedup"] if partial else None,
                                   3),
            "full_speedup": fmt(full["speedup"] if full else None, 3),
        })
    write_csv(os.path.join(args.out, "table1.csv"), TABLE1_COLUMNS, table1)

    fig_event, fig_doc = max(pairs, key=lambda p: p[1]["points"])
    fig11 = []
    for stage in fig_doc["stages"]:
        station = stage["station_scoped"]
        fig11.append({
            "stage": stage["stage"],
            "redundant": int(stage["redundant"]),
            "station_scoped": int(station),
            "tasks": stage["tasks"],
            "seq_seconds": fmt(stage["seq_seconds"]),
            "share": "" if station else fmt(stage["share"], 4),
            "station_share": fmt(stage["station_share"], 4) if station else "",
            "modeled_seconds": fmt(stage["modeled_seconds"]),
            "modeled_speedup": fmt(stage["speedup"], 3),
        })
    write_csv(os.path.join(args.out, "fig11.csv"), FIG11_COLUMNS, fig11)

    fig13 = []
    for event, doc in sorted(pairs, key=lambda p: p[1]["points"]):
        full = driver_row(doc, "full")
        throughput = None
        if full and full["makespan"] > 0:
            throughput = doc["points"] / full["makespan"]
        fig13.append({
            "event": event,
            "records": doc["records"],
            "points": int(doc["points"]),
            "full_speedup": fmt(full["speedup"] if full else None, 3),
            "points_per_second": fmt(throughput, 1),
        })
    write_csv(os.path.join(args.out, "fig13.csv"), FIG13_COLUMNS, fig13)

    print(f"paper_figures: wrote table1.csv ({len(table1)} events), "
          f"fig11.csv ({len(fig11)} stages of {fig_event}), "
          f"fig13.csv ({len(fig13)} events) to {args.out}")

    if args.check:
        failures = []
        for event, doc in pairs:
            check_event(event, doc, failures)
        for failure in failures:
            print(f"paper_figures: CHECK FAILED: {failure}",
                  file=sys.stderr)
        if failures:
            return 1
        print(f"paper_figures: checks passed on {len(pairs)} event(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
