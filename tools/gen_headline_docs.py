#!/usr/bin/env python3
"""Rewrite the measured-number regions of README.md and EXPERIMENTS.md.

Each number the docs quote from Figure 6 and Figure 9 has one home: the
BENCH_fig6_breakdown.json and BENCH_fig9_dyntm.json reports the two benches
write. This script fills every region delimited by

    <!-- generated:NAME begin -->
    ...
    <!-- generated:NAME end -->

from those reports and leaves everything outside the markers untouched.
Regions: `headline` (README), `headline-table`, `fig6-table` and
`fig9-table` (EXPERIMENTS.md).

Usage (from the repo root, seed 42 at scale 1.0):
    ./build/bench/bench_fig6_breakdown 1.0
    ./build/bench/bench_fig9_dyntm 1.0
    python3 tools/gen_headline_docs.py [--reports DIR] [--root DIR]
CI then runs `git diff --exit-code README.md EXPERIMENTS.md`.
"""
import argparse
import json
import re
import sys
from pathlib import Path

APPS = ["bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2",
        "vacation", "yada"]

# (label, report, key, paper %): the paper's Section V / abstract claims.
HEADLINE = [
    ("SUV-TM over LogTM-SE, all apps", "fig6", "suv_vs_logtm_all", 56),
    ("SUV-TM over LogTM-SE, high-contention", "fig6", "suv_vs_logtm_high",
     95),
    ("SUV-TM over FasTM, all apps", "fig6", "suv_vs_fastm_all", 9),
    ("SUV-TM over FasTM, high-contention", "fig6", "suv_vs_fastm_high", 12),
    ("DynTM+SUV over DynTM, all apps", "fig9", "dyntm_suv_vs_dyntm_all",
     9.8),
    ("DynTM+SUV over DynTM, high-contention", "fig9",
     "dyntm_suv_vs_dyntm_high", 18.6),
]


def pct(speedup):
    """Geomean speedup ratio -> signed percent, as the benches print it."""
    return 100.0 * (speedup - 1.0)


def fmt_pct(p, digits=1):
    return f"{p:+.{digits}f} %"


def fmt_int(v):
    return f"{int(v):,}"


def verdict(measured, paper, all_apps_measured):
    """Shape verdict: sign first, then distance from the paper's figure."""
    if (measured > 0) != (paper > 0):
        return "✗ opposite sign"
    gap = measured - paper
    if abs(gap) <= 10:
        out = "✓ within 10 points"
    else:
        out = f"✓ shape ({'over' if gap > 0 else 'under'} by {abs(gap):.0f} points)"
    if all_apps_measured is not None and measured > all_apps_measured:
        out += "; gap wider than all-apps"
    return out


def headline_rows(reports):
    rows = []
    all_apps = None
    for label, report, key, paper in HEADLINE:
        m = pct(reports[report][key])
        high = "high-contention" in label
        rows.append((label, paper, m,
                     verdict(m, paper, all_apps if high else None)))
        all_apps = None if high else m
    return rows


def region_headline(reports):
    lines = ["| Comparison | paper | this repo |", "|---|---|---|"]
    for label, paper, m, _ in headline_rows(reports):
        lines.append(f"| {label} | {paper:+g} % | {fmt_pct(m, 0)} |")
    return lines


def region_headline_table(reports):
    lines = ["| Geomean speedup | paper | measured | verdict |",
             "|---|---|---|---|"]
    for label, paper, m, v in headline_rows(reports):
        lines.append(f"| {label} | {paper:+g} % | {fmt_pct(m)} | {v} |")
    return lines


def region_fig6_table(reports):
    r = reports["fig6"]
    lines = ["| app | LogTM-SE | FasTM | SUV-TM | abort% L / F / S |",
             "|---|---|---|---|---|"]
    for app in APPS:
        aborts = " / ".join(f"{r[f'abort_pct.{s}.{app}']:.1f}"
                            for s in ("logtm", "fastm", "suv"))
        lines.append(f"| {app} | {fmt_int(r[f'makespan.logtm.{app}'])} | "
                     f"{fmt_int(r[f'makespan.fastm.{app}'])} | "
                     f"{fmt_int(r[f'makespan.suv.{app}'])} | {aborts} |")
    return lines


def region_fig9_table(reports):
    r = reports["fig9"]
    lines = ["| app | DynTM | DynTM+SUV | speedup | Committing D | "
             "Committing D+S |", "|---|---|---|---|---|---|"]
    for app in APPS:
        d = r[f"makespan.dyntm.{app}"]
        ds = r[f"makespan.dyntm-suv.{app}"]
        lines.append(f"| {app} | {fmt_int(d)} | {fmt_int(ds)} | "
                     f"{fmt_pct(100.0 * (d / ds - 1.0))} | "
                     f"{fmt_int(r[f'committing.dyntm.{app}'])} | "
                     f"{fmt_int(r[f'committing.dyntm-suv.{app}'])} |")
    return lines


REGIONS = {
    "headline": region_headline,
    "headline-table": region_headline_table,
    "fig6-table": region_fig6_table,
    "fig9-table": region_fig9_table,
}

MARKER = re.compile(
    r"(<!-- generated:(?P<name>[\w-]+) begin -->\n)(?P<body>.*?)"
    r"(<!-- generated:(?P=name) end -->)", re.S)


def rewrite(text, reports, seen):
    def fill(m):
        name = m.group("name")
        if name not in REGIONS:
            raise SystemExit(f"gen_headline_docs: unknown region '{name}'")
        seen.add(name)
        body = "\n".join(REGIONS[name](reports)) + "\n"
        return m.group(1) + body + m.group(4)
    return MARKER.sub(fill, text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reports", default=".",
                    help="directory holding the BENCH_*.json reports")
    ap.add_argument("--root", default=".",
                    help="repo root holding README.md and EXPERIMENTS.md")
    args = ap.parse_args()

    reports = {}
    for name, file in (("fig6", "BENCH_fig6_breakdown.json"),
                       ("fig9", "BENCH_fig9_dyntm.json")):
        reports[name] = json.loads((Path(args.reports) / file).read_text())
        if reports[name].get("scale") != 1:
            print(f"gen_headline_docs: {file} was run at scale "
                  f"{reports[name].get('scale')}; the docs quote scale 1.0",
                  file=sys.stderr)
            return 1

    seen = set()
    for doc in ("README.md", "EXPERIMENTS.md"):
        path = Path(args.root) / doc
        path.write_text(rewrite(path.read_text(), reports, seen))
    missing = set(REGIONS) - seen
    if missing:
        print(f"gen_headline_docs: no markers for {sorted(missing)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
