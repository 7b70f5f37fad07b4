#!/usr/bin/env python3
"""Remap a finished run across the builtin grid-intensity table.

Shows how identical energy use maps to different CO2e totals by region.
Emits a plot-ready CSV on stdout.  Exits as `greenfl` does: 2 for a
directory without rounds.csv, 1 for a bad row or a rounds.csv that is not
UTF-8, each with one `error:` line.
"""

import argparse
import sys

from greenfl.cli import guarded, read_run_dir
from greenfl.reporting import region_cis, remap_grid_intensity, summarize_run
from greenfl.sites import BUILTIN_REGIONS


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run_dir", help="directory containing rounds.csv")
    return guarded(whatif_grid, parser.parse_args(argv))


def whatif_grid(args):
    records = read_run_dir(args.run_dir, "run_dir")
    base = summarize_run(records)
    print("region,ci_kg_per_kwh,total_energy_kwh,total_co2e_kg")
    for code, region in sorted(BUILTIN_REGIONS.items()):
        mapping = {seen: region.ci_kg_per_kwh for seen in region_cis(records)}
        report = summarize_run(remap_grid_intensity(records, mapping))
        print(f"{code},{region.ci_kg_per_kwh!r},{report.total_energy_kwh!r},{report.total_co2e_kg!r}")
    print(f"# original total: {base.total_co2e_kg!r} kg CO2e", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
