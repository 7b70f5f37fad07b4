"""Command-line entry point: run scenarios, report, what-if, calibrate.

Exit codes: 0 success, 1 runtime failure (an OSError included), 2
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .config import bundled_config_path, load_accuracies, load_json, load_targets, load_tiers, parse_config
from .errors import ConfigError, GreenflError, SchemaViolation
from .reporting import (
    TierTarget,
    calibrate_tiers,
    parse_round_log,
    region_cis,
    remap_grid_intensity,
    summarize_run,
)
from .runner import plan_run, train_trajectory, write_artifacts, write_json
from .sites import BUILTIN_REGIONS

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _resolve_config_path(name_or_path: str) -> Path:
    path = Path(name_or_path)
    if path.exists():
        return path
    bundled = bundled_config_path(name_or_path)
    if bundled.is_file():
        return bundled
    raise ConfigError("config", f"no such config file or bundled scenario: {name_or_path}")


def _check_out_dir(out: str) -> None:
    """ConfigError at `out` unless `out` is, or can be made, a directory:
    its nearest existing ancestor, itself included, must be a directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError("out", f"{existing} is not a directory")


def _check_out_file(out: str) -> None:
    """ConfigError at `out` unless `out` can be a file in an existing directory."""
    path = Path(out)
    if path.is_dir():
        raise ConfigError("out", f"{path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError("out", f"{path.parent} is not a directory")


def _nonempty(path: str, flag: str) -> str:
    """`path`, unless it is empty, which `Path` would read as the working
    directory: then a ConfigError at `flag`, before the path is used."""
    if path == "":
        raise ConfigError(flag, "must not be an empty path")
    return path


def cmd_run(args) -> int:
    doc = load_json(_resolve_config_path(_nonempty(args.config, "config")), "config")
    if args.seed is not None:
        doc["seed"] = args.seed
    overrides = None if args.tiers is None else load_tiers(_nonempty(args.tiers, "tiers"))
    cfg = parse_config(doc, tier_overrides=overrides)
    _check_out_dir(_nonempty(args.out, "out"))
    records, report = plan_run(cfg)
    trajectory = train_trajectory(cfg.spec)
    report = dataclasses.replace(report, accuracy_by_round=list(trajectory.accuracy_by_round))
    write_artifacts(args.out, cfg, records, report)
    print(f"{cfg.scenario}: {len(cfg.sites)} sites x {cfg.spec.num_rounds} rounds -> {args.out}")
    print(
        f"  total {report.total_co2e_kg:.6g} kg CO2e, {report.total_energy_kwh:.6g} kWh, "
        f"runtime {report.runtime_min:.4g} min, final accuracy "
        f"{report.accuracy_by_round[-1]:.4f}"
    )
    return EXIT_OK


def read_run_dir(run_dir, what: str = "in"):
    csv_path = Path(_nonempty(run_dir, what)) / "rounds.csv"
    if not csv_path.is_file():
        raise ConfigError(what, f"{run_dir} does not contain rounds.csv")
    try:
        text = csv_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, so `guarded` would not catch it
        raise SchemaViolation("rounds.csv", f"{csv_path} is not UTF-8: {exc}") from None
    return parse_round_log(text)


def _run_label(records) -> str:
    tiers = Counter(r.tier_label for r in records)
    return tiers.most_common(1)[0][0] if tiers else "run"


def _co2e_ratio(report, base) -> float | None:
    """`report`'s total CO2e over `base`'s; None for a zero baseline or an
    overflowing ratio."""
    if not base.total_co2e_kg:
        return None
    ratio = report.total_co2e_kg / base.total_co2e_kg
    return ratio if math.isfinite(ratio) else None


def cmd_report(args) -> int:
    runs = []
    for run_dir in args.in_dirs:
        records = read_run_dir(run_dir)
        summary = Path(run_dir) / "summary.json"
        accuracies = load_accuracies(summary) if args.format == "json" and summary.is_file() else None
        report = dataclasses.replace(summarize_run(records), accuracy_by_round=accuracies)
        runs.append((run_dir, _run_label(records), report))
    _, base_label, base = runs[0]
    runs = [(d, label, r, _co2e_ratio(r, base)) for d, label, r in runs]

    if args.format == "json":
        payload = [
            {"dir": str(d), "label": label, "co2e_ratio": ratio, **r.to_dict()} for d, label, r, ratio in runs
        ]
        print(json.dumps(payload, indent=2, allow_nan=False))
        return EXIT_OK

    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["run", "site_id", "energy_kwh", "co2e_kg", "busy_s"])
        for _, label, report, _ in runs:
            for site, t in report.per_site.items():
                writer.writerow([label, site, repr(t.energy_kwh), repr(t.co2e_kg), repr(t.busy_s)])
        return EXIT_OK

    for run_dir, label, report, ratio in runs:
        print(f"run {label} ({run_dir}): {report.num_rounds} rounds")
        print(f"  {'site':<12} {'energy_kwh':>14} {'co2e_kg':>14} {'busy_min':>10}")
        for site, t in report.per_site.items():
            print(f"  {site:<12} {t.energy_kwh:>14.6g} {t.co2e_kg:>14.6g} {t.busy_s / 60.0:>10.4g}")
        print(
            f"  mean energy/round {report.mean_energy_kwh_per_round:.6g} kWh | "
            f"comm {report.comm_co2e_kg:.6g} kg | total {report.total_co2e_kg:.6g} kg CO2e | "
            f"runtime {report.runtime_min:.4g} min | {label}/{base_label}={'n/a' if ratio is None else f'{ratio:.2f}'}"
        )
    return EXIT_OK


def cmd_whatif(args) -> int:
    records = read_run_dir(args.in_dir)
    if args.ci is not None:
        if not (math.isfinite(args.ci) and args.ci >= 0):
            raise ConfigError("ci", "carbon intensity must be finite and >= 0")
        ci = args.ci + 0.0  # reads -0.0 as 0.0
    elif args.region in BUILTIN_REGIONS:
        ci = BUILTIN_REGIONS[args.region].ci_kg_per_kwh
    else:
        raise ConfigError("region", f"unknown region {args.region!r}")
    mapping = {code: ci for code in region_cis(records)}  # regions in first-seen row order
    remapped = remap_grid_intensity(records, mapping)
    report = summarize_run(remapped)
    original = summarize_run(records)
    print(json.dumps(
        {
            "ci_kg_per_kwh": mapping,
            "original_total_co2e_kg": original.total_co2e_kg,
            "remapped_total_co2e_kg": report.total_co2e_kg,
            "total_energy_kwh": report.total_energy_kwh,
            "per_site_co2e_kg": {site: t.co2e_kg + t.comm_co2e_kg for site, t in report.per_site.items()},
        },
        indent=2,
        allow_nan=False,
    ))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _check_out_file(_nonempty(args.out, "out"))
    records = read_run_dir(args.baseline, "baseline")
    targets = {label: TierTarget(**t) for label, t in load_targets(_nonempty(args.targets, "targets")).items()}
    tiers = calibrate_tiers(summarize_run(records).mean_energy_kwh_per_round, targets)
    knobs = {label: {"slowdown_factor": t.slowdown_factor, "power_scale": t.power_scale} for label, t in tiers.items()}
    write_json(args.out, {"tiers": knobs})
    print(f"calibrated {len(tiers)} tiers -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="greenfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write artifacts")
    p_run.add_argument("--config", required=True, help="config file path or bundled scenario name")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--tiers", default=None, help="calibrated tier preset file")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize one or more run directories")
    p_rep.add_argument("--in", dest="in_dirs", nargs="+", required=True, help="run directories")
    p_rep.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_rep.set_defaults(func=cmd_report)

    p_what = sub.add_parser("whatif", help="remap a run's emissions to another grid intensity")
    p_what.add_argument("--in", dest="in_dir", required=True, help="run directory")
    group = p_what.add_mutually_exclusive_group(required=True)
    group.add_argument("--ci", type=float, default=None, help="carbon intensity, kg CO2e per kWh")
    group.add_argument("--region", default=None, help="region code from the builtin intensity table")
    p_what.set_defaults(func=cmd_whatif)

    p_cal = sub.add_parser("calibrate", help="fit tier knobs to published per-round means")
    p_cal.add_argument("--baseline", required=True, help="baseline (high tier) run directory")
    p_cal.add_argument("--targets", required=True, help="JSON file of per-tier targets")
    p_cal.add_argument("--out", required=True, help="output tier preset file")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def guarded(command, args) -> int:
    """`command(args)`'s exit code; a failure prints one `error:` line: 2 for a ConfigError, else 1."""
    try:
        return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GreenflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
