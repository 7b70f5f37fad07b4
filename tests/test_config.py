"""The input boundary: every config, `--tiers` and `--targets` file is read
against one field table, and a bad field exits 2 with its dotted path."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from greenfl.cli import main
from greenfl.config import bundled_config_path, parse_config
from greenfl.errors import ConfigError
from greenfl.reporting import write_round_log

from conftest import small_doc

BUNDLED = [
    "cifar_tiers_high",
    "cifar_tiers_medium",
    "cifar_tiers_low",
    "retina_gpuswap_h100",
    "retina_gpuswap_v100",
]
NAN, INF = float("nan"), float("inf")


def custom_doc():
    """small_doc whose first site uses a config-defined hardware profile,
    tier and region, and whose second site uses the builtin medium tier."""
    doc = small_doc(
        hardware={
            "box": {
                "train_power_w": {"cpu_w": 40.0, "gpu_w": 200.0},
                "idle_power_w": {"cpu_w": 10.0},
                "init_spike_energy_kwh": 1e-6,
                "throughput_steps_per_s": 500.0,
            }
        },
        tiers={"slow": {"slowdown_factor": 2.0, "power_scale": 1.5}},
        regions={"XYZ": 0.25},
    )
    doc["sites"][0].update(hardware="box", tier="slow", region="XYZ")
    doc["sites"][1]["tier"] = "medium"
    return doc


def set_path(doc, path, value):
    """Set `doc` at a dotted path such as "sites[0].tier"; returns `doc`."""
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def cli(*argv):
    """`greenfl *argv` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run(tmp_path, doc, *extra):
    """`greenfl run` on `doc`; returns (exit code, stdout, stderr)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return cli("run", "--config", str(config), "--out", str(tmp_path / "out"), *extra)


def tiers_file(tmp_path, medium):
    path = tmp_path / "tiers.json"
    path.write_text(json.dumps({"tiers": {"medium": medium}}))
    return ["--tiers", str(path)]


# Each of these was accepted, silently coerced, or died with a traceback
# before the field table.
CONFIG_FAILURES = [
    ("workload.num_classes", "10", "expected int"),
    ("workload.num_classes", 2.7, "expected int"),
    ("workload.local_epochs", "3", "expected int"),
    ("workload.batch_size", 2.5, "expected int"),
    ("workload.batch_size", True, "expected int"),
    ("workload.learning_rate", "0.1", "expected number"),
    ("workload.learning_rate", INF, "must be finite"),
    ("workload.separation", NAN, "must be finite"),
    ("workload.separation", "x", "expected number"),
    ("partition.seed", "3", "expected int"),
    ("partition.seed", -1, "must be >= 0"),
    ("partition.alpha", INF, "must be finite"),
    ("seed", -1, "must be >= 0"),
    ("comm.net_intensity_kwh_per_gb", INF, "must be finite"),
    ("hardware.box.throughput_steps_per_s", INF, "must be finite"),
    ("hardware.box.train_power_w.cpu_w", INF, "must be finite"),
    ("hardware.box.train_power_w.cpu_w", [1], "expected number"),
    ("tiers.slow.slowdown_factor", INF, "must be finite"),
    ("tiers.slow.slowdown_factor", NAN, "must be finite"),
    ("regions.XYZ", INF, "must be finite"),
    ("hardware", [], "expected object"),
    ("tiers", [], "expected object"),
    ("regions", [], "expected object"),
]


@pytest.mark.parametrize("path, value, message", CONFIG_FAILURES)
def test_bad_config_field_exits_2_with_its_path(tmp_path, path, value, message):
    code, out, err = run(tmp_path, set_path(custom_doc(), path, value))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("char", ["\r", "\0"])
@pytest.mark.parametrize("where", ["scenario", "sites[1].site_id", "hardware", "tiers", "regions"])
def test_text_a_round_log_cannot_hold_exits_2_at_its_path(tmp_path, where, char):
    # each of these names a text cell of rounds.csv: a "\r" in one, which
    # `csv.writer` leaves unquoted, once made a run that exited 0 and whose
    # round log `report` and `calibrate` could not read
    doc = custom_doc()
    if where in ("hardware", "tiers", "regions"):
        (key,) = doc[where]
        doc[where][key + char] = doc[where].pop(key)
        path = f"{where}.{key}{char}"
    else:
        path = where
        set_path(doc, path, f"cr{char}test")
    code, out, err = run(tmp_path, doc)
    assert (code, out, err) == (2, "", f"error: {path}: must not contain a carriage return or NUL\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "medium, message",
    [
        ({"slowdown_factor": "3", "power_scale": 2.0}, "tiers.medium.slowdown_factor: expected number"),
        ({"slowdown_factor": NAN, "power_scale": 2.0}, "tiers.medium.slowdown_factor: must be finite"),
        ({"slowdown_factor": 3.0, "power_scale": INF}, "tiers.medium.power_scale: must be finite"),
        ({"slowdown_factor": 3.0, "power_scale": 2.0, "extra": 1}, "tiers.medium.extra: unknown field"),
    ],
)
def test_bad_tiers_file_exits_2_with_its_path(tmp_path, medium, message):
    code, out, err = run(tmp_path, custom_doc(), *tiers_file(tmp_path, medium))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_negative_seed_flag_exits_2(tmp_path):
    assert run(tmp_path, custom_doc(), "--seed", "-3") == (2, "", "error: seed: must be >= 0\n")


def test_bare_tiers_file_is_rejected(tmp_path):
    path = tmp_path / "tiers.json"
    path.write_text(json.dumps({"medium": {"slowdown_factor": 3.0, "power_scale": 2.0}}))
    code, out, err = run(tmp_path, custom_doc(), "--tiers", str(path))
    assert (code, out, err) == (2, "", "error: tiers: missing required field\n")


def test_custom_doc_and_tiers_file_run(tmp_path):
    medium = {"slowdown_factor": 3.0, "power_scale": 2.0}
    code, out, err = run(tmp_path, custom_doc(), *tiers_file(tmp_path, medium))
    assert (code, err) == (0, "")
    run_json = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run_json["tiers"]["site-1"] == {"label": "slow", "slowdown_factor": 2.0, "power_scale": 1.5}
    assert run_json["tiers"]["site-2"] == {"label": "medium", **medium}
    assert run_json["hardware"]["site-1"] == "box"


def test_section_defaults_and_int_floats():
    doc = small_doc(workload={"separation": 4}, partition={"num_clients": 3, "alpha": 1})
    del doc["partition"]["alpha"]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert str(exc.value) == "partition.alpha: missing required field"
    doc["partition"]["alpha"] = 1
    cfg = parse_config(doc)
    assert cfg.spec.workload.num_classes == 10 and cfg.spec.train.batch_size == 600
    assert type(cfg.spec.workload.separation) is float and type(cfg.spec.partition.alpha) is float
    assert cfg.spec.partition.seed == cfg.spec.train.seed == 0
    assert cfg.evaluate_each_round is True


def test_float_field_rejects_int_beyond_float_range():
    doc = set_path(small_doc(), "partition.alpha", 10**400)
    with pytest.raises(ConfigError, match="^partition.alpha: must be finite$"):
        parse_config(doc)


# Each quantity that sizes a loop or an allocation has an upper bound; a
# huge int is rejected at its path before anything is built from it.
UPPER_BOUNDS = [
    ("num_rounds", 10_000),
    ("workload.local_epochs", 1000),
    ("partition.num_clients", 1000),
    ("tiers.slow.slowdown_factor", 1000),
]


@pytest.mark.parametrize("path, hi", UPPER_BOUNDS)
@pytest.mark.parametrize("value", [10**12, 10**400])
def test_upper_bound_rejects_huge_int_at_its_path(path, hi, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(set_path(custom_doc(), path, value))
    message = "must be finite" if value == 10**400 and path.startswith("tiers.") else f"must be <= {hi}"
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("path, hi", UPPER_BOUNDS)
def test_upper_bound_is_inclusive(path, hi):
    doc = set_path(custom_doc(), path, hi)
    if path == "partition.num_clients":
        # the site count must follow, so the bound itself is caught by that rule
        with pytest.raises(ConfigError, match="^sites: "):
            parse_config(doc)
    else:
        parse_config(doc)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be <= {hi}$"):
        parse_config(set_path(custom_doc(), path, hi + 1))


@pytest.mark.parametrize("path", ["workload.samples_per_class", "workload.num_classes", "workload.num_features"])
@pytest.mark.parametrize("value", [10**12, 10**400])
def test_dataset_size_is_bounded_at_samples_per_class(path, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(set_path(custom_doc(), path, value))
    assert str(exc.value) == (
        "workload.samples_per_class: samples_per_class x num_classes x num_features must be <= 100000000"
    )


def test_dataset_size_bound_is_inclusive():
    doc = small_doc(workload=dict(small_doc()["workload"], samples_per_class=10**6, num_classes=10, num_features=10))
    assert parse_config(doc).spec.workload.samples_per_class == 10**6
    doc["workload"]["num_features"] = 11
    with pytest.raises(ConfigError, match="^workload.samples_per_class: "):
        parse_config(doc)


def sized_doc(num_clients=3, num_rounds=2, **workload):
    """small_doc with `num_clients` sites, `num_rounds` rounds and the given workload fields."""
    doc = small_doc(num_rounds=num_rounds, workload=dict(small_doc()["workload"], **workload))
    doc["partition"]["num_clients"] = num_clients
    doc["sites"] = [dict(doc["sites"][0], site_id=f"site-{i + 1}") for i in range(num_clients)]
    return doc


LOGITS_RULE = "workload.num_classes: num_classes x num_classes x samples_per_class must be <= 100000000"
# (a config exactly at a size rule's bound, a field and the value that takes
# it one past the bound, the error)
SIZE_RULES = [
    # the logits rule caps the class count at 10^4
    (sized_doc(num_classes=10**4, samples_per_class=1, num_features=1), "workload.num_classes", 10**4 + 1,
     LOGITS_RULE),
    # 5 x 2 x 10^6 x 10 = 10^8
    (sized_doc(num_classes=5, samples_per_class=2 * 10**6, num_features=10), "workload.num_features", 11,
     "workload.samples_per_class: samples_per_class x num_classes x num_features must be <= 100000000"),
    (sized_doc(num_clients=50, num_rounds=5000), "num_rounds", 5001,
     "num_rounds: partition.num_clients x num_rounds must be <= 250000"),
    # 25 x 24 / 2 x 10^6 = 3 x 10^8
    (sized_doc(num_clients=1, num_classes=25, samples_per_class=1, num_features=10**6), "workload.num_features",
     10**6 + 1, "workload.num_features: num_classes x (num_classes - 1) / 2 x num_features must be <= 300000000"),
    # CIFAR-shaped, 1000 x 1000 x 100 = 10^8; at 1000 samples per class one
    # evaluation would compute 10^9 logits, though it holds one block of them
    (sized_doc(num_clients=1, num_classes=1000, samples_per_class=100, num_features=90),
     "workload.samples_per_class", 1000, LOGITS_RULE),
]


@pytest.mark.parametrize("doc, path, past, message", SIZE_RULES)
def test_size_rule_is_inclusive_and_fails_before_anything_is_built(tmp_path, monkeypatch, doc, path, past, message):
    parse_config(doc)
    for name in ("build_dataset", "build_shards", "shard_sizes"):
        monkeypatch.setattr(f"greenfl.runner.{name}", lambda spec: pytest.fail("built before the size rule"))
    assert run(tmp_path, set_path(copy.deepcopy(doc), path, past)) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def first_size_error(spc, classes, features, clients, rounds):
    """The path `parse_config` reports for these sizes, checking its rules in
    order, or None when every product is within its bound."""
    if spc * classes * features > 10**8:
        return "workload.samples_per_class"
    if classes * classes * spc > 10**8:
        return "workload.num_classes"
    if classes * (classes - 1) // 2 * features > 3 * 10**8:
        return "workload.num_features"
    if clients * rounds > 250_000:
        return "num_rounds"
    return None


def log_uniform(hi):
    """Ints from 1 to `hi`, their logarithm drawn uniformly on a grid of 1000 steps."""
    return st.integers(0, 1000).map(lambda i: round(hi ** (i / 1000)))


@settings(max_examples=300, deadline=None)
@given(
    spc=log_uniform(10**7),
    classes=log_uniform(10**4),
    features=log_uniform(10**7),
    batch=log_uniform(10**5),
    clients=log_uniform(1000),
    rounds=log_uniform(10_000),
)
@example(spc=100, classes=1000, features=1, batch=1, clients=1, rounds=1)  # the logits bound, exactly
@example(spc=100, classes=1001, features=1, batch=1, clients=1, rounds=1)
@example(spc=1, classes=25, features=10**6, batch=1, clients=1, rounds=1)  # the class-pair bound, exactly
@example(spc=1, classes=25, features=10**6 + 1, batch=1, clients=1, rounds=1)
@example(spc=2 * 10**6, classes=5, features=10, batch=1, clients=1, rounds=1)  # the dataset bound, exactly
@example(spc=2 * 10**6, classes=5, features=11, batch=1, clients=1, rounds=1)
@example(spc=1, classes=1, features=1, batch=1, clients=25, rounds=10_000)  # the ledger bound, exactly
@example(spc=1, classes=1, features=1, batch=1, clients=26, rounds=10_000)
def test_size_rules_accept_exactly_the_configs_within_every_bound(spc, classes, features, batch, clients, rounds):
    doc = sized_doc(
        clients, rounds, samples_per_class=spc, num_classes=classes, num_features=features, batch_size=batch
    )
    # the batch size bounds nothing here: `plan_run` holds the lockstep rule
    want = first_size_error(spc, classes, features, clients, rounds)
    if want is None:
        parse_config(doc)
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.field_path == want, str(exc.value)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{not json", "invalid JSON"),
        (b"\xff\xfe{}", "invalid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        (b"null", "does not hold a JSON object"),
    ],
)
def test_unreadable_config_exits_2(tmp_path, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code, out, err = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err.startswith("error: config: ") and message in err and err.count("\n") == 1


def test_non_object_tiers_file_exits_2(tmp_path):
    path = tmp_path / "tiers.json"
    path.write_text("[1, 2]")
    code, out, err = run(tmp_path, small_doc(), "--tiers", str(path))
    assert (code, out, err) == (2, "", f"error: tiers: {path} does not hold a JSON object\n")


def test_non_object_targets_file_exits_2(run_dir, tmp_path):
    path = tmp_path / "targets.json"
    path.write_text("[1]")
    code, out, err = cli("calibrate", "--baseline", str(run_dir), "--targets", str(path), "--out", str(tmp_path / "t.json"))
    assert (code, out, err) == (2, "", f"error: targets: {path} does not hold a JSON object\n")


@pytest.mark.parametrize(
    "target, message",
    [
        ({"mean_energy_kwh_per_round": "1e-4", "runtime_min": 1.0}, "targets.high.mean_energy_kwh_per_round: expected number"),
        ({"mean_energy_kwh_per_round": 1e-4, "runtime_min": NAN}, "targets.high.runtime_min: must be finite"),
        ({"mean_energy_kwh_per_round": 1e-4}, "targets.high.runtime_min: missing required field"),
        ({"mean_energy_kwh_per_round": -1.0, "runtime_min": 1.0}, "targets.high.mean_energy_kwh_per_round: must be > 0"),
        ({"mean_energy_kwh_per_round": 0.0, "runtime_min": 1.0}, "targets.high.mean_energy_kwh_per_round: must be > 0"),
    ],
)
def test_bad_targets_file_exits_2_with_its_path(run_dir, tmp_path, target, message):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"high": target}))
    code, out, err = cli("calibrate", "--baseline", str(run_dir), "--targets", str(path), "--out", str(tmp_path / "t.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_report_on_non_object_summary_json_exits_2(tmp_path):
    (tmp_path / "rounds.csv").write_text(write_round_log([]))
    (tmp_path / "summary.json").write_text("[1]")
    # the JSON report is the one that reads summary.json
    code, out, err = cli("report", "--format", "json", "--in", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: summary.json: {tmp_path / 'summary.json'} does not hold a JSON object\n")


@pytest.mark.parametrize("summary", ["{}", "[]", None])
def test_calibrate_reads_the_round_log_not_summary_json(run_dir, tmp_path, summary):
    targets = str(tmp_path / "targets.json")
    mean = json.loads((run_dir / "summary.json").read_text())["mean_energy_kwh_per_round"]
    Path(targets).write_text(json.dumps({"high": {"mean_energy_kwh_per_round": mean, "runtime_min": 1.0}}))
    assert cli("calibrate", "--baseline", str(run_dir), "--targets", targets, "--out", str(tmp_path / "a.json"))[0] == 0
    if summary is None:
        (run_dir / "summary.json").unlink()
    else:
        (run_dir / "summary.json").write_text(summary)
    assert cli("calibrate", "--baseline", str(run_dir), "--targets", targets, "--out", str(tmp_path / "b.json"))[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_calibrate_baseline_without_round_log(tmp_path):
    code, out, err = cli("calibrate", "--baseline", str(tmp_path), "--targets", "x.json", "--out", str(tmp_path / "t.json"))
    assert (code, out, err) == (2, "", f"error: baseline: {tmp_path} does not contain rounds.csv\n")


def test_calibrate_bad_round_log_row_exits_1(run_dir, tmp_path):
    targets = tmp_path / "targets.json"
    mean = json.loads((run_dir / "summary.json").read_text())["mean_energy_kwh_per_round"]
    targets.write_text(json.dumps({"high": {"mean_energy_kwh_per_round": mean, "runtime_min": 1.0}}))
    csv_path = run_dir / "rounds.csv"
    header, first, *rest = csv_path.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[header.split(",").index("energy_kwh")] = "abc"
    csv_path.write_text("".join([header, ",".join(cells), *rest]))
    code, out, err = cli("calibrate", "--baseline", str(run_dir), "--targets", str(targets), "--out", str(tmp_path / "t.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---- fuzzing ---------------------------------------------------------------

def base_docs():
    docs = [small_doc(), custom_doc()]
    docs += [json.loads(bundled_config_path(name).read_text()) for name in BUNDLED]
    return docs


def paths_of(node, path="", parent=None, key=None):
    """(path, value, parent, key) of `node` and of everything under it."""
    yield path, node, parent, key
    if isinstance(node, dict):
        for k, value in node.items():
            yield from paths_of(value, f"{path}.{k}" if path else k, node, k)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths_of(value, f"{path}[{i}]", node, i)


MAPS = ("hardware", "tiers", "regions")  # objects with free keys


def under(path, root):
    return root == "" or path == root or path.startswith(root + ".") or path.startswith(root + "[")


def blamed(field_path, mutated):
    """Whether a ConfigError at `field_path` may come from a mutation at `mutated`."""
    if under(field_path, mutated):
        return True
    # a hardware or tier entry's own check reports at the entry; the site
    # count and unique-id rules report at `sites`
    if under(mutated, field_path) and (field_path == "sites" or re.fullmatch(r"(hardware|tiers)\.[^.\[]*", field_path)):
        return True
    # a site names a hardware profile, tier or region the mutation took away
    if re.fullmatch(r"sites\[\d+\]\.(hardware|tier|region)", field_path):
        return mutated.split(".")[0] in MAPS
    # the dataset-size rule reports at samples_per_class whichever factor is large
    if field_path == "workload.samples_per_class":
        return mutated in ("workload.num_classes", "workload.num_features")
    return field_path == "sites" and mutated == "partition.num_clients"


def mutate(draw, doc, values, keys):
    """Apply one drawn mutation to `doc`: set any path to a drawn value,
    delete an object key, or add a key.  Returns (doc, its path, the op)."""
    nodes = list(paths_of(doc))
    op = draw(st.sampled_from(["set", "delete", "add"]))
    if op == "set":
        path, _, parent, key = draw(st.sampled_from(nodes))
        if parent is None:
            return draw(values), path, op
        parent[key] = draw(values)
        return doc, path, op
    if op == "delete":
        path, _, parent, key = draw(st.sampled_from([n for n in nodes if isinstance(n[2], dict)]))
        del parent[key]
        return doc, path, op
    path, node, _, _ = draw(st.sampled_from([n for n in nodes if isinstance(n[1], dict)]))
    key = draw(keys.filter(lambda k: k not in node))
    node[key] = draw(values)
    return doc, f"{path}.{key}" if path else key, op if path not in MAPS else "add entry"


# small values every field type trips on; no draw can ask for a large dataset
CORRUPTIONS = [NAN, INF, -INF, -1, 0, 2.7, True, None, "x", [], {}]
json_values = st.sampled_from(CORRUPTIONS + [10**400]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def floats_in(obj):
    if isinstance(obj, float):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from floats_in(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from floats_in(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from floats_in(value)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.sampled_from(range(len(BUNDLED) + 2)))
def test_any_mutation_parses_or_fails_at_its_path(data, which):
    doc, mutated, op = mutate(data.draw, copy.deepcopy(base_docs()[which]), json_values, st.text(max_size=6))
    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        assert blamed(exc.field_path, mutated), (exc.field_path, mutated, str(exc))
        if op == "add":
            assert str(exc) == f"{mutated}: unknown field"
        return
    assert op != "add", f"unknown field {mutated} accepted"
    assert all(math.isfinite(x) for x in floats_in(cfg))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_any_corrupted_run_exits_cleanly(data):
    # finite extremes pass the field table and must still fail cleanly, or run
    values = st.sampled_from(CORRUPTIONS + [1e308, 5e-324, sys.float_info.max])
    doc, _, _ = mutate(data.draw, custom_doc(), values, st.sampled_from(["x", "extra"]))
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(Path(tmp), doc)
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 2:
        assert out == ""
