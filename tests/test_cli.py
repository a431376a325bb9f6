import io
import json
from pathlib import Path

import pytest

from morreylab import report
from morreylab.cli import main
from morreylab.report import (
    ConfigError,
    dump_report,
    emit_plotdata,
    parse_config,
    parse_plotdata,
    run_experiment,
    strip_telemetry,
)

SMALL_CONFIG = {
    "group": {"law": "euclidean", "dimension": 1, "gauge": "euclidean"},
    "quadrature": {"R_max": 10.0, "lattice_h": 0.05},
    "battery": [{"kind": "gauss_tensor", "width": 0.5}],
    "t_values": [0.25, 1.0, 4.0],
    "theorems": [
        {"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2},
        {"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2,
         "perturb_inv_q": 0.3},
    ],
    "workers": 1,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_empty_theorem_list(tmp_path):
    doc = dict(SMALL_CONFIG, theorems=[])
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "rep.json")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["records"] == [] and rep["all_pass"]


def test_run_small_config(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = str(tmp_path / "rep.json")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 2
    rep = json.loads(Path(out).read_text())
    assert len(rep["records"]) == 2
    assert rep["tool_version"]
    # every record reproducible: grid metadata present
    for rec in rep["records"]:
        assert rec["grid"]["R_max"] == 10.0
        assert rec["grid"]["n_centers"] >= 1


def test_run_determinism(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["run", "--config", cfg, "--out", a]) == 0
    assert main(["run", "--config", cfg, "--out", b]) == 0
    assert strip_telemetry(Path(a).read_text()) == strip_telemetry(Path(b).read_text())
    assert Path(a).read_text() != ""


def test_invalid_lambda_names_field(tmp_path, capsys):
    doc = dict(SMALL_CONFIG,
               theorems=[{"theorem": "adams_hls", "p": 1.5, "gamma": 0.4,
                          "lambda": 3.0}])
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "theorems[0].lambda" in err


def test_rejected_tuple_is_config_error(tmp_path, capsys):
    doc = dict(SMALL_CONFIG,
               theorems=[{"theorem": "adams_hls", "p": 3.0, "gamma": 0.4,
                          "lambda": 0.2}])
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "violated condition" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2


def test_check_admissibility_accept(capsys):
    rc = main(["check-admissibility", "--theorem", "sw", "--Q", "4", "--gamma", "1",
               "--alpha", "0", "--beta", "0", "--p", "2", "--lambda", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "q = 6, admissible"


def test_check_admissibility_reject(capsys):
    rc = main(["check-admissibility", "--theorem", "sw", "--Q", "4", "--gamma", "1",
               "--alpha", "0", "--beta", "0", "--p", "2", "--lambda", "2.5"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "rejected: 0<λ<Q−(γ−α−β)p"


def test_check_admissibility_fixed_gamma_is_config_error(capsys):
    rc = main(["check-admissibility", "--theorem", "hardy_sobolev", "--Q", "4",
               "--p", "2", "--gamma", "1/2", "--lambda", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "fixes gamma" in captured.err


def test_check_admissibility_missing_flag():
    with pytest.raises(SystemExit) as exc:
        main(["check-admissibility", "--theorem", "sw", "--Q", "4", "--p", "2"])
    assert exc.value.code == 2


def test_plotdata_roundtrip(tmp_path):
    rep = run_experiment(SMALL_CONFIG)
    buf = io.StringIO()
    n = emit_plotdata(rep, buf)
    assert n == sum(len(r["t_values"]) for r in rep["records"])
    rows = parse_plotdata(buf.getvalue())
    i = 0
    for rec in rep["records"]:
        for t, ratio in zip(rec["t_values"], rec["ratios"]):
            assert rows[i]["t"] == t
            assert rows[i]["ratio"] == ratio
            assert rows[i]["predicted_mismatch"] == rec["predicted_mismatch"]
            assert rows[i]["fitted_slope"] == rec["fitted_slope"]
            i += 1


def test_small_perturbation_is_recorded_only():
    # a control whose predicted slope (-0.08) is below the slope test's 0.2
    # threshold passes ungraded
    doc = dict(SMALL_CONFIG, theorems=[dict(SMALL_CONFIG["theorems"][0], perturb_inv_q=0.1)])
    (rec,) = run_experiment(doc)["records"]
    assert rec["predicted_mismatch"] == pytest.approx(-0.08)
    assert rec["check"] == "perturbation below slope-test threshold: recorded only"
    assert rec["passed"] is True


def test_plotdata_empty_report(tmp_path):
    buf = io.StringIO()
    assert emit_plotdata({"records": []}, buf) == 0
    assert buf.getvalue().splitlines() == [
        "theorem,function,t,ratio,predicted_mismatch,fitted_slope"
    ]


def test_emit_plotdata_cli_bad_report(tmp_path, capsys):
    path = tmp_path / "notreport.json"
    path.write_text(json.dumps({"something": 1}))
    rc = main(["emit-plotdata", "--report", str(path), "--out",
               str(tmp_path / "o.csv")])
    assert rc == 2


def test_list_battery(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    assert main(["list-battery", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "gauss(w=0.5)" in out
    assert main(["list-battery"]) == 0
    # without --config: the battery a config with no "battery" key runs
    out = capsys.readouterr().out
    assert "gauss(w=1)" in out
    assert "bump" not in out


def test_parse_config_rejects_bad_group():
    with pytest.raises(ConfigError, match="config.group.law"):
        parse_config({"group": {"law": "solvable"}})


def test_parse_config_rejects_other_gamma_for_fixed_gamma_theorem():
    doc = dict(SMALL_CONFIG, group={"law": "euclidean", "dimension": 3},
               theorems=[{"theorem": "hardy_sobolev", "p": 1.5, "gamma": 0.5,
                          "lambda": 0.3}])
    with pytest.raises(ConfigError, match=r"config\.theorems\[0\]\.gamma"):
        parse_config(doc)


def _theorem(i, **changes):
    entry = dict(SMALL_CONFIG["theorems"][i], **changes)
    return [entry if j == i else t for j, t in enumerate(SMALL_CONFIG["theorems"])]


def _cli(doc, *flags):
    """A fault case whose document is written as is and run with ``flags``."""
    return doc, flags


CONFIG_FAULTS = [
    (dict(t_values=[]), "config.t_values"),
    (dict(t_values=[0.5, 1.0, 2.0]), "config.t_values"),
    (dict(t_values=[1.0, "2"]), "config.t_values"),
    (dict(checks={"ratio_band": "wide"}), "config.checks.ratio_band"),
    (dict(checks={"ratio_bnd": 1.1}), "config.checks.ratio_bnd"),
    (dict(theorems=_theorem(1, perturb_inv_q=-5)), "config.theorems[1].perturb_inv_q"),
    (dict(theorems=[{"theorem": "adams_hls", "p": 1.5, "lambda": 0.2}]),
     "config.theorems[0].gamma"),
    (dict(theorems=[{"theorem": "hardy", "p": 1.5, "beta": 1, "gamma": 0.5,
                     "lambda": 0.2}]), "config.theorems[0].gamma"),
    (dict(theorems=_theorem(1, perturb_inv_qq=0.3)), "config.theorems[1].perturb_inv_qq"),
    (dict(theorems=_theorem(0, p="1.5")), "config.theorems[0].p"),
    (dict(workers="two"), "config.workers"),
    (dict(workers=0), "config.workers"),
    (dict(adapt_specs="yes"), "config.adapt_specs"),
    (dict(centers_per_axis=0), "config.centers_per_axis"),
    (dict(seed=7), "config.seed: key was removed"),
    (dict(sede=7), "config.sede"),
    (dict(quadrature={"R_max": 10.0, "lattice_hh": 0.05}), "config.quadrature.lattice_hh"),
    (dict(quadrature={"R_max": "ten", "lattice_h": 0.05}), "config.quadrature.R_max"),
    (dict(quadrature={"R_max": 10.0, "lattice_h": 0.05, "refinement_level": 1.5}),
     "config.quadrature.refinement_level"),
    (dict(group={"law": "euclidean", "dim": 2}), "config.group.dim"),
    (dict(group={"law": "euclidean", "dimension": "two"}), "config.group.dimension"),
    (dict(battery=[{"kind": "bump_compact", "width": 0.5}]), "config.battery[0].width"),
    (dict(battery=["gauss_tensor"]), "config.battery[0]"),
    (dict(group={"law": "heisenberg1", "dimension": 5}), "config.group.dimension"),
    (dict(group={"law": "heisenberg1", "gauge": "euclidean"}), "config.group.gauge"),
    (dict(group={"law": "euclidean", "gauge": "koranyi"}), "config.group.gauge"),
    # the command-line overrides apply only to a document that validates
    (_cli(dict(SMALL_CONFIG, quadrature=[1]), "--refine"), "config.quadrature"),
    (_cli(dict(SMALL_CONFIG, quadrature={"refinement_level": "x"}), "--refine"),
     "config.quadrature.refinement_level"),
    (_cli(dict(SMALL_CONFIG, quadrature={"refinement_level": 1.5}), "--refine"),
     "config.quadrature.refinement_level"),
    (_cli([], "--refine"), "config: expected an object"),
    (_cli([], "--workers", "1"), "config: expected an object"),
    # removed knobs: one gauge per law, fixed shell constants
    (dict(group={"law": "euclidean", "gauge": "anisotropic"}), "config.group.gauge"),
    (dict(quadrature={"R_max": 10.0, "lattice_h": 0.05, "shell_ratio": 0.5}),
     "config.quadrature.shell_ratio"),
    (dict(quadrature={"R_max": 10.0, "lattice_h": 0.05, "inner_cutoff": 1.0}),
     "config.quadrature.inner_cutoff"),
    # battery fields are finite numbers, and a required one is named when missing
    (dict(battery=[{"kind": "gauss_tensor", "width": True}]), "config.battery[0].width"),
    (dict(battery=[{"kind": "gauss_tensor", "width": "0.5"}]), "config.battery[0].width"),
    (dict(battery=[{"kind": "gauss_tensor", "width": None}]), "config.battery[0].width"),
    (dict(battery=[{"kind": "gauss_tensor", "width": 0.5},
                   {"kind": "bump_compact", "radius": float("nan")}]), "config.battery[1].radius"),
    (dict(battery=[{"kind": "power_truncated", "exponent": 0.4, "radius": float("inf")}]),
     "config.battery[0].radius"),
    (dict(battery=[{"kind": "power_truncated", "radius": 1.0}]),
     "config.battery[0].exponent: required field missing"),
    (dict(battery=[{"kind": "power_truncated", "exponent": [0.4]}]), "config.battery[0].exponent"),
    # an integer literal past the float range is no finite number
    (dict(battery=[{"kind": "gauss_tensor", "width": 10 ** 400}]), "config.battery[0].width"),
    (dict(quadrature={"R_max": 10 ** 400, "lattice_h": 0.05}), "config.quadrature.R_max"),
    # a scale whose square underflows to 0 or overflows makes u NaN or 0 at its centre
    (dict(battery=[{"kind": "gauss_tensor", "width": 1e-308}]), "config.battery[0].width"),
    (dict(battery=[{"kind": "gauss_tensor", "width": 1e200}]), "config.battery[0].width"),
    (dict(battery=[{"kind": "gauss_tensor", "width": 0}]), "config.battery[0].width"),
    (dict(battery=[{"kind": "gauss_tensor", "width": 0.5},
                   {"kind": "bump_compact", "radius": 1e-320}]), "config.battery[1].radius"),
    (dict(battery=[{"kind": "bump_compact", "radius": -1.5}]), "config.battery[0].radius"),
]


@pytest.mark.parametrize("changes,field", CONFIG_FAULTS)
def test_every_config_fault_exits_2_and_names_the_field(tmp_path, capsys, changes, field):
    doc, flags = changes if isinstance(changes, tuple) else (dict(SMALL_CONFIG, **changes), ())
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(field) and err.count("\n") == 1, err
    assert not out.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,cpus,pool", [
    (64, 8, [2]),     # capped at the two tasks
    (64, 1, []),      # one CPU: no pool
    (64, None, []),   # unknown CPU count counts as one
    (1, 8, []),
])
def test_pool_is_capped_at_tasks_and_cpus(monkeypatch, workers, cpus, pool):
    monkeypatch.setattr(report, "_process_pool", _RecordingPool)
    monkeypatch.setattr(report.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    rep = run_experiment(dict(SMALL_CONFIG, t_values=[1.0], workers=workers))
    assert _RecordingPool.sizes == pool
    assert len(rep["records"]) == 2


def test_reports_identical_across_worker_counts(monkeypatch):
    monkeypatch.setattr(report.os, "cpu_count", lambda: 2)
    reports = [run_experiment(dict(SMALL_CONFIG, workers=w)) for w in (1, 2)]
    for rep, workers in zip(reports, (1, 2)):
        assert rep["telemetry"]["workers"] == workers
        assert rep["telemetry"]["peak_rss_mb"] > 0
    one, two = (dump_report(rep) for rep in reports)
    # the echoed config differs in its workers field only
    two = two.replace('"workers": 2', '"workers": 1')
    assert strip_telemetry(one) == strip_telemetry(two)


def test_rough_function_skipped_for_gradient_theorem(tmp_path):
    doc = dict(
        SMALL_CONFIG,
        group={"law": "euclidean", "dimension": 3},
        quadrature={"R_max": 6.0, "lattice_h": 0.25},
        battery=[{"kind": "power_truncated", "exponent": 0.5, "radius": 1.0}],
        theorems=[{"theorem": "uncertainty", "p": 2, "lambda": 0.5}],
    )
    rep = run_experiment(doc)
    assert len(rep["records"]) == 1
    assert rep["records"][0]["note"].startswith("skipped")
    assert rep["all_pass"]


def test_refine_flag(tmp_path):
    doc = dict(SMALL_CONFIG, theorems=[], quadrature={"R_max": 10.0, "lattice_h": 0.05})
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "rep.json")
    assert main(["run", "--config", cfg, "--out", out, "--refine"]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["config"]["quadrature"]["refinement_level"] == 1


def test_adapted_sweeps_carry_the_t1_refinement_anchor():
    doc = dict(SMALL_CONFIG, adapt_specs=True)
    rep = run_experiment(doc)
    for rec in rep["records"]:
        anchor = rec["anchor"]
        assert anchor["t"] == 1.0
        assert anchor["ratio"] == rec["ratios"][rec["t_values"].index(1.0)]
        assert anchor["ratio_refined"] > 0 and anchor["ratio_refined"] != anchor["ratio"]
        lo, hi = sorted([anchor["ratio"], anchor["ratio_refined"]])
        assert anchor["spread"] == hi / lo <= 1.10
        assert rec["check"].endswith("; t=1 refinement anchor max/min <= 1.1")
    assert rep["all_pass"]
    # without t = 1 in the sweep the anchor computes its own unrefined ratio
    rep = run_experiment(dict(doc, t_values=[0.3, 3.0], theorems=doc["theorems"][:1]))
    (rec,) = rep["records"]
    assert rec["anchor"]["ratio"] > 0 and rec["anchor"]["spread"] <= 1.10
    # fixed-lattice records carry no anchor
    rep = run_experiment(SMALL_CONFIG)
    assert all("anchor" not in rec for rec in rep["records"])


def test_drifting_anchor_fails_the_record(monkeypatch):
    drift = dict(t=1.0, ratio=1.0, ratio_refined=1.2, spread=1.2)
    monkeypatch.setattr(report, "_anchor", lambda *args: drift)
    doc = dict(SMALL_CONFIG, adapt_specs=True, theorems=SMALL_CONFIG["theorems"][:1])
    rep = run_experiment(doc)
    (rec,) = rep["records"]
    assert rec["anchor"] == drift and not rec["passed"] and not rep["all_pass"]
    assert max(rec["ratios"]) / min(rec["ratios"]) <= 1.10
