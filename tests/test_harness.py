"""Config resolution, scenario runs, artifact determinism, exit codes."""

import json
import os
import shutil

import numpy as np
import pytest

from thinslab import ansatz, cli, harness, oneway, propagator, spectral, symbols
from thinslab.harness import (
    ConfigError, ExperimentConfig, config_echo, get_scenario, list_scenarios,
    parse_config_file, resolve_config, write_junit,
)
from thinslab.propagator import Frozen, SlabSpec
from thinslab.spectral import Grid


def test_scenario_registry():
    assert get_scenario("translation").kind == "evolution"
    assert get_scenario("oneway-lens").kind == "oneway"
    with pytest.raises(ConfigError):
        get_scenario("nope")


def test_list_scenarios_deterministic():
    a = list_scenarios()
    b = list_scenarios()
    assert a == b
    assert a.splitlines()[2].startswith("translation")
    for name in ("varspeed", "hoelder-z", "oneway-lens"):
        assert name in a


def test_parse_config_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("# comment\nn_points = 64\n\nNs = 8,16   # inline\nvariant=averaged\n")
    got = parse_config_file(p)
    assert got == {"n_points": "64", "Ns": "8,16", "variant": "averaged"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.cfg")


def test_resolve_config_precedence(tmp_path):
    file_map = {"n_points": "64", "Ns": "1,4", "s": "2.0"}
    overrides = {"Ns": "1,8"}
    cfg = resolve_config("translation", file_map, overrides)
    assert cfg.n_points == 64          # from file
    assert cfg.Ns == (1, 8)            # flag wins over file
    assert cfg.s == 2.0
    assert cfg.variant == "averaged"   # scenario default survives
    assert cfg.delta_max == 1.0


def test_resolve_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_config("translation", {"n_points": "many"}, {})
    with pytest.raises(ConfigError):
        resolve_config("translation", {"mystery_key": "1"}, {})
    with pytest.raises(ConfigError):
        resolve_config("translation", {"Ns": "8,8"}, {})
    with pytest.raises(ConfigError):
        resolve_config("translation", {"variant": "peculiar"}, {})
    with pytest.raises(ConfigError):
        resolve_config("oneway-lens", {}, {"snapshot_every": "0"})
    with pytest.raises(ConfigError):
        resolve_config("oneway-lens", {}, {"damping_scale": "-1"})
    with pytest.raises(ConfigError):
        resolve_config("varspeed-z", {}, {"variant": "averaged", "quadrature_order": "-1"})
    with pytest.raises(ConfigError):
        resolve_config("varspeed-z", {}, {"variant": "averaged", "quadrature_order": "1025"})
    with pytest.raises(ConfigError):
        resolve_config("translation", {}, {"s": "nan"})
    with pytest.raises(ConfigError):
        resolve_config("translation", {}, {"Z": "inf"})
    with pytest.raises(ConfigError):
        resolve_config("varspeed-z", {}, {"delta_max": "nan"})
    with pytest.raises(ConfigError):
        resolve_config("translation", {}, {"seed": "-1"})
    with pytest.raises(ConfigError):
        resolve_config("oneway-lens", {}, {"damping_scale": "nan"})


def test_config_echo_round_trips_types():
    cfg = resolve_config("varspeed", {}, {})
    echo = config_echo(cfg)
    assert echo["Ns"] == [8, 16, 32, 64, 128]
    assert isinstance(echo["period"], float)
    assert echo["scenario"] == "varspeed"


def test_write_junit(tmp_path):
    p = tmp_path / "props.xml"
    write_junit(p, "suite", [("ok-case", True, ""), ("bad-case", False, "broke")])
    text = p.read_text()
    assert 'tests="2"' in text
    assert 'failures="1"' in text
    assert 'name="bad-case"' in text
    assert "broke" in text
    assert "timestamp" not in text and "time=" not in text


def _run_tiny_translation(out_dir):
    cfg = resolve_config("translation", {}, {
        "n_points": "64", "Ns": "1,8", "norm_points": "64",
        "output_dir": str(out_dir)})
    return harness.run(cfg), cfg


def test_run_translation_artifacts(tmp_path):
    code, cfg = _run_tiny_translation(tmp_path / "out")
    assert code == harness.EXIT_OK
    out = tmp_path / "out"
    for name in ("convergence.csv", "convergence.json", "norm_sweep.csv",
                 "properties.xml", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    assert manifest["scenario"] == "translation"
    assert "total" in manifest["timings"]
    assert "convergence.csv" in manifest["outputs"]
    sweep = (out / "norm_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "s,delta,norm_hs,excess_rate"
    assert len(sweep) == 1 + 2 * 6      # two s values, six thicknesses


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    _run_tiny_translation(out)
    keep = {}
    for name in ("convergence.csv", "convergence.json", "norm_sweep.csv",
                 "properties.xml"):
        keep[name] = (out / name).read_bytes()
    _run_tiny_translation(out)
    for name, blob in keep.items():
        assert (out / name).read_bytes() == blob, name


def test_run_report_csv_and_json(tmp_path):
    out = tmp_path / "vs"
    cfg = resolve_config("varspeed", {}, {
        "n_points": "64", "Ns": "8,16", "n_ref": "128", "norm_points": "64",
        "output_dir": str(out)})
    assert harness.run(cfg) == harness.EXIT_OK
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "N,delta,error_Hs,normalized_error"
    assert len(lines) == 3
    n, d, e, ne = lines[1].split(",")
    assert int(n) == 8 and float(d) == 0.125

    data = json.loads((out / "convergence.json").read_text())
    assert float(ne) == data["normalized_errors"][0]
    assert data["reference_kind"] == "fine-step:128"
    rep = ansatz.convergence_study(symbols.get_symbol("varspeed", cfg.period),
                                   spectral.wave_packet(Grid(64, cfg.period)), cfg.s,
                                   cfg.Ns, Frozen(), ansatz.FineStep(128))
    assert data["fitted_slope"] == rep.fitted_slope
    assert data["config"] == config_echo(cfg)


@pytest.mark.parametrize("flags", [
    ["hoelder-z", "--grid-points", "64", "--Ns", "8,16", "--set", "n_ref=128",
     "--set", "norm_points=64"],
    ["oneway-homogeneous", "--grid-points", "128", "--set", "n_slabs=8"],
], ids=["hoelder-z", "oneway-homogeneous"])
def test_manifest_lists_every_artifact(tmp_path, flags):
    out = tmp_path / "fresh"
    assert cli.main(["run", "--output-dir", str(out), "--scenario"] + flags) == harness.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(set(os.listdir(out)) - {"manifest.json"})


def test_run_oneway_artifacts(tmp_path):
    cfg = resolve_config("oneway-homogeneous", {}, {
        "n_points": "128", "n_slabs": "8", "snapshot_every": "4",
        "output_dir": str(tmp_path / "ow")})
    code = harness.run(cfg)
    assert code == harness.EXIT_OK
    out = tmp_path / "ow"
    assert (out / "phase_errors.csv").exists()
    assert (out / "energy_partition.csv").exists()
    assert (out / "snapshot_0000.tslb").exists()
    assert (out / "snapshot_0008.tslb").exists()
    rows = (out / "energy_partition.csv").read_text().strip().splitlines()
    assert rows[0].startswith("depth,")
    assert len(rows) == 1 + 1 + 8       # header, initial, one per slab


def test_manifest_written_on_failure(tmp_path):
    # impossible reference for an x-dependent symbol: config error, manifest kept
    cfg = resolve_config("varspeed", {}, {
        "n_points": "64", "Ns": "8,16", "reference": "exact",
        "output_dir": str(tmp_path / "fail")})
    code = harness.run(cfg)
    assert code == harness.EXIT_CONFIG
    manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["error"]


def test_gate_violation_exit_code(tmp_path):
    # translation demands exactness; a frozen run on a z-dependent symbol
    # stays exact, so force failure via an absurd slope gate instead:
    # run hoelder-z at tiny resolution where the averaged-beats-frozen
    # margin cannot hold at N where both are exact. Simpler: patch gates.
    entry = get_scenario("translation")
    patched = harness.Scenario(
        name=entry.name, kind=entry.kind, description=entry.description,
        regularity=entry.regularity, defaults=entry.defaults,
        gates={"exact_tol": 1e-18})
    old = harness._SCENARIOS["translation"]
    harness._SCENARIOS["translation"] = patched
    try:
        code, _ = _run_tiny_translation(tmp_path / "gate")
    finally:
        harness._SCENARIOS["translation"] = old
    assert code == harness.EXIT_GATE
    manifest = json.loads((tmp_path / "gate" / "manifest.json").read_text())
    assert manifest["status"] == "gate-violation"


@pytest.mark.parametrize("variant", ["frozen", "averaged"])
def test_averaged_margin_gate_checks_either_primary_variant(tmp_path, monkeypatch, variant):
    entry = get_scenario("hoelder-z")
    monkeypatch.setitem(harness._SCENARIOS, "hoelder-z", harness.Scenario(
        name=entry.name, kind=entry.kind, description=entry.description,
        regularity=entry.regularity, defaults=entry.defaults,
        gates=dict(entry.gates, averaged_margin=1e-6)))
    out = tmp_path / variant
    cfg = resolve_config("hoelder-z", {}, {
        "n_points": "64", "Ns": "8,16", "n_ref": "128", "norm_points": "64",
        "variant": variant, "output_dir": str(out)})
    assert harness.run(cfg) == harness.EXIT_GATE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-violation"
    assert "averaged error" in manifest["error"]


@pytest.mark.parametrize("gate,facts", [
    ("exact_tol", {"max_normalized_error": np.nan}),
    ("slope_min", {"fitted_slope": np.nan}),
    ("monotone_tol", {"errors": [1.0, np.nan]}),
    ("averaged_margin", {"Ns": [8], "frozen_errors": [1.0], "averaged_errors": [np.nan]}),
    ("phase_tol", {"max_phase_error": np.nan}),
    ("suppression_min", {"suppression": np.nan}),
    ("preserve_tol", {"inside_change": np.nan}),
])
def test_nan_fact_violates_its_gate(gate, facts):
    entry = harness.Scenario(name="probe", kind="evolution", description="",
                             regularity="", gates={gate: 0.5})
    assert len(harness._check_gates(entry, facts)) == 1


def _load_strict(path):
    """Parse a JSON artifact, failing on the non-standard NaN and Infinity literals."""
    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_sobolev_index_is_gate_violation(tmp_path):
    # <xi>^400 overflows, so the errors read inf and nan
    out = tmp_path / "s400"
    code = cli.main(["run", "--scenario", "translation", "--grid-points", "64",
                     "--Ns", "1,8", "--set", "norm_points=64", "--s", "400",
                     "--output-dir", str(out)])
    assert code == harness.EXIT_GATE
    assert _load_strict(out / "manifest.json")["status"] == "gate-violation"
    report = _load_strict(out / "convergence.json")
    assert report["u0_norm"] == "inf"
    assert report["fit_residual"] == "nan"
    assert "inf" in report["errors"]


def test_non_finite_setting_is_written_as_string(tmp_path):
    out = tmp_path / "tau"
    code = cli.main(["run", "--scenario", "oneway-lens", "--set", "tau=nan",
                     "--output-dir", str(out)])
    assert code == harness.EXIT_CONFIG
    manifest = _load_strict(out / "manifest.json")
    assert manifest["status"] == "config-error"
    assert manifest["config"]["tau"] == "nan"


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "translation" in out
    assert cli.main(["run", "--scenario", "nope",
                     "--output-dir", str(tmp_path / "x")]) == 2
    code = cli.main(["run", "--scenario", "translation",
                     "--grid-points", "64", "--Ns", "1,8",
                     "--set", "norm_points=64",
                     "--output-dir", str(tmp_path / "cli-out")])
    assert code == 0
    assert (tmp_path / "cli-out" / "manifest.json").exists()


def test_cli_bad_set_pair(tmp_path):
    assert cli.main(["run", "--scenario", "translation",
                     "--set", "oops", "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags,word", [
    (["--seed", "-1"], "seed"),
    (["--s", "nan"], "s must be finite"),
    (["--set", "quadrature_order=1025"], "1024"),
    (["--set", "n_points=many"], "n_points"),
    (["--set", "oops"], "KEY=VALUE"),
], ids=["negative-seed", "nan-sobolev-index", "quadrature-order-over-cap",
        "unparsable-value", "set-pair-without-equals"])
def test_cli_rejected_config_leaves_manifest(tmp_path, capsys, flags, word):
    out = tmp_path / "D"
    code = cli.main(["run", "--scenario", "translation", "--output-dir", str(out)] + flags)
    assert code == harness.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["scenario"] == "translation"
    assert word in manifest["error"]
    assert manifest["outputs"] == []
    assert "total" in manifest["timings"]
    printed = capsys.readouterr()
    assert printed.out == f"scenario translation FAILED (configuration); artifacts in {out}\n"
    assert printed.err == ""


def test_cli_rejected_config_into_unwritable_directory(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory")
    out = blocker / "sub"
    code = cli.main(["run", "--scenario", "translation", "--output-dir", str(out),
                     "--seed", "-1"])
    assert code == harness.EXIT_CONFIG
    assert not out.exists()
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["varspeed-z", "--Ns", "4,8", "--grid-points", "64"],   # Delta = 1/4 exceeds delta_max
    ["varspeed-z", "--grid-points", "100"],                  # not a power of two
    ["translation", "--grid-points", "8192", "--Ns", "1",    # norm matrix over the size limit
     "--set", "norm_points=8192"],
    ["oneway-lens", "--grid-points", "32"],                  # steep mode 28 beyond the lattice
    ["varspeed", "--grid-points", "64", "--Ns", "8,16",      # n_ref below 8x the largest N
     "--set", "n_ref=64"],
], ids=["slab-too-thick", "grid-not-power-of-two", "norm-matrix-too-large",
        "steep-mode-off-lattice", "fine-step-reference-too-coarse"])
def test_cli_library_validation_is_config_error(tmp_path, flags):
    out = tmp_path / "bad"
    code = cli.main(["run", "--output-dir", str(out), "--scenario"] + flags)
    assert code == harness.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["error"]


def test_unexpected_exception_leaves_error_manifest(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "_run_evolution", broken)
    cfg = resolve_config("translation", {}, {"output_dir": str(tmp_path / "err")})
    with pytest.raises(RuntimeError):
        harness.run(cfg)
    manifest = json.loads((tmp_path / "err" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "RuntimeError: boom"


def test_quick_check(tmp_path):
    code = harness.quick_check(str(tmp_path / "chk"))
    assert code == 0
    assert (tmp_path / "chk" / "properties.xml").exists()
    manifest = json.loads((tmp_path / "chk" / "manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_check_failed_case_is_gate_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(symbols, "check_PL",
                        lambda q: symbols.PLReport(worst_ratio=99.0, passed=False))
    out = tmp_path / "chk"
    assert cli.main(["check", "--output-dir", str(out)]) == harness.EXIT_GATE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-violation"
    assert "nonneg-symbol-derivative-bound" in manifest["error"]
    assert 'failures="1"' in (out / "properties.xml").read_text()


def test_check_negative_seed_is_config_error(tmp_path):
    out = tmp_path / "chk"
    assert cli.main(["check", "--seed", "-1", "--output-dir", str(out)]) == harness.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "seed" in manifest["error"]
    assert not (out / "properties.xml").exists()


def test_check_into_unwritable_directory_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory")
    assert cli.main(["check", "--output-dir", str(blocker / "sub")]) == harness.EXIT_CONFIG
    assert "is not writable" in capsys.readouterr().err


def test_medium_out_of_bounds_is_gate_violation(tmp_path, monkeypatch):
    # the speed reaches 1.2 while the medium declares it stays in [0.9, 1.1]
    def stray_lens(period):
        return oneway.AcousticMedium(
            c=lambda x, z: 1.0 + 0.2 * np.cos(np.asarray(x, float)),
            c_bounds=(0.9, 1.1), z_independent=True)

    monkeypatch.setattr(oneway, "lens_medium", stray_lens)
    out = tmp_path / "lens"
    assert cli.main(["run", "--scenario", "oneway-lens", "--output-dir", str(out)]) == harness.EXIT_GATE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-violation"
    assert "medium-bounds" in manifest["error"]
    props = (out / "properties.xml").read_text()
    assert 'failures="1"' in props
    assert "sampled speed violates the declared bounds" in props


@pytest.mark.parametrize("modes", ["0,500", "0,256"])
def test_aliased_phase_mode_is_config_error(tmp_path, modes):
    # on 256 points mode 500 aliases to -12 and mode 256 to 0, so both pass the
    # band-limit guard while the closed form is taken at the unaliased mode
    out = tmp_path / "oh"
    code = cli.main(["run", "--scenario", "oneway-homogeneous", "--set", f"modes={modes}",
                     "--output-dir", str(out)])
    assert code == harness.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "|mode| < 128" in manifest["error"]
    assert not (out / "phase_errors.csv").exists()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_phase_error_reaches_its_gate(tmp_path, monkeypatch):
    # without the band-limit guard, evanescent mode 40 has no real closed-form
    # wavenumber: its error is NaN, which must fail the gate, not drop out of a max
    monkeypatch.setattr(oneway, "check_band_limit", lambda *args: None)
    out = tmp_path / "oh"
    cfg = resolve_config("oneway-homogeneous", {}, {
        "n_points": "128", "n_slabs": "8", "modes": "0,40", "output_dir": str(out)})
    assert harness.run(cfg) == harness.EXIT_GATE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-violation"
    assert "max phase error nan" in manifest["error"]
    assert (out / "phase_errors.csv").read_text().splitlines()[2] == "40,nan"


def test_norm_sweep_rows_match_single_assemblies():
    spec = symbols.get_symbol("varspeed")
    grid = Grid(32, 2.0 * np.pi)
    rows = harness.norm_sweep(spec, grid)
    deltas = [2.0 ** (-k) for k in range(4, 10)]
    assert [(s, d) for s, d, _, _ in rows] == [(s, d) for s in (0.0, 1.0) for d in deltas]
    for s, delta, norm, rate in rows:
        mat = propagator.assemble_matrix(SlabSpec(0.0, delta, spec, Frozen()), grid)
        assert norm == propagator.operator_norm_hs(mat, s)
        assert rate == (norm - 1.0) / delta


def test_norm_sweep_assembles_once_per_thickness(monkeypatch):
    assemble = propagator.assemble_matrix
    thicknesses = []

    def counting(slab, grid):
        thicknesses.append(slab.thickness)
        return assemble(slab, grid)

    monkeypatch.setattr(propagator, "assemble_matrix", counting)
    harness.norm_sweep(symbols.get_symbol("varspeed"), Grid(32, 2.0 * np.pi))
    assert thicknesses == [2.0 ** (-k) for k in range(4, 10)]
