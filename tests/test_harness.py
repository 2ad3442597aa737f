"""Config resolution, scenario runs, artifact determinism, exit codes."""

import argparse
import json
import os
import shutil
import xml.etree.ElementTree as ET

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
        resolve_config("oneway-lens", {}, {"reference": "bogus"})
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


@pytest.mark.parametrize("name, reduced", [
    ("damped", {"Ns": "1,8"}), ("damped-varspeed", {"Ns": "8,16", "n_ref": "128"}),
    ("translation", {"Ns": "1,8"})])
def test_a_damping_symbol_lists_its_damping_derivative_bound(tmp_path, name, reduced):
    # a spec with a damping part c1 gets the damping-derivative-bound case in
    # properties.xml, passing with a worst ratio within the limit: the pure
    # damping multiplier and variable angular damping alike.  A passing case
    # records its message as its system-out, so the ratio is read from the
    # file.  translation has no c1 and no such case
    cfg = resolve_config(name, {}, dict(reduced, n_points="64", norm_points="64",
                                        output_dir=str(tmp_path)))
    assert harness.run(cfg) == harness.EXIT_OK
    suite = ET.parse(tmp_path / "properties.xml").getroot()
    cases = {case.get("name"): case for case in suite.iter("testcase")}
    assert not any(case.find("failure") is not None for case in cases.values())
    if name == "translation":
        assert list(cases) == ["parseval-round-trip", "exponential-family-uniform"]
        return
    assert list(cases) == ["parseval-round-trip", "damping-derivative-bound",
                           "exponential-family-uniform"]
    message = cases["damping-derivative-bound"].find("system-out").text
    assert message.startswith("worst ratio ")
    assert float(message.split()[2]) <= symbols.RATIO_LIMIT


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


def test_manifest_counts_band_and_full_band_sums(tmp_path):
    # at n = 64 the 128-slab reference (Delta = 1/128) resolves the x-band of
    # its amplitude on the 32-point subgrid; the study slabs (1/8, 1/16) and
    # the 64-slab cross-check do not, and take the full band.  varspeed is
    # z-independent, so each thickness has one point cell (degree 0) whose one
    # node is its first slab's probe: four nodes, and one cell that resolved.
    # The reference's 127 later slabs take the first one's band coefficients
    # from that cell.  The six-thickness norm sweep (1/16 .. 1/512) assembles
    # the slab that a march would take: 1/128 from its cell, 1/16 and 1/64 as
    # the full bands their failed cells name, and 1/32, 1/256 and 1/512 from
    # three new point cells, of which the last two resolve.
    # Symbol tables: one per full-band slab, one more per probed subgrid of
    # the three full-band thicknesses and of the reference, and six in the
    # sweep (its three probes and three full-band tables).  Amplitude rows:
    # every row of each full-band slab (88 x 64), the 32-row subgrid of each
    # of the four probes, and in the sweep three probes of 32 rows and three
    # full bands of 64.  Each of the 91 full bands takes its xi = 0 column,
    # where varspeed's symbol is 0 at every point, as an exact diagonal
    # entry.  A slab maps coefficients, so each of the four
    # compositions takes one transform at each end, and four H^s norms and
    # one property case take six more.  Each of the sweep's 12 H^s norms (six
    # thicknesses, s = 0 and 1) takes one singular-value computation.  A
    # rerun resets the counts and the cells, and a rejected configuration
    # counts nothing.
    cfg = resolve_config("varspeed", {}, {
        "n_points": "64", "Ns": "8,16", "n_ref": "128", "output_dir": str(tmp_path / "vs")})
    for _ in range(2):
        assert harness.run(cfg) == harness.EXIT_OK
        manifest = json.loads((tmp_path / "vs" / "manifest.json").read_text())
        assert manifest["counters"] == {"band_sums": 128, "band_reuses": 128,
                                        "full_band_sums": 88, "band_points_max": 32,
                                        "multiplier_columns": 91, "kernel_rows": 6048, "symbol_tables": 98,
                                        "slab_arguments": 0,
                                        "transforms": 14, "band_cells": 3,
                                        "cell_nodes": 7, "cell_degree_max": 0,
                                        "band_products": 0, "norm_svds": 12}
    code = cli.main(["run", "--scenario", "varspeed", "--output-dir", str(tmp_path / "bad"),
                     "--set", "Ns=0"])
    assert code == harness.EXIT_CONFIG
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["counters"] == {"band_sums": 0, "band_reuses": 0, "full_band_sums": 0,
                                    "band_points_max": 0, "multiplier_columns": 0,
                                    "kernel_rows": 0,
                                    "symbol_tables": 0, "slab_arguments": 0,
                                    "transforms": 0, "band_cells": 0,
                                    "cell_nodes": 0, "cell_degree_max": 0,
                                    "band_products": 0, "norm_svds": 0}


def test_compared_variants_share_their_band_cells(tmp_path):
    # hoelder-z at n = 128 with compare_variants marches the frozen study and
    # then the averaged one, each with the same 256- and 128-slab fine-step
    # reference.  Every band cell stays in the store for the run, so the
    # averaged study builds no cell and probes no node: the run fits the 9
    # cells from 62 nodes that the frozen study and the norm sweep alone fit.
    # Every p lies in the tile [-1, 1].  Each reference thickness and the
    # study's 1/16 build the point cell of their first p and then one tile
    # fit of degree 16 (18 nodes each; 1/16 resolves on 64 points).  The
    # study's 1/8 resolves neither at its first p, 0.954, nor at the tile's
    # first node, p = 1 (2 nodes): its first slab takes the one full band,
    # with no transform, built in 2 blocks of 64 columns and one symbol table
    # per block, and its later slabs their own probe.  The sweep's six
    # dense matrices on 64 points take 6 point cells, 3 of which resolve
    counts = {}
    for compare in ("true", "false"):
        cfg = resolve_config("hoelder-z", {}, {
            "n_points": "128", "Ns": "8,16", "n_ref": "256", "norm_points": "64",
            "compare_variants": compare, "output_dir": str(tmp_path / compare)})
        assert harness.run(cfg) == harness.EXIT_OK
        counts[compare] = json.loads((tmp_path / compare / "manifest.json").read_text())["counters"]
    # Each of the 8 marches takes the slab arguments of its full slabs from one
    # profile call, and each of the 6 dense matrices takes its own.  A march
    # takes the band coefficients of each block of 8 full slabs from a tile
    # fit in one Chebyshev product, a march that fits its tile at slab 1 one
    # product for slabs 1 to 7: the frozen and the averaged study's 256-,
    # 128- and 16-slab marches 32, 16 and 2 products each, where slabs 1 to 7
    # took one each (118 in all); none of the dense matrices is on a tile fit.
    # The sweep's 12 H^s norms take one singular-value computation each.  The
    # one full-band slab and the sweep's three full-band matrices each take
    # their xi = 0 column as an exact diagonal entry
    assert counts["true"] == {"band_sums": 815, "band_reuses": 794, "full_band_sums": 1,
                              "band_points_max": 64, "multiplier_columns": 4,
                              "kernel_rows": 4832,
                              "symbol_tables": 98, "slab_arguments": 14,
                              "transforms": 26, "band_cells": 9,
                              "cell_nodes": 62, "cell_degree_max": 16,
                              "band_products": 100, "norm_svds": 12}
    for name in ("band_cells", "cell_nodes", "cell_degree_max"):
        assert counts["true"][name] == counts["false"][name], name


def test_default_hoelder_run_takes_one_profile_call_per_march(tmp_path):
    # the default hoelder-z run marches 3312 slabs in 12 marches: the frozen
    # and the averaged study each take the 1024-slab reference, its 512-slab
    # cross-check and the 4 subdivisions of Ns.  Each march takes the slab
    # arguments of its full slabs from one profile call, and each of the norm
    # sweep's 6 dense slabs takes its own: 18 calls, where one call per slab
    # took 3318.  Band coefficients take one Chebyshev product per block of 8
    # slabs on a tile fit, slabs 1 to 7 of a march that fits its tile at slab
    # 1 included: 128, 64 and 2, 4, 8 for each study's marches that fit the
    # tiles (Delta = 1/8 takes none), and 4 for the dense slabs of the sweep
    # that are on tile fits, where each of those 3295 slabs took one and a
    # march's slabs 1 to 7 one each took 446.  The norm sweep's 12 H^s norms
    # take one singular-value computation each
    cfg = resolve_config("hoelder-z", {}, {"output_dir": str(tmp_path)})
    assert harness.run(cfg) == harness.EXIT_OK
    counters = json.loads((tmp_path / "manifest.json").read_text())["counters"]
    assert counters["slab_arguments"] == 18
    assert counters["band_sums"] + counters["full_band_sums"] == 3312
    assert counters["band_products"] == 416
    assert counters["norm_svds"] == 12


def test_block_product_rows_are_bitwise_the_lone_slab_rows(tmp_path, monkeypatch):
    # a march takes the band coefficients of a block of slabs from the rows of
    # one product T(t_block) @ coef, and any other slab the first row of the
    # product at [t, t]: numpy hands a one-row product to gemv, whose rows
    # differ in their last bits.  For every tile fit of a reduced hoelder-z
    # run (m = 32 for the 256-slab reference, 64 for its 128-slab cross-check
    # and for the study's 16 slabs), each row of a block product is the lone
    # row bit for bit, at every position and for every block length up to
    # the march's, 8
    lengths = []
    bands = propagator._Cell.bands
    monkeypatch.setattr(propagator._Cell, "bands",
                        lambda cell, t, grid: lengths.append(len(t)) or bands(cell, t, grid))
    cfg = resolve_config("hoelder-z", {}, {
        "n_points": "128", "Ns": "8,16", "n_ref": "256", "norm_points": "64",
        "compare_variants": "false", "output_dir": str(tmp_path)})
    assert harness.run(cfg) == harness.EXIT_OK
    assert max(lengths) == 8 and len(lengths) == propagator.counters["band_products"]
    fits = [(key[2], cell) for key, cell in propagator._band_cell.items()
            if cell.point is None and cell.coef is not None]
    assert sorted(cell.m for _, cell in fits) == [32, 64, 64]
    t = np.cos(np.linspace(0.1, 3.0, 8))
    for grid, cell in fits:
        lone = [cell.bands(np.array([s, s]), grid)[0].tobytes() for s in t]
        for length in range(2, 9):
            for start in range(0, 9 - length):
                rows = cell.bands(t[start:start + length], grid)
                assert [row.tobytes() for row in rows] == lone[start:start + length]


def test_profiled_registry_specs_keep_p_in_one_tile():
    # a band cell fits p over a tile of width 2, and a default run of a
    # profiled spec uses the one tile [-1, 1]: hoelder-z divides its
    # Weierstrass sum by a bound of the weights' sum, and varspeed-z takes
    # p = z <= Z = 1.  Frozen slabs take p at any depth in [0, Z], averaged ones
    # the slab mean of p over slabs of thickness 1/8 to 1/512
    assert sum(symbols._weierstrass_weights(0.5)) < symbols._HOELDER_NORMALIZER
    profiled = [name for name in symbols.available_symbols()
                if symbols.get_symbol(name).z_profile is not None]
    assert profiled == ["varspeed-z", "hoelder-z"]
    for name in profiled:
        spec, Z = symbols.get_symbol(name), resolve_config(name, {}, {}).Z
        ps = [symbols.slab_argument(spec, z) for z in np.linspace(0.0, Z, 4097)]
        for k in (3, 6, 9):
            delta = Z * 2.0 ** -k
            ps += [symbols.slab_argument(spec, j * delta, (j + 1) * delta)
                   for j in range(2 ** k)]
        assert max(abs(p) for p in ps) <= 1.0, name


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
    ["hoelder-z", "--set", "n_points=64", "--set", "Ns=8,16", "--set", "n_ref=128",
     "--set", "norm_points=64"],
    ["oneway-homogeneous", "--set", "n_points=128", "--set", "n_slabs=8"],
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
        gates={"max_normalized_error": ("<", 1e-18)})
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
        gates=dict(entry.gates, averaged_ratio=("<=", 1e-6))))
    out = tmp_path / variant
    cfg = resolve_config("hoelder-z", {}, {
        "n_points": "64", "Ns": "8,16", "n_ref": "128", "norm_points": "64",
        "variant": variant, "output_dir": str(out)})
    assert harness.run(cfg) == harness.EXIT_GATE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-violation"
    assert "averaged_ratio" in manifest["error"]


def _gated_by(fact):
    """The first registered scenario with a gate on ``fact``."""
    return next(sc for sc in harness._SCENARIOS.values() if fact in sc.gates)


@pytest.mark.parametrize("gate,facts", [
    ("exact_tol", {"max_normalized_error": np.nan}),
    ("slope_min", {"fitted_slope": np.nan}),
    ("monotone_tol", {"error_growth": np.nan}),
    ("averaged_margin", {"averaged_ratio": np.nan}),
    ("phase_tol", {"max_phase_error": np.nan}),
    ("suppression_min", {"suppression": np.nan}),
    ("preserve_tol", {"inside_change": np.nan}),
])
def test_nan_fact_violates_its_gate(gate, facts):
    (fact,) = facts
    bad = harness._check_gates(_gated_by(fact), facts)
    assert len(bad) == 1 and bad[0].startswith(f"{fact} nan not "), gate


@pytest.mark.parametrize("fact,numerators,denominators,passes", [
    ("error_growth", [0.0, 0.0], [1.0, 0.0], True),
    ("averaged_ratio", [0.0, 0.5], [0.0, 1.0], True),
    ("error_growth", [1.05], [1.0], True),
    ("error_growth", [1.0500001], [1.0], False),
    ("averaged_ratio", [0.5], [0.0], False),
], ids=["zero-pair-growth", "zero-pair-averaged", "growth-exactly-5-percent",
        "growth-over-5-percent", "averaged-over-zero-frozen"])
def test_ratio_gate_edges(fact, numerators, denominators, passes):
    entry = _gated_by(fact)
    facts = {fact: harness._worst_ratio(numerators, denominators)}
    assert (harness._check_gates(entry, facts) == []) == passes


def _load_strict(path):
    """Parse a JSON artifact, failing on the non-standard NaN and Infinity literals."""
    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_sobolev_index_is_gate_violation(tmp_path):
    # <xi>^400 overflows, so the errors read inf and nan (<xi>^400 * 0 in
    # coefficient_norm is nan)
    out = tmp_path / "s400"
    code = cli.main(["run", "--scenario", "translation", "--set", "n_points=64",
                     "--set", "Ns=1,8", "--set", "norm_points=64", "--set", "s=400",
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
                     "--set", "n_points=64", "--set", "Ns=1,8",
                     "--set", "norm_points=64",
                     "--output-dir", str(tmp_path / "cli-out")])
    assert code == 0
    assert (tmp_path / "cli-out" / "manifest.json").exists()


def test_cli_bad_set_pair(tmp_path):
    assert cli.main(["run", "--scenario", "translation",
                     "--set", "oops", "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags,word", [
    (["--set", "seed=-1"], "seed"),
    (["--set", "s=nan"], "s must be finite"),
    (["--set", "quadrature_order=1025"], "1024"),
    (["--set", "n_points=many"], "n_points"),
    (["--set", "oops"], "KEY=VALUE"),
    (["--set", "variant=bogus"], "variant"),
    (["--set", "reference=bogus"], "reference"),
    (["--set", "norm_points=100"], "norm_points"),
    (["--set", "n_points=8192", "--set", "Ns=1", "--set", "norm_points=8192"],
     "dense-assembly limit 4096"),
], ids=["negative-seed", "nan-sobolev-index", "quadrature-order-over-cap",
        "unparsable-value", "set-pair-without-equals", "unknown-variant", "unknown-reference",
        "norm-points-not-power-of-two", "norm-sweep-over-matrix-limit"])
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
                     "--set", "seed=-1"])
    assert code == harness.EXIT_CONFIG
    assert not out.exists()
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["varspeed-z", "--set", "Ns=4,8", "--set", "n_points=64"],  # Delta = 1/4 exceeds delta_max
    ["varspeed-z", "--set", "n_points=100"],                    # not a power of two
    ["translation", "--set", "n_points=8192", "--set", "Ns=1",  # norm matrix over the size limit
     "--set", "norm_points=8192"],
    ["oneway-lens", "--set", "n_points=32"],                    # steep mode 28 beyond the lattice
    ["varspeed", "--set", "n_points=64", "--set", "Ns=8,16",    # n_ref below 8x the largest N
     "--set", "n_ref=64"],
    ["varspeed", "--set", "period=1e160"],                      # wave packet width overflows
], ids=["slab-too-thick", "grid-not-power-of-two", "norm-matrix-too-large",
        "steep-mode-off-lattice", "fine-step-reference-too-coarse", "period-too-large"])
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


def test_check_seed_is_parsed_in_the_recorded_run(tmp_path):
    out = tmp_path / "chk"
    assert cli.main(["check", "--seed", "abc", "--output-dir", str(out)]) == harness.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "'seed'" in manifest["error"]
    assert not (out / "properties.xml").exists()
    assert cli.main(["check", "--seed", "3", "--output-dir", str(out)]) == harness.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 3


def test_cli_defines_only_documented_options():
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {name: {a.dest for a in parser._actions} - {"help"}
             for name, parser in subparsers.choices.items()}
    assert dests["run"] == {"scenario", "config", "output_dir", "extra"}
    assert dests["check"] == {"output_dir", "seed"}


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
    assert "max_phase_error nan" in manifest["error"]
    assert (out / "phase_errors.csv").read_text().splitlines()[2] == "40,nan"


def test_norm_sweep_rows_match_single_assemblies():
    spec = symbols.get_symbol("varspeed")
    grid = Grid(32, 2.0 * np.pi)
    rows = harness.norm_sweep(spec, grid)
    deltas = [2.0 ** (-k) for k in range(4, 10)]
    assert [(s, d) for s, d, _, _ in rows] == [(s, d) for s in (0.0, 1.0) for d in deltas]
    for s, delta, norm, rate in rows:
        mat = propagator.assemble_matrix(SlabSpec(0.0, delta, spec, Frozen()), grid)
        assert norm == propagator.operator_norm_hs(mat, grid, s)
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
