"""End-to-end checks for the command-line interface and its artifacts."""

import copy
import json
import os

import numpy as np
import pytest

from kamforge import cli
from kamforge.errors import ContractionError
from kamforge.oscillator import compute_period
from kamforge.util import config_hash, fmt_float

# A forcing-free network keeps the whole pipeline exact and fast: the
# normal form and KAM stages see a zero remainder, so the exported torus
# must be the flat one and every artifact is cheap to regenerate.
FLAT = {
    "system": {"terms": []},
    "dc": {"scan_grid": 5, "K_check": 60},
    "torus": {"n_phi": 8, "n_t": 4},
    "verify": {"T_check": 5.0, "n_samples": 2, "T_long": 50.0, "sample_every": 4},
}
# A reduced config of the shipped network that runs every pipeline stage with
# nonzero remainders (the benchmark's `construct` workload).
REDUCED = {
    "dc": {"scan_grid": 11, "K_check": 50},
    "normal_form": {"m0": 2, "K0": 5, "K_cap": 5, "base_grid": 32},
    "kam": {"K_cap": 5},
    "torus": {"n_phi": 8, "n_t": 8},
}
PIPELINE_FILES = ["config.json", "dc_margins.csv", "dc_point.json", "nf_diagnostics.csv",
                  "kam_diagnostics.csv", "torus.json", "summary.json"]
# A stored torus of the benchmark's `kam_active` workload.
CERTIFY_TORUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "fixtures", "kam_active_torus.json")


def dump_config(path, overrides):
    with open(path, "w") as fh:
        json.dump(overrides, fh)
    return str(path)


@pytest.fixture(scope="module")
def flat_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("flat")
    cfg_path = dump_config(root / "config.json", FLAT)
    out = root / "a"
    assert cli.main(["pipeline", "--config", cfg_path, "--out", str(out)]) == 0
    return cfg_path, out


def test_load_config_merges_file_over_defaults(tmp_path):
    path = dump_config(tmp_path / "c.json", {"dc": {"gamma": 5e-3}, "seed": 3})
    cfg = cli.load_config(path)
    assert cfg["dc"]["gamma"] == 5e-3
    assert cfg["dc"]["K_split"] == cli.DEFAULT_CONFIG["dc"]["K_split"]
    assert cfg["seed"] == 3
    # the defaults themselves must stay untouched
    assert cli.DEFAULT_CONFIG["seed"] == 0
    assert cli.DEFAULT_CONFIG["dc"]["gamma"] == 2e-3


def test_load_config_rejects_small_amplitude(tmp_path):
    path = dump_config(tmp_path / "c.json", {"system": {"amplitude": 1.0}})
    with pytest.raises(ValueError):
        cli.load_config(path)


def test_load_config_rejects_kam_cap_below_normal_form_cap(tmp_path):
    # the KAM grid could not resolve the averaged remainder's modes
    path = dump_config(tmp_path / "c.json",
                       {"normal_form": {"K_cap": 10}, "kam": {"K_cap": 8}})
    with pytest.raises(ValueError, match="K_cap"):
        cli.load_config(path)


def test_load_config_rejects_kam_nodes_below_four():
    # below four nodes per axis the KAM step loses the tail's cubic terms
    with pytest.raises(ValueError, match="kam.n_nodes must be at least 4"):
        cli.load_config(None, {"kam": {"n_nodes": 3}})
    assert cli.load_config(None, {"kam": {"n_nodes": 4}})["kam"]["n_nodes"] == 4


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match=r"normal_form\.KCap"):
        cli.load_config(None, {"normal_form": {"KCap": 5}})
    path = dump_config(tmp_path / "c.json", {"verfy": {"T_long": 10.0}})
    with pytest.raises(ValueError, match="verfy"):
        cli.load_config(path)
    # a list is one value: the entries of system.terms are not checked as keys
    cfg = cli.load_config(None, {"system": {"terms": [{"alpha": [1, 1], "modes": []}]}})
    assert cfg["system"]["terms"][0]["modes"] == []


@pytest.mark.parametrize("key, value", [
    ("T_check", -2.0), ("T_check", 0.0), ("h_check", -2.5e-3), ("T_long", -1.0),
    ("h_long", -2.5e-2), ("escape", -1.0), ("n_samples", 0), ("sample_every", 0)])
def test_load_config_rejects_unusable_verify_settings(key, value, tmp_path, capsys):
    with pytest.raises(ValueError, match=rf"verify\.{key}"):
        cli.load_config(None, {"verify": {key: value}})
    path = dump_config(tmp_path / "c.json", {"verify": {key: value}})
    assert cli.main(["period", "--config", path]) == 1
    assert f"verify.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("measure", "halvings", -1), ("measure", "n_samples", 999), ("torus", "n_phi", 0),
    ("torus", "n_t", 0)])
def test_load_config_rejects_unusable_sizes(section, key, value, tmp_path, capsys):
    with pytest.raises(ValueError, match=rf"{section}\.{key}"):
        cli.load_config(None, {section: {key: value}})
    path = dump_config(tmp_path / "c.json", {section: {key: value}})
    assert cli.main(["period", "--config", path]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err


def test_config_sections_must_be_objects(tmp_path, capsys):
    for section in ("torus", "dc"):
        path = dump_config(tmp_path / f"{section}.json", {section: 5})
        with pytest.raises(ValueError, match=f"config key {section} must be an object"):
            cli.load_config(path)
        assert cli.main(["period", "--config", path]) == 1
        assert f"config key {section} must be an object" in capsys.readouterr().err


def test_written_config_reloads_to_the_same_hash(flat_run):
    _, out = flat_run
    cfg = cli.load_config(str(out / "config.json"))
    comment = (out / "dc_margins.csv").read_text().splitlines()[0]
    assert comment == f"# config {config_hash(cfg)}"


def test_network_file_gives_the_inline_network(tmp_path):
    inline, _ = cli.network_from_config(cli.load_config())
    path = dump_config(tmp_path / "net.json", inline.to_json_dict())
    # empty inline terms, so only the file can supply the coupling
    cfg = cli.load_config(overrides={"system": {"network_file": path, "terms": []}})
    net, scaled = cli.network_from_config(cfg)
    assert (net.m, net.n, net.terms) == (inline.m, inline.n, inline.terms)
    assert scaled.A == cfg["system"]["amplitude"]
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, (5, inline.m))
    t = rng.uniform(0.0, 2 * np.pi, 5)
    assert np.array_equal(net.potential_gradient(x, net.force_coefficients(t)),
                          inline.potential_gradient(x, inline.force_coefficients(t)))


def test_eps_flag_sets_amplitude():
    args = cli._build_parser().parse_args(["pipeline", "--eps", "0.05"])
    over = cli._overrides_from_args(args)
    assert over["system"]["amplitude"] == pytest.approx(20.0)


@pytest.mark.parametrize("eps", ["0", "1", "2.5", "nan"])
def test_eps_flag_outside_unit_interval_exits_1(eps, capsys):
    assert cli.main(["period", "--eps", eps]) == 1
    assert "--eps must lie in (0, 1)" in capsys.readouterr().err


def test_flag_overrides_route_to_sections():
    args = cli._build_parser().parse_args(
        ["verify", "--gamma", "1e-3", "--horizon", "500",
         "--t-check", "7", "--seed", "5"])
    over = cli._overrides_from_args(args)
    assert over == {"seed": 5, "dc": {"gamma": 1e-3},
                    "verify": {"T_long": 500.0, "T_check": 7.0}}


def test_period_prints_reference_value(capsys):
    assert cli.main(["period"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == fmt_float(compute_period(1))
    assert float(out) == pytest.approx(7.4162987092054875, abs=1e-13)


def test_period_exponent_flag(capsys):
    assert cli.main(["period", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == fmt_float(compute_period(3))


def test_dc_scan_writes_margins_and_report(tmp_path):
    cfg_path = dump_config(tmp_path / "c.json", FLAT)
    out = tmp_path / "o"
    assert cli.main(["dc-scan", "--config", cfg_path, "--out", str(out)]) == 0
    cfg = cli.load_config(cfg_path)
    lines = (out / "dc_margins.csv").read_text().splitlines()
    assert lines[0] == f"# config {config_hash(cfg)}"
    assert len(lines) == 2 + cfg["dc"]["scan_grid"] ** 2
    with open(out / "dc_point.json") as fh:
        rep = json.load(fh)
    assert rep["ok"] is True
    assert float(rep["margin"]) >= 1.0
    assert 0.0 <= float(rep["excluded_fraction"]) < 1.0


def test_dc_scan_rejects_large_gamma(tmp_path, capsys):
    cfg_path = dump_config(tmp_path / "c.json", FLAT)
    rc = cli.main(["dc-scan", "--config", cfg_path,
                   "--out", str(tmp_path / "o"), "--gamma", "0.8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_1(tmp_path, capsys):
    cfg_path = dump_config(tmp_path / "c.json", {"system": {"amplitude": 0.5}})
    rc = cli.main(["dc-scan", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_pipeline_writes_artifacts(flat_run):
    cfg_path, out = flat_run
    for name in PIPELINE_FILES:
        assert (out / name).exists(), name
    cfg = cli.load_config(cfg_path)
    with open(out / "config.json") as fh:
        stored = json.load(fh)
    assert stored["config_hash"] == config_hash(cfg)
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["kam_steps"] == 0
    assert float(summary["kam_low_norm"]) <= 1e-12


def test_saved_torus_is_the_loaded_file_without_domain_keys(tmp_path):
    # a torus file that still carries per-field s, cutoff and tau loads, and
    # saves back as the same JSON without them
    cli.save_torus(cli.load_torus(CERTIFY_TORUS), tmp_path / "torus.json")
    with open(CERTIFY_TORUS) as fh:
        expect = json.load(fh)
    for name in ("theta_dev", "action"):
        for key in ("s", "cutoff", "tau"):
            del expect[name][key]
    with open(tmp_path / "torus.json") as fh:
        assert json.load(fh) == expect


def test_flat_system_gives_flat_torus(flat_run):
    _, out = flat_run
    torus = cli.load_torus(out / "torus.json")
    phi = np.linspace(0.0, 2 * np.pi, 7)[:-1]
    pts = np.stack([phi, 0.5 * phi], axis=1)
    tt = np.linspace(0.0, 2 * np.pi, 6)
    ang = torus.angles(pts, tt)
    act = torus.actions(pts, tt)
    np.testing.assert_allclose(ang, pts, atol=1e-10)
    np.testing.assert_allclose(act - act[0], 0.0, atol=1e-10)


def test_pipeline_reruns_byte_identical(flat_run, tmp_path):
    cfg_path, out = flat_run
    out2 = tmp_path / "b"
    assert cli.main(["pipeline", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in PIPELINE_FILES:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_artifacts_do_not_depend_on_thread_count(tmp_path, monkeypatch):
    # KAMFORGE_THREADS sets the excluded-measure thread pool
    cfg = cli.load_config(None, REDUCED)
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("KAMFORGE_THREADS", threads)
        outs.append(tmp_path / f"threads{threads}")
        cli.run_pipeline(cfg, out_dir=str(outs[-1]))
    for name in PIPELINE_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_verify_reruns_byte_identical(flat_run, tmp_path):
    cfg_path, out = flat_run
    runs = []
    for name in ("v1", "v2"):
        dest = tmp_path / name
        assert cli.main(["verify", "--config", cfg_path, "--out", str(dest),
                         "--torus", str(out / "torus.json")]) == 0
        runs.append(dest)
    for name in ["verify.json", "orbit.csv"]:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_verify_flat_torus(flat_run):
    cfg_path, out = flat_run
    assert cli.main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "verify.json") as fh:
        rep = json.load(fh)
    assert float(rep["defect"]) < 1e-6
    assert float(rep["action_variation"]) < 1e-3
    assert float(rep["rotation_rel_err"]) < 1e-3
    assert rep["escaped"] is False
    lines = (out / "orbit.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].split(",")[0] == "t"


def test_verify_escape_exits_4(flat_run, tmp_path, capsys):
    _, out = flat_run
    over = copy.deepcopy(FLAT)
    over["verify"]["escape"] = 0.5
    cfg_path = dump_config(tmp_path / "esc.json", over)
    rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "o"),
                   "--torus", str(out / "torus.json")])
    assert rc == 4
    assert "escape" in capsys.readouterr().err


def test_verify_nan_orbit_exits_4(flat_run, tmp_path, capsys):
    # on the shipped network a step of 0.1 overflows within one time unit and
    # the orbit turns to NaN, which must count as an escape, not as a result
    _, out = flat_run
    over = {"verify": {"T_check": 0.5, "n_samples": 1, "T_long": 2.0,
                       "sample_every": 1, "h_long": 0.1}}
    cfg_path = dump_config(tmp_path / "nan.json", over)
    with np.errstate(all="ignore"):
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "o"),
                       "--torus", str(out / "torus.json")])
    assert rc == 4
    assert "escape" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify.json").exists()


def test_contraction_failure_exits_3(tmp_path, monkeypatch, capsys):
    def stall(*args, **kwargs):
        raise ContractionError("implicit change did not converge in 80 iterations")

    monkeypatch.setattr(cli, "run_pipeline", stall)
    rc = cli.main(["pipeline", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == "error: implicit change did not converge in 80 iterations\n"


def test_verify_missing_torus_exits_1(tmp_path, capsys):
    cfg_path = dump_config(tmp_path / "c.json", FLAT)
    rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_coarse_sampling_before_integrating(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
    cfg = cli.load_config(None, {"verify": {"h_long": 1.0, "sample_every": 8}})
    with pytest.raises(ValueError, match="sample spacing"):
        cli.run_verify(cfg, str(tmp_path / "o"), torus_path=CERTIFY_TORUS)
    assert calls == []


def test_entry_points_create_their_output_directory(tmp_path):
    cfg = cli.load_config(None, {"verify": {"T_check": 2.0, "T_long": 50.0}})
    out = tmp_path / "a" / "b"
    cli.run_verify(cfg, str(out), torus_path=CERTIFY_TORUS)
    assert (out / "verify.json").exists() and (out / "orbit.csv").exists()
    cfg = cli.load_config(None, {"measure": {"halvings": 0, "n_samples": 1000,
                                             "K_split": 8, "K_check": 24}})
    out = tmp_path / "c" / "d"
    cli.run_measure(cfg, out_dir=str(out))
    assert (out / "measure.csv").exists()


def test_measure_is_deterministic(tmp_path):
    cfg_path = dump_config(tmp_path / "c.json",
                           {"measure": {"halvings": 1, "n_samples": 1000,
                                        "K_split": 8, "K_check": 24}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["measure", "--config", cfg_path, "--out", str(a)]) == 0
    assert cli.main(["measure", "--config", cfg_path, "--out", str(b)]) == 0
    data = (a / "measure.csv").read_bytes()
    assert data == (b / "measure.csv").read_bytes()
    lines = data.decode().splitlines()
    cfg = cli.load_config(cfg_path)
    assert lines[0] == f"# config {config_hash(cfg)}"
    assert lines[1].split(",")[:2] == ["gamma", "fraction"]
    assert len(lines) == 4
    first, second = (float(ln.split(",")[1]) for ln in lines[2:])
    assert second <= first
