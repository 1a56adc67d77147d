"""End-to-end checks of the command-line front end, run in-process."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from prbm import cli, dtn
from prbm import geometry as geo
from prbm.halfspace import absorption_probability_disk
from prbm.spectral import annulus_spectrum


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    """Every test runs in its own scratch directory."""
    monkeypatch.chdir(tmp_path)


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


def test_prob_prints_the_chord_absorption_value(capsys):
    assert cli.main(["halfspace", "--prob", "--d", "2", "--ratio", "0.5"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == absorption_probability_disk(0.5, 1.0, 2)
    assert abs(float(printed) - 0.4521) <= 5e-4
    manifest = json.loads(Path("prbm-halfspace.manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    assert manifest["summary"]["probability"] == float(printed)
    # defaults are echoed alongside the flags that were actually given
    assert manifest["config"]["ratio"] == 0.5
    assert manifest["config"]["lambda"] == 1.0
    assert manifest["config"]["seed"] == 0


def test_prob_and_table_are_mutually_exclusive(capsys):
    assert cli.main(["halfspace"]) == 2
    assert cli.main(["halfspace", "--prob", "--table", "absorption"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["halfspace", "--no-such-flag"])
    assert exc.value.code == 2


def test_stopping_time_table_has_a_monotone_cdf():
    code = cli.main(["halfspace", "--table", "stopping-time", "--points", "50",
                     "--lambda", "0.8", "--out", "st.csv"])
    assert code == 0
    meta, header, rows = _read_csv("st.csv")
    assert meta == {"table": "stopping-time", "d": 2, "lambda": 0.8}
    assert header == ["t", "density", "cdf"]
    assert len(rows) == 50
    cdf = [float(r[2]) for r in rows]
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    manifest = json.loads(Path("st.csv.manifest.json").read_text())
    assert manifest["outputs"] == ["st.csv"]


def test_config_file_fills_gaps_but_flags_win():
    Path("cfg.json").write_text(json.dumps({"points": 7, "lambda": 2.0}))
    code = cli.main(["halfspace", "--config", "cfg.json", "--table", "absorption",
                     "--lambda", "0.4", "--out", "abs.csv"])
    assert code == 0
    manifest = json.loads(Path("abs.csv.manifest.json").read_text())
    assert manifest["config"]["lambda"] == 0.4      # flag beats file
    assert manifest["config"]["points"] == 7        # file beats default
    assert manifest["config"]["ratio-max"] == 10.0  # untouched default
    _, _, rows = _read_csv("abs.csv")
    assert len(rows) == 8  # points + 1 grid nodes from 0 to ratio-max


def test_unknown_config_key_is_a_usage_error(capsys):
    Path("cfg.json").write_text(json.dumps({"walker": 10}))
    assert cli.main(["simulate", "--config", "cfg.json", "--domain", "halfplane"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("argv, body", [
    (["halfspace", "--prob"], {"d": 2.5}),  # ran at d = 2
    (["halfspace", "--table", "absorption"], {"points": "7"}),  # died of a TypeError
    (["simulate", "--domain", "disk"], {"walkers": 1.5}),  # died of a TypeError
    (["simulate", "--domain", "disk"], {"lambda": True}),
    (["dtn", "--domain-file", "dom.json"], {"dump-matrices": "yes"}),
    (["impedance", "--outer-radius", "2"], {"lambda-grid": 0.5}),
    (["simulate", "--domain", "disk"], {"start": ["0.1", "0.2"]}),  # ran from (0.1, 0.2)
    (["simulate", "--domain", "disk"], {"start": [False, 0.2]}),
    (["impedance", "--outer-radius", "2"], {"lambda-grid": ["1", "2"]}),
], ids=["float_d", "string_points", "float_walkers", "bool_lambda", "string_switch", "number_grid",
        "string_start", "bool_start", "string_grid"])
def test_config_values_must_have_the_flag_type(argv, body, capsys):
    Path("cfg.json").write_text(json.dumps(body))
    assert cli.main(argv + ["--config", "cfg.json"]) == 2
    assert "config key" in capsys.readouterr().err
    assert not list(Path.cwd().glob("*.manifest.json"))


def test_config_takes_integers_for_numbers_and_lists_for_grids():
    Path("cfg.json").write_text(json.dumps({"outer-radius": 2, "lambda-grid": [1, 2], "count": 8}))
    assert cli.main(["impedance", "--config", "cfg.json", "--out", "i.csv"]) == 0
    meta, _, rows = _read_csv("i.csv")
    assert [float(r[0]) for r in rows] == [1.0, 2.0]
    assert meta["count"] == 8


def test_missing_required_flag_exits_two_without_manifest(capsys):
    assert cli.main(["dtn"]) == 2
    assert "--domain-file is required" in capsys.readouterr().err
    assert not list(Path.cwd().glob("*.json"))


def test_simulate_reruns_are_byte_identical(capsys, monkeypatch):
    Path("ch.json").write_text(json.dumps(
        {"builder": "channel", "n_rows": 8, "mesh": 0.125, "width": 2}
    ))
    argv = ["simulate", "--domain", "lattice", "--domain-file", "ch.json",
            "--lambda", "0.5", "--walkers", "2000", "--chunk-size", "500",
            "--seed", "11"]
    assert cli.main(argv + ["--out", "a.csv"]) == 0
    assert cli.main(argv + ["--out", "b.csv"]) == 0
    monkeypatch.setenv("PRBM_THREADS", "2")
    assert cli.main(argv + ["--out", "c.csv"]) == 0
    a = Path("a.csv").read_bytes()
    assert a == Path("b.csv").read_bytes()
    assert a == Path("c.csv").read_bytes()
    out = capsys.readouterr().out
    assert "2000 walkers: working" in out
    meta, header, rows = _read_csv("a.csv")
    assert header == ["face", "x", "y", "count", "probability", "stderr"]
    assert meta["seed"] == 11
    assert sum(int(r[3]) for r in rows) == meta["working_absorbed"]


def test_simulate_domain_error_still_writes_the_manifest(capsys):
    code = cli.main(["simulate", "--domain", "annulus", "--outer-radius", "3",
                     "--start", "5,0", "--walkers", "10"])
    assert code == 1
    manifest = json.loads(Path("prbm-simulate.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "InvalidParam" in manifest["error"]
    assert manifest["config"]["outer-radius"] == 3.0
    assert "error:" in capsys.readouterr().err


def test_simulate_checks_start_dimension(capsys):
    code = cli.main(["simulate", "--domain", "disk", "--start", "0.1,0.2,0.3"])
    assert code == 2
    assert "coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--domain", "disk", "--outer-radius", "3"], None),
    (["simulate", "--domain", "disk"], {"outer-radius": 3}),
    (["simulate", "--domain", "halfplane", "--domain-file", "x.json"], None),
    (["simulate", "--domain", "halfplane"], {"domain-file": "x.json"}),
    (["simulate", "--domain", "lattice", "--domain-file", "x.json", "--outer-radius", "3"], None),
    (["simulate", "--domain", "ball", "--window", "2"], None),
    (["simulate", "--domain", "annulus", "--outer-radius", "3", "--start", "1.5,0,0"], None),
    (["simulate", "--domain", "annulus", "--outer-radius", "3"], {"start": [1.5, 0, 0]}),
    (["spectrum", "--domain", "annulus", "--outer-radius", "3", "--variant", "exterior"], None),
    (["spectrum", "--domain", "annulus", "--outer-radius", "3"], {"variant": "exterior"}),
    (["spectrum", "--domain", "disk", "--outer-radius", "3"], None),
])
def test_a_flag_that_does_not_apply_is_a_usage_error(argv, config, capsys):
    """A flag given on a --domain it does not apply to, or a start of the wrong
    dimension, exits 2 and writes no manifest, also when it comes from --config."""
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    assert cli.main(argv + ["--out", "x.csv"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(Path.cwd().glob("*.manifest.json"))


@pytest.mark.parametrize("argv, header, n_rows", [
    # the half-plane table ends in its overflow bin, whose right edge is inf
    (["simulate", "--domain", "halfplane", "--walkers", "2000", "--bins", "8", "--out", "t.csv"],
     ["bin_left", "bin_right", "count", "probability", "stderr"], 9),
    # the default ball start is the centre, where the first contact is uniform
    (["simulate", "--domain", "ball", "--walkers", "2000", "--bins", "8", "--out", "t.csv"],
     ["bin_left", "bin_right", "count", "probability", "stderr"], 8),
    (["halfspace", "--table", "spread-kernel", "--points", "10", "--out", "t.csv"], ["s", "density"], 21),
    (["halfspace", "--prob", "--ratio", "0.5", "--out", "t.csv"], ["d", "ratio", "probability"], 1),
    (["halfspace", "--table", "absorption", "--points", "4"], ["ratio", "probability"], 5),
])
def test_tables_land_in_a_file_or_on_stdout(argv, header, n_rows, capsys):
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    if "--out" in argv:
        meta, got, rows = _read_csv("t.csv")
        assert _strict_json(Path("t.csv.manifest.json").read_text())["outputs"] == ["t.csv"]
    else:
        lines = printed.splitlines()
        meta, got, rows = json.loads(lines[0][2:]), lines[1].split(","), [line.split(",") for line in lines[2:]]
    assert got == header and len(rows) == n_rows
    values = [[float(v) for v in row] for row in rows]
    if argv[0] == "simulate":
        assert sum(int(row[2]) for row in rows) == meta["working_absorbed"] == 2000 - meta["censored"]
        assert (values[-1][1] == math.inf) == (argv[2] == "halfplane")
    if "--prob" in argv:
        assert values == [[2.0, 0.5, absorption_probability_disk(0.5, 1.0, 2)]]


def test_ball_spectrum_lists_angular_modes():
    assert cli.main(["spectrum", "--domain", "ball", "--count", "5",
                     "--out", "ball.csv"]) == 0
    _, header, rows = _read_csv("ball.csv")
    assert header == ["index", "mu", "degeneracy"]
    for l, row in enumerate(rows):
        assert int(row[0]) == l
        assert float(row[1]) == float(l)
        assert int(row[2]) == 2 * l + 1


def test_exterior_ball_spectrum_shifts_by_one():
    assert cli.main(["spectrum", "--domain", "ball", "--variant", "exterior",
                     "--count", "4", "--out", "ext.csv"]) == 0
    _, _, rows = _read_csv("ext.csv")
    assert [float(r[1]) for r in rows] == [float(l + 1) for l in range(4)]


def test_disk_spectrum_has_no_exterior_variant(capsys):
    code = cli.main(["spectrum", "--domain", "disk", "--variant", "exterior"])
    assert code == 2
    assert "interior" in capsys.readouterr().err


def test_annulus_spectrum_csv_matches_the_library():
    assert cli.main(["spectrum", "--domain", "annulus", "--outer-radius", "3",
                     "--count", "4", "--out", "ann.csv"]) == 0
    spec = annulus_spectrum(3.0, 3)
    _, _, rows = _read_csv("ann.csv")
    assert len(rows) == len(spec.mu)
    for row, mu, deg in zip(rows, spec.mu, spec.degeneracy):
        assert float(row[1]) == mu
        assert int(row[2]) == deg
    assert float(rows[0][1]) == pytest.approx(1.0 / math.log(3.0), rel=1e-14)


def test_uniform_source_impedance_is_linear_in_lambda():
    assert cli.main(["impedance", "--outer-radius", "3",
                     "--lambda-grid", "0.01:100:7", "--out", "imp.csv"]) == 0
    meta, header, rows = _read_csv("imp.csv")
    assert header == ["Lambda", "Z", "Z_sp"]
    assert meta["outer_radius"] == 3.0
    for row in rows:
        lam, z_sp = float(row[0]), float(row[2])
        assert abs(z_sp - lam / (2.0 * math.pi)) <= 1e-12 * lam


def test_lambda_grid_accepts_lists_and_rejects_junk(capsys):
    assert cli.main(["impedance", "--outer-radius", "2",
                     "--lambda-grid", "1,2,4", "--out", "i.csv"]) == 0
    _, _, rows = _read_csv("i.csv")
    assert [float(r[0]) for r in rows] == [1.0, 2.0, 4.0]
    assert cli.main(["impedance", "--outer-radius", "2",
                     "--lambda-grid", "5:1:10"]) == 2
    assert cli.main(["impedance", "--outer-radius", "2",
                     "--lambda-grid", "abc"]) == 2
    assert "bad --lambda-grid" in capsys.readouterr().err


def test_dtn_dump_round_trips_the_matrices():
    Path("dom.json").write_text(json.dumps(
        {"builder": "box", "nx": 4, "ny": 3, "mesh": 0.25}
    ))
    code = cli.main(["dtn", "--domain-file", "dom.json", "--out", "pre",
                     "--lambda-grid", "0.5,1.0", "--dump-matrices"])
    assert code == 0
    sidecar = json.loads(Path("pre.matrices.json").read_text())
    n = sidecar["shape"][0]
    qm = dtn.build_Q(geo.lattice_box(4, 3, 0.25))
    assert n == qm.n
    Q = np.fromfile("pre.Q.bin").reshape(n, n)
    M = np.fromfile("pre.M.bin").reshape(n, n)
    assert np.array_equal(Q, qm.Q)
    assert np.array_equal(M, dtn.build_M(qm))
    meta, _, rows = _read_csv("pre.spectrum.csv")
    assert meta["n_working"] == n
    assert len(rows) == n
    _, header, imp_rows = _read_csv("pre.impedance.csv")
    assert header == ["Lambda", "Z", "Z_cell", "Z_cell0", "Z_sp", "Z_sp_diff"]
    assert len(imp_rows) == 2
    manifest = json.loads(Path("pre.manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        "pre.spectrum.csv", "pre.impedance.csv",
        "pre.Q.bin", "pre.M.bin", "pre.matrices.json",
    }


def test_dtn_bad_domain_file_is_a_domain_error(capsys):
    Path("dom.json").write_text(json.dumps({"builder": "torus"}))
    assert cli.main(["dtn", "--domain-file", "dom.json"]) == 1
    assert cli.main(["dtn", "--domain-file", "missing.json"]) == 1
    err = capsys.readouterr().err
    assert "torus" in err
    manifest = json.loads(Path("prbm-dtn.manifest.json").read_text())
    assert manifest["status"] == "error"
    # a missing key or a non-object file names the file instead of crashing
    for i, body in enumerate([{"builder": "box", "nx": 8}, [1, 2]]):
        Path(f"bad{i}.json").write_text(json.dumps(body))
        Path("prbm-dtn.manifest.json").unlink()
        assert cli.main(["dtn", "--domain-file", f"bad{i}.json"]) == 1
        assert f"bad{i}.json" in capsys.readouterr().err
        manifest = json.loads(Path("prbm-dtn.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "InvalidParam" in manifest["error"]


@pytest.mark.parametrize("body", [
    {"builder": "box", "nx": 8.5, "ny": 6, "mesh": 0.125},  # built an 8 x 6 box
    {"builder": "box", "nx": 8, "ny": 6, "mesh": "0.125"},
    {"builder": "channel", "n_rows": 10, "mesh": 0.1, "source_top": "false"},  # put the source on top
    {"builder": "loop", "polyline": {"circle": {"radius": 1.0, "n": 64.5}}, "mesh": 0.1},
], ids=["float_nx", "string_mesh", "string_source_top", "float_circle_n"])
def test_domain_file_values_reach_the_builders_unconverted(body):
    Path("dom.json").write_text(json.dumps(body))
    assert cli.main(["dtn", "--domain-file", "dom.json"]) == 1
    manifest = _strict_json(Path("prbm-dtn.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "InvalidParam" in manifest["error"]


def test_non_finite_flags_are_written_as_strings():
    # JSON has no NaN or Infinity, so manifests and CSV headers name them
    assert cli.main(["halfspace", "--table", "absorption", "--points", "3",
                     "--lambda", "nan", "--out", "abs.csv"]) == 0
    lines = Path("abs.csv").read_text().splitlines()
    assert _strict_json(lines[0][2:])["lambda"] == "nan"
    assert _strict_json(Path("abs.csv.manifest.json").read_text())["config"]["lambda"] == "nan"
    assert cli.main(["simulate", "--domain", "disk", "--lambda", "nan", "--walkers", "10"]) == 1
    manifest = _strict_json(Path("prbm-simulate.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["config"]["lambda"] == "nan"


@pytest.mark.parametrize("argv, manifest", [
    (["spectrum", "--domain", "annulus", "--outer-radius", "inf", "--out", "ann.csv"],
     "ann.csv.manifest.json"),
    (["lsa", "--curve", "[[0,0],[1,0]]", "--lambda", "0.4", "--mesh", "0.015625",
      "--source-height", "inf"], "prbm-lsa.manifest.json"),
])
def test_infinite_lengths_are_domain_errors(argv, manifest):
    assert cli.main(argv) == 1
    body = _strict_json(Path(manifest).read_text())
    assert body["status"] == "error"
    assert "InvalidParam" in body["error"]
    assert not Path("ann.csv").exists()


def test_lsa_report_lands_in_json_and_manifest(capsys):
    code = cli.main(["lsa", "--curve", "[[0,0],[1,0]]", "--lambda", "0.5",
                     "--mesh", "0.05", "--source-height", "1.0",
                     "--out", "rep.json"])
    assert code == 0
    body = json.loads(Path("rep.json").read_text())
    assert body["n_chords"] == 2
    assert body["coarse_flux"] > body["original_flux"] > 0
    manifest = json.loads(Path("rep.json.manifest.json").read_text())
    assert manifest["summary"]["relative_error"] == body["relative_error"]
    assert "relative_error" in capsys.readouterr().out


def test_lsa_curve_neither_file_nor_json_is_a_domain_error():
    # "garbage" died of a json.JSONDecodeError, and a 300-character path too
    # long for a file name of OSError: File name too long; neither wrote a manifest
    for curve in ("garbage", "missing-" + "x" * 287 + ".json"):
        assert cli.main(["lsa", "--curve", curve, "--lambda", "0.5", "--mesh", "0.05"]) == 1
        manifest = _strict_json(Path("prbm-lsa.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "DegenerateGeometry" in manifest["error"]


def test_lsa_reads_long_json_curve():
    # JSON text past 255 characters was probed as a file name and died of
    # OSError: File name too long, writing no manifest
    curve = json.dumps([[i / 100, 0.0] for i in range(101)])
    assert cli.main(["lsa", "--curve", curve, "--lambda", "0.5", "--mesh", "0.05"]) == 0
    assert _strict_json(Path("prbm-lsa.manifest.json").read_text())["status"] == "ok"


def test_lsa_accepts_named_prefractals():
    code = cli.main(["lsa", "--curve", "koch1", "--lambda", "0.25",
                     "--mesh", "0.025", "--manifest", "m.json"])
    assert code == 0
    manifest = json.loads(Path("m.json").read_text())
    assert manifest["summary"]["n_chords"] == 8
    # default source height sits one unit above the bump tops
    assert manifest["summary"]["source_height"] == 1.25


def test_validate_passes_and_records_every_check(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out
    manifest = json.loads(Path("prbm-validate.manifest.json").read_text())
    checks = manifest["checks"]
    assert len(checks) == 8
    assert all(c["passed"] for c in checks)
