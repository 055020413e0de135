import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from bridgetwin import cli, inference
from bridgetwin.cli import fbg_mechanical_strain
from bridgetwin.dataio import BAND_Z, format_microstrain, parse_microstrain, read_layout_entries, read_observation_table
from bridgetwin.fem import FactorizationError
from bridgetwin.inference import McmcConfig
from bridgetwin.statfem import Hyperparameters, SensorLayout

from conftest import BRIDGE_YAML, SENSORS_EAST, SENSORS_WEST, TRAIN_YAML, cropped_recording

_CTX_ARGS = ["--model", BRIDGE_YAML, "--scenario", TRAIN_YAML, "--sensors", SENSORS_EAST]


def _manifest_payload(path):
    """Manifest fields that must be stable across reruns: everything except
    the wall clock and the caller-chosen output paths."""
    doc = json.loads(path.read_text())
    doc.pop("created_utc")
    doc.pop("outputs")
    doc["arguments"].pop("out", None)
    return doc


class TestFbgCalibration:
    def test_pure_strain_shift(self):
        # a 7.8e-7 relative shift at k_eps 0.78 is one microstrain
        assert fbg_mechanical_strain(7.8e-7) == pytest.approx(1e-6, rel=1e-12)

    def test_temperature_compensation(self):
        """A temperature-only event must calibrate to pure thermal output:
        the grating sees expansion the substrate imposes, minus its own
        temperature response."""
        rel_t = 1.2e-6
        k_t, k_tt, alpha = 8e-6, 6.5e-6, 12e-6
        eps = fbg_mechanical_strain(rel_shift_s=(k_t / k_tt) * rel_t, rel_shift_t=rel_t,
                                    k_eps=0.78, k_t=k_t, k_tt=k_tt, alpha_sub=alpha)
        assert eps == pytest.approx(-alpha * rel_t / k_tt, rel=1e-9)

    def test_rejects_zero_sensitivity(self):
        with pytest.raises(ValueError):
            fbg_mechanical_strain(1e-6, k_eps=0.0)


# (document, its text, what replaces it, the key the error must name)
_BAD_DOCUMENTS = [
    (BRIDGE_YAML, "schema_version: 1", "schema_version: 99", "schema_version"),
    (TRAIN_YAML, "time_step: 0.004", "time_step: [0.004]", "recording.time_step"),
    (TRAIN_YAML, "time_window: [0.0, 3.6]", "time_window: [0.0, .inf]", "recording.time_window[1]"),
    (BRIDGE_YAML, "rule_of_mixtures:\n      fraction: 0.03\n      e_steel: 210.0e9\n      e_matrix: 35.0e9",
     "rule_of_mixtures: 0.03", "materials.reinforced_concrete.rule_of_mixtures"),
    (BRIDGE_YAML, "n_crossbeams: 21", "n_crossbeams: [21]", "geometry.template.n_crossbeams"),
    (TRAIN_YAML, "sigma: 1000.0", "sigma: [1000.0]", "random_load.sigma"),
    (TRAIN_YAML, "speed_kmh: 131.0", "speed: true", "train.speed"),
    (TRAIN_YAML, "length_scale: 1.0", "length_scale: yes", "random_load.length_scale"),
    (BRIDGE_YAML, "girder_subdivision: 2", "girder_subdivision: 2.5", "geometry.template.girder_subdivision"),
    (TRAIN_YAML, "axle_load: 104000.0", "axle_load: fast", "train.axle_load"),
]


class TestModelCommand:
    def test_build_and_info(self, tmp_path, capsys):
        assert cli.main(["model", "build", "--config", BRIDGE_YAML,
                         "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "model build"
        assert "bridgetwin" in manifest["versions"]

        assert cli.main(["model", "info", "--config", BRIDGE_YAML,
                         "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "span" in out
        assert "validation: ok\n" in out

    @pytest.mark.parametrize("action", ["build", "info"])
    def test_assembles_once(self, tmp_path, assemble_calls, action):
        """Validation's rigid-body check and the stiffness range that
        ``info`` prints read one assembly of the model."""
        assert cli.main(["model", action, "--config", BRIDGE_YAML, "--out", str(tmp_path)]) == 0
        assert len(assemble_calls) == 1

    def test_floating_model_exits_2(self, tmp_path, capsys):
        source = Path(BRIDGE_YAML).read_text()
        path = tmp_path / "floating.yaml"
        path.write_text(yaml.safe_dump({**yaml.safe_load(source), "geometry": {
            "nodes": [[0, 0.0, 0.0], [1, 5.0, 0.0]], "elements": [[0, 1, "girder"]], "supports": []}}))
        assert cli.main(["model", "build", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config: supports leave rigid body modes unconstrained"]

    def test_manifest_records_the_thread_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert cli.main(["model", "build", "--config", BRIDGE_YAML, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["environment"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                           "cpu_count": os.cpu_count()}

    @pytest.mark.parametrize("document,text,bad,key", [
        pytest.param(*case, id=case[-1]) for case in _BAD_DOCUMENTS])
    def test_bad_config_exits_2(self, tmp_path, capsys, document, text, bad, key):
        """A bad model document fails `model build` and a bad scenario
        document fails `simulate`, each with one stderr line naming the key."""
        source = Path(document).read_text()
        assert source.count(text) == 1
        path = tmp_path / Path(document).name
        path.write_text(source.replace(text, bad))
        if document == BRIDGE_YAML:
            argv = ["model", "build", "--config", str(path), "--out", str(tmp_path)]
        else:
            argv = ["simulate", "--model", BRIDGE_YAML, "--scenario", str(path),
                    "--sensors", SENSORS_EAST, "--out", str(tmp_path / "sim")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        assert f"{key} " in err[0]

    def test_missing_file_exits_4(self, tmp_path):
        assert cli.main(["model", "build", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path)]) == 4

    def test_unknown_flag_exits_2(self):
        assert cli.main(["model", "build", "--config", BRIDGE_YAML, "--bogus"]) == 2


class TestSimulateCommand:
    def test_writes_bands_loads_manifest(self, tmp_path, capsys, bundled_ctx):
        """The first stdout line ends with the jitter the load covariance
        needed before it factored."""
        out = tmp_path / "sim"
        assert cli.main(["simulate", *_CTX_ARGS, "--out", str(out)]) == 0
        header = (out / "prior_strains.csv").read_text().splitlines()[0]
        assert header == "t,sensor,mean,lo95,hi95"
        assert (out / "loads.csv").exists()
        assert (out / "manifest.json").exists()
        jitter = bundled_ctx.prior_series().jitter
        assert jitter > 0.0
        assert capsys.readouterr().out.splitlines()[0].endswith(f" s, prior jitter {jitter:.3e}")

    def test_ragged_sensor_row_exits_2_naming_file_and_line(self, tmp_path, capsys):
        sensors = tmp_path / "east.csv"
        sensors.write_text("id,x,y,fiber,line\nT01,2.0,0.0,top,main\nB01,2.0\n")
        rc = cli.main(["simulate", "--model", BRIDGE_YAML, "--scenario", TRAIN_YAML,
                       "--sensors", str(sensors), "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{sensors}:3" in err[0]

    @pytest.mark.parametrize("column,cells", [("x", "nan,0.0"), ("y", "2.0,abc"), ("x", "inf,0.0")])
    def test_bad_sensor_coordinate_exits_2_naming_line_and_column(self, tmp_path, capsys, column, cells):
        sensors = tmp_path / "east.csv"
        sensors.write_text(f"id,x,y,fiber,line\nT01,2.0,0.0,top,east\nB01,{cells},bottom,east\n")
        rc = cli.main(["simulate", "--model", BRIDGE_YAML, "--scenario", TRAIN_YAML,
                       "--sensors", str(sensors), "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{sensors}:3: column {column}: not a finite number" in err[0]

    def test_band_ordering(self, tmp_path):
        out = tmp_path / "sim"
        cli.main(["simulate", *_CTX_ARGS, "--out", str(out)])
        rows = (out / "prior_strains.csv").read_text().splitlines()[1:200]
        for row in rows:
            _, _, mean, lo, hi = row.split(",")
            assert parse_microstrain(lo) <= parse_microstrain(mean) <= parse_microstrain(hi)


def _synth(tmp_path, name="obs.csv", seed="3"):
    out = tmp_path / name
    rc = cli.main(["synth", *_CTX_ARGS, "--rho", "0.9", "--sigma-d", "4.0",
                   "--ell-d", "0.5", "--sigma-e", "1.0", "--seed", seed,
                   "--out", str(out)])
    assert rc == 0
    return out


def _with_cell(path, out, line, column, cell):
    """A copy of the recording at ``path`` with the cell at ``line`` (1 is
    the header) and ``column`` (0 is t) replaced."""
    lines = path.read_bytes().split(b"\r\n")
    row = lines[line - 1].split(b",")
    row[column] = cell
    lines[line - 1] = b",".join(row)
    out.write_bytes(b"\r\n".join(lines))
    return out


class TestSynthCommand:
    def test_recording_is_readable_and_full_length(self, tmp_path):
        path = _synth(tmp_path)
        ids, ts, strains = read_observation_table(path)
        assert len(ids) == 40
        assert ts.size == 901
        assert (tmp_path / "obs.csv.manifest.json").exists()

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = _synth(tmp_path, "a.csv")
        b = _synth(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = _synth(tmp_path, "a.csv", seed="3")
        b = _synth(tmp_path, "b.csv", seed="4")
        assert a.read_bytes() != b.read_bytes()


class TestCalibrateCommand:
    def test_converts_shift_table(self, tmp_path):
        src = tmp_path / "shifts.csv"
        src.write_text("t,rel_shift_s\n0.0,7.8e-7\n0.004,1.56e-6\n")
        out = tmp_path / "strain.csv"
        assert cli.main(["calibrate", "--in", str(src), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,strain"
        t0, eps0 = lines[1].split(",")
        assert parse_microstrain(eps0) == pytest.approx(1e-6, rel=1e-12)

    def test_ragged_row_exits_2_naming_file_and_line(self, tmp_path, capsys):
        src = tmp_path / "shifts.csv"
        src.write_text("t,rel_shift_s\n0.0,7.8e-7\n0.004\n")
        rc = cli.main(["calibrate", "--in", str(src), "--out", str(tmp_path / "strain.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{src}:3" in err[0]

    @pytest.mark.parametrize("column,row", [("rel_shift_s", "0.004,nan,0"), ("rel_shift_t", "0.004,1e-6,x"),
                                            ("t", "abc,1e-6,0"), ("t", ",1e-6,0")])
    def test_bad_shift_cell_exits_2_naming_line_and_column(self, tmp_path, capsys, column, row):
        """The t cells are copied as written, so one that is not a finite
        number is refused like a shift cell, before any file is written."""
        src = tmp_path / "shifts.csv"
        src.write_text(f"t,rel_shift_s,rel_shift_t\n0.0,7.8e-7,0\n{row}\n")
        rc = cli.main(["calibrate", "--in", str(src), "--out", str(tmp_path / "strain.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{src}:3: column {column}: not a finite number" in err[0]
        assert list(tmp_path.iterdir()) == [src]

    def test_time_cells_are_copied_as_written(self, tmp_path):
        src = tmp_path / "shifts.csv"
        cells = ["0.0040", "4E-3", "+1.25", "-0"]
        src.write_text("t,rel_shift_s\n" + "".join(f"{cell},7.8e-7\n" for cell in cells))
        out = tmp_path / "strain.csv"
        assert cli.main(["calibrate", "--in", str(src), "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == cells

    def test_output_matches_per_row_conversion(self, tmp_path):
        src = tmp_path / "shifts.csv"
        rows = [(0.004 * k, 1e-6 * (k - 3) ** 3, 2e-6 * k) for k in range(9)]
        src.write_text("t,rel_shift_s,rel_shift_t\n" + "".join(f"{t!r},{s!r},{u!r}\n" for t, s, u in rows))
        out = tmp_path / "strain.csv"
        assert cli.main(["calibrate", "--in", str(src), "--out", str(out), "--k-t", "0.1"]) == 0
        lines = out.read_text().splitlines()[1:]
        for (t, s, u), line in zip(rows, lines):
            t_cell, strain = line.split(",")
            assert t_cell == repr(t)
            assert strain == format_microstrain(fbg_mechanical_strain(s, u, k_t=0.1))

    @pytest.mark.parametrize("flag,value,named", [("--k-tt", "inf", "k_tt"), ("--k-eps", "nan", "k_eps"),
                                                  ("--k-t", "-inf", "k_t"), ("--alpha-sub", "nan", "alpha_sub")])
    def test_non_finite_coefficient_exits_2_writing_nothing(self, tmp_path, capsys, flag, value, named):
        """An infinite --k-tt would drop the temperature compensation and a
        nan --k-eps make every strain nan; each is refused by name, the flag
        at parse time and the argument by the function for Python callers.
        The two sensitivities, divisors both, must also be nonzero."""
        src = tmp_path / "shifts.csv"
        src.write_text("t,rel_shift_s,rel_shift_t\n0.0,7.8e-7,1e-6\n0.004,1.56e-6,2e-6\n")
        out = tmp_path / "strain.csv"
        assert cli.main(["calibrate", "--in", str(src), "--out", str(out), f"{flag}={value}"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        rule = "a finite nonzero number" if flag in ("--k-eps", "--k-tt") else "a finite number"
        assert err == [f"error: config: argument {flag}: must be {rule}, got {value!r}"]
        assert not out.exists()
        with pytest.raises(ValueError, match=f"^{named} must be a finite number, got {float(value)}$"):
            fbg_mechanical_strain(7.8e-7, 1e-6, **{named: float(value)})

    def test_strain_that_overflows_exits_2_writing_nothing(self, tmp_path, capsys):
        """A subnormal --k-eps is finite but sends every strain to inf: the
        writer refuses the column, naming it, before it opens the file, and
        no numpy warning reaches stderr."""
        src = tmp_path / "shifts.csv"
        src.write_text("t,rel_shift_s\n0.0,7.8e-7\n0.004,1.56e-6\n")
        out = tmp_path / "strain.csv"
        assert cli.main(["calibrate", "--in", str(src), "--out", str(out), "--k-eps", "1e-320"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {out}: column strain: not a finite strain: inf"]
        assert not out.exists()


class TestInferCommand:
    def test_end_to_end_and_determinism(self, tmp_path):
        obs = _synth(tmp_path)
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                           "--window", "1.0", "3.0", "--stride", "50",
                           "--iters", "400", "--seed", "5", "--out", str(out)])
            assert rc == 0
            outs.append(out)

        chain = (outs[0] / "chain.csv").read_text().splitlines()
        assert chain[0] == "iter,rho,sigma_d,ell_d,log_post,accepted"
        assert len(chain) == 1 + 300

        est = json.loads((outs[0] / "estimate.json").read_text())
        for key in ("rho", "sigma_d_microstrain", "ell_d", "acceptance_rate"):
            assert key in est

        assert (outs[0] / "chain.csv").read_bytes() == (outs[1] / "chain.csv").read_bytes()
        assert (outs[0] / "estimate.json").read_bytes() == (outs[1] / "estimate.json").read_bytes()
        assert _manifest_payload(outs[0] / "manifest.json") == \
            _manifest_payload(outs[1] / "manifest.json")

    @pytest.mark.parametrize("stride,iters,seed,warns", [(25, "200", "2", True), (50, "400", "5", False)])
    def test_warns_when_acceptance_leaves_its_band(self, tmp_path, capsys, stride, iters, seed, warns):
        """A short chain whose acceptance rate ends outside McmcConfig's band
        says so in one stderr line; one inside it says nothing."""
        obs = _synth(tmp_path)
        out = tmp_path / "fit"
        rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--window", "1.0", "3.0", "--stride", str(stride),
                       "--iters", iters, "--seed", seed, "--out", str(out)])
        assert rc == 0
        rate = json.loads((out / "estimate.json").read_text())["acceptance_rate"]
        lo, hi = McmcConfig().acceptance_band
        assert (not lo <= rate <= hi) == warns
        err = capsys.readouterr().err.strip().splitlines()
        warnings = [line for line in err if line.startswith("warning: acceptance rate")]
        assert len(warnings) == int(warns)
        if warns:
            assert f"{rate:.3f}" in warnings[0]

    def test_estimate_holds_one_posterior_mean_and_the_summary_prints_it_once(self, tmp_path, capsys, bundled_ctx):
        """Each component's mean in estimate.json is the top-level point
        estimate's float (sigma_d in strain there), and the summary gives
        every component once, sigma_d in microstrain."""
        obs = _synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "fit"
        rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0", "--window", "1.0", "3.0",
                       "--stride", "50", "--iters", "400", "--seed", "5", "--out", str(out)])
        assert rc == 0
        est = json.loads((out / "estimate.json").read_text())
        means = {name: c["mean"] for name, c in est["components"].items()}
        assert means["rho"] == est["rho"] and means["ell_d"] == est["ell_d"]
        assert means["sigma_d"] / 1e-6 == est["sigma_d_microstrain"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"sampled 400 iterations on 11 instants, prior jitter {bundled_ctx.prior_series().jitter:.3e}"
        assert lines[1] == f"kept 300 samples, acceptance rate {est['acceptance_rate']:.3f}"
        sigma = est["components"]["sigma_d"]
        assert lines[2:] == [
            f"rho: mean {est['rho']:.6g}, std {est['components']['rho']['std']:.6g}",
            f"sigma_d: mean {est['sigma_d_microstrain']:.6g} ue, std {sigma['std'] / 1e-6:.6g} ue",
            f"ell_d: mean {est['ell_d']:.6g} m, std {est['components']['ell_d']['std']:.6g} m",
        ]

    def test_malformed_strain_cell_in_a_skipped_row_changes_nothing(self, tmp_path):
        """A windowed infer parses the strain cells of its kept rows only:
        the row at 1.996 s falls between two of every fifth instant from
        1.0 s, so a bad cell there leaves the chain as it is."""
        clean = _synth(tmp_path)
        bad = _with_cell(clean, tmp_path / "bad.csv", 501, 6, b"1.5x")
        chains = []
        for obs in (clean, bad):
            out = tmp_path / obs.stem
            rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                           "--window", "1", "3", "--stride", "5", "--iters", "50", "--out", str(out)])
            assert rc == 0
            chains.append((out / "chain.csv").read_bytes())
        assert chains[0] == chains[1]

    def test_burn_in_that_keeps_no_sample_exits_2_before_any_work(self, tmp_path, capsys):
        """--burn-in 0.9999 rounds to all 3000 iterations: the sampler
        settings are refused in one line before a chain is run."""
        obs = _synth(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                           "--iters", "3000", "--burn-in", "0.9999", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_out_naming_a_file_exits_4_before_sampling(self, tmp_path, capsys, monkeypatch):
        """--out is made once the inputs are read and before the chain runs,
        so one naming an existing file costs no evidence evaluation."""
        obs = _synth(tmp_path)
        out = tmp_path / "taken"
        out.write_text("")
        calls = []
        evidence = inference.log_marginal
        monkeypatch.setattr(inference, "log_marginal", lambda *args: calls.append(args) or evidence(*args))
        rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--iters", "3000", "--out", str(out)])
        assert rc == 4
        assert calls == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: io: ")

    def test_recording_written_twice_exits_2_naming_the_repeated_row(self, tmp_path, capsys):
        """Rows 300 to 400 written twice would count every instant twice in
        the evidence; the second copy's first row goes back in time, so the
        recording is refused before any work."""
        header, *rows = _synth(tmp_path, seed="1").read_bytes().split(b"\r\n")
        obs = tmp_path / "twice.csv"
        obs.write_bytes(b"\r\n".join([header, *rows[300:401], *rows[300:401], b""]))
        rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--iters", "50", "--out", str(tmp_path / "x")])
        assert rc == 2
        first, last = rows[300].split(b",")[0].decode(), rows[400].split(b",")[0].decode()
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: config: {obs}:103: column t: {first!r} does not exceed the previous row's {last!r}"]
        assert not (tmp_path / "x").exists()

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        obs = _synth(tmp_path)

        def boom(*args, **kwargs):
            raise FactorizationError("synthetic failure")

        monkeypatch.setattr(cli, "sample_hyperposterior", boom)
        rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--iters", "400", "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_zero_noise_exits_3_naming_sigma_e(self, tmp_path, capsys):
        """Mirrored top/bottom gauges make the prior strain covariance
        singular, so sigma_e = 0 cannot be scored."""
        obs = _synth(tmp_path)
        rc = cli.main(["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "0",
                       "--iters", "10", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "sigma_e" in capsys.readouterr().err


class TestPosteriorCommand:
    def test_band_table(self, tmp_path):
        obs = _synth(tmp_path)
        out = tmp_path / "bands.csv"
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ("sensor,x,y,fiber,prior_mean,prior_lo95,prior_hi95,"
                            "fe_mean,fe_lo95,fe_hi95,z_mean,z_lo95,z_hi95,observed")
        assert len(lines) == 2 + 40

    def test_time_snaps_to_nearest_instant(self, tmp_path):
        obs = _synth(tmp_path)
        out = tmp_path / "x.csv"
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0001", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0].startswith("# instant t=2 ")

    def test_zero_noise_exits_3_naming_sigma_e(self, tmp_path, capsys):
        """Conditioning at sigma_e = 0 factors a singular S: a numeric
        failure naming its cause, never a silently jittered band."""
        obs = _synth(tmp_path)
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "sigma_e" in capsys.readouterr().err

    def test_tiny_noise_still_writes_bands(self, tmp_path):
        """At sigma_e = 0.001 ue the conditioned strain covariance is mostly
        rounding noise; it must still be a valid covariance, not a
        configuration error."""
        obs = _synth(tmp_path)
        out = tmp_path / "bands.csv"
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "0.001",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 40

    def test_malformed_strain_cell_exits_2_naming_line_and_sensor(self, tmp_path, capsys):
        obs = _synth(tmp_path)
        lines = obs.read_bytes().split(b"\r\n")
        row = lines[500].split(b",")
        row[6] = b"1.5x"  # t, T01, B01, T02, B02, T03, then B03
        lines[500] = b",".join(row)
        obs.write_bytes(b"\r\n".join(lines))
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "1.996",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"{obs}:501: sensor B03: not a finite decimal literal: '1.5x'" in err[0]

    def test_malformed_strain_cell_in_a_row_it_does_not_answer_changes_nothing(self, tmp_path):
        """A query parses the strain cells of its one instant only: a bad
        cell at 1.996 s leaves the bands at 2.0 s byte for byte as they are
        on the clean recording."""
        clean = _synth(tmp_path)
        bad = _with_cell(clean, tmp_path / "bad.csv", 501, 6, b"1.5x")
        outs = []
        for obs in (clean, bad):
            outs.append(tmp_path / f"{obs.stem}_bands.csv")
            rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                           "--w-star", "0.9,4.0,0.5", "--time", "2.0", "--out", str(outs[-1])])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_malformed_strain_cell_in_the_quiet_head_counts_only_when_sigma_e_is_estimated(self, tmp_path, capsys):
        """Without --sigma-e the first half second is parsed to estimate the
        noise, so a bad cell there is reported; with it, that row is never
        parsed."""
        obs = _with_cell(_synth(tmp_path), tmp_path / "bad.csv", 51, 3, b"abc")  # t = 0.196 s, sensor T02
        query = ["posterior", *_CTX_ARGS, "--obs", str(obs), "--w-star", "0.9,4.0,0.5", "--time", "2.0"]
        assert cli.main([*query, "--out", str(tmp_path / "estimated.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {obs}:51: sensor T02: not a finite decimal literal: 'abc'"]
        assert cli.main([*query, "--sigma-e", "1.0", "--out", str(tmp_path / "given.csv")]) == 0

    def test_recording_that_starts_loaded_exits_2_asking_for_sigma_e(self, tmp_path, capsys):
        """Cropped to t >= 1.0 s, the recording's first half second holds no
        unloaded row to estimate the gauge noise from."""
        obs = cropped_recording(_synth(tmp_path), tmp_path / "cropped.csv", 1.0)
        query = ["posterior", *_CTX_ARGS, "--obs", str(obs), "--w-star", "0.9,4.0,0.5", "--time", "2.0"]
        assert cli.main([*query, "--out", str(tmp_path / "estimated.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ") and "--sigma-e" in err[0]
        assert cli.main([*query, "--sigma-e", "1.0", "--out", str(tmp_path / "given.csv")]) == 0

    def test_short_row_outside_the_window_exits_2(self, tmp_path, capsys):
        """Every row's cell count is checked, whether the query parses it or not."""
        obs = _synth(tmp_path)
        lines = obs.read_bytes().split(b"\r\n")
        lines[100] = lines[100].rsplit(b",", 1)[0]  # t = 0.396 s, before the window
        obs.write_bytes(b"\r\n".join(lines))
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0", "--window", "1.0", "3.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {obs}:101 has 40 cells, expected 41"]

    def test_off_cadence_time_in_a_row_it_does_not_answer_exits_2(self, tmp_path, capsys):
        """Every timestamp is matched to the scenario cadence, whether the
        query parses its row or not."""
        obs = _with_cell(_synth(tmp_path), tmp_path / "bad.csv", 101, 0, b"0.397")
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config: recording timestamps do not sit on the scenario cadence"]

    @pytest.mark.parametrize("cell", ["nan", "abc", "inf", ""])
    def test_bad_time_cell_exits_2_naming_line_and_column(self, tmp_path, capsys, cell):
        obs = _synth(tmp_path)
        lines = obs.read_bytes().split(b"\r\n")
        row = lines[500].split(b",")
        row[0] = cell.encode()
        lines[500] = b",".join(row)
        obs.write_bytes(b"\r\n".join(lines))
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "1.2",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {obs}:501: column t: not a finite number: {cell!r}"]

    def test_malformed_w_star_exits_2(self, tmp_path):
        obs = _synth(tmp_path)
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0", "--time", "2.0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("doc,message", [
        ('{"rho": [0.9], "sigma_d_microstrain": 4.0, "ell_d": 0.5}', ": rho must be a finite number, got [0.9]"),
        ('{"rho": true, "sigma_d_microstrain": 4.0, "ell_d": 0.5}', ": rho must be a finite number, got True"),
        ('{"rho": 0.9, "sigma_d_microstrain": NaN, "ell_d": 0.5}',
         ": sigma_d_microstrain must be a finite number, got nan"),
        ('{"rho": 0.9, "sigma_d_microstrain": 4.0}', ": ell_d is missing"),
        ("[0.9, 4.0, 0.5]", " must hold a JSON object, got [0.9, 4.0, 0.5]"),
    ], ids=["list", "bool", "nan", "missing", "not-an-object"])
    def test_bad_estimate_file_exits_2_naming_the_key(self, tmp_path, capsys, doc, message):
        obs = _synth(tmp_path)
        estimate = tmp_path / "estimate.json"
        estimate.write_text(doc)
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", str(estimate), "--time", "2.0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {estimate}{message}"]


@pytest.mark.parametrize("command,time", [("posterior", "nan"), ("predict", "inf"), ("posterior", "-inf")])
def test_non_finite_time_exits_2_before_the_recording_is_read(tmp_path, capsys, command, time):
    """A non-finite --time has no nearest instant; it is refused at parse
    time with one line before the recording, here a missing file, is opened."""
    out = tmp_path / "x.csv"
    held_out = ["--locations", SENSORS_WEST] if command == "predict" else []
    rc = cli.main([command, *_CTX_ARGS, "--obs", str(tmp_path / "missing.csv"), "--sigma-e", "1.0",
                   "--w-star", "0.9,4.0,0.5", f"--time={time}", *held_out, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config: argument --time: must be a finite number, got {time!r}"]
    assert not out.exists()


@pytest.mark.parametrize("command,time", [("posterior", "1e9"), ("predict", "-50"), ("posterior", "3.429")])
def test_time_outside_the_window_exits_2_naming_its_instants(tmp_path, capsys, command, time):
    """A --time more than one 0.004 s step outside the windowed instants has
    no instant near it: it is refused, naming the window's first and last
    instants, and not answered with the edge instant."""
    obs = _synth(tmp_path)
    out = tmp_path / "x.csv"
    held_out = ["--locations", SENSORS_WEST] if command == "predict" else []
    rc = cli.main([command, *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0", "--w-star", "0.9,4.0,0.5",
                   f"--time={time}", *held_out, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config: --time {float(time):g} s lies more than one time step outside the "
                   f"window's instants, 0.556 to 3.424 s"]
    assert not out.exists()


@pytest.mark.parametrize("time,answered", [("3.427", "3.424"), ("0.553", "0.556"), ("2.0013", "2.0")])
def test_time_within_a_step_of_the_window_answers_the_nearest_instant(tmp_path, time, answered):
    obs = _synth(tmp_path)
    out = tmp_path / "x.csv"
    rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0", "--w-star", "0.9,4.0,0.5",
                   "--time", time, "--out", str(out)])
    assert rc == 0
    instant = out.read_text().splitlines()[0].split()[2]
    assert float(instant.removeprefix("t=")) == pytest.approx(float(answered), abs=1e-12)


_FINITE, _NONNEGATIVE, _POSITIVE = "a finite number", "a finite number >= 0", "a finite number > 0"
_NONZERO, _COUNT, _ITERS, _SEED = "a finite nonzero number", "an integer >= 1", "an integer >= 2", "an integer >= 0"
# (command, bad flag, the rule it breaks, the value as typed): every numeric flag of every command
_BAD_NUMBERS = {
    "window-nan": ("infer", ["--window", "nan", "3"], _FINITE, "nan"),
    "window-inf": ("posterior", ["--window", "1", "inf"], _FINITE, "inf"),
    "gamma-min-nan": ("predict", ["--gamma-min", "nan"], _FINITE, "nan"),
    "sigma-e-negative": ("infer", ["--sigma-e=-1"], _NONNEGATIVE, "-1"),
    "sigma-e-nan": ("posterior", ["--sigma-e", "nan"], _NONNEGATIVE, "nan"),
    "stride-0": ("predict", ["--stride", "0"], _COUNT, "0"),
    "seed-negative": ("infer", ["--seed=-1"], _SEED, "-1"),
    "synth-rho-nan": ("synth", ["--rho", "nan"], _POSITIVE, "nan"),
    "synth-rho-0": ("synth", ["--rho", "0"], _POSITIVE, "0"),
    "synth-sigma-d-negative": ("synth", ["--sigma-d=-4"], _NONNEGATIVE, "-4"),
    "synth-ell-d-inf": ("synth", ["--ell-d", "inf"], _POSITIVE, "inf"),
    "synth-sigma-e-negative": ("synth", ["--sigma-e=-1"], _NONNEGATIVE, "-1"),
    "synth-seed-negative": ("synth", ["--seed=-1"], _SEED, "-1"),
    "calibrate-k-eps-nan": ("calibrate", ["--k-eps", "nan"], _NONZERO, "nan"),
    "calibrate-k-eps-0": ("calibrate", ["--k-eps", "0"], _NONZERO, "0"),
    "calibrate-k-t-inf": ("calibrate", ["--k-t", "inf"], _FINITE, "inf"),
    "calibrate-k-tt-text": ("calibrate", ["--k-tt", "one"], _NONZERO, "one"),
    "calibrate-k-tt-0": ("calibrate", ["--k-tt", "0.0"], _NONZERO, "0.0"),
    "calibrate-alpha-sub-inf": ("calibrate", ["--alpha-sub=-inf"], _FINITE, "-inf"),
    "infer-sigma-e-text": ("infer", ["--sigma-e", "1ue"], _NONNEGATIVE, "1ue"),
    "infer-window-inf": ("infer", ["--window", "1", "inf"], _FINITE, "inf"),
    "infer-stride-0": ("infer", ["--stride", "0"], _COUNT, "0"),
    "infer-gamma-min-inf": ("infer", ["--gamma-min", "inf"], _FINITE, "inf"),
    "infer-iters-0": ("infer", ["--iters", "0"], _ITERS, "0"),
    "infer-iters-1": ("infer", ["--iters", "1"], _ITERS, "1"),
    "infer-iters-fraction": ("infer", ["--iters", "1.5"], _ITERS, "1.5"),
    "infer-burn-in-nan": ("infer", ["--burn-in", "nan"], _FINITE, "nan"),
    "posterior-stride-text": ("posterior", ["--stride", "two"], _COUNT, "two"),
    "posterior-gamma-min-inf": ("posterior", ["--gamma-min", "inf"], _FINITE, "inf"),
    "posterior-time-nan": ("posterior", ["--time", "nan"], _FINITE, "nan"),
    "predict-sigma-e-negative": ("predict", ["--sigma-e=-0.5"], _NONNEGATIVE, "-0.5"),
    "predict-window-nan": ("predict", ["--window", "nan", "3"], _FINITE, "nan"),
    "predict-time-inf": ("predict", ["--time", "inf"], _FINITE, "inf"),
}
# what the commands check before reading files that argparse cannot: a pair, and the inline w*
_BAD_PAIRS = {
    "infer-window-decreasing": ("infer", ["--window", "3", "1"], "--window must not decrease, got 3 1"),
    "posterior-window-decreasing": ("posterior", ["--window", "3", "1"], "--window must not decrease, got 3 1"),
    "predict-window-decreasing": ("predict", ["--window", "3.5", "0"], "--window must not decrease, got 3.5 0"),
    "posterior-w-star-nan": ("posterior", ["--w-star", "nan,4,0.5"],
                             "--w-star nan,4,0.5: rho must be positive and finite, got nan"),
    "predict-w-star-short": ("predict", ["--w-star", "0.9,4"], "--w-star 0.9,4: expected rho,sigma_d,ell_d, got '0.9,4'"),
}


def _argv_with_missing_files(tmp_path, command):
    """A complete, valid argument list for ``command`` whose every input path is missing."""
    missing = {name: str(tmp_path / name) for name in ("bridge.yaml", "train.yaml", "sensors.csv", "obs.csv")}
    context = ["--model", missing["bridge.yaml"], "--scenario", missing["train.yaml"],
               "--sensors", missing["sensors.csv"]]
    query = [*context, "--obs", missing["obs.csv"], "--w-star", "0.9,4.0,0.5", "--time", "2.0"]
    return [command, *{
        "synth": [*context, "--rho", "0.9", "--sigma-d", "4.0", "--ell-d", "0.5", "--sigma-e", "1.0"],
        "calibrate": ["--in", missing["obs.csv"]],
        "infer": [*context, "--obs", missing["obs.csv"]],
        "posterior": query,
        "predict": [*query, "--locations", missing["sensors.csv"]],
    }[command], "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command,flag,message", [
    *(pytest.param(command, flag, f"argument {flag[0].partition('=')[0]}: must be {rule}, got {typed!r}", id=name)
      for name, (command, flag, rule, typed) in _BAD_NUMBERS.items()),
    *(pytest.param(*case, id=name) for name, case in _BAD_PAIRS.items()),
])
def test_bad_numeric_flag_exits_2_before_any_file_is_read(tmp_path, capsys, command, flag, message):
    """Each bad number is refused in one line naming its flag and the value
    as typed, in microstrain for --sigma-e; every input path here is
    missing, so reading any file first would exit 4. A later occurrence of
    a flag is the one argparse keeps, so the bad value follows a valid one."""
    assert cli.main([*_argv_with_missing_files(tmp_path, command), *flag]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: config: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_every_numeric_option_has_a_rule():
    """No option converts with a bare float or int, which would let a
    non-finite, negative or zero value through to be found, if at all,
    after the files are read; and the cases above try every numeric option
    of every command."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    bare = [f"{name} {action.option_strings[0]}" for name, command in commands.items()
            for action in command._actions if action.type in (float, int)]
    assert bare == []
    numeric = {(name, action.option_strings[0]) for name, command in commands.items()
               for action in command._actions if action.type is not None}
    assert numeric == {(command, flag[0].partition("=")[0]) for command, flag, _, _ in _BAD_NUMBERS.values()}


def test_equal_window_bounds_keep_one_instant(tmp_path):
    """--window 2 2 is a window of one instant, not a decreasing one."""
    obs = _synth(tmp_path)
    out = tmp_path / "x.csv"
    assert cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0", "--w-star", "0.9,4.0,0.5",
                     "--window", "2", "2", "--time", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].split()[2] == "t=2"


class TestPredictCommand:
    def test_held_out_line(self, tmp_path):
        obs = _synth(tmp_path)
        out = tmp_path / "west.csv"
        rc = cli.main(["predict", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                       "--locations", SENSORS_WEST, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "sensor,x,y,fiber,mean,lo95,hi95"
        assert len(lines) == 2 + 20

    def test_ragged_locations_row_exits_2_naming_file_and_line(self, tmp_path, capsys):
        obs = _synth(tmp_path)
        locations = tmp_path / "west.csv"
        locations.write_text(Path(SENSORS_WEST).read_text().rstrip("\n") + "\nW99,10.0\n")
        n_lines = len(locations.read_text().splitlines())
        rc = cli.main(["predict", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                       "--locations", str(locations), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{locations}:{n_lines} has 2 cells" in err[0]

    def test_row_may_leave_out_its_optional_line_cell(self, tmp_path):
        """A layout row may stop after its last required cell; the line it
        leaves out is the sensor's default, as when the cell is empty."""
        obs = _synth(tmp_path)
        rows = Path(SENSORS_WEST).read_text().splitlines()
        outs = []
        for name, last in (("short", "WT99,10.0,7.3,top"), ("empty", "WT99,10.0,7.3,top,")):
            locations = tmp_path / f"{name}.csv"
            locations.write_text("\n".join(rows + [last]) + "\n")
            outs.append(tmp_path / f"{name}_bands.csv")
            rc = cli.main(["predict", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                           "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                           "--locations", str(locations), "--out", str(outs[-1])])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().splitlines()[-1].startswith("WT99,")

    def test_row_with_an_extra_cell_exits_2_naming_file_and_line(self, tmp_path, capsys):
        """A cell beyond the header has no column, as when a decimal comma
        splits a coordinate, so the row is refused rather than misread."""
        obs = _synth(tmp_path)
        locations = tmp_path / "west.csv"
        locations.write_text(Path(SENSORS_WEST).read_text().rstrip("\n") + "\nWT99,10,0,7.3,top,west\n")
        n_lines = len(locations.read_text().splitlines())
        rc = cli.main(["predict", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                       "--locations", str(locations), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{locations}:{n_lines} has 6 cells, expected 4 to 5" in err[0]

    def test_zero_noise_exits_3_naming_sigma_e(self, tmp_path, capsys):
        obs = _synth(tmp_path)
        rc = cli.main(["predict", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                       "--locations", SENSORS_WEST, "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "sigma_e" in capsys.readouterr().err


_COUNTED = """
import json, sys
from bridgetwin import cli, fem
calls, columns = [], []
def counted(fn, record):
    def wrapper(*args, **kwargs):
        record(args)
        return fn(*args, **kwargs)
    return wrapper
patched = [(fem.propagate_prior_series, counted(fem.propagate_prior_series, calls.append)),
           (fem.solve, counted(fem.solve, lambda args: columns.append(args[1].shape[1])))]
for name, module in list(sys.modules.items()):
    if name.startswith("bridgetwin"):
        for attr, value in list(vars(module).items()):
            for raw, wrapped in patched:
                if value is raw:
                    setattr(module, attr, wrapped)
code = cli.main(sys.argv[1:])
print(json.dumps([code, "numpy.random" in sys.modules, len(calls), columns, "numpy.polynomial" in sys.modules]))
"""


def _counted(argv) -> list:
    """A command run in a fresh interpreter: its exit code, whether it loaded
    numpy.random, its calls to propagate_prior_series, the column count of
    each right-hand side it solved and whether it loaded numpy.polynomial."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _COUNTED, *argv],
                            capture_output=True, text=True, env=env, check=True, timeout=300)
    return json.loads(result.stdout.splitlines()[-1])


def test_infer_reads_the_prior_through_the_gauges_and_imports_no_numpy_random(tmp_path):
    """infer solves the prior once per gauge, never the dof ensemble of
    every instant, and draws from the standard library's generator, so
    numpy.random is never imported; nor is numpy.polynomial, since the
    deck-load quadrature rule is written out."""
    obs = _synth(tmp_path)
    code, numpy_random, prior_series_calls, _, numpy_polynomial = _counted(
        ["infer", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0", "--iters", "20", "--out", str(tmp_path / "fit")])
    assert [code, numpy_random, prior_series_calls, numpy_polynomial] == [0, False, 0, False]
    assert (tmp_path / "fit" / "chain.csv").exists()


def test_synth_imports_no_numpy_random(tmp_path):
    """synth draws its keyed streams from the standard library's generator."""
    code, numpy_random, _, _, _ = _counted(["synth", *_CTX_ARGS, "--rho", "0.9", "--sigma-d", "4.0", "--ell-d", "0.5",
                                         "--sigma-e", "1.0", "--out", str(tmp_path / "obs.csv")])
    assert [code, numpy_random] == [0, False]
    assert (tmp_path / "obs.csv").exists()


@pytest.mark.parametrize("command,columns", [("synth", 40), ("simulate", 40), ("posterior", 40), ("predict", 60)])
def test_command_reads_the_prior_through_its_gauges(tmp_path, command, columns):
    """No command solves the dof prior ensemble: each reads the prior from
    one adjoint solve with a right-hand side per gauge it reads, the 40
    bundled gauges and, for predict, the 20 held-out ones after them. None
    imports numpy.polynomial."""
    synth = ["--rho", "0.9", "--sigma-d", "4.0", "--ell-d", "0.5", "--sigma-e", "1.0"]
    query = ["--obs", str(_synth(tmp_path)), "--sigma-e", "1.0", "--w-star", "0.9,4.0,0.5", "--time", "2.0"]
    extra = {"synth": synth, "simulate": [], "posterior": query, "predict": [*query, "--locations", SENSORS_WEST]}
    out = tmp_path / ("run" if command == "simulate" else "out.csv")
    code, _, prior_series_calls, solved, numpy_polynomial = _counted(
        [command, *_CTX_ARGS, *extra[command], "--out", str(out)])
    assert [code, prior_series_calls, solved, numpy_polynomial] == [0, 0, [columns], False]
    assert out.exists()


def _band_table(path) -> tuple[float, np.ndarray]:
    """The instant of a band table and its band cells as strains, one row per gauge."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    t_k = float(lines[0].split()[2].removeprefix("t="))
    n_bands = sum(name.endswith("_mean") or name == "mean" for name in lines[1].split(","))
    return t_k, np.array([[parse_microstrain(c) for c in line.split(",")[4:4 + 3 * n_bands]] for line in lines[2:]])


@pytest.mark.parametrize("time", [1.2, 2.0])
def test_query_bands_match_the_oracle_on_the_dof_prior(tmp_path, bundled_ctx, time):
    """Every band posterior and predict write, each read from the gauge
    prior, matches block conditioning of the dof prior of ``prior_series``
    by the oracles, to 1e-9 of its largest magnitude."""
    ctx, recording = bundled_ctx, _synth(tmp_path)
    query = [*_CTX_ARGS, "--obs", str(recording), "--sigma-e", "1.0", "--w-star", "0.9,4.0,0.5", "--time", str(time)]
    assert cli.main(["posterior", *query, "--out", str(tmp_path / "posterior.csv")]) == 0
    assert cli.main(["predict", *query, "--locations", SENSORS_WEST, "--out", str(tmp_path / "predict.csv")]) == 0
    t_k, posterior = _band_table(tmp_path / "posterior.csv")
    _, predicted = _band_table(tmp_path / "predict.csv")

    w = Hyperparameters(0.9, 4e-6, 0.5)
    obs = ctx.observations_from_csv(str(recording), sigma_e=1e-6)
    k = int(np.argmin(np.abs(obs.timestamps - t_k)))
    gamma_k, noise = float(obs.gamma[k]), obs.sigma_e**2
    prior = ctx.prior_series(ctx.match_instants(obs.timestamps[[k]])).instant(0)
    p = ctx.strain_op.matrix
    c_d = oracles.sq_exp_matrix_loops(ctx.layout.points, gamma_k * w.sigma_d, w.ell_d)
    mean, cov = oracles.conditioned_joint(obs.strains[:, k], w.rho, prior.mean, prior.cov, p, c_d,
                                          noise * np.eye(len(ctx.layout)))
    held_out = SensorLayout.resolve(ctx.model, read_layout_entries(SENSORS_WEST))
    expected = {
        "prior": (p @ prior.mean, p @ prior.cov @ p.T),
        "fe": (p @ mean, p @ cov @ p.T),
        "z": oracles.latent_strain_belief(w.rho, mean, cov, p, c_d),
        "predict": oracles.predictive_belief(
            w.rho, mean, cov, ctx.operator_for(held_out).matrix,
            oracles.sq_exp_matrix_loops(held_out.points, gamma_k * w.sigma_d, w.ell_d),
            noise * np.eye(len(held_out))),
    }
    written = {"prior": posterior[:, 0:3], "fe": posterior[:, 3:6], "z": posterior[:, 6:9], "predict": predicted}
    for name, (m, c) in expected.items():
        std = np.sqrt(np.clip(np.diagonal(c), 0.0, None))
        bands = np.column_stack([m, m - BAND_Z * std, m + BAND_Z * std])
        assert np.max(np.abs(written[name] - bands)) <= 1e-9 * np.max(np.abs(bands)), name


def test_cli_import_loads_no_scipy():
    """scipy costs a fifth of a second per command and a second OpenBLAS
    thread pool; the runtime is numpy-only. Nothing logs, so neither is
    logging imported."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", "import bridgetwin.cli, sys; print(*(m in sys.modules for m in ('scipy', 'logging')))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.split() == ["False", "False"]
