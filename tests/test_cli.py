import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bridgetwin import cli
from bridgetwin.cli import fbg_mechanical_strain
from bridgetwin.dataio import parse_microstrain, read_observation_table
from bridgetwin.fem import FactorizationError

from conftest import BRIDGE_YAML, SENSORS_EAST, SENSORS_WEST, TRAIN_YAML

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

    def test_manifest_records_the_thread_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert cli.main(["model", "build", "--config", BRIDGE_YAML, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["environment"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                           "cpu_count": os.cpu_count()}

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 99\n")
        assert cli.main(["model", "build", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.strip()
        assert "\n" not in err.strip()

    def test_missing_file_exits_4(self, tmp_path):
        assert cli.main(["model", "build", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path)]) == 4

    def test_unknown_flag_exits_2(self):
        assert cli.main(["model", "build", "--config", BRIDGE_YAML, "--bogus"]) == 2


class TestSimulateCommand:
    def test_writes_bands_loads_manifest(self, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", *_CTX_ARGS, "--out", str(out)]) == 0
        header = (out / "prior_strains.csv").read_text().splitlines()[0]
        assert header == "t,sensor,mean,lo95,hi95"
        assert (out / "loads.csv").exists()
        assert (out / "manifest.json").exists()

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
        """At sigma_e = 0.001 ue the conditioned dof covariance is mostly
        rounding noise; its strain projection must still be a valid
        covariance, not a configuration error."""
        obs = _synth(tmp_path)
        out = tmp_path / "bands.csv"
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "0.001",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 40

    def test_malformed_w_star_exits_2(self, tmp_path):
        obs = _synth(tmp_path)
        rc = cli.main(["posterior", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "1.0",
                       "--w-star", "0.9,4.0", "--time", "2.0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2


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
    def test_zero_noise_exits_3_naming_sigma_e(self, tmp_path, capsys):
        obs = _synth(tmp_path)
        rc = cli.main(["predict", *_CTX_ARGS, "--obs", str(obs), "--sigma-e", "0",
                       "--w-star", "0.9,4.0,0.5", "--time", "2.0",
                       "--locations", SENSORS_WEST, "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "sigma_e" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """scipy costs a fifth of a second per command and a second OpenBLAS
    thread pool; the runtime is numpy-only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", "import bridgetwin.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"
