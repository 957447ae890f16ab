import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reflectsde as rs
from reflectsde import cli
from reflectsde.cli import _build_parser, main, parse_config

TABLE1_CFG = """
# benchmark two-sided model
drift.kind = power
drift.gamma = 0.5
sigma = 0.2
barrier.a = 0.0
barrier.b = 3.0
theta.lo = 0.01
theta.hi = 10.0
theta.true = 2.0
x0 = 1.0
n = 200
h = 0.01
seed = 42
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(TABLE1_CFG)
    return path


def write_cfg(tmp_path, text, name="custom.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_table1_round_trip(self, cfg_file):
        parsed = parse_config(cfg_file)
        assert parsed.model.drift.kind == "power"
        assert parsed.model.drift.gamma == 0.5
        assert parsed.model.sigma == 0.2
        assert parsed.model.barriers.is_two_sided
        assert parsed.model.theta_domain == (0.01, 10.0)
        assert parsed.theta_true == 2.0
        plan = parsed.require_plan()
        assert (plan.n, plan.h, plan.alpha) == (200, 0.01, 0.25)
        assert parsed.sim.substeps == 10 and parsed.sim.scheme == "lepingle"

    def test_omitted_b_is_one_sided(self, tmp_path):
        text = TABLE1_CFG.replace("barrier.b = 3.0\n", "").replace("x0 = 1.0", "x0 = 0.5")
        parsed = parse_config(write_cfg(tmp_path, text))
        assert not parsed.model.barriers.is_two_sided

    def test_sigma_zero_rejected(self, tmp_path):
        text = TABLE1_CFG.replace("sigma = 0.2", "sigma = 0.0")
        with pytest.raises(rs.ConfigError):
            parse_config(write_cfg(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(rs.ConfigError, match="mystery"):
            parse_config(write_cfg(tmp_path, TABLE1_CFG + "mystery = 1\n"))

    def test_malformed_number_named(self, tmp_path):
        text = TABLE1_CFG.replace("sigma = 0.2", "sigma = lots")
        with pytest.raises(rs.ConfigError, match="sigma"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_required_key_named(self, tmp_path):
        text = TABLE1_CFG.replace("x0 = 1.0\n", "")
        with pytest.raises(rs.ConfigError, match="x0"):
            parse_config(write_cfg(tmp_path, text))

    def test_flag_overrides_win(self, cfg_file):
        parsed = parse_config(cfg_file, {"n": 20, "seed": 7})
        assert parsed.require_plan().n == 20
        assert parsed.sim.seed == 7


class TestSimulateCommand:
    def test_writes_valid_csv(self, cfg_file, tmp_path):
        out = tmp_path / "path.csv"
        code = main(["simulate", "--config", str(cfg_file), "--n", "200",
                     "--h", "0.01", "--seed", "42", "--out", str(out)])
        assert code == 0
        loaded = rs.read_path_csv(out, rs.BarrierConfig.two_sided(0.0, 3.0))
        assert loaded.n == 200
        loaded.validate()

    def test_one_sided_header(self, tmp_path):
        text = TABLE1_CFG.replace("barrier.b = 3.0\n", "").replace("x0 = 1.0", "x0 = 0.5")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "path.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "t,x,l"


class TestEstimateCommand:
    def test_round_trip_recovers_theta(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "path.csv"
        main(["simulate", "--config", str(cfg_file), "--n", "2000",
              "--seed", "42", "--out", str(out)])
        code = main(["estimate", "--config", str(cfg_file), "--path", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"theta_hat", "stderr", "ci_lo", "ci_hi",
                               "method", "n", "h"}
        assert record["n"] == 2000 and record["h"] == 0.01
        assert abs(record["theta_hat"] - 2.0) < 1.0
        assert record["ci_lo"] < record["theta_hat"] < record["ci_hi"]

    def test_bit_identical_to_in_memory(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "path.csv"
        main(["simulate", "--config", str(cfg_file), "--seed", "42",
              "--out", str(out)])
        main(["estimate", "--config", str(cfg_file), "--path", str(out)])
        record = json.loads(capsys.readouterr().out)

        parsed = parse_config(cfg_file)
        plan = parsed.require_plan()
        path = rs.simulate_path(parsed.model, 2.0, plan, parsed.sim)
        direct = rs.estimate_nlse(path, parsed.model, plan)
        assert record["theta_hat"] == direct.theta_hat

    def test_missing_path_is_usage_error(self, cfg_file, tmp_path):
        assert main(["estimate", "--config", str(cfg_file),
                     "--path", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("content", (
        b"t,x,l,r\n0,1,0,0\n0.01,abc,0,0\n",
        b"t,x,l,r\n0,1,0,0\n0.01,1,0\n",
        b"\xff\xfe\x00binary\n",
    ), ids=("non_numeric", "ragged", "binary"))
    def test_malformed_path_is_data_error(self, content, cfg_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert main(["estimate", "--config", str(cfg_file), "--path", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_header_only_path_is_data_error(self, cfg_file, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("t,x,l,r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", str(cfg_file), "--path", str(bad)]) == 2
        assert "rows" in capsys.readouterr().err

    def test_directory_path_is_usage_error(self, cfg_file, tmp_path):
        assert main(["estimate", "--config", str(cfg_file),
                     "--path", str(tmp_path)]) == 1

    def test_one_sided_round_trip(self, tmp_path, capsys):
        text = TABLE1_CFG.replace("barrier.b = 3.0\n", "").replace("x0 = 1.0", "x0 = 0.5")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "path.csv"
        main(["simulate", "--config", str(cfg), "--n", "2000", "--out", str(out)])
        assert main(["estimate", "--config", str(cfg), "--path", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["theta_hat"] - 2.0) < 2.0


class TestMcCommand:
    def run_mc_cli(self, cfg_file, out_dir, extra=()):
        return main(["mc", "--config", str(cfg_file), "--reps", "20",
                     "--seed", "7", "--n", "30,60", "--out-dir", str(out_dir),
                     *extra])

    def test_outputs_and_determinism(self, cfg_file, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert self.run_mc_cli(cfg_file, d1) == 0
        assert self.run_mc_cli(cfg_file, d2) == 0
        assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()
        assert (d1 / "estimates.csv").read_bytes() == (d2 / "estimates.csv").read_bytes()
        lines = (d1 / "summary.csv").read_text().splitlines()
        assert lines[0] == "n,bias,std_dev,mse"
        assert len(lines) == 3
        est_lines = (d1 / "estimates.csv").read_text().splitlines()
        assert est_lines[0] == "n,rep,theta_hat"
        assert len(est_lines) == 1 + 2 * 20

    def test_summary_identity(self, cfg_file, tmp_path):
        out = tmp_path / "mc"
        self.run_mc_cli(cfg_file, out)
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            _, bias, std, mse = (float(v) for v in line.split(","))
            assert abs(mse - (bias**2 + std**2)) <= 1e-12 * max(1.0, mse)

    def test_zscores_written(self, cfg_file, tmp_path):
        out = tmp_path / "mc"
        assert self.run_mc_cli(cfg_file, out, extra=("--zscores",)) == 0
        lines = (out / "zscores.csv").read_text().splitlines()
        assert lines[0] == "rep,z"
        assert len(lines) == 21


class TestDensityAndInfo:
    def test_density_csv(self, cfg_file, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(cfg_file), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pi"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(data[:, 1] >= 0.0)
        assert data[0, 0] == 0.0 and data[-1, 0] == 3.0

    def test_density_theta_flag_changes_output(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert main(["density", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["density", "--config", str(cfg_file), "--theta", "0.5",
                     "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    def test_ginfo_csv(self, cfg_file, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["ginfo", "--config", str(cfg_file), "--points", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,g"
        assert len(lines) == 6
        for line in lines[1:]:
            theta, g = (float(v) for v in line.split(","))
            assert g > 0.0


# sha256 of each output file, recorded on the hand-written CSV loops as
# they stood before every output went through one writer; zscores.csv and
# ginfo were re-recorded when the information of the built-in drifts moved
# from the Simpson quadrature (7e-12 to 1.1e-10 from the exact value on
# this model) to its closed form (below 1e-15).
_GOLDEN_OUTPUT_DIGESTS = {
    "estimates.csv": "126894fc967ba1e3a727c56f949c0c93d5721f1d52e47a95d5dc4c69b648a5ba",
    "summary.csv": "92d8fa66bf10437c98fefae8e945ac838f2e9bc248376da808a0cd0906cec579",
    "zscores.csv": "5c945048b76377661bf0f0944e16a306305e3d82890ffed50806f11f850bd1e6",
    "density": "fa235f342677f8a295a252aad8ba362fa88ae5535af5e664002d749ee5e55afb",
    "ginfo": "30e51a0eb52401cbe46a45c57827ef3c1191d9a98f040acb5e28d454175d6d4f",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    def test_mc_outputs(self, cfg_file, tmp_path):
        assert main(["mc", "--config", str(cfg_file), "--reps", "20", "--seed", "7",
                     "--n", "30,60", "--out-dir", str(tmp_path), "--zscores"]) == 0
        for name in ("estimates.csv", "summary.csv", "zscores.csv"):
            assert _digest(tmp_path / name) == _GOLDEN_OUTPUT_DIGESTS[name], name

    @pytest.mark.parametrize("argv", (["density"], ["ginfo", "--points", "5"]),
                             ids=("density", "ginfo"))
    def test_density_and_ginfo_outputs(self, argv, cfg_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(cfg_file), "--out", str(out)]) == 0
        assert _digest(out) == _GOLDEN_OUTPUT_DIGESTS[argv[0]]


# what each subcommand does before it writes its output
_COMMAND_WORK = {"simulate": "simulate_path", "estimate": "read_path_csv",
                 "density": "invariant_density", "ginfo": "information",
                 "mc": "run_mc"}


def _must_not_run(name):
    def never(*args, **kwargs):
        raise AssertionError(f"{name} ran before the destination was checked")
    return never


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, cfg_file, capsys):
        assert main(["simulate", "--config", str(cfg_file), "--bogus", "1"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TABLE1_CFG + "mystery = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_model_invariant_exit_2(self, tmp_path):
        text = TABLE1_CFG.replace("x0 = 1.0", "x0 = 7.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_sigma_zero_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, TABLE1_CFG.replace("sigma = 0.2", "sigma = 0"))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_plan_keys_exit_2(self, tmp_path):
        text = TABLE1_CFG.replace("n = 200\n", "")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", (
        ["simulate", "--n", "20"],
        ["estimate", "--path", "{path}"],
        ["density"],
        ["ginfo", "--points", "1"],
        ["mc", "--reps", "2", "--n", "20"],
    ), ids=lambda argv: argv[0])
    def test_unwritable_output_is_usage_error(self, argv, cfg_file, tmp_path, capsys,
                                              monkeypatch):
        path = tmp_path / "path.csv"
        assert main(["simulate", "--config", str(cfg_file), "--n", "20",
                     "--out", str(path)]) == 0
        # the destination is checked before the command's work starts
        work = _COMMAND_WORK[argv[0]]
        monkeypatch.setattr(cli, work, _must_not_run(work))
        if argv[0] == "mc":
            dest = ["--out-dir", str(path)]  # an existing file, not a directory
        else:
            dest = ["--out", str(tmp_path / "missing" / "out")]
        argv = [arg.format(path=path) for arg in argv]
        assert main([*argv, "--config", str(cfg_file), *dest]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_read_only_out_dir_fails_before_the_work(self, cfg_file, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_mc", _must_not_run("run_mc"))
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(["mc", "--config", str(cfg_file), "--reps", "2", "--n", "20",
                     "--out-dir", str(tmp_path)]) == 1
        assert "cannot write into" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ("0", "1.5", "nan"))
    def test_bad_level_is_usage_error_before_reading(self, level, cfg_file, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,l,r\n0,1,0,0\n0.01,abc,0,0\n")  # a data error if read
        assert main(["estimate", "--config", str(cfg_file), "--path", str(bad),
                     "--level", level]) == 1
        assert "--level" in capsys.readouterr().err


class TestParserReuse:
    """The parser is built once per process; no call may leak into the next."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_level_does_not_carry_over(self, cfg_file, tmp_path, capsys):
        path = tmp_path / "path.csv"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(path)]) == 0
        argv = ["estimate", "--config", str(cfg_file), "--path", str(path)]
        records = []
        for extra in (["--level", "0.9"], [], ["--level", "0.95"]):
            assert main(argv + extra) == 0
            records.append(json.loads(capsys.readouterr().out))
        narrow, default, explicit = records
        assert default == explicit
        assert default["ci_hi"] - default["ci_lo"] > narrow["ci_hi"] - narrow["ci_lo"]

    def test_usage_error_between_good_calls(self, cfg_file, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        argv = ["simulate", "--config", str(cfg_file), "--n", "20", "--out"]
        assert main(argv + [str(outs[0])]) == 0
        assert main(["simulate", "--config", str(cfg_file), "--bogus", "1"]) == 1
        assert main(["estimate", "--config", str(cfg_file)]) == 1
        assert main(argv + [str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_module_entry_point(cfg_file, tmp_path):
    out = tmp_path / "path.csv"
    # the child imports the package this process imported
    src = str(Path(rs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "reflectsde", "simulate", "--config",
         str(cfg_file), "--n", "20", "--out", str(out)],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
