"""End-to-end command-line behavior: exit codes 0/1/2 and artifacts."""

import re

import numpy as np
import pytest

from rdspectral.cli import main
from rdspectral.grid import make_grid
from rdspectral.models import MODELS
from rdspectral.runio import (RunConfig, RunWriter, iter_snapshots, load_config,
                              load_snapshot, read_header, read_index)


def test_list_models_prints_registry_order(capsys):
    assert main(["list-models"]) == 0
    assert capsys.readouterr().out.splitlines() == list(MODELS)
    assert len(MODELS) == 7


def test_describe_prints_registry_entry(capsys):
    assert main(["describe", "gray1d"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gray1d\n")
    assert "species: 2" in out
    assert "A = eps*a and B = eps^(1/3)*b" in out
    assert "default grid: n = 512, L = 50, 1D" in out
    assert "eps = 0.01" in out
    assert "ratio of diffusivities" in out


def test_describe_a_model_without_parameters(capsys):
    assert main(["describe", "fisher2d"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fisher2d"
    assert out[-1] == "  parameters: none"


def test_describe_unknown_model_fails(capsys):
    assert main(["describe", "wave9d"]) == 1
    err = capsys.readouterr().err
    assert "unknown model 'wave9d'" in err
    assert "valid models:" in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1                                # subcommand required
    assert main(["run", "--n", "twelve"]) == 1          # argparse type error
    assert main(["frobnicate"]) == 1                    # unknown subcommand
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


# ------------------------------------------------------------------------ run

def test_run_writes_artifacts_and_reports(tmp_path, capsys):
    out = tmp_path / "demo"
    rc = main(["run", "--model", "fisher1d", "--n", "64", "--L", "20",
               "--dt", "0.05", "--t-final", "0.5", "--snap-every", "0.25",
               "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out
    assert "fisher1d [rk4]" in line
    assert "3 snapshots" in line
    assert "10 steps" in line
    assert (out / "summary.txt").read_text().startswith("status = ok")
    t, fields = load_snapshot(out, 2)
    assert t == 0.5
    assert fields.shape == (1, 64)


def test_reused_run_directory_holds_only_the_new_run(tmp_path, capsys):
    # an older gray1d run with 11 snapshots, then a fisher1d run with 3 in
    # the same directory: no older snapshot, payload file of an older
    # rdspectral or space-time file survives, and a file the runs did not
    # write is left alone
    out = tmp_path / "reused"
    assert main(["run", "--model", "gray1d", "--n", "64", "--dt", "0.1",
                 "--t-final", "1", "--snap-every", "0.1", "--out", str(out)]) == 0
    assert len(read_index(out)) == 11
    assert (out / "spacetime_1.csv").exists()
    (out / "notes.txt").write_text("kept\n")
    (out / "snap_00007.bin").write_bytes(bytes(1024))
    assert main(["run", "--model", "fisher1d", "--n", "64", "--dt", "0.1",
                 "--t-final", "0.2", "--snap-every", "0.1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt", "header.txt", "notes.txt", "snapshots.bin", "snapshots.csv",
        "spacetime_0.csv", "summary.txt"]
    assert (out / "snapshots.bin").stat().st_size == 3 * 64 * 8
    assert (out / "notes.txt").read_text() == "kept\n"
    assert read_header(out)["model"] == "fisher1d"
    assert "model = fisher1d" in (out / "summary.txt").read_text()


def test_run_requires_a_model(capsys):
    assert main(["run", "--t-final", "1"]) == 1
    assert "model is required" in capsys.readouterr().err


def test_run_reports_all_config_problems(capsys):
    rc = main(["run", "--model", "gray1d", "--scheme", "adi", "--n", "7"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "n must be even" in err
    assert "t_final is required" in err
    assert "scheme adi cannot run model gray1d" in err


def test_run_adi_on_a_too_small_grid_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "adi"
    rc = main(["run", "--model", "fisher2d", "--scheme", "adi", "--n", "2", "--L", "5",
               "--dt", "0.1", "--t-final", "0.2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: scheme adi cannot run model fisher2d: the ADI scheme needs n >= 4, got 2\n")
    assert not out.exists()


@pytest.mark.parametrize("out, reason", [
    ("taken", "File exists"), ("taken/sub", "Not a directory")])
def test_run_to_an_out_that_cannot_be_written_exits_one(tmp_path, capsys, out, reason):
    (tmp_path / "taken").write_text("not a directory")
    path = tmp_path / out
    rc = main(["run", "--model", "fisher1d", "--t-final", "0.2", "--out", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
    assert (tmp_path / "taken").read_text() == "not a directory"


@pytest.mark.parametrize("flags, problem", [
    (["--t-final", "inf"], "t_final must be finite, got inf"),
    (["--t-final", "1", "--dt", "inf"], "dt must be finite, got inf"),
    (["--t-final", "nan"], "t_final must be nonnegative, got nan"),
    (["--t-final", "1", "--dt", "nan"], "dt must be positive, got nan"),
    (["--t-final", "1", "--L", "nan"], "L must be positive, got nan"),
])
def test_run_rejects_non_finite_inputs_and_writes_nothing(tmp_path, capsys, flags, problem):
    out = tmp_path / "run"
    rc = main(["run", "--model", "fisher1d", "--n", "64", "--out", str(out)] + flags)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, problem", [
    (["--dt", "inf", "--t-final", "1"], "dt must be finite, got inf"),
    (["--dt", "nan", "--dt", "0.1", "--t-final", "1"], "dt must be positive, got nan"),
    (["--dt", "0.1", "--t-final", "inf"], "t_final must be finite, got inf"),
    (["--dt", "0.1", "--t-final", "nan"], "t_final must be nonnegative, got nan"),
    (["--dt", "0.1", "--t-final", "1", "--gold-dt", "nan"], "--gold-dt must be positive, got nan"),
    (["--dt", "0.1", "--t-final", "1", "--param", "delta=nan"],
     "parameter(s) {'delta': nan} for model fisher1d must be finite"),
])
def test_compare_rejects_non_finite_inputs(tmp_path, capsys, flags, problem):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "fisher1d", "--n", "64", "--out", str(out)] + flags)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, problems", [
    (["--param", "eps=-1"], ["diffusivities must be nonnegative and finite, got (1.0, -1.0)"]),
    (["--param", "eps=nan"], ["parameter(s) {'eps': nan} for model gray1d must be finite"]),
    (["--param", "a=inf", "--dt", "-1"],
     ["dt must be positive, got -1.0", "parameter(s) {'a': inf} for model gray1d must be finite"]),
])
def test_run_refuses_a_bad_model_parameter_and_writes_nothing(tmp_path, capsys, flags,
                                                              problems):
    out = tmp_path / "run"
    rc = main(["run", "--model", "gray1d", "--n", "64", "--t-final", "1",
               "--out", str(out)] + flags)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {p}" for p in problems]
    assert not out.exists()


_REFUSED_STARTS = [
    ("a0=10000", "no real root of the rest-state cubic in [-10, 10] for a0=10000.0, a1=2.0"),
    ("a1=0", "the labyrinthine initial state needs a1 != 0, got a1=0.0"),
]


@pytest.mark.parametrize("param, problem", _REFUSED_STARTS)
def test_run_names_a_start_the_model_refuses_and_writes_nothing(tmp_path, capsys, param,
                                                                problem):
    out = tmp_path / "x"
    rc = main(["run", "--model", "labyrinthe2d", "--param", param, "--t-final", "1",
               "--n", "16", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("param, problem", _REFUSED_STARTS)
def test_compare_names_a_start_the_model_refuses_and_writes_no_csv(tmp_path, capsys, param,
                                                                   problem):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "labyrinthe2d", "--param", param, "--n", "16",
               "--scheme", "rk4", "--dt", "0.5", "--t-final", "1", "--gold-dt", "0.25",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {problem}\n")
    assert not out.exists()


def test_run_rejects_tol_with_a_fixed_step_scheme(tmp_path, capsys):
    out = tmp_path / "rk4"
    rc = main(["run", "--model", "fisher1d", "--scheme", "rk4", "--tol", "0.001",
               "--t-final", "0.2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: tol is read only by scheme ck45, not by rk4\n"
    assert not out.exists()


def test_run_rejects_an_out_config_txt_cannot_hold(tmp_path, capsys):
    out = tmp_path / "runs#3"
    rc = main(["run", "--model", "fisher1d", "--t-final", "1", "--out", str(out)])
    assert rc == 1
    assert "out cannot hold '#'" in capsys.readouterr().err
    assert not out.exists()


def test_every_run_flag_sets_its_config_key(tmp_path):
    # the flags and the config file name the same settings
    out = tmp_path / "all"
    rc = main(["run", "--model", "fisher1d", "--scheme", "ck45", "--n", "64", "--L", "20",
               "--dt", "0.1", "--tol", "0.001", "--t-final", "0.2", "--snap-every", "0.1",
               "--out", str(out), "--dealias", "--param", "delta=2"])
    assert rc == 0
    assert load_config(out / "config.txt") == RunConfig(
        model="fisher1d", scheme="ck45", n=64, half_length=20.0, dt=0.1, rel_tol=1e-3,
        t_final=0.2, snap_every=0.1, out=str(out), dealias=True, params={"delta": 2.0})


def test_run_rejects_adi_with_dealias(tmp_path, capsys):
    out = tmp_path / "adi"
    rc = main(["run", "--model", "fisher2d", "--scheme", "adi", "--n", "16", "--L", "20",
               "--dt", "0.1", "--t-final", "0.2", "--dealias", "--out", str(out)])
    assert rc == 1
    assert "scheme adi cannot dealias" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_scheme_lists_valid_names(capsys):
    rc = main(["run", "--model", "fisher1d", "--scheme", "euler", "--t-final", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown scheme 'euler'" in err
    assert "adi" in err and "ck45" in err


def test_run_bad_param_syntax(capsys):
    rc = main(["run", "--model", "fisher1d", "--t-final", "1",
               "--param", "r", "--param", "r=fast"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--param expects key=value" in err
    assert "not a number" in err


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("model = fisher1d\nn = 64\nL = 20.0\ndt = 0.1\n"
                        "t_final = 0.2\nparam.delta = 2.0\n")
    out = tmp_path / "run"
    rc = main(["run", "--config", str(cfg_path), "--dt", "0.05",
               "--param", "delta=3.0", "--out", str(out)])
    assert rc == 0
    stored = load_config(out / "config.txt")
    assert stored.dt == 0.05          # flag beat the file
    assert stored.params == {"delta": 3.0}
    assert stored.n == 64             # file value kept where no flag given
    summary = (out / "summary.txt").read_text()
    assert "steps = 4" in summary


def test_config_file_errors_are_reported(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = fisher1d\nwibble = 3\n")
    assert main(["run", "--config", str(bad), "--t-final", "1"]) == 1
    assert "unknown key 'wibble'" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_blowup_exits_two_with_partial_artifacts(tmp_path, capsys):
    out = tmp_path / "boom"
    rc = main(["run", "--model", "fisher1d", "--n", "64", "--dt", "50",
               "--t-final", "500", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "integration aborted" in err
    assert "partial artifacts" in err
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("status = blowup")
    assert "blew up" in summary


def test_run_default_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--model", "fisher1d", "--n", "64", "--dt", "0.1",
               "--t-final", "0.2"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "runs" / "fisher1d" / "summary.txt").exists()


def test_run_adaptive_scheme_reports_rejections(tmp_path, capsys):
    out = tmp_path / "ck"
    rc = main(["run", "--model", "fisher1d", "--n", "64", "--scheme", "ck45",
               "--tol", "1e-4", "--t-final", "2", "--out", str(out)])
    assert rc == 0
    assert "accepted" in capsys.readouterr().out
    assert "scheme = ck45" in (out / "summary.txt").read_text()


def test_run_step_failure_exits_two_with_stepfail_summary(tmp_path, capsys):
    out = tmp_path / "stepfail"
    rc = main(["run", "--model", "fisher1d", "--scheme", "ck45", "--tol", "1e-300",
               "--n", "64", "--L", "20", "--t-final", "1", "--out", str(out)])
    assert rc == 2
    assert "integration aborted: step rejected at dt_min=" in capsys.readouterr().err
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("status = stepfail\n")
    assert "detail = step rejected at dt_min=1e-10" in summary


# -------------------------------------------------------------------- compare

def test_compare_writes_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "fisher1d", "--n", "64",
               "--scheme", "rk4", "--scheme", "etdrk4",
               "--dt", "0.4", "--dt", "0.2", "--t-final", "2.0",
               "--gold-dt", "0.01", "--out", str(out)])
    assert rc == 0
    csv = out.read_text()
    lines = csv.splitlines()
    assert lines[0] == "scheme,dt,max_abs_error,fitted_slope"
    assert len(lines) == 5  # two schemes x two steps
    assert {line.split(",")[0] for line in lines[1:]} == {"rk4", "etdrk4"}
    captured = capsys.readouterr().out
    assert csv in captured
    assert f"written to {out}" in captured


@pytest.mark.parametrize("out, reason", [
    ("taken", "Is a directory"), ("file/cmp.csv", "File exists")])
def test_compare_to_an_out_that_cannot_be_written_exits_one(tmp_path, capsys, out, reason):
    (tmp_path / "taken").mkdir()
    (tmp_path / "file").write_text("not a directory")
    path = tmp_path / out
    rc = main(["compare", "--model", "fisher1d", "--n", "32", "--scheme", "rk4",
               "--dt", "0.2", "--t-final", "0.4", "--gold-dt", "0.1", "--out", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("scheme,dt,max_abs_error,fitted_slope\n")
    assert captured.err == f"error: cannot write {path}: {reason}\n"


def test_compare_words_dt_and_t_final_problems_as_run_does(tmp_path, capsys):
    flags = ["--model", "fisher1d", "--n", "64", "--dt", "nan", "--t-final", "nan"]
    assert main(["compare", *flags, "--out", str(tmp_path / "cmp.csv")]) == 1
    compare_err = capsys.readouterr().err
    assert main(["run", *flags, "--out", str(tmp_path / "run")]) == 1
    assert compare_err == capsys.readouterr().err == (
        "error: dt must be positive, got nan\nerror: t_final must be nonnegative, got nan\n")


def test_compare_validation(capsys):
    rc = main(["compare", "--model", "gray1d", "--scheme", "adi",
               "--dt", "0.1", "--t-final", "1"])
    assert rc == 1
    assert "scheme adi cannot run model gray1d" in capsys.readouterr().err
    rc = main(["compare", "--model", "fisher1d", "--t-final", "1"])
    assert rc == 1
    assert "at least one --dt" in capsys.readouterr().err
    rc = main(["compare", "--model", "fisher1d", "--dt", "0.1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: t_final is required\n"


def test_compare_lists_every_grid_and_gold_problem(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "gray1d", "--n", "7", "--L", "-5", "--gold-dt", "-1",
               "--dt", "0.1", "--t-final", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "n must be even and >= 2, got 7" in err
    assert "L must be positive, got -5.0" in err
    assert "--gold-dt must be positive, got -1" in err
    assert not out.exists()


def test_compare_adi_on_a_too_small_grid_exits_one(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "fisher2d", "--scheme", "adi", "--n", "2", "--L", "5",
               "--dt", "0.1", "--t-final", "0.2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: scheme adi cannot run model fisher2d: the ADI scheme needs n >= 4, got 2\n")
    assert not out.exists()


def test_compare_rejects_adi_with_dealias(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "fisher2d", "--n", "16", "--scheme", "adi",
               "--dt", "0.1", "--t-final", "0.2", "--dealias", "--out", str(out)])
    assert rc == 1
    assert "scheme adi cannot dealias" in capsys.readouterr().err
    assert not out.exists()


def test_compare_gold_abort_exits_two(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "fisher1d", "--n", "64", "--scheme", "rk4",
               "--dt", "1.0", "--t-final", "500", "--gold-scheme", "rk4",
               "--gold-dt", "50", "--out", str(out)])
    assert rc == 2
    assert "study cancelled" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- upsample

@pytest.fixture
def run_2d(tmp_path):
    out = tmp_path / "src2d"
    assert main(["run", "--model", "fisher2d", "--n", "16", "--L", "20",
                 "--dt", "0.1", "--t-final", "0.2", "--snap-every", "0.1",
                 "--out", str(out)]) == 0
    return out


def test_upsample_2d_snapshot(run_2d, capsys):
    assert main(["upsample", str(run_2d), "--n", "32"]) == 0
    assert "(16, 16) -> (32, 32)" in capsys.readouterr().out
    up_dir = run_2d / "up32x32"
    header = read_header(up_dir)
    assert header["n"] == (32, 32)
    assert header["L"] == (20.0, 20.0)
    t, fields = load_snapshot(up_dir, 0)
    t_src, src = load_snapshot(run_2d, 2)  # default index: last snapshot
    assert t == t_src == 0.2
    from rdspectral.postprocess import fourier_upsample_2d
    np.testing.assert_array_equal(fields[0], fourier_upsample_2d(src[0], 32, 32))


def test_upsample_explicit_index_and_anisotropic_target(run_2d, capsys):
    assert main(["upsample", str(run_2d), "--index", "0", "--n", "48,32"]) == 0
    capsys.readouterr()
    t, fields = load_snapshot(run_2d / "up48x32", 0)
    assert t == 0.0
    assert fields.shape == (1, 32, 48)  # stored (ny, nx)


def test_upsample_1d_matches_library_call(tmp_path, capsys):
    out = tmp_path / "src1d"
    assert main(["run", "--model", "fisher1d", "--n", "64", "--L", "20",
                 "--dt", "0.1", "--t-final", "0.3", "--out", str(out)]) == 0
    assert main(["upsample", str(out), "--n", "160"]) == 0
    capsys.readouterr()
    _, fields = load_snapshot(out / "up160", 0)
    _, src = load_snapshot(out, 1)
    from rdspectral.postprocess import fourier_upsample_1d
    np.testing.assert_array_equal(fields[0], fourier_upsample_1d(src[0], 160))


def test_upsample_rejects_bad_targets(run_2d, capsys):
    assert main(["upsample", str(run_2d), "--n", "8"]) == 1
    assert "shrink rejected" in capsys.readouterr().err
    assert main(["upsample", str(run_2d), "--n", "33"]) == 1
    assert "even" in capsys.readouterr().err
    assert main(["upsample", str(run_2d), "--n", "a,b"]) == 1
    assert "integer or comma pair" in capsys.readouterr().err
    assert main(["upsample", str(run_2d), "--n", "16,16,16"]) == 1
    assert "gave 3 sizes" in capsys.readouterr().err


def test_upsample_equal_size_is_allowed(run_2d, capsys):
    assert main(["upsample", str(run_2d), "--n", "16"]) == 0
    capsys.readouterr()
    _, fields = load_snapshot(run_2d / "up16x16", 0)
    _, src = load_snapshot(run_2d, 2)
    np.testing.assert_array_equal(fields, src)


def test_upsample_requires_a_run_directory(tmp_path, capsys):
    assert main(["upsample", str(tmp_path / "nowhere"), "--n", "32"]) == 1
    assert "not a run directory" in capsys.readouterr().err


def _upsample_error(run_dir, capsys) -> str:
    """The one ``error:`` line of an upsample that exits 1."""
    assert main(["upsample", str(run_dir), "--n", "32"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_upsample_of_a_run_directory_without_snapshots_exits_one(tmp_path, capsys):
    # a run killed after its writer was made, before the first snapshot
    RunWriter(tmp_path / "empty", make_grid(16, 5.0, 1), "fisher1d", 1)
    assert _upsample_error(tmp_path / "empty", capsys) == "error: run directory has no snapshots"


def test_upsample_of_a_deleted_snapshot_exits_one(run_2d, capsys):
    # snapshots.bin cut inside snapshot 2, the one upsample reads by default
    with open(run_2d / "snapshots.bin", "r+b") as payloads:
        payloads.truncate(read_index(run_2d)[2][2] + 100)
    err = _upsample_error(run_2d, capsys)
    assert "snapshots.bin ends inside snapshot 2" in err


def test_an_older_one_file_per_snapshot_directory_asks_for_a_rerun(run_2d, capsys):
    # the index an older rdspectral wrote, naming one snap_XXXXX.bin per snapshot
    index = run_2d / "snapshots.csv"
    rows = [line.split(",") for line in index.read_text().splitlines()[1:]]
    index.write_text("index,time,file,crc32\n" + "".join(
        f"{k},{t},snap_{int(k):05d}.bin,{crc}\n" for k, t, _, crc in rows))
    message = "one file per snapshot (older rdspectral); run it again"
    assert message in _upsample_error(run_2d, capsys)
    with pytest.raises(ValueError, match=re.escape(message)):
        list(iter_snapshots(run_2d))


def test_upsample_names_an_older_directory_as_it_is(run_2d, capsys):
    # a run directory that cannot be read is not called "not a run
    # directory": only a header.txt that cannot be opened is
    index = run_2d / "snapshots.csv"
    index.write_text("index,time,file,crc32\n0,0,snap_00000.bin,0\n")
    assert _upsample_error(run_2d, capsys) == (
        f"error: {run_2d} holds one file per snapshot (older rdspectral); run it again")


def test_upsample_of_a_header_without_species_exits_one(run_2d, capsys):
    header = run_2d / "header.txt"
    header.write_text("".join(line for line in header.read_text().splitlines(True)
                              if not line.startswith("species")))
    err = _upsample_error(run_2d, capsys)
    assert "header.txt" in err and "'species'" in err


def test_a_header_with_a_malformed_value_is_named(run_2d, capsys):
    header = run_2d / "header.txt"
    header.write_text(re.sub(r"(?m)^species = .*$", "species = one", header.read_text()))
    assert "header.txt" in _upsample_error(run_2d, capsys)
    with pytest.raises(ValueError, match=r"header\.txt: .*'one'"):
        list(iter_snapshots(run_2d))


def test_an_index_with_a_malformed_row_is_named(run_2d, capsys):
    index = run_2d / "snapshots.csv"
    index.write_text(index.read_text() + "garbage\n")
    message = r"snapshots\.csv line 5 is not an index row: 'garbage'"
    assert re.search(message, _upsample_error(run_2d, capsys))
    with pytest.raises(ValueError, match=message):
        list(iter_snapshots(run_2d))
