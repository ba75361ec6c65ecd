import dataclasses
import json

import numpy as np
import pytest

from tomo2q.cli import build_parser, main

VN_LINE = "615 553 613 605 550 576 596 609 575 622 577 601 574 569 591 569"


@pytest.fixture()
def vn_file(tmp_path):
    p = tmp_path / "vn.txt"
    p.write_text(VN_LINE + "\n")
    return str(p)


def test_estimate_prints_summary(vn_file, capsys):
    rc = main(["estimate", "--counts", vn_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selected rank: 4" in out
    assert "lambda-hat: 2294.0" in out
    assert "rho-hat (real part):" in out
    assert "rho-hat (imaginary part):" in out
    assert "163.4" in out


def test_estimate_mle16_only_one_row(vn_file, capsys):
    rc = main(["estimate", "--counts", vn_file, "--model", "mle16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("\n  4 ") == 1
    assert "  1 " not in out


def test_estimate_missing_file_fails(tmp_path, capsys):
    rc = main(["estimate", "--counts", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_malformed_counts(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n")
    rc = main(["estimate", "--counts", str(p)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_parse_error_names_its_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3 4\n5 6 seven 8\n")
    rc = main(["estimate", "--counts", str(p)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: line 2: non-integer count 'seven'\n")


def test_estimate_count_beyond_int64_is_an_error(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text("99999999999999999999999 " + " ".join(["1"] * 15) + "\n")
    rc = main(["estimate", "--counts", str(p)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds" in err


@pytest.mark.parametrize("model", ["maice", "mle16"])
def test_estimate_all_zero_counts_is_an_error(tmp_path, capsys, model):
    p = tmp_path / "zeros.txt"
    p.write_text(" ".join(["0"] * 16) + "\n")
    rc = main(["estimate", "--counts", str(p), "--model", model])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "all 16 counts are zero" in err


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["simulate", "--state", "mixed", "--times", "2",
               "--trials", "3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("lambda,mean_fidelity")
    assert len(lines) == 2


def test_simulate_all_zero_trial_names_its_lambda_and_trial(capsys):
    # at lambda 0.5 trial 1 draws 16 zero counts, which fit no state
    rc = main(["simulate", "--state", "mixed", "--rate", "1", "--times",
               "0.5", "--trials", "20", "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "lambda=0.5, trial 1:" in err[0]
    assert "all 16 counts are zero" in err[0]


def test_simulate_reports_excluded_trials(tmp_path, capsys, monkeypatch):
    # the first of 20 maice fits at lambda 1e2 is marked non-converged:
    # within the 5% allowance, so the sweep writes its row and the
    # command names the excluded count.  Fails if that message is not
    # printed.
    import tomo2q.simulate as sim
    real, calls = sim.maice, []

    def first_unconverged(*args, **kwargs):
        best, table = real(*args, **kwargs)
        calls.append(best)
        if len(calls) == 1:
            best = dataclasses.replace(best, converged=False)
        return best, table

    monkeypatch.setattr(sim, "maice", first_unconverged)
    out = tmp_path / "sweep.csv"
    rc = main(["simulate", "--state", "mixed", "--rate", "500", "--times",
               "0.2", "--trials", "20", "--seed", "1", "--out", str(out)])
    assert rc == 0 and calls
    assert capsys.readouterr().err.splitlines() == [
        "excluded 1 non-converged trials"]
    assert len(out.read_text().splitlines()) == 2


def test_simulate_without_out_writes_csv_to_stdout(capsys):
    rc = main(["simulate", "--state", "mixed", "--times", "2",
               "--trials", "3", "--seed", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("lambda,mean_fidelity")
    assert len(lines) == 2


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "true_state": "mixed", "acquisition_times": [2.0],
        "trials": 2, "seed": 1}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    # same run with an overriding seed differs
    assert main(["simulate", "--config", str(cfg), "--seed", "2",
                 "--out", str(out2)]) == 0
    assert out1.read_text() != out2.read_text()


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2, "banana": 1}))
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 1
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]",
                                  '{"trials": "two"}', '{"rate": "fast"}',
                                  '{"acquisition_times": 5}',
                                  '{"true_state": "bell", "epsilon": "x"}',
                                  '{"rate": true, "trials": true, '
                                  '"acquisition_times": [true], '
                                  '"seed": false}',
                                  '{"true_state": [1], "trials": 2, '
                                  '"acquisition_times": [2.0]}'],
                         ids=["invalid-json", "top-level-list",
                              "string-trials", "string-rate",
                              "scalar-times", "string-epsilon",
                              "boolean-numbers", "list-true-state"])
def test_simulate_malformed_config_is_an_error(tmp_path, capsys, text):
    # one error line; an error main does not catch would raise here
    # instead, where the command line prints its traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_simulate_epsilon_of_the_mixed_state_is_an_error(tmp_path, capsys):
    # the mixed state has no noise weight, so --eps would be ignored
    out = tmp_path / "out.csv"
    rc = main(["simulate", "--state", "mixed", "--rate", "500", "--times",
               "2", "--trials", "3", "--seed", "1", "--eps", "0.3",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: epsilon applies only to the product and bell presets"]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare-bases"])
def test_empty_acquisition_grid_is_an_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"acquisition_times": []}))
    out = tmp_path / "out.csv"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: acquisition times must be a non-empty list of "
                   "positive finite numbers"]
    assert not out.exists()


@pytest.mark.parametrize("flags, names", [
    (["--times", "1,x"], "--times entry 'x'"),
    (["--rate", "inf"], "rate"),
    (["--times", "inf"], "acquisition times"),
    (["--rate", "1e300", "--times", "0.2"], "lambda=2e+299"),
], ids=["non-number-time", "infinite-rate", "infinite-time",
        "lambda-beyond-poisson"])
def test_simulate_bad_rate_or_times_is_an_error(capsys, flags, names):
    rc = main(["simulate", "--trials", "1", *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert names in err


def test_bounds_preset(capsys):
    rc = main(["bounds", "--state", "mixed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C = 7.875000" in out
    assert "coordinate rank: 4" in out


def test_bounds_from_counts_file(vn_file, capsys):
    rc = main(["bounds", "--state", vn_file, "--rank", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C = " in out


def test_bounds_unknown_preset_fails(capsys):
    rc = main(["bounds", "--state", "nonsense-name"])
    assert rc == 1


def test_bounds_epsilon_of_a_counts_file_is_an_error(vn_file, capsys):
    # a counts file's fit is the state, so --eps would be ignored
    rc = main(["bounds", "--state", vn_file, "--eps", "0.3"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: epsilon applies only to the product and bell presets"]
    assert "Traceback" not in err


def test_compare_bases_directional(capsys, tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare-bases", "--state", "mixed", "--times", "2",
               "--trials", "2", "--seed", "0", "--out", str(out)])
    txt = capsys.readouterr().out
    assert rc == 0
    assert "C_local       = 7.875000" in txt
    assert "C_inseparable = 6.375000" in txt
    assert "smaller asymptotic error: inseparable" in txt
    lines = out.read_text().splitlines()
    assert lines[0].startswith("basis,lambda")
    assert len(lines) == 3


def test_tile_command(tmp_path, capsys):
    files = []
    rng = np.random.default_rng(0)
    for i in range(9):
        p = tmp_path / f"c{i}.txt"
        p.write_text(" ".join(str(v) for v in rng.integers(50, 200, 16)))
        files.append(str(p))
    rc = main(["tile", "--estimates"] + files)
    out = capsys.readouterr().out
    assert rc == 0
    rows = [r for r in out.strip().splitlines() if r.count(",") == 11]
    assert len(rows) == 12


def test_tile_wrong_count(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text(VN_LINE)
    rc = main(["tile", "--estimates", str(p)])
    assert rc == 1
    assert "9" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args([])
    assert e.value.code == 2
