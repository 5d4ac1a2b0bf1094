"""The experiment drivers in scripts/, run in-process at tiny sizes."""
import csv
import runpy
import sys
from pathlib import Path

import pytest

from multigraphon.bench import METHODS, collection_seed

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *args):
    """The exit status of ``scripts/<name>`` run with ``args``."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def data_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))[1:]


def test_mise_table(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    assert run_script("run_mise_table.py", monkeypatch, "--graphons", "1,10", "--methods", "jgs,jgs-smooth",
                      "--M", "2", "--sizes", "fixed:6", "--trials", "2", "--res", "20", "--out", str(out)) == 0
    assert len(data_rows(out)) == 2 * 2 * 2  # graphons x trials x methods


def test_scaling_regimes(tmp_path, monkeypatch):
    prefix = tmp_path / "scaling"
    assert run_script("run_scaling_regimes.py", monkeypatch, "--fixed-M", "2", "--n-values", "5,6,7",
                      "--fixed-n", "5", "--M-values", "2,3", "--trials", "2", "--res", "20",
                      "--out-prefix", str(prefix)) == 0
    assert len(data_rows(f"{prefix}_growing_n.csv")) == 3 * 2  # n values x trials
    assert len(data_rows(f"{prefix}_growing_M.csv")) == 2 * 2  # M values x trials


def test_k_sensitivity(tmp_path, monkeypatch, capsys):
    out = tmp_path / "k.csv"
    assert run_script("run_k_sensitivity.py", monkeypatch, "--M", "3", "--sizes", "uniform:6:9",
                      "--k-values", "1,2,3", "--trials", "2", "--res", "20", "--out", str(out)) == 0
    rows = data_rows(out)
    assert len(rows) == 3 * 2  # k values x trials
    assert sorted({int(r[4]) for r in rows}) == [1, 2, 3]
    # the automatic choice is read from the rows of a --k auto run on the same collections
    auto_rows = data_rows(tmp_path / "k_auto.csv")
    assert [r[3] for r in auto_rows] == [r[3] for r in rows[:2]]
    chosen = sorted({int(r[4]) for r in auto_rows})
    assert f"automatic rule selects k = {chosen}" in capsys.readouterr().out


def test_failed_row_exits_1_with_its_reason(tmp_path, monkeypatch, capsys):
    # usvt-pool's grid of n=24 is finer than --res 20, so its row fails; it used to exit 0 silently
    out = tmp_path / "rows.csv"
    assert run_script("run_mise_table.py", monkeypatch, "--graphons", "1", "--methods", "jgs,usvt-pool",
                      "--M", "2", "--sizes", "fixed:24", "--trials", "1", "--res", "20", "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"failed: graphon 1 M 2 sizes fixed:24 seed {collection_seed(0, 1, 0)} "
                                       "method usvt-pool: ValueError: resolution must be at least as fine as both "
                                       "grids\n")
    assert [r[5] for r in data_rows(out)] == ["jgs", "usvt-pool"]


@pytest.mark.parametrize("name, args, message", [
    # --M 1_0 used to run M=10, and a bad --sizes ended in a traceback
    ("run_mise_table.py", ["--M", "1_0"], "argument --M: '1_0': expected an integer, got '1_0'"),
    ("run_mise_table.py", ["--sizes", "uniform:10"],
     "argument --sizes: 'uniform:10': bad size spec 'uniform:10'; expected fixed:N or uniform:LO:HI"),
    ("run_scaling_regimes.py", ["--fixed-M", "1_0"], "argument --M: '1_0': expected an integer, got '1_0'"),
    # regime 2's input was checked only after regime 1 had run and written its CSV
    ("run_scaling_regimes.py", ["--fixed-M", "2", "--n-values", "5,6", "--fixed-n", "5", "--M-values", "2,1_0",
                                "--trials", "1", "--res", "20"],
     "argument --M: '2,1_0': expected an integer, got '1_0'"),
    ("run_k_sensitivity.py", ["--k-values", "4,,8"], "argument --k: '4,,8': expected an integer, got ''"),
    # argparse-typed options and choices used to print benchmark's usage, naming options the script lacks
    ("run_mise_table.py", ["--trials", "1_0"], "argument --trials: expected an integer, got '1_0'"),
    ("run_mise_table.py", ["--methods", "jgs,sgwb"],
     f"argument --method: invalid choice: 'sgwb' (choose from {', '.join(map(repr, METHODS))})"),
    ("run_scaling_regimes.py", ["--trials", "1_0"], "argument --trials: expected an integer, got '1_0'"),
    ("run_k_sensitivity.py", ["--seed", "+3"], "argument --seed: expected an integer, got '+3'"),
], ids=["mise-table-M", "mise-table-sizes", "scaling-M", "scaling-regime-2-M", "k-values", "mise-table-trials",
        "mise-table-methods", "scaling-trials", "k-seed"])
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, name, args, message):
    monkeypatch.chdir(tmp_path)
    assert run_script(name, monkeypatch, *args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"multigraphon: error: {message}\n"
    assert list(tmp_path.iterdir()) == []
