"""The experiment drivers in scripts/, run in-process at tiny sizes."""
import csv
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def data_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))[1:]


def test_mise_table(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    run_script("run_mise_table.py", monkeypatch, "--graphons", "1,10", "--methods", "jgs,jgs-smooth",
               "--M", "2", "--sizes", "fixed:6", "--trials", "2", "--res", "20", "--out", str(out))
    assert len(data_rows(out)) == 2 * 2 * 2  # graphons x trials x methods


def test_scaling_regimes(tmp_path, monkeypatch):
    prefix = tmp_path / "scaling"
    run_script("run_scaling_regimes.py", monkeypatch, "--fixed-M", "2", "--n-values", "5,6,7",
               "--fixed-n", "5", "--M-values", "2,3", "--trials", "2", "--res", "20",
               "--out-prefix", str(prefix))
    assert len(data_rows(f"{prefix}_growing_n.csv")) == 3 * 2  # n values x trials
    assert len(data_rows(f"{prefix}_growing_M.csv")) == 2 * 2  # M values x trials


def test_k_sensitivity(tmp_path, monkeypatch, capsys):
    out = tmp_path / "k.csv"
    run_script("run_k_sensitivity.py", monkeypatch, "--M", "3", "--sizes", "uniform:6:9",
               "--k-values", "1,2,3", "--trials", "2", "--res", "20", "--out", str(out))
    rows = data_rows(out)
    assert len(rows) == 3 * 2  # k values x trials
    assert sorted({int(r[4]) for r in rows}) == [1, 2, 3]
    assert "automatic rule selects k = [" in capsys.readouterr().out

