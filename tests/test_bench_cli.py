import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import multigraphon
from multigraphon import bench
from multigraphon.bench import (
    ExperimentConfig,
    SizeSpec,
    collection_seed,
    format_summary,
    run_benchmark,
    summarize,
    write_results_csv,
)
from multigraphon.cli import main
from multigraphon.collection import load_collection, sample_collection, save_collection
from multigraphon.graphons import Graphon, eval_grid
from multigraphon.jgs import estimate_jgs
from oracles import NO_EDGES, collection_of


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def strip_timing(rows):
    header = rows[0]
    idx = header.index("seconds")
    return [[c for i, c in enumerate(r) if i != idx] for r in rows]


def benchmark_refuses(tmp_path, capsys, monkeypatch, args, message):
    """``benchmark`` with ``args`` on a small base exits 2 with the one line
    ``message``, before any config runs and without writing its rows."""
    def refuse(cfg):
        raise AssertionError("benchmark work started")

    monkeypatch.setattr("multigraphon.bench.run_benchmark", refuse)
    out = tmp_path / "rows.csv"
    argv = ["benchmark", "--M", "2", "--trials", "1", "--method", "jgs", "--res", "40",
            "--out", str(out)] + args
    assert main(argv) == 2
    assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
    assert not out.exists()


def run_benchmark_cli(tmp_path, *args):
    """The rows ``benchmark`` writes for ``args`` (header first) and what it
    prints, after checking that it exits 0."""
    out = tmp_path / "rows.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["benchmark", *args, "--out", str(out)]) == 0
    return read_rows(out), stdout.getvalue()


class TestSizeSpec:
    def test_parse_fixed(self):
        spec = SizeSpec.parse("fixed:30")
        assert spec.draw(np.random.default_rng(0), 3) == [30, 30, 30]
        assert spec.label() == "fixed:30"

    def test_parse_uniform(self):
        spec = SizeSpec.parse("uniform:10:100")
        sizes = spec.draw(np.random.default_rng(0), 500)
        assert min(sizes) >= 10 and max(sizes) <= 100
        assert spec.label() == "uniform:10:100"

    def test_bad_specs(self):
        for text in ("fixed", "uniform:10", "geometric:3", "uniform:9:2", "fixed:0"):
            with pytest.raises(ValueError):
                SizeSpec.parse(text)

    @pytest.mark.parametrize("fields, message", [
        # the first two used to draw graphs of 2 nodes and sizes 2..4
        (dict(kind="fixed", n=2.5), "fixed size n must be an integer >= 1, got 2.5"),
        (dict(kind="uniform", lo=2.5, hi=4.5), "uniform size lo must be an integer >= 1, got 2.5"),
        (dict(kind="uniform", lo=2, hi=4.5), "uniform size hi must be an integer >= 2, got 4.5"),
        (dict(kind="fixed", n=True), "fixed size n must be an integer >= 1, got True"),
        (dict(kind="uniform", lo=9, hi=2), "uniform size hi must be an integer >= 9, got 2"),
    ])
    def test_non_integer_sizes_rejected(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SizeSpec(**fields)

    def test_numpy_integer_sizes_accepted(self):
        spec = SizeSpec("uniform", lo=np.int64(3), hi=np.int64(5))
        assert spec.label() == "uniform:3:5"
        assert spec.draw(np.random.default_rng(0), 4) == SizeSpec("uniform", lo=3, hi=5).draw(np.random.default_rng(0), 4)
        assert SizeSpec("fixed", n=np.int32(4)).draw(np.random.default_rng(0), 2) == [4, 4]

    @pytest.mark.parametrize("text", ["fixed:x", "uniform:1:y"])
    def test_bad_integer_names_the_spec(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"bad size spec {text!r}; expected fixed:N or uniform:LO:HI")):
            SizeSpec.parse(text)


class TestConfigValidation:
    def base(self, **kw):
        args = dict(graphon_ids=(1,), num_graphs=2, sizes=SizeSpec("fixed", n=5))
        args.update(kw)
        return args

    def test_ok(self):
        ExperimentConfig(**self.base())

    def test_bad_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**self.base(methods=("jgs", "sgwb")))

    def test_empty_methods(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**self.base(methods=()))

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**self.base(trials=0))

    def test_sweep_needs_values(self, tmp_path, capsys, monkeypatch):
        # a list option needs at least one entry
        benchmark_refuses(tmp_path, capsys, monkeypatch, ["--graphon", "1", "--sizes", "fixed:6", "--M", ""],
                          "argument --M: '': expected an integer, got ''")

    @pytest.mark.parametrize("fields, message", [
        (dict(graphon_ids=(1, 4, 1)), "graphon id 1 given more than once"),
        (dict(methods=("jgs", "sas-pool", "jgs")), "method 'jgs' given more than once"),
    ], ids=["graphon", "method"])
    def test_repeated_entries_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**self.base(**fields))

    def test_unknown_graphon_rejected_before_any_cell(self):
        with pytest.raises(ValueError, match="unknown analytic graphon id 99"):
            ExperimentConfig(**self.base(graphon_ids=(1, 99)))

    @pytest.mark.parametrize("field, value, message", [
        ("num_graphs", 0, "M must be an integer >= 1, got 0"),
        ("trials", 1.0, "trials must be an integer >= 1, got 1.0"),
        ("resolution", 0, "resolution must be an integer >= 1, got 0"),
        ("resolution", 40.5, "resolution must be an integer >= 1, got 40.5"),
        ("k", 0, "k must be an integer >= 1, got 0"),
        ("k", 2.5, "k must be an integer >= 1, got 2.5"),
        ("k", True, "k must be an integer >= 1, got True"),
        ("k", "5", "k must be an integer >= 1, got '5'"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
    ])
    def test_bad_value_rejected_before_any_cell(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**self.base(**{field: value}))

    @pytest.mark.parametrize("sweep, values", [("k", (0, 2)), ("n", (6, 0)), ("M", (2, -1))])
    def test_bad_sweep_value_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch, sweep, values):
        # a bad entry of a --k, --sizes or --M list stops the run before its first config
        option = {"k": "--k", "n": "--sizes", "M": "--M"}[sweep]
        text = ",".join(f"fixed:{v}" if sweep == "n" else str(v) for v in values)
        message = {
            "k": "k must be an integer >= 1, got 0",
            "n": "argument --sizes: 'fixed:6,fixed:0': fixed size n must be an integer >= 1, got 0",
            "M": "M must be an integer >= 1, got -1",
        }[sweep]
        benchmark_refuses(tmp_path, capsys, monkeypatch, ["--graphon", "1", "--sizes", "fixed:6", option, text],
                          message)

    @pytest.mark.parametrize("method", ["sas-pool", "usvt-pool"])
    def test_k_sweep_with_pooled_baseline_rejected(self, tmp_path, capsys, monkeypatch, method):
        # a pooled baseline takes no k: a k sweep used to score its collection
        # once per k value, writing identical rows counted as extra trials
        args = ["--graphon", "1", "--method", method]
        benchmark_refuses(tmp_path, capsys, monkeypatch, args + ["--sizes", "fixed:6", "--k", "2,8"],
                          f"a --k list does not apply to method '{method}', which takes no k")
        configs = []
        monkeypatch.setattr("multigraphon.bench.run_benchmark", lambda cfg: configs.append(cfg) or [])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["benchmark", "--M", "2", "--out", str(tmp_path / "rows.csv")]
                        + args + ["--sizes", "fixed:6,fixed:8", "--k", "5"]) == 0
        assert [(cfg.sizes.label(), cfg.k) for cfg in configs] == [("fixed:6", 5), ("fixed:8", 5)]

    def test_good_values_accepted(self):
        ExperimentConfig(**self.base(k=np.int64(3), seed=0, resolution=1))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.1])
    def test_bad_lambda_rejected_before_any_cell(self, lam):
        # whatever the methods: a jgs-only run would ignore it, but the option is still wrong
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            ExperimentConfig(**self.base(lam=lam))


class TestBenchmark:
    def small_cfg(self, **kw):
        args = dict(
            graphon_ids=(1, 4),
            num_graphs=3,
            sizes=SizeSpec("uniform", lo=6, hi=12),
            trials=2,
            seed=5,
            methods=("jgs", "jgs-smooth"),
            resolution=100,
        )
        args.update(kw)
        return ExperimentConfig(**args)

    def test_row_count_and_order(self):
        records = run_benchmark(self.small_cfg())
        assert len(records) == 2 * 2 * 2
        keys = [(r.graphon_id, r.method) for r in records]
        assert keys == [
            (1, "jgs"), (1, "jgs-smooth"), (1, "jgs"), (1, "jgs-smooth"),
            (4, "jgs"), (4, "jgs-smooth"), (4, "jgs"), (4, "jgs-smooth"),
        ]

    def test_methods_share_collections(self):
        records = run_benchmark(self.small_cfg())
        by_trial = {}
        for r in records:
            by_trial.setdefault((r.graphon_id, r.seed), set()).add(r.method)
        assert all(len(m) == 2 for m in by_trial.values())

    def test_jgs_rows_carry_mae(self):
        records = run_benchmark(self.small_cfg(methods=("jgs", "usvt-pool")))
        for r in records:
            if r.method == "jgs":
                assert r.mae is not None and 0 <= r.mae <= 1
            else:
                assert r.mae is None

    # small_cfg(graphon_ids=(1,)) as benchmark options; a later --M, --sizes or --trials overrides
    SMALL = ["--graphon", "1", "--M", "3", "--sizes", "uniform:6:12", "--trials", "2", "--seed", "5",
             "--res", "100"]
    BOTH = ["--method", "jgs", "--method", "jgs-smooth"]

    def test_n_sweep_rows(self, tmp_path):
        rows, _ = run_benchmark_cli(tmp_path, *self.SMALL, *self.BOTH, "--sizes", "fixed:5,fixed:9")
        assert len(rows) == 1 + 2 * 2 * 2
        assert [r[2] for r in rows[1:]] == ["fixed:5"] * 4 + ["fixed:9"] * 4

    def test_sizes_list_is_one_config_per_spec(self, tmp_path):
        # fixed and uniform specs mix; each spec's rows are those of its config run alone
        rows, _ = run_benchmark_cli(tmp_path, *self.SMALL, *self.BOTH, "--sizes", "fixed:7,uniform:6:12")
        records = [rec for sizes in (SizeSpec("fixed", n=7), SizeSpec("uniform", lo=6, hi=12))
                   for rec in run_benchmark(self.small_cfg(graphon_ids=(1,), sizes=sizes))]
        assert strip_timing(rows) == strip_timing([rows[0]] + [r.row() for r in records])
        assert len({r.seed for r in records}) == 2  # each trial draws the same seed for both specs

    def test_m_sweep_changes_graph_count(self, tmp_path):
        rows, _ = run_benchmark_cli(tmp_path, *self.SMALL, *self.BOTH, "--M", "2,4", "--trials", "1")
        assert [r[1] for r in rows[1:]] == ["2", "2", "4", "4"]

    def test_k_sweep_shares_collection(self, tmp_path):
        rows, _ = run_benchmark_cli(tmp_path, *self.SMALL, "--method", "jgs", "--trials", "1", "--k", "1,2,3")
        assert len(rows) == 1 + 3
        assert len({r[3] for r in rows[1:]}) == 1  # same data, different k
        assert [r[4] for r in rows[1:]] == ["1", "2", "3"]

    def test_k_sweep_summary_keeps_k_values_apart(self, tmp_path):
        rows, printed = run_benchmark_cli(tmp_path, *self.SMALL, "--method", "jgs", "--k", "2,8")
        records = [rec for k in (2, 8) for rec in run_benchmark(self.small_cfg(graphon_ids=(1,), methods=("jgs",), k=k))]
        assert strip_timing(rows) == strip_timing([rows[0]] + [r.row() for r in records])
        summary = summarize(records)
        assert [(row["k"], row["trials"]) for row in summary] == [(2, 2), (8, 2)]
        for row in summary:
            assert row["mise_mean_x1e3"] == np.mean([r.mise for r in records if r.k == row["k"]]) * 1e3
        assert summary[0]["mise_mean_x1e3"] != summary[1]["mise_mean_x1e3"]
        table = format_summary(summary).splitlines()
        assert table[0].split()[4] == "k" and [line.split()[4] for line in table[2:]] == ["2", "8"]
        # the printed table is this one, but for the timing column
        assert ([line.rsplit(maxsplit=1)[0] for line in printed.splitlines()[:-1]]
                == [line.rsplit(maxsplit=1)[0] for line in table])

    def test_summary_groups(self):
        records = run_benchmark(self.small_cfg())
        summary = summarize(records)
        assert len(summary) == 4  # 2 graphons x 2 methods
        for row in summary:
            assert row["trials"] == 2
            assert row["mise_mean_x1e3"] >= 0

    def test_failures_recorded_not_raised(self):
        # resolution below the pooled-estimate grid makes evaluation fail for
        # usvt-pool rows only; the run must still produce every row
        cfg = self.small_cfg(methods=("jgs", "usvt-pool"), resolution=20,
                             sizes=SizeSpec("fixed", n=24),
                             graphon_ids=(1,), trials=1)
        records = run_benchmark(cfg)
        assert len(records) == 2
        failed = [r for r in records if r.error]
        assert len(failed) == 1 and failed[0].method == "usvt-pool"
        assert failed[0].mise is None

    @pytest.mark.parametrize("methods", [("jgs", "jgs-smooth"), ("jgs-smooth", "jgs")],
                             ids=["jgs-first", "smooth-first"])
    def test_one_jgs_estimate_per_cell(self, monkeypatch, methods):
        # jgs-smooth used to build the cell's jgs estimate a second time
        alone = [run_benchmark(self.small_cfg(methods=(m,))) for m in methods]
        calls = []

        def counted(coll, k="auto"):
            calls.append(coll)
            return estimate_jgs(coll, k=k)

        monkeypatch.setattr(bench, "estimate_jgs", counted)
        records = run_benchmark(self.small_cfg(methods=methods))
        assert len(calls) == 2 * 2 and len(set(map(id, calls))) == 2 * 2  # one call per cell
        untimed = [replace(r, seconds=None) for r in records]
        assert untimed == [replace(r, seconds=None) for cell in zip(*alone) for r in cell]
        for cell in zip(records[::2], records[1::2]):
            seconds = {r.method: r.seconds for r in cell}
            assert seconds["jgs-smooth"] >= seconds["jgs"]  # the cell's jgs time plus TV time

    @pytest.mark.parametrize("methods", [("jgs", "jgs-smooth"), ("jgs-smooth", "jgs")],
                             ids=["jgs-first", "smooth-first"])
    def test_failed_jgs_estimate_fails_both_rows_alike(self, monkeypatch, methods):
        calls = []

        def broken(coll, k="auto"):
            calls.append(coll)
            raise RuntimeError("no histogram")

        monkeypatch.setattr(bench, "estimate_jgs", broken)
        records = run_benchmark(self.small_cfg(methods=methods, graphon_ids=(1,), trials=1))
        assert [(r.method, r.error) for r in records] == [(m, "RuntimeError: no histogram") for m in methods]
        assert len(calls) == 2  # a failed estimate is not kept: each method runs into the failure

    def test_subseed_is_stable(self):
        assert collection_seed(1, 2, 3) == collection_seed(1, 2, 3)
        assert collection_seed(1, 2, 3) != collection_seed(1, 2, 4)


class TestListGolden:
    """Each list form writes the rows, and prints the summary, of the
    ``--sweep``/``--values`` form it replaces.

    The digests were recorded at commit 29422cd, the last with ``--sweep``,
    by running ``multigraphon benchmark --graphon 1,10 --trials 2 --seed 3
    --res 50 --M 3 --sizes fixed:6`` plus the methods below and
    ``--sweep n --values 5,9`` (sizes), ``--sweep M --values 2,4`` (M) or
    ``--sweep k --values 1,2,3`` (k), and hashing its output as
    :meth:`digest` does: the rows CSV without its ``seconds`` column, then
    the printed summary without its ``sec`` column and the last line without
    the output path.
    """

    BASE = ["--graphon", "1,10", "--trials", "2", "--seed", "3", "--res", "50"]

    @staticmethod
    def digest(rows, printed):
        h = hashlib.sha256()
        for row in strip_timing(rows):
            h.update((",".join(row) + "\n").encode())
        lines = printed.splitlines()
        for line in lines[:-1]:
            h.update((line.rsplit(maxsplit=1)[0] + "\n").encode())
        h.update(lines[-1].split(" -> ")[0].encode())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("args, methods, digest", [
        (["--M", "3", "--sizes", "fixed:5,fixed:9"], ("jgs", "jgs-smooth", "sas-pool"), "2e13e3fdca5aaae8"),
        (["--M", "2,4", "--sizes", "fixed:6"], ("jgs", "jgs-smooth", "sas-pool"), "40b6b087c4bccbc6"),
        (["--M", "3", "--sizes", "fixed:6", "--k", "1,2,3"], ("jgs", "jgs-smooth"), "45f767e127fcbe3d"),
    ], ids=["sizes", "M", "k"])
    def test_list_form_matches_sweep_form(self, tmp_path, args, methods, digest):
        rows, printed = run_benchmark_cli(tmp_path, *self.BASE, *args,
                                          *(word for m in methods for word in ("--method", m)))
        assert len(rows) == 1 + 24  # graphons x values x trials x methods, on every axis
        assert self.digest(rows, printed) == digest


class TestCli:
    def test_simulate_shape_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", "--graphon", "1", "--M", "2", "--sizes", "fixed:3",
                     "--seed", "7", "--out", str(out1)]) == 0
        main(["simulate", "--graphon", "1", "--M", "2", "--sizes", "fixed:3",
              "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        coll, latent, sidecar = load_collection(out1)
        assert coll.sizes == (3, 3)
        assert [u.size for u in latent] == [3, 3]
        assert sidecar["graphon_id"] == 1

    def test_simulate_load_round_trip(self, tmp_path):
        out = tmp_path / "c.jsonl"
        main(["simulate", "--graphon", "2", "--M", "3", "--sizes", "uniform:4:9",
              "--seed", "3", "--out", str(out)])
        coll, _, sidecar = load_collection(out)
        resampled, _ = sample_collection(
            Graphon.analytic(2),
            coll.sizes,
            sidecar["seed"],
        )
        assert np.array_equal(coll.edge_offsets, resampled.edge_offsets)
        assert np.array_equal(coll.edges, resampled.edges)

    def test_estimate_ignores_latent_values(self, tmp_path, capsys):
        # estimate keeps only the sidecar's seed; evaluate --mae still checks the values
        coll_path, good, bad = tmp_path / "c.jsonl", tmp_path / "good.csv", tmp_path / "bad.csv"
        assert main(["simulate", "--graphon", "1", "--M", "4", "--sizes", "fixed:5", "--seed", "3",
                     "--out", str(coll_path)]) == 0
        estimate = ["estimate", "--collection", str(coll_path), "--method", "jgs", "--out"]
        assert main(estimate + [str(good)]) == 0
        sidecar_path = tmp_path / "c.jsonl.sidecar.json"
        sidecar = json.loads(sidecar_path.read_text())
        for m, value in enumerate([1.5, -0.1, "0.5", True]):
            sidecar["latent"][m][m] = value
        sidecar_path.write_text(json.dumps(sidecar, separators=(",", ":")))
        assert main(estimate + [str(bad)]) == 0
        assert bad.read_bytes() == good.read_bytes()
        metas = [json.loads((tmp_path / f"{out.name}.meta.json").read_text()) for out in (good, bad)]
        for meta in metas:
            meta.pop("elapsed_seconds")
        assert metas[0] == metas[1]

        message = f"{coll_path}: sidecar latent of graph 0 must hold numbers in [0, 1], got 1.5"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_collection(coll_path)
        capsys.readouterr()
        rows = tmp_path / "rows.csv"
        assert main(["evaluate", "--estimate", str(good), "--graphon", "1", "--mae",
                     "--collection", str(coll_path), "--out", str(rows)]) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not rows.exists()

    def test_estimate_k2_singleton(self, tmp_path):
        coll_path = tmp_path / "k2.jsonl"
        save_collection(collection_of([(2, [[0, 1]])]), coll_path)
        est_path = tmp_path / "est.csv"
        assert main(["estimate", "--collection", str(coll_path), "--method", "jgs",
                     "--k", "1", "--out", str(est_path)]) == 0
        assert est_path.read_text().strip() == "0.5"
        meta = json.loads((tmp_path / "est.csv.meta.json").read_text())
        assert meta["method"] == "jgs" and meta["k"] == 1

    def test_smooth_lambda_zero_identity(self, tmp_path):
        coll_path = tmp_path / "c.jsonl"
        main(["simulate", "--graphon", "1", "--M", "2", "--sizes", "fixed:8",
              "--seed", "1", "--out", str(coll_path)])
        plain = tmp_path / "plain.csv"
        main(["estimate", "--collection", str(coll_path), "--method", "jgs",
              "--k", "3", "--out", str(plain)])
        smoothed = tmp_path / "smoothed.csv"
        main(["smooth", "--estimate", str(plain), "--lambda", "0", "--out", str(smoothed)])
        assert plain.read_text() == smoothed.read_text()
        meta = json.loads((tmp_path / "smoothed.csv.meta.json").read_text())
        assert meta["method"] == "jgs-smooth" and meta["params"]["lambda"] == 0.0

    def test_estimate_jgs_smooth_lambda_zero_matches_jgs(self, tmp_path):
        coll_path = tmp_path / "c.jsonl"
        main(["simulate", "--graphon", "3", "--M", "2", "--sizes", "fixed:10",
              "--seed", "2", "--out", str(coll_path)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["estimate", "--collection", str(coll_path), "--method", "jgs",
              "--k", "2", "--out", str(a)])
        main(["estimate", "--collection", str(coll_path), "--method", "jgs-smooth",
              "--lambda", "0", "--k", "2", "--out", str(b)])
        assert a.read_text() == b.read_text()
        # the meta names the method as benchmark and smooth do; it said "jgs", without a lambda
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert (meta["method"], meta["params"]["lambda"]) == ("jgs-smooth", 0.0)

    def test_smooth_equals_estimate_jgs_smooth(self, tmp_path):
        coll_path, plain, direct, smoothed = (tmp_path / name for name in ("c.jsonl", "p.csv", "d.csv", "s.csv"))
        assert main(["simulate", "--graphon", "3", "--M", "4", "--sizes", "fixed:30",
                     "--seed", "2", "--out", str(coll_path)]) == 0
        for method, out in (("jgs", plain), ("jgs-smooth", direct)):
            assert main(["estimate", "--collection", str(coll_path), "--method", method,
                         "--lambda", "0.1", "--out", str(out)]) == 0
        assert main(["smooth", "--estimate", str(plain), "--lambda", "0.1", "--out", str(smoothed)]) == 0
        assert smoothed.read_text() == direct.read_text()
        metas = [json.loads(Path(f"{path}.meta.json").read_text()) for path in (plain, direct, smoothed)]
        elapsed = [meta.pop("elapsed_seconds") for meta in metas]
        assert metas[2] == metas[1]
        # the TV time is counted; smooth used to copy the input's elapsed time
        assert elapsed[2] > elapsed[0]

    def test_smooth_refuses_a_smoothed_estimate(self, tmp_path, capsys):
        # it wrote "method": "jgs-smooth" with the second lambda, over values
        # smoothed twice, and left the TV time out of elapsed_seconds
        coll_path, est, out = tmp_path / "c.jsonl", tmp_path / "est.csv", tmp_path / "out.csv"
        assert main(["simulate", "--graphon", "1", "--M", "3", "--sizes", "fixed:20", "--out", str(coll_path)]) == 0
        assert main(["estimate", "--collection", str(coll_path), "--method", "jgs-smooth", "--out", str(est)]) == 0
        capsys.readouterr()
        assert main(["smooth", "--estimate", str(est), "--lambda", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"multigraphon: error: {est}: estimate of method 'jgs-smooth' is already smoothed\n")
        assert not out.exists()

    def test_usvt_pool_on_empty_graphs(self, tmp_path):
        coll_path = tmp_path / "e.jsonl"
        save_collection(collection_of([(3, NO_EDGES), (4, NO_EDGES)]), coll_path)
        est_path = tmp_path / "u.csv"
        main(["estimate", "--collection", str(coll_path), "--method", "usvt-pool",
              "--out", str(est_path)])
        values = np.loadtxt(est_path, delimiter=",")
        assert np.array_equal(values, np.zeros((4, 4)))

    def test_evaluate_constant_and_squared_cases(self, tmp_path):
        est = tmp_path / "est.csv"
        est.write_text("0.5\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("0.5\n")
        out = tmp_path / "rows.csv"
        main(["evaluate", "--estimate", str(est), "--truth", str(truth),
              "--res", "50", "--out", str(out)])
        est0 = tmp_path / "zero.csv"
        est0.write_text("0.0\n")
        truth_c = tmp_path / "truth_c.csv"
        truth_c.write_text("0.3\n")
        main(["evaluate", "--estimate", str(est0), "--truth", str(truth_c),
              "--res", "50", "--out", str(out)])
        rows = read_rows(out)
        assert rows[0] == list(
            ("graphon_id", "M", "size_spec", "seed", "k", "method", "mise", "mae", "empty_frac", "seconds")
        )
        assert float(rows[1][6]) == 0.0
        assert float(rows[2][6]) == pytest.approx(0.09, abs=1e-12)

    def test_evaluate_midpoint_grid_zero(self, tmp_path):
        grid = eval_grid(Graphon.analytic(1), 50)
        est = tmp_path / "grid.csv"
        np.savetxt(est, grid, delimiter=",")
        out = tmp_path / "rows.csv"
        main(["evaluate", "--estimate", str(est), "--graphon", "1", "--res", "50",
              "--out", str(out)])
        assert float(read_rows(out)[1][6]) <= 1e-12

    def test_evaluate_mae_needs_sidecar(self, tmp_path, capsys):
        coll_path = tmp_path / "nos.jsonl"
        save_collection(collection_of([(2, [[0, 1]])]), coll_path)
        est = tmp_path / "est.csv"
        est.write_text("0.5\n")
        (tmp_path / "est.csv.meta.json").write_text('{"method":"jgs"}')  # --mae scores jgs estimates only
        out = tmp_path / "rows.csv"
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1",
                     "--collection", str(coll_path), "--mae", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"multigraphon: error: --mae requested but no latent sidecar found for {coll_path}\n")

    def test_benchmark_roundtrip_and_determinism(self, tmp_path):
        args = ["benchmark", "--graphon", "1", "--M", "3", "--sizes", "uniform:5:9",
                "--trials", "2", "--seed", "11", "--method", "jgs",
                "--res", "60", "--out"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert strip_timing(read_rows(out1)) == strip_timing(read_rows(out2))
        assert len(read_rows(out1)) == 1 + 2  # header + graphons*trials*methods

    def test_benchmark_k_sweep_cli(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["benchmark", "--graphon", "1", "--M", "2", "--sizes", "fixed:12",
              "--trials", "1", "--seed", "4", "--method", "jgs", "--res", "60",
              "--k", "1,2", "--out", str(out)])
        rows = read_rows(out)
        assert len(rows) == 1 + 2
        assert [r[4] for r in rows[1:]] == ["1", "2"]

    def test_import_loads_no_process_pool(self):
        # benchmark runs its cells in one process; the package loaded a worker pool's modules
        code = ("import sys, multigraphon, multigraphon.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        env = {**os.environ, "PYTHONPATH": str(Path(multigraphon.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"

    def test_unknown_method_rejected(self, tmp_path, capsys):
        assert main(["estimate", "--collection", "x.jsonl", "--method", "sgwb",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("multigraphon: error: argument --method: invalid choice: 'sgwb'")

    def test_write_results_csv_full_precision(self, tmp_path):
        cfg = ExperimentConfig(graphon_ids=(1,), num_graphs=2, sizes=SizeSpec("fixed", n=6),
                               trials=1, seed=0, methods=("jgs",), resolution=50)
        records = run_benchmark(cfg)
        path = tmp_path / "rows.csv"
        write_results_csv(records, path)
        rows = read_rows(path)
        assert float(rows[1][6]) == records[0].mise  # repr round-trips exactly


class TestCliExitStatus:
    @pytest.mark.parametrize("args, message", [
        (["--graphon", "1", "--sizes", "bogus"],
         "argument --sizes: 'bogus': bad size spec 'bogus'; expected fixed:N or uniform:LO:HI"),
        (["--graphon", "1,99", "--sizes", "fixed:6"], "unknown analytic graphon id 99"),
        (["--graphon", "1", "--sizes", "fixed:6", "--M", "x,y"],
         "argument --M: 'x,y': expected an integer, got 'x'"),
        (["--graphon", "1", "--sizes", "fixed:6", "--res", "0"],
         "resolution must be an integer >= 1, got 0"),
        (["--graphon", "1", "--sizes", "fixed:6", "--k", "0"], "k must be an integer >= 1, got 0"),
        (["--graphon", "1", "--sizes", "fixed:6", "--k", "0,2"],
         "k must be an integer >= 1, got 0"),
        (["--graphon", "1", "--sizes", "fixed:6,fixed:0"],
         "argument --sizes: 'fixed:6,fixed:0': fixed size n must be an integer >= 1, got 0"),
        (["--graphon", "1", "--sizes", "fixed:6", "--M", "2,0"],
         "M must be an integer >= 1, got 0"),
        (["--graphon", "1", "--sizes", "fixed:6", "--method", "sas-pool", "--k", "2,8"],
         "a --k list does not apply to method 'sas-pool', which takes no k"),
        (["--graphon", "1", "--sizes", "fixed:6", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
        (["--graphon", "1", "--sizes", "fixed:6", "--M", "0"], "M must be an integer >= 1, got 0"),
        (["--graphon", "1,1", "--sizes", "fixed:6"], "argument --graphon: '1,1': '1' given more than once"),
        (["--graphon", "1", "--sizes", "fixed:6", "--method", "jgs"],
         "method 'jgs' given more than once"),
        (["--graphon", "1", "--sizes", "fixed:10,fixed:10"],
         "argument --sizes: 'fixed:10,fixed:10': 'fixed:10' given more than once"),
        # every list option refuses empty entries, spaces and repeats; "1,,4" used to run 1 and 4
        (["--graphon", ",1,,", "--sizes", "fixed:6"], "argument --graphon: ',1,,': expected an integer, got ''"),
        (["--graphon", "1, 4", "--sizes", "fixed:6"], "argument --graphon: '1, 4': expected an integer, got ' 4'"),
        (["--graphon", "1", "--sizes", "fixed:6", "--M", "5 ,, 6"],
         "argument --M: '5 ,, 6': expected an integer, got '5 '"),
        (["--graphon", "1", "--sizes", "fixed:6", "--M", "2,02"], "argument --M: '2,02': '02' given more than once"),
        (["--graphon", "1", "--sizes", "fixed:6,"],
         "argument --sizes: 'fixed:6,': bad size spec ''; expected fixed:N or uniform:LO:HI"),
        (["--graphon", "1", "--sizes", "fixed:6, uniform:2:3"],
         "argument --sizes: 'fixed:6, uniform:2:3': bad size spec ' uniform:2:3'; expected fixed:N or uniform:LO:HI"),
        (["--graphon", "1", "--sizes", "fixed:6", "--k", "2,,3"], "argument --k: '2,,3': expected an integer, got ''"),
        (["--graphon", "1", "--sizes", "fixed:6", "--k", "3,3"], "argument --k: '3,3': '3' given more than once"),
        (["--graphon", "1", "--sizes", "fixed:6", "--k", "auto,3"],
         "argument --k: 'auto,3': expected an integer, got 'auto'"),
    ], ids=["sizes", "graphon", "values", "res", "k", "sweep-k", "sweep-n", "sweep-M",
            "sweep-k-pooled", "seed", "M", "repeated-graphon", "repeated-method",
            "repeated-sweep-value", "graphon-empty-entries", "graphon-space", "M-spaces-and-empty",
            "repeated-M", "sizes-empty-entry", "sizes-space", "k-empty-entry", "repeated-k",
            "k-auto-and-list"])
    def test_input_error_is_one_line_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     args, message):
        benchmark_refuses(tmp_path, capsys, monkeypatch, args, message)

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--graphon", "1", "--M", "-1", "--sizes", "uniform:5:9", "--out", "c.jsonl"],
         "M must be an integer >= 1, got -1"),
        (["simulate", "--graphon", "1", "--M", "-1", "--sizes", "fixed:5", "--out", "c.jsonl"],
         "M must be an integer >= 1, got -1"),
        (["simulate", "--graphon", "1", "--M", "0", "--sizes", "fixed:5", "--out", "c.jsonl"],
         "M must be an integer >= 1, got 0"),
        (["evaluate", "--estimate", "missing.csv", "--graphon", "1", "--res", "0", "--out", "rows.csv"],
         "resolution must be an integer >= 1, got 0"),
        (["evaluate", "--estimate", "missing.csv", "--truth", "missing.csv", "--res", "-2", "--mae",
          "--collection", "missing.jsonl", "--out", "rows.csv"], "resolution must be an integer >= 1, got -2"),
    ], ids=["simulate-M-negative", "simulate-M-negative-fixed", "simulate-M-0", "evaluate-res-0",
            "evaluate-res-negative"])
    def test_range_refused_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        # simulate used to report numpy's "negative dimensions are not allowed" or "collection
        # must contain at least one graph", evaluate that the missing estimate file was not found
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("multigraphon.bench.sample_collection", refuse)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    GOOD = {
        "simulate": ["--graphon", "1", "--M", "2", "--sizes", "fixed:5", "--out", "c.jsonl"],
        "estimate": ["--collection", "c.jsonl", "--method", "jgs", "--out", "est.csv"],
        "smooth": ["--estimate", "est.csv", "--out", "smooth.csv"],
        "evaluate": ["--estimate", "est.csv", "--graphon", "1", "--out", "rows.csv"],
        "benchmark": ["--graphon", "1", "--M", "2", "--sizes", "fixed:6", "--method", "jgs", "--out", "rows.csv"],
    }

    REFUSED = [
        ("simulate", "type", {"--M": "x"}, "argument --M: expected an integer, got 'x'"),
        ("simulate", "required", {"--out": None}, "the following arguments are required: --out"),
        ("estimate", "type", {"--k": "x"}, "argument --k: expected an integer, got 'x'"),
        ("estimate", "choice", {"--method": "sgwb"}, "argument --method: invalid choice: 'sgwb'"),
        ("estimate", "required", {"--collection": None}, "the following arguments are required: --collection"),
        ("smooth", "type", {"--lambda": "x"}, "argument --lambda: expected a number, got 'x'"),
        ("smooth", "required", {"--estimate": None}, "the following arguments are required: --estimate"),
        ("evaluate", "type", {"--res": "x"}, "argument --res: expected an integer, got 'x'"),
        ("evaluate", "conflict", {"--truth": "t.csv"}, "argument --truth: not allowed with argument --graphon"),
        ("evaluate", "required", {"--graphon": None}, "one of the arguments --graphon --truth is required"),
        ("benchmark", "type", {"--trials": "x"}, "argument --trials: expected an integer, got 'x'"),
        ("benchmark", "choice", {"--method": "sgwb"}, "argument --method: invalid choice: 'sgwb'"),
        ("benchmark", "required", {"--sizes": None}, "the following arguments are required: --sizes"),
    ] + [(command, "unknown", {"--bogus": "1"}, "unrecognized arguments: --bogus 1") for command in GOOD]

    @pytest.mark.parametrize("command, kind, change, message", REFUSED, ids=[f"{c}-{k}" for c, k, *_ in REFUSED])
    def test_refused_command_line_is_one_line(self, tmp_path, capsys, monkeypatch, command, kind, change, message):
        # argparse used to print a usage block and its own error line through SystemExit
        monkeypatch.chdir(tmp_path)
        options = dict(zip(self.GOOD[command][::2], self.GOOD[command][1::2]))
        options.update(change)
        argv = [command] + [word for name, value in options.items() if value is not None for word in (name, value)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"multigraphon: error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["sgwb"], "argument command: invalid choice: 'sgwb'"),
    ], ids=["no-command", "unknown-command"])
    def test_refused_command_is_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"multigraphon: error: {message}")

    @pytest.mark.parametrize("command", [[], ["simulate"], ["estimate"], ["smooth"], ["evaluate"], ["benchmark"]],
                             ids=["top", "simulate", "estimate", "smooth", "evaluate", "benchmark"])
    def test_help_still_exits_0_with_usage(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: {' '.join(['multigraphon'] + command)} ")
        assert captured.err == ""

    @pytest.mark.parametrize("method", ["jgs", "usvt-pool", "sas-pool"])
    @pytest.mark.parametrize("args, message", [
        (["--k", "0"], "k must be an integer >= 1, got 0"),
    ], ids=["k-0"])
    def test_estimate_input_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                  method, args, message):
        # these used to fail after the per-graph work, or with a message about
        # the estimate values or numpy's array dimensions
        coll_path = tmp_path / "c.jsonl"
        coll, _ = sample_collection(Graphon.analytic(1), [5, 6], seed=0)
        save_collection(coll, coll_path)

        def refuse(*args, **kwargs):
            raise AssertionError("estimator work started")

        for name in ("estimate_jgs", "estimate_sas_pool", "estimate_usvt_pool"):
            monkeypatch.setattr(f"multigraphon.bench.{name}", refuse)
        out = tmp_path / "est.csv"
        argv = ["estimate", "--collection", str(coll_path), "--method", method, "--out", str(out)]
        assert main(argv + args) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "benchmark"])
    def test_pool_res_option_is_gone(self, tmp_path, capsys, command):
        argv = {
            "estimate": ["estimate", "--collection", str(tmp_path / "c.jsonl"), "--method", "sas-pool"],
            "benchmark": ["benchmark", "--graphon", "1", "--M", "2", "--sizes", "fixed:6",
                          "--method", "sas-pool"],
        }[command] + ["--pool-res", "20", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "multigraphon: error: unrecognized arguments: --pool-res 20\n"

    @pytest.mark.parametrize("option, value", [("--sweep", "n"), ("--values", "6,8")])
    def test_sweep_options_are_gone(self, tmp_path, capsys, option, value):
        # --sweep replaced --sizes, --M or --k without a word; the lists now live in those options
        argv = ["benchmark", "--graphon", "1", "--M", "2", "--sizes", "fixed:6", "--method", "jgs",
                option, value, "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: unrecognized arguments: {option} {value}\n"

    @pytest.mark.parametrize("command", ["estimate", "benchmark"])
    @pytest.mark.parametrize("k", ["2.5", "abc", "1_0", " 3 ", "+3", "-3", "\u0663", ""])
    def test_bad_k_says_what_k_accepts(self, tmp_path, capsys, command, k):
        # the message used to name the parser's private function, _parse_k;
        # benchmark's --k is a list, so its line also names the list as written.
        # A negative k is read, so both commands give the range check's reason.
        argv = {
            "estimate": ["estimate", "--collection", str(tmp_path / "c.jsonl"), "--method", "jgs"],
            "benchmark": ["benchmark", "--graphon", "1", "--M", "2", "--sizes", "fixed:6",
                          "--method", "jgs"],
        }[command] + ["--k", k, "--out", str(tmp_path / "out.csv")]
        if k == "-3":
            message = "k must be an integer >= 1, got -3"
        else:
            message = f"argument --k: {f'{k!r}: ' if command == 'benchmark' else ''}expected an integer, got {k!r}"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, option, text, message", [
        ("simulate", "--M", "1_0", "argument --M: expected an integer, got '1_0'"),
        ("simulate", "--sizes", "fixed:1_0",
         "argument --sizes: bad size spec 'fixed:1_0'; expected fixed:N or uniform:LO:HI"),
        ("simulate", "--seed", "+3", "argument --seed: expected an integer, got '+3'"),
        ("simulate", "--graphon", " 1 ", "argument --graphon: expected an integer, got ' 1 '"),
        ("benchmark", "--graphon", "1_0", "argument --graphon: '1_0': expected an integer, got '1_0'"),
        ("benchmark", "--sizes", "uniform:+5:1_0",
         "argument --sizes: 'uniform:+5:1_0': bad size spec 'uniform:+5:1_0'; expected fixed:N or uniform:LO:HI"),
        ("benchmark", "--res", "2_0", "argument --res: expected an integer, got '2_0'"),
        ("benchmark", "--trials", "\u0662", "argument --trials: expected an integer, got '\u0662'"),
        ("benchmark", "--M", "6,1_0", "argument --M: '6,1_0': expected an integer, got '1_0'"),
        ("evaluate", "--res", "\u0663\u0660", "argument --res: expected an integer, got '\u0663\u0660'"),
    ], ids=["simulate-M", "simulate-sizes", "simulate-seed", "simulate-graphon", "benchmark-graphon",
            "benchmark-sizes", "benchmark-res", "benchmark-trials", "benchmark-values", "evaluate-res"])
    def test_integer_inputs_take_ascii_digits_only(self, tmp_path, capsys, command, option, text, message):
        # int() took each of these: --M 1_0 wrote 10 graphs, --res \u0663\u0660 scored at R=30
        est, out = tmp_path / "est.csv", tmp_path / "out"
        est.write_text("0.5\n")
        options = {
            "simulate": {"--graphon": "1", "--M": "2", "--sizes": "fixed:5"},
            "benchmark": {"--graphon": "1", "--M": "2", "--sizes": "fixed:6", "--trials": "1", "--res": "40",
                          "--method": "jgs"},
            "evaluate": {"--estimate": str(est), "--graphon": "1"},
        }[command]
        options.update({option: text, "--out": str(out)})
        argv = [command] + [word for pair in options.items() for word in pair]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "smooth", "benchmark"])
    @pytest.mark.parametrize("lam", ["1_0", " 0.05", "0.05 ", "+0.05", "\u0660.\u0660\u0665", "0x1", ""])
    def test_lambda_takes_ascii_numbers_only(self, tmp_path, capsys, command, lam):
        # float() took the first five: benchmark --lambda 1_0 smoothed with lambda = 10
        est, out = tmp_path / "est.csv", tmp_path / "out.csv"
        est.write_text("0.5\n")
        argv = {
            "estimate": ["estimate", "--collection", str(tmp_path / "c.jsonl"), "--method", "jgs-smooth"],
            "smooth": ["smooth", "--estimate", str(est)],
            "benchmark": ["benchmark", "--graphon", "1", "--M", "2", "--sizes", "fixed:6", "--trials", "1",
                          "--method", "jgs-smooth", "--res", "40"],
        }[command] + ["--lambda", lam, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: argument --lambda: expected a number, got {lam!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["0.05", "0", ".5", "5.", "1e-3", "2E+1", "-0.0"])
    def test_lambda_spellings_accepted(self, tmp_path, lam):
        est, out = tmp_path / "est.csv", tmp_path / "out.csv"
        est.write_text("0.5\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["smooth", "--estimate", str(est), "--lambda", lam, "--out", str(out)]) == 0
        assert json.loads(Path(f"{out}.meta.json").read_text())["params"]["lambda"] == float(lam)

    def test_unwritable_out_refused_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # the rows file used to be opened only after every cell had run
        def refuse(cfg):
            raise AssertionError("benchmark work started")

        monkeypatch.setattr("multigraphon.bench.run_benchmark", refuse)
        out = tmp_path / "missing" / "rows.csv"
        argv = ["benchmark", "--graphon", "1,10", "--M", "2", "--sizes", "fixed:6", "--trials", "1",
                "--method", "jgs", "--method", "jgs-smooth", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("case", ["empty-collection", "truncated-sidecar-estimate",
                                      "truncated-sidecar-mae", "ragged-estimate"])
    def test_input_file_error_names_the_file(self, tmp_path, capsys, case):
        # each used to print the bare message of the parser, without the file
        coll_path, est, rows = tmp_path / "c.jsonl", tmp_path / "est.csv", tmp_path / "rows.csv"
        coll, latent = sample_collection(Graphon.analytic(1), [3, 4], seed=0)
        save_collection(coll, coll_path, latent=latent, graphon_id=1, seed=0)
        sidecar = tmp_path / "c.jsonl.sidecar.json"
        est.write_text("0.5\n")
        (tmp_path / "est.csv.meta.json").write_text('{"method":"jgs"}')  # --mae scores jgs estimates only
        estimate = ["estimate", "--collection", str(coll_path), "--method", "jgs", "--out", str(tmp_path / "e.csv")]
        evaluate = ["evaluate", "--estimate", str(est), "--graphon", "1", "--out", str(rows)]
        if case == "empty-collection":
            coll_path.write_text("")
            argv, message = estimate, f"{coll_path}: collection must contain at least one graph"
        elif case.startswith("truncated-sidecar"):
            sidecar.write_text('{"latent":\n')
            argv = estimate if case.endswith("estimate") else evaluate + ["--mae", "--collection", str(coll_path)]
            message = f"{sidecar}: not valid JSON (Expecting value: line 2 column 1 (char 11))"
        else:
            est.write_text("0.5,0.5\n0.5\n")
            argv = evaluate
            message = (f"{est}: the number of columns changed from 2 to 1 at row 2; "
                       "use `usecols` to select a subset and avoid this error")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not rows.exists() and not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("case", ["ragged-truth", "asymmetric-truth", "asymmetric-estimate",
                                      "asymmetric-estimate-smooth"])
    def test_grid_file_error_names_the_file(self, tmp_path, capsys, case):
        # each used to print the bare message of the parser or of the grid check
        est, truth, out = tmp_path / "est.csv", tmp_path / "truth.csv", tmp_path / "out.csv"
        est.write_text("0.5\n")
        evaluate = ["evaluate", "--estimate", str(est), "--truth", str(truth), "--res", "20", "--out", str(out)]
        if case == "ragged-truth":
            truth.write_text("0.5,0.5\n0.5\n")
            argv, message = evaluate, (f"{truth}: the number of columns changed from 2 to 1 at row 2; "
                                       "use `usecols` to select a subset and avoid this error")
        elif case == "asymmetric-truth":
            truth.write_text("0.1,0.2\n0.3,0.4\n")
            argv, message = evaluate, f"{truth}: step grid must be symmetric"
        else:
            truth.write_text("0.5\n")
            est.write_text("0.1,0.2\n0.3,0.4\n")
            smooth = ["smooth", "--estimate", str(est), "--out", str(out)]
            argv = smooth if case.endswith("smooth") else evaluate
            message = f"{est}: estimate values must be symmetric"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not out.exists()

    def test_simulate_negative_seed_names_the_option(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        argv = ["simulate", "--graphon", "1", "--M", "2", "--sizes", "fixed:5", "--seed", "-1",
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "multigraphon: error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no-collection", "no-sidecar"])
    def test_evaluate_mae_input_error(self, tmp_path, capsys, case):
        coll_path = tmp_path / "c.jsonl"
        coll, _ = sample_collection(Graphon.analytic(1), [3, 4], seed=0)
        save_collection(coll, coll_path)
        est = tmp_path / "est.csv"
        est.write_text("0.5\n")
        (tmp_path / "est.csv.meta.json").write_text('{"method":"jgs"}')  # --mae scores jgs estimates only
        argv = ["evaluate", "--estimate", str(est), "--graphon", "1", "--mae",
                "--out", str(tmp_path / "rows.csv")]
        if case == "no-collection":
            message = "--mae requires --collection"
        else:
            argv += ["--collection", str(coll_path)]
            message = f"--mae requested but no latent sidecar found for {coll_path}"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("seed", ["oops", True, -2, 1.5])
    def test_bad_provenance_seed_rejected(self, tmp_path, capsys, seed):
        # a sidecar seed used to pass through estimate's meta into evaluate's rows
        coll_path = tmp_path / "c.jsonl"
        coll, latent = sample_collection(Graphon.analytic(1), [3, 4], seed=0)
        save_collection(coll, coll_path, latent=latent, graphon_id=1, seed=0)
        sidecar = tmp_path / "c.jsonl.sidecar.json"
        sidecar.write_text(sidecar.read_text().replace('"seed":0', f'"seed":{json.dumps(seed)}'))
        est = tmp_path / "est.csv"
        assert main(["estimate", "--collection", str(coll_path), "--method", "jgs", "--out", str(est)]) == 2
        assert capsys.readouterr().err == (
            f"multigraphon: error: {coll_path}: sidecar seed must be an integer >= 0, got {seed!r}\n"
        )
        assert not est.exists()

        est.write_text("0.5\n")
        (tmp_path / "est.csv.meta.json").write_text(json.dumps({"method": "jgs", "seed": seed}))
        rows = tmp_path / "rows.csv"
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1", "--out", str(rows)]) == 2
        assert capsys.readouterr().err == (
            f"multigraphon: error: {est}.meta.json: seed must be an integer >= 0, got {seed!r}\n"
        )
        assert not rows.exists()

    def test_failed_rows_give_exit_status_1(self, tmp_path, capsys):
        # the failure of TestBenchmark.test_failures_recorded_not_raised: the
        # evaluation resolution (20) lies below the pooled usvt-pool grid of
        # the graph size (24)
        out = tmp_path / "rows.csv"
        args = ["benchmark", "--graphon", "1", "--M", "3", "--sizes", "fixed:24", "--trials", "1",
                "--seed", "5", "--method", "jgs", "--method", "usvt-pool", "--res", "20",
                "--out", str(out)]
        assert main(args) == 1
        rows = read_rows(out)
        assert [r[5] for r in rows[1:]] == ["jgs", "usvt-pool"]
        assert rows[1][6] != "" and rows[2][6] == ""  # the failed row is kept, without a mise
        seed = collection_seed(5, 1, 0)
        assert f"failed: graphon 1 M 3 sizes fixed:24 seed {seed} method usvt-pool" in capsys.readouterr().err

    @pytest.mark.parametrize("args, cells", [
        (["--M", "2,3", "--sizes", "fixed:24", "--method", "usvt-pool"],
         ["M 2 sizes fixed:24 seed {seed} method usvt-pool", "M 3 sizes fixed:24 seed {seed} method usvt-pool"]),
        # a failed row has no k: the line names the block count of its config
        (["--M", "2", "--sizes", "fixed:6", "--method", "jgs", "--k", "25,30"],
         ["M 2 sizes fixed:6 seed {seed} k 25 method jgs", "M 2 sizes fixed:6 seed {seed} k 30 method jgs"]),
    ], ids=["M-list", "k-list"])
    def test_failed_cells_print_distinct_lines(self, tmp_path, capsys, args, cells):
        # the grids are finer than --res 20, so every row fails; each failure
        # used to print "failed: graphon 1 method <method>: ..." alone, twice
        out = tmp_path / "rows.csv"
        assert main(["benchmark", "--graphon", "1", "--trials", "1", "--res", "20", "--out", str(out)] + args) == 1
        reason = "ValueError: resolution must be at least as fine as both grids"
        seed = collection_seed(0, 1, 0)
        assert capsys.readouterr().err.splitlines() == [
            f"failed: graphon 1 {cell.format(seed=seed)}: {reason}" for cell in cells]

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["benchmark", "estimate", "estimate-jgs", "smooth"])
    def test_nonfinite_lambda_rejected(self, tmp_path, capsys, command, lam):
        # a non-finite TV weight used to skip smoothing (nan), or fail late
        # with a message about the estimate values (smooth)
        coll_path, plain = tmp_path / "c.jsonl", tmp_path / "plain.csv"
        assert main(["simulate", "--graphon", "1", "--M", "2", "--sizes", "fixed:8",
                     "--out", str(coll_path)]) == 0
        assert main(["estimate", "--collection", str(coll_path), "--method", "jgs",
                     "--k", "3", "--out", str(plain)]) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        argv = {
            "benchmark": ["benchmark", "--graphon", "1", "--M", "2", "--sizes", "fixed:8",
                          "--trials", "1", "--method", "jgs", "--method", "jgs-smooth", "--res", "40"],
            "estimate": ["estimate", "--collection", str(coll_path), "--method", "jgs-smooth"],
            "estimate-jgs": ["estimate", "--collection", str(coll_path), "--method", "jgs"],
            "smooth": ["smooth", "--estimate", str(plain)],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [f"--lambda={lam}", "--out", str(out)]) == 2
        want = float(lam)
        assert capsys.readouterr().err == f"multigraphon: error: lambda must be finite and >= 0, got {want!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["estimate", "evaluate", "simulate"])
    def test_input_error_in_any_subcommand(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": 0, "n": 2.5, "edges": []}\n')
        missing = tmp_path / "missing.csv"
        argv, message = {
            "estimate": (["estimate", "--collection", str(bad), "--method", "jgs",
                          "--out", str(tmp_path / "est.csv")],
                         f"{bad}: malformed collection record on line 1: n must be an integer, got 2.5"),
            "evaluate": (["evaluate", "--estimate", str(missing), "--graphon", "1",
                          "--out", str(tmp_path / "rows.csv")], f"{missing} not found."),
            "simulate": (["simulate", "--graphon", "1", "--M", "2", "--sizes", "bogus",
                          "--out", str(tmp_path / "c.jsonl")],
                         "argument --sizes: bad size spec 'bogus'; expected fixed:N or uniform:LO:HI"),
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"multigraphon: error: {message}\n"


class TestEstimateMeta:
    def evaluate(self, tmp_path, meta_text, csv_text="0.5\n"):
        est = tmp_path / "est.csv"
        est.write_text(csv_text)
        (tmp_path / "est.csv.meta.json").write_text(meta_text)
        rows = tmp_path / "rows.csv"
        status = main(["evaluate", "--estimate", str(est), "--graphon", "1", "--out", str(rows)])
        return status, est, rows

    # the first three used to crash with a traceback (a list meta, a list
    # params) or exit 0 writing True into the row's M column
    @pytest.mark.parametrize("meta, message", [
        ("[1]", "metadata must be a JSON object, got list"),
        ('{"params":[1]}', "params must be a JSON object, got [1]"),
        ('{"N":"x","M":true}', "N must be an integer >= 0, got 'x'"),
        ('{"M":true}', "M must be an integer >= 0, got True"),
        ('{"k":1.0}', "k must be an integer >= 0, got 1.0"),
        ('{"S":-1}', "S must be an integer >= 0, got -1"),
        ('{"empty_blocks":"0"}', "empty_blocks must be an integer >= 0, got '0'"),
        ('{"k":2}', "k is 2 but the estimate has 1 rows"),
        ('{"method":5}', "method must be a string, got 5"),
        ('{"elapsed_seconds":NaN}', "elapsed_seconds must be a finite number, got nan"),
        ('{"elapsed_seconds":"1"}', "elapsed_seconds must be a finite number, got '1'"),
        ('{"elapsed_seconds":true}', "elapsed_seconds must be a finite number, got True"),
        ("{", "not valid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        # these exited 0, writing x, True or -3 into the row's k column
        ('{"params":{"k":"x"}}', "params.k must be an integer >= 1, got 'x'"),
        ('{"params":{"k":true}}', "params.k must be an integer >= 1, got True"),
        ('{"params":{"k":-3}}', "params.k must be an integer >= 1, got -3"),
    ], ids=["list", "params-list", "N-string", "M-bool", "k-float", "S-negative", "empty-string",
            "k-rows", "method", "elapsed-nan", "elapsed-string", "elapsed-bool", "bad-json",
            "params-k-string", "params-k-bool", "params-k-negative"])
    def test_bad_meta_is_one_line_exit_2(self, tmp_path, capsys, meta, message):
        status, est, rows = self.evaluate(tmp_path, meta)
        assert status == 2
        assert capsys.readouterr().err == f"multigraphon: error: {est}.meta.json: {message}\n"
        assert not rows.exists()

    @pytest.mark.parametrize("meta", ["{}", '{"seed":null,"elapsed_seconds":3}',
                                      '{"k":1,"N":0,"M":0,"S":0,"empty_blocks":0,"params":{}}'])
    def test_partial_meta_accepted(self, tmp_path, meta):
        assert self.evaluate(tmp_path, meta)[0] == 0

    @pytest.mark.parametrize("method, meta", [
        ("sas-pool", '{"k":7,"N":41,"M":5,"S":595,"method":"sas-pool","params":{"h":3,"lambda":0.05,'
                     '"resolution":7,"skipped_singletons":2},"seed":null,"elapsed_seconds":0,"empty_blocks":0}\n'),
        ("usvt-pool", '{"k":20,"N":41,"M":5,"S":595,"method":"usvt-pool","params":{"tau":null,"use_nmax":false,'
                      '"resolution":20,"skipped_singletons":2},"seed":null,"elapsed_seconds":0,"empty_blocks":0}\n'),
    ])
    def test_pooled_meta_bytes_pinned(self, tmp_path, method, meta):
        # recorded before the pooled baselines lost their unused options; the
        # params keep their literals, so the metas stay byte for byte the same
        coll_path, est = tmp_path / "c.jsonl", tmp_path / "est.csv"
        coll, _ = sample_collection(Graphon.analytic(1), [1, 7, 12, 1, 20], seed=2)
        save_collection(coll, coll_path)
        assert main(["estimate", "--collection", str(coll_path), "--method", method, "--out", str(est)]) == 0
        text = (tmp_path / "est.csv.meta.json").read_text()
        assert re.sub(r'"elapsed_seconds":[^,]*', '"elapsed_seconds":0', text) == meta

    @pytest.mark.parametrize("method", ["jgs", "jgs-smooth", "sas-pool", "usvt-pool"])
    def test_every_saved_meta_loads(self, tmp_path, method):
        from multigraphon.estimates import load_estimate

        coll_path, est = tmp_path / "c.jsonl", tmp_path / "est.csv"
        assert main(["simulate", "--graphon", "1", "--M", "3", "--sizes", "uniform:1:9",
                     "--seed", "4", "--out", str(coll_path)]) == 0
        assert main(["estimate", "--collection", str(coll_path), "--method", method,
                     "--out", str(est)]) == 0
        meta = json.loads((tmp_path / "est.csv.meta.json").read_text())
        loaded = load_estimate(est)
        assert (loaded.k, loaded.n_total, loaded.n_graphs, loaded.dyad_count) == (
            meta["k"], meta["N"], meta["M"], meta["S"])
        assert (loaded.method, loaded.params, loaded.seed) == (method, meta["params"], meta["seed"])
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1",
                     "--out", str(tmp_path / "rows.csv")]) == 0


class TestEvaluateRows:
    def test_evaluate_row_equals_benchmark_row(self, tmp_path):
        # singleton graphs, so sas-pool and usvt-pool skip some; evaluate used
        # to write the pooled rows a k and the jgs ordering's MAE
        seed, methods = "6", ["jgs", "jgs-smooth", "sas-pool", "usvt-pool"]
        coll_path, evaluated, benched = tmp_path / "c.jsonl", tmp_path / "e.csv", tmp_path / "b.csv"
        assert main(["simulate", "--graphon", "10", "--M", "12", "--sizes", "uniform:1:14", "--seed", seed,
                     "--out", str(coll_path)]) == 0
        assert 1 in load_collection(coll_path)[0].sizes
        for method in methods:
            est = tmp_path / f"{method}.csv"
            assert main(["estimate", "--collection", str(coll_path), "--method", method, "--out", str(est)]) == 0
            mae = ["--mae", "--collection", str(coll_path)] if method.startswith("jgs") else []
            assert main(["evaluate", "--estimate", str(est), "--graphon", "10", "--res", "60",
                         "--out", str(evaluated)] + mae) == 0
        assert main(["benchmark", "--graphon", "10", "--M", "12", "--sizes", "uniform:1:14", "--trials", "1",
                     "--seed", seed, "--res", "60", "--out", str(benched)]
                    + [arg for method in methods for arg in ("--method", method)]) == 0

        def masked(rows):
            return [[c for i, c in enumerate(r) if rows[0][i] not in ("size_spec", "seconds")] for r in rows]

        assert masked(read_rows(evaluated)) == masked(read_rows(benched))
        pooled = read_rows(evaluated)[3:]
        assert [(r[4], r[5], r[7]) for r in pooled] == [("", "sas-pool", ""), ("", "usvt-pool", "")]

    def test_mae_of_a_pooled_estimate_refused(self, tmp_path, capsys):
        coll_path, est, rows = tmp_path / "c.jsonl", tmp_path / "est.csv", tmp_path / "rows.csv"
        assert main(["simulate", "--graphon", "1", "--M", "3", "--sizes", "fixed:6", "--out", str(coll_path)]) == 0
        assert main(["estimate", "--collection", str(coll_path), "--method", "sas-pool", "--out", str(est)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1", "--mae", "--collection", str(coll_path),
                     "--out", str(rows)]) == 2
        assert capsys.readouterr().err == (
            f"multigraphon: error: {est}: --mae scores the joint ordering of a jgs method (jgs, jgs-smooth), "
            "not of method 'sas-pool'\n")
        assert not rows.exists()

    @pytest.mark.parametrize("other, differ", [
        (["--M", "7", "--seed", "5"], "its meta records N=240, M=20, the collection has N=84, M=7"),
        (["--M", "20", "--seed", "6"], "its meta records seed={}, the collection has seed={}"),
    ], ids=["other-size", "other-seed"])
    def test_mae_of_another_collection_refused(self, tmp_path, capsys, other, differ):
        # the other-size case exited 0, writing M=20 next to the 7-graph file's MAE
        ours, theirs, est, rows = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "est.csv", "rows.csv"))
        simulate = ["simulate", "--graphon", "1", "--sizes", "fixed:12"]
        assert main(simulate + ["--M", "20", "--seed", "5", "--out", str(ours)]) == 0
        assert main(simulate + other + ["--out", str(theirs)]) == 0
        assert main(["estimate", "--collection", str(ours), "--method", "jgs", "--out", str(est)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1", "--mae", "--collection", str(theirs),
                     "--out", str(rows)]) == 2
        seeds = [load_collection(path, latent=False)[2]["seed"] for path in (ours, theirs)]
        assert capsys.readouterr().err == (
            f"multigraphon: error: {est} is not an estimate of {theirs}: {differ.format(*seeds)}\n")
        assert not rows.exists()

    def test_unknown_values_left_empty(self, tmp_path):
        # a collection saved without a sidecar gave seed 0, a --truth run graphon -1,
        # an estimate without a meta M 0
        coll_path, est, truth, rows = (tmp_path / name for name in ("c.jsonl", "est.csv", "t.csv", "rows.csv"))
        coll, _ = sample_collection(Graphon.analytic(1), [5, 6, 7], seed=0)
        save_collection(coll, coll_path)
        assert main(["estimate", "--collection", str(coll_path), "--method", "jgs", "--out", str(est)]) == 0
        truth.write_text("0.5\n")
        assert main(["evaluate", "--estimate", str(est), "--truth", str(truth), "--res", "20",
                     "--out", str(rows)]) == 0
        assert main(["evaluate", "--estimate", str(est), "--graphon", "3", "--res", "20",
                     "--out", str(rows)]) == 0
        (_, first, second) = read_rows(rows)
        assert first[:6] == ["", "3", "", "", first[4], "jgs"] and first[4] != ""
        assert second[:6] == ["3", "3", "", "", first[4], "jgs"]
        bare = tmp_path / "bare.csv"
        bare.write_text("0.5\n")
        assert main(["evaluate", "--estimate", str(bare), "--graphon", "1", "--res", "20",
                     "--out", str(rows)]) == 0
        assert read_rows(rows)[3][:6] == ["1", "", "", "", "", "unknown"]

    def test_evaluate_refuses_to_append_to_another_file(self, tmp_path, capsys):
        # evaluate appended a CSV row to the collection and exited 0; the
        # next read of the collection failed on that line
        coll_path, est, empty = tmp_path / "c.jsonl", tmp_path / "est.csv", tmp_path / "empty.csv"
        assert main(["simulate", "--graphon", "1", "--M", "3", "--sizes", "fixed:6", "--out", str(coll_path)]) == 0
        assert main(["estimate", "--collection", str(coll_path), "--method", "jgs", "--out", str(est)]) == 0
        before = coll_path.read_bytes()
        capsys.readouterr()
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1", "--out", str(coll_path)]) == 2
        assert capsys.readouterr().err == (
            f"multigraphon: error: {coll_path}: not a results CSV (its first line is not the header "
            "graphon_id,M,size_spec,seed,k,method,mise,mae,empty_frac,seconds)\n")
        assert coll_path.read_bytes() == before
        # an empty file takes the header before its first row
        empty.touch()
        assert main(["evaluate", "--estimate", str(est), "--graphon", "1", "--out", str(empty)]) == 0
        assert [row[0] for row in read_rows(empty)] == ["graphon_id", "1"]
