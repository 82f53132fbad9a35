"""Tests for the repro.experiments figure tables, sweeps and CLI."""

import re
from pathlib import Path

import pytest

from repro import experiments
from repro.service import JobSpec, SweepClient

#: Every simulated figure as one ``label -> (dist, options)`` table.
FIGURES = {
    "fig9": experiments.FIG9,
    "fig10": {k: v for panel in experiments.FIG10.values() for k, v in panel.items()},
    "fig11": experiments.FIG11,
    "fig12": {k: v for panel in experiments.FIG12.values() for k, v in panel.items()},
}


class TestFigureTables:
    @pytest.mark.parametrize("figure", FIGURES)
    def test_table_is_valid_specs_and_a_rerun_simulates_nothing(self, tmp_path, figure):
        specs = experiments.table(FIGURES[figure], (6, 8), b=64)
        flat = [s for row in specs.values() for s in row]
        assert list(specs) == list(FIGURES[figure])
        assert all(JobSpec.from_dict(s.to_dict()) == s for s in flat)
        assert len(set(flat)) == len(flat) == 2 * len(specs)
        with SweepClient(store=tmp_path) as client:
            first = experiments.run(client, specs)
            assert client.simulations_run() == len(flat)
            assert experiments.run(client, specs).keys() == first.keys()
            assert client.simulations_run() == len(flat)
        with SweepClient(store=tmp_path) as client:  # a later session
            again = experiments.run(client, specs)
            assert client.simulations_run() == 0
        assert [[r.makespan for r in row] for row in again.values()] == [
            [r.makespan for r in row] for row in first.values()]

    def test_fig12_after_fig10_simulates_nothing(self, tmp_path):
        """"Same data as Figure 10 but in absolute seconds"."""
        with SweepClient(store=tmp_path) as client:
            fig10 = experiments.run_panels(client, experiments.FIG10, (6, 8), b=64)
            sims = client.simulations_run()
            assert sims == 2 * 12
            fig12 = experiments.run_panels(client, experiments.FIG12, (6, 8), b=64)
            assert client.simulations_run() == sims
        for r, panel in fig12.items():
            sbc, bc = panel.values()
            assert len(panel) == 2 and sbc[0].num_nodes == bc[0].num_nodes
            for name, reps in panel.items():
                assert [x.makespan for x in reps] == [x.makespan for x in fig10[r][name]]

    @pytest.mark.parametrize("figure", FIGURES)
    def test_the_oracle_agrees_on_a_point_of_each_table(self, tmp_path, figure):
        # The last row: the synchronized baseline for Figure 9.
        spec = list(experiments.table(FIGURES[figure], (7,), b=64).values())[-1][0]
        assert spec.engine == "compiled"
        with SweepClient(store=tmp_path) as client:
            core, oracle = (res.raise_for_status().report for res in
                            client.sweep([spec, spec.with_(engine="object")]))
            assert client.simulations_run() == 2
        assert (core.makespan, core.comm_bytes, core.comm_messages) == (
            oracle.makespan, oracle.comm_bytes, oracle.comm_messages)

    def test_fig9_has_the_6x5_series_and_one_baseline_label(self):
        assert list(experiments.FIG9) == [
            "2D SBC r=8", "2DBC 7x4", "2DBC 6x5", "2.5D SBC c=3", "2.5D BC c=3",
            "COnfCHOX-like"]
        assert [d.num_nodes for d, _ in experiments.FIG9.values()] == [28, 28, 30, 24, 27, 32]
        # The bench asserts on the module's label, and the label the bench
        # used to print for the same series is gone from code and docs.
        root = Path(__file__).resolve().parents[1]
        bench = (root / "benchmarks/bench_fig9_perf_p28.py").read_text()
        assert set(re.findall(r"""["'](COnfCHOX[^"']*)["']""", bench)) == {"COnfCHOX-like"}
        for path in [*root.glob("benchmarks/*.py"), *root.glob("examples/*.py"),
                     *root.glob("docs/*.md"), root / "README.md", root / "EXPERIMENTS.md"]:
            if path.name != "ledger.md":
                assert "COnfCHOX 8x4" not in path.read_text(), path

    def test_table1_pairings_feed_every_figure(self):
        for r, grids in experiments.TABLE1.items():
            names = list(experiments.FIG10[r])
            assert names == [f"SBC-extended(r={r})"] + [f"2DBC({p}x{q})" for p, q in grids]
            assert set(experiments.FIG12[r]) <= set(names)


class TestSweepFunctions:
    def test_fig8_volumes_ordering(self):
        series = experiments.fig8_volumes(sizes=(25, 50), b=500)
        assert set(series) == {"SBC r=7", "2DBC 5x4", "2DBC 7x3"}
        for i in range(2):
            assert series["SBC r=7"][i] < series["2DBC 5x4"][i] < series["2DBC 7x3"][i]

    def test_theorem1_rows(self):
        rows = experiments.theorem1_table(ntiles=60)
        assert [name for name, *_ in rows] == [d.name for d in experiments.THEOREM1]
        assert sum("basic" in name for name, *_ in rows) == 2 and len(rows) == 9
        for _name, counted, formula, ratio in rows:
            assert counted <= formula
            assert 0.85 < ratio <= 1.0

    def test_fig9_performance_small(self):
        series = experiments.fig9_performance(sizes=(16,), b=500)
        assert list(series) == list(experiments.FIG9)
        assert series["2D SBC r=8"][0] > 0
        assert series["COnfCHOX-like"][0] < series["2DBC 7x4"][0]

    def test_strong_scaling_rows(self):
        rows = experiments.strong_scaling(ntiles=24)
        assert len(rows) == 8
        per_node = {name: gf for name, _P, gf in rows}
        # Smaller platforms get more per-node throughput on a fixed matrix.
        assert per_node["SBC-extended(r=6)"] > per_node["SBC-extended(r=9)"]

    def test_spine_breakdown(self):
        out = experiments.spine_breakdown(r=6, ntiles=20)
        assert len(out) == 2
        for bd in out.values():
            assert bd.makespan > 0
            assert bd.hops > 0


class TestCli:
    def test_list(self, capsys):
        assert experiments.main(["list"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == list(experiments.EXPERIMENTS)
        assert "fig8" in out and "theorem1" in out

    def test_fig12_is_fig10_in_seconds(self, capsys, tmp_path):
        for name in ("fig10", "fig12"):
            assert experiments.main([name, "--sizes", "6", "--b", "64",
                                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(GFlop/s per node)" in out and "(s)" in out
        assert out.count("--- r = 9 ---") == 2
        with SweepClient(store=tmp_path) as client:
            experiments.run_panels(client, experiments.FIG10, (6,), b=64)
            assert client.simulations_run() == 0

    def test_fig8(self, capsys):
        assert experiments.main(["fig8", "--sizes", "25", "50"]) == 0
        out = capsys.readouterr().out
        assert "SBC r=7" in out and "(GB)" in out

    def test_theorem1(self, capsys):
        assert experiments.main(["theorem1", "--ntiles", "48"]) == 0
        out = capsys.readouterr().out
        assert "SBC-extended(r=8)" in out

    def test_scaling(self, capsys):
        assert experiments.main(["scaling", "--ntiles", "16"]) == 0
        out = capsys.readouterr().out
        assert "GFlop/s/node" in out

    def test_breakdown(self, capsys):
        assert experiments.main(["breakdown", "--r", "6", "--ntiles", "16"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            experiments.main(["figZ"])
