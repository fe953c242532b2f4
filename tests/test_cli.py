"""Tests for the command-line interface (repro.cli)."""

import re

import numpy as np
import pytest

from repro.cli import main


class TestInsituCommand:
    def test_bitmap_mode(self, capsys):
        rc = main(
            ["insitu", "--workload", "heat3d", "--shape", "8,8,8",
             "--steps", "6", "--select", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[bitmap]" in out and "selected=" in out
        assert "peak resident" in out

    def test_fulldata_mode(self, capsys):
        rc = main(
            ["insitu", "--shape", "8,8,8", "--steps", "4", "--select", "2",
             "--mode", "fulldata"]
        )
        assert rc == 0
        assert "[fulldata]" in capsys.readouterr().out

    def test_sampling_mode_with_output(self, capsys, tmp_path):
        rc = main(
            ["insitu", "--shape", "8,8,8", "--steps", "4", "--select", "2",
             "--mode", "sampling", "--sample-fraction", "0.2",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert "[sampling]" in capsys.readouterr().out
        assert any((tmp_path / "o").iterdir())

    def test_lulesh_workload(self, capsys):
        rc = main(
            ["insitu", "--workload", "lulesh", "--shape", "5,5,5",
             "--steps", "4", "--select", "2", "--bins", "32"]
        )
        assert rc == 0
        assert "selected=" in capsys.readouterr().out

    def test_bad_shape(self):
        with pytest.raises(SystemExit):
            main(["insitu", "--shape", "8,8"])

    def test_parallel_ordering_selects_like_serial(self, capsys):
        def selected(workers: int) -> str:
            rc = main(
                ["insitu", "--shape", "8,8,8", "--steps", "6", "--select", "2",
                 "--ordering", "lex", "--workers", str(workers)]
            )
            assert rc == 0
            out = capsys.readouterr().out
            return re.search(r"selected=(\[[^\]]*\])", out).group(1)

        assert selected(2) == selected(1)

    @pytest.mark.parametrize(
        "extra",
        [["--mode", "fulldata", "--ordering", "lex"],
         ["--mode", "fulldata", "--workers", "2"]],
        ids=["fulldata-ordering", "fulldata-workers"],
    )
    def test_illegal_combination_exits_with_the_rule(self, extra):
        with pytest.raises(SystemExit) as exc:
            main(["insitu", "--shape", "8,8,8", "--steps", "4", "--select", "2",
                  *extra])
        message = str(exc.value.code)
        assert "bitmap mode" in message
        assert "\n" not in message


class TestIndexAndQuery:
    def test_roundtrip(self, capsys, tmp_path, rng):
        data = rng.normal(10, 2, (16, 16)).astype(np.float64)
        npy = tmp_path / "field.npy"
        np.save(npy, data)
        rbmp = tmp_path / "field.rbmp"
        rc = main(["index", str(npy), str(rbmp), "--bins", "32"])
        assert rc == 0
        assert "32 bins" in capsys.readouterr().out
        assert rbmp.exists()

        rc = main(["query", str(rbmp), "--range", "9", "11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "256 elements" in out
        assert "values in [9.0, 11.0]" in out

    def test_zorder_and_digits(self, capsys, tmp_path, rng):
        data = rng.normal(5, 1, (8, 8, 8))
        npy = tmp_path / "grid.npy"
        np.save(npy, data)
        rbmp = tmp_path / "grid.rbmp"
        rc = main(["index", str(npy), str(rbmp), "--digits", "0", "--zorder"])
        assert rc == 0
        rc = main(["query", str(rbmp)])
        assert rc == 0
        assert "entropy" in capsys.readouterr().out


class TestSqlQueryAndServe:
    @pytest.fixture
    def store(self, tmp_path, rng):
        from repro.bitmap import BitmapIndex, EqualWidthBinning
        from repro.io.timeseries import BitmapStore

        t = rng.uniform(0.0, 10.0, 4096)
        s = np.where(rng.random(4096) < 0.5, t * 3, rng.uniform(0, 30, 4096))
        store = BitmapStore(tmp_path / "store")
        for step in range(2):
            store.write(step, "temperature",
                        BitmapIndex.build(t, EqualWidthBinning(0, 10, 16)))
            store.write(step, "salinity",
                        BitmapIndex.build(s, EqualWidthBinning(0, 30, 16)))
        return tmp_path / "store"

    def test_query_sql_over_loose_files(self, capsys, store):
        paths = sorted(str(p) for p in (store / "step_00000").glob("*.rbmp"))
        rc = main(["query", *paths, "--sql",
                   "SELECT MI FROM temperature, salinity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MI = " in out
        assert "cache=" in out and "loaded=" in out

    def test_query_sql_count_with_predicate(self, capsys, store):
        paths = sorted(str(p) for p in (store / "step_00000").glob("*.rbmp"))
        rc = main(["query", *paths, "--sql",
                   "SELECT COUNT FROM temperature, salinity "
                   "WHERE temperature >= 5"])
        assert rc == 0
        assert "COUNT = " in capsys.readouterr().out

    def test_query_sql_region_needs_layout(self, capsys, store):
        from repro.analysis.sql import QueryError

        paths = sorted(str(p) for p in (store / "step_00000").glob("*.rbmp"))
        sql = "SELECT COUNT FROM temperature, salinity WHERE REGION(0:8,0:8,0:8)"
        with pytest.raises(QueryError, match="ZOrderLayout"):
            main(["query", *paths, "--sql", sql])
        rc = main(["query", *paths, "--sql", sql,
                   "--zorder-shape", "16,16,16"])
        assert rc == 0

    def test_serve_warm_round_hits_cache(self, capsys, store):
        rc = main(["serve", str(store),
                   "--sql", "SELECT MI FROM temperature, salinity",
                   "--sql", "SELECT COUNT FROM temperature, salinity "
                            "WHERE salinity <= 15",
                   "--repeat", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[cold]" in out and "[warm#1]" in out
        assert "step=1" in out  # latest step resolved by default
        # The warm round must be served entirely from cache.
        warm = out[out.index("[warm#1]"):]
        assert "loaded=0B" in warm
        assert "served=4 rejected=0" in out

    def test_serve_explicit_step(self, capsys, store):
        rc = main(["serve", str(store), "--step", "0",
                   "--sql", "SELECT CE FROM temperature, salinity"])
        assert rc == 0
        assert "step=0" in capsys.readouterr().out

    def test_serve_batch_mode_requires_sql(self, capsys, store):
        rc = main(["serve", str(store)])
        assert rc == 2
        assert "--sql" in capsys.readouterr().err

    def test_serve_network_mode(self, store):
        """`repro serve --port` end to end: subprocess server, real
        client, clean SIGINT shutdown with a stats line."""
        import signal
        import subprocess
        import sys as _sys

        proc = subprocess.Popen(
            [_sys.executable, "-c",
             "from repro.cli import main; import sys; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", str(store), "--port", "0", "--shards", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = None
            for _ in range(50):
                line = proc.stdout.readline()
                if "listening on" in line:
                    port = int(line.split(":")[-1].split()[0])
                    break
            assert port, "server never reported its port"
            from repro.service import ServiceClient

            with ServiceClient("127.0.0.1", port) as client:
                response = client.query(
                    "SELECT MI FROM temperature, salinity"
                )
                assert response["value"] >= 0.0
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "served=1" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_serve_replicated_with_stats_command(self, capsys, store):
        """`repro serve --replicate` + `repro serve-stats` end to end."""
        import signal
        import subprocess
        import sys as _sys

        proc = subprocess.Popen(
            [_sys.executable, "-c",
             "from repro.cli import main; import sys; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", str(store), "--port", "0", "--shards", "2",
             "--replicate", "--hotset-budget", "4",
             "--rebalance-interval", "0.2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = None
            for _ in range(50):
                line = proc.stdout.readline()
                if "listening on" in line:
                    port = int(line.split(":")[-1].split()[0])
                    break
            assert port, "server never reported its port"
            from repro.service import ServiceClient

            with ServiceClient("127.0.0.1", port) as client:
                client.query("SELECT MI FROM temperature, salinity")
            rc = main(["serve-stats", "--port", str(port)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "replication: epoch=" in out
            assert "shard 0" in out and "shard 1" in out
            proc.send_signal(signal.SIGINT)
            _, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestMineCommand:
    def test_mine(self, capsys):
        rc = main(["mine", "--shape", "6,24,48", "--bins", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bitmap mining" in out

    def test_mine_with_baseline(self, capsys):
        rc = main(
            ["mine", "--shape", "6,24,48", "--bins", "8", "--baseline"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "full-data baseline" in out
        assert "hits equal: True" in out


class TestModelCommand:
    @pytest.mark.parametrize(
        "figure", ["fig7", "fig8", "fig9", "fig10", "fig12", "fig13", "fig15"]
    )
    def test_all_figures(self, capsys, figure):
        rc = main(["model", figure])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_fig7_contains_speedups(self, capsys):
        main(["model", "fig7"])
        out = capsys.readouterr().out
        assert "speedup=" in out and "cores= 32" in out.replace("  ", " ")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStoreCommand:
    def test_store_listing_and_pairwise(self, capsys, tmp_path):
        from repro.bitmap import BitmapIndex, common_binning
        from repro.io.timeseries import BitmapStore
        from repro.sims import Heat3D

        sim = Heat3D((8, 8, 8), seed=2)
        steps = [s.fields["temperature"] for s in sim.run(6)]
        binning = common_binning(steps, bins=16)
        store = BitmapStore(tmp_path / "run")
        for i in (0, 2, 5):
            store.write(i, "temperature", BitmapIndex.build(steps[i], binning))
        store.set_attr("workload", "heat3d")

        rc = main(["store", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 steps" in out and "workload = heat3d" in out

        rc = main(["store", str(tmp_path / "run"), "--pairwise", "temperature"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EMD=" in out and "H(next|prev)=" in out


class TestCalibrateCommand:
    def test_calibrate(self, capsys):
        rc = main(["calibrate", "--shape", "8,16,16", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulate" in out and "size_fraction" in out
        assert "s/elem" in out


class TestClusterCommand:
    def test_basic_run(self, capsys, tmp_path):
        rc = main(
            ["cluster", "--ranks", "2", "--shape", "6,5,5", "--steps", "4",
             "--select", "2", "--out", str(tmp_path / "store")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected steps" in out and "manifest:" in out

    def test_injected_death_recovers_under_respawn(self, capsys, tmp_path):
        rc = main(
            ["cluster", "--ranks", "3", "--shape", "6,5,5", "--steps", "4",
             "--select", "2", "--out", str(tmp_path / "store"),
             "--on-fault", "respawn", "--inject", "1:die:allreduce:0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovery: 1 event(s)" in out
        assert "rank 1 died" in out and "respawn" in out

    def test_injected_death_fails_under_default_policy(self, tmp_path):
        with pytest.raises(SystemExit, match="cluster failed"):
            main(
                ["cluster", "--ranks", "2", "--shape", "6,5,5", "--steps",
                 "4", "--select", "2", "--out", str(tmp_path / "store"),
                 "--inject", "1:die:allreduce:0"]
            )

    @pytest.mark.parametrize("spec", ["bogus", "1:die:allreduce:0:extra",
                                      "x:die"])
    def test_bad_inject_spec_rejected(self, spec):
        with pytest.raises(SystemExit):
            main(["cluster", "--ranks", "2", "--inject", spec])
