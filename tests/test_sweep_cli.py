"""Gap sweep pipeline, verification suites, file summaries, and the CLI."""

import struct

import numpy as np
import pytest

from xorgap import gap_sweep, verify_suite
from xorgap.cli import main
from xorgap.game import mermin_game, save_game_csv
from xorgap.sweep import GAP_COLUMNS, SUITES, compute_gap_row, read_gap_csv, row_seed, show
from xorgap.tensor import Tensor3, load_tensor, save_tensor

_X = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]  # Pauli X as [re, im] pairs
_NAN_X = [[float("nan"), 0.0]] + _X[1:]


def fake_clock(monkeypatch):
    """Make each budget check in gap_sweep advance one second."""
    from types import SimpleNamespace

    from xorgap import sweep

    clock = iter(range(100))
    monkeypatch.setattr(sweep, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))


class TestGapSweep:
    def test_deterministic_rows(self):
        a, _ = gap_sweep([1], 3, seed=0)
        b, _ = gap_sweep([1], 3, seed=0)
        assert [r.as_csv_row() for r in a] == [r.as_csv_row() for r in b]

    def test_row_invariants_at_n1(self):
        rows, token = gap_sweep([1], 6, seed=0)
        assert token is None
        for r in rows:
            assert r.classical_method == "exact"  # 2Q = 8 within enumeration reach
            assert 0.0 < r.classical_bias <= 1.0
            assert r.pauli_bias <= 1.0 + 1e-12
            assert r.trilinear_upper is not None and r.trilinear_upper >= r.trilinear_lower
            assert r.prop31_lower is not None
            assert r.prop31_lower <= r.ratio_estimate + 1e-9

    def test_n2_rows_flag_heuristic_and_omit_net(self):
        r = compute_gap_row(2, row_seed(0, 2, 0))
        assert r.classical_method == "heuristic"
        assert r.trilinear_upper is None and r.prop31_lower is None
        assert r.pauli_bias <= 1.0 + 1e-12

    def test_sampled_row_never_reads_cost_tensor(self, monkeypatch):
        # an n = 3 row takes its classical partial sums from g; a general
        # tensor's game ascends on its stored signed table, read in place,
        # and never on the g oracle
        from xorgap import game
        from xorgap.tensor import Tensor3

        tables = []
        array_maps = game._array_maps

        def recording_array_maps(W):
            tables.append(W)
            return array_maps(W)

        monkeypatch.setattr(game, "_array_maps", recording_array_maps)
        row = compute_gap_row(3, row_seed(0, 3, 0))
        assert row.classical_method == "heuristic" and tables == []

        def forbidden(T):
            raise AssertionError("the g oracle ran on a general tensor")

        monkeypatch.setattr(game, "_pauli_partial_sums", forbidden)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(0, 0)))
        M = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        report = game.game_from_tensor(Tensor3(3, M))
        game.classical_bias_heuristic(report.game, restarts=4)
        assert len(tables) == 1 and tables[0] is report.game.cost

    def test_sampled_row_never_builds_matrix(self, monkeypatch):
        # every stage of a sampled row, the game build included, works from g
        from xorgap import tensor

        built = []
        masked_outer = tensor._masked_outer

        def counting_masked_outer(g, N):
            built.append(N)
            return masked_outer(g, N)

        monkeypatch.setattr(tensor, "_masked_outer", counting_masked_outer)
        for n in (1, 2, 3):
            compute_gap_row(n, row_seed(0, n, 0))
        assert built == []

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "gap.csv"
        rows, _ = gap_sweep([1], 3, seed=1, out=path)
        back = read_gap_csv(path)
        assert [r.as_csv_row() for r in back] == [r.as_csv_row() for r in rows]
        header = path.read_text().splitlines()[0]
        assert header == ",".join(GAP_COLUMNS)

    def test_csv_round_trip_with_absent_columns(self, tmp_path):
        import csv

        path = tmp_path / "gap2.csv"
        row = compute_gap_row(2, row_seed(1, 2, 0))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(GAP_COLUMNS)
            w.writerow(row.as_csv_row())
        back = read_gap_csv(path)[0]
        assert back.trilinear_upper is None and back.prop31_lower is None
        assert back.classical_method == "heuristic"
        assert back.as_csv_row() == row.as_csv_row()

    def test_budget_overrun_leaves_resume_token(self, tmp_path):
        # the CSV the budget stop leaves is the resume state
        path = tmp_path / "gap.csv"
        rows, token = gap_sweep([1], 5, seed=0, out=path, budget_s=0.0)
        assert token is not None
        assert [r.as_csv_row() for r in read_gap_csv(path)] == [r.as_csv_row() for r in rows]
        more, token2 = gap_sweep([1], 5, seed=0, out=path, resume=True)
        assert token2 is None
        full, _ = gap_sweep([1], 5, seed=0)
        combined = [r.as_csv_row() for r in rows] + [r.as_csv_row() for r in more]
        assert combined == [r.as_csv_row() for r in full]
        assert [p.name for p in tmp_path.iterdir()] == ["gap.csv"]

    def test_resumed_sweep_matches_uninterrupted_run(self, tmp_path, monkeypatch):
        whole = tmp_path / "whole.csv"
        gap_sweep([1], 4, seed=0, out=whole)
        path = tmp_path / "gap.csv"
        fake_clock(monkeypatch)
        rows, token = gap_sweep([1], 4, seed=0, out=path, budget_s=2.5)
        monkeypatch.undo()
        assert len(rows) == 2 and token == (1, 2)
        more, token2 = gap_sweep([1], 4, seed=0, out=path, resume=True)
        assert len(more) == 2 and token2 is None
        assert path.read_text() == whole.read_text()

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch):
        # each row reaches the file as it finishes, so an exception on the
        # fourth row leaves three, and a resume completes the file
        from xorgap import sweep

        whole = tmp_path / "whole.csv"
        gap_sweep([1, 2], 3, seed=0, out=whole)
        path = tmp_path / "gap.csv"
        calls = []

        def failing_row(n, sample_seed):
            calls.append(n)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return compute_gap_row(n, sample_seed)

        monkeypatch.setattr(sweep, "compute_gap_row", failing_row)
        with pytest.raises(KeyboardInterrupt):
            gap_sweep([1, 2], 3, seed=0, out=path)
        monkeypatch.undo()
        assert len(read_gap_csv(path)) == 3
        more, token = gap_sweep([1, 2], 3, seed=0, out=path, resume=True)
        assert len(more) == 3 and token is None
        assert path.read_bytes() == whole.read_bytes()

    def test_resume_token_twice_rejected(self, tmp_path, monkeypatch):
        # a second resume of a finished sweep computes nothing; a grid
        # shorter than the file is rejected, and the file stays as it is
        from xorgap import sweep

        path = tmp_path / "gap.csv"
        fake_clock(monkeypatch)
        rows, token = gap_sweep([1], 2, seed=0, out=path, budget_s=1.5)
        monkeypatch.undo()
        assert len(rows) == 1 and token == (1, 1)
        gap_sweep([1], 2, seed=0, out=path, resume=True)
        before = path.read_text()

        def forbidden(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(sweep, "compute_gap_row", forbidden)
        assert gap_sweep([1], 2, seed=0, out=path, resume=True) == ([], None)
        with pytest.raises(ValueError, match="not a prefix of the rows of seed 0"):
            gap_sweep([1], 1, seed=0, out=path, resume=True)
        assert path.read_text() == before
        assert len(read_gap_csv(path)) == 2

    def test_resume_with_other_seed_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "gap.csv"
        fake_clock(monkeypatch)
        gap_sweep([1], 2, seed=0, out=path, budget_s=1.5)
        monkeypatch.undo()
        before = path.read_text()
        with pytest.raises(ValueError, match="rows of seed 5"):
            gap_sweep([1], 2, seed=5, out=path, resume=True)
        assert path.read_text() == before

    @pytest.mark.parametrize("token", [(1, 4), (2, 0), (1, 2)])
    def test_resume_token_outside_grid_rejected(self, tmp_path, token):
        # the file's second row is the row of `token`, which is not the grid's
        # second point (1, 1): an index past the samples, an n outside n_list,
        # or a skipped row
        from xorgap.sweep import write_gap_csv

        path = tmp_path / "gap.csv"
        write_gap_csv(path, [compute_gap_row(n, row_seed(0, n, idx)) for n, idx in ((1, 0), token)])
        before = path.read_text()
        with pytest.raises(ValueError, match="not a prefix"):
            gap_sweep([1], 4, seed=0, out=path, resume=True)
        assert path.read_text() == before

    def test_resume_needs_out(self):
        with pytest.raises(ValueError, match="needs its out CSV"):
            gap_sweep([1], 2, seed=0, resume=True)

    def test_sampled_row_eigensolves_once(self, monkeypatch):
        # one eigenpair per row, and the N^3 x N^3 matrix view is never handed
        # to a dense eigh (the Lanczos tridiagonal may reach that size); an
        # n = 1 row solves in closed form (see test_qubit_row_runs_no_solver)
        from xorgap import tensor

        M = tensor.sample_tensor(2, tensor.SamplerConfig(seed=row_seed(0, 2, 0))).matrix
        counted = []
        dense = []
        eigh, lanczos = np.linalg.eigh, tensor._lanczos_extremes

        def counting_eigh(a, *args, **kwargs):
            dense.append(np.shape(a) == M.shape and np.array_equal(a, M))
            return eigh(a, *args, **kwargs)

        def counting_lanczos(*args):
            counted.append(args[1])
            return lanczos(*args)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(tensor, "_lanczos_extremes", counting_lanczos)
        compute_gap_row(2, row_seed(0, 2, 0))
        assert counted == [64]
        assert not any(dense)

    def test_qubit_row_runs_no_solver(self, monkeypatch):
        # an n = 1 row's eigenpair and trilinear norm are closed forms, and
        # its classical bias is enumerated: no Lanczos run and no ascent
        from xorgap import game, tensor

        def forbidden(*args, **kwargs):
            raise AssertionError("an n = 1 row ran a solver")

        monkeypatch.setattr(tensor, "_lanczos_extremes", forbidden)
        monkeypatch.setattr(tensor, "_lockstep_ascent", forbidden)
        monkeypatch.setattr(game, "_lockstep_ascent", forbidden)
        for k in range(4):
            row = compute_gap_row(1, row_seed(0, 1, k))
            assert row.classical_method == "exact"
            assert 0.0 < row.trilinear_lower <= row.trilinear_upper

    def test_sampled_row_skips_explicit_strategy_evaluation(self, monkeypatch):
        from xorgap import game, pauli

        def forbidden(*args, **kwargs):
            raise AssertionError("the row evaluated the Pauli strategy explicitly")

        # every explicit evaluation, the bias, the table and the expectations,
        # runs the one blocked contraction
        monkeypatch.setattr(game, "_correlation_blocks", forbidden)
        monkeypatch.setattr(pauli, "_correlation_blocks", forbidden)
        row = compute_gap_row(2, row_seed(0, 2, 0))
        assert abs(row.pauli_bias) <= 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_reads_no_dense_basis(self, monkeypatch, n):
        # every transform a gap row makes runs on the XOR-Hadamard plan, so
        # the row is the same with the dense basis forbidden
        from xorgap import game, pauli

        want = compute_gap_row(n, row_seed(0, n, 0))

        def forbidden(*args, **kwargs):
            raise AssertionError("the row read a dense Pauli basis")

        monkeypatch.setattr(pauli, "build_basis", forbidden)
        monkeypatch.setattr(game, "build_basis", forbidden)
        assert compute_gap_row(n, row_seed(0, n, 0)) == want

    def test_sampled_row_above_table_builds_no_game(self, monkeypatch):
        # above N = 4 the row takes l1 from g and its classical value from g
        from xorgap import game

        def forbidden(*args, **kwargs):
            raise AssertionError("the row built a game")

        # every game, one from (pi, signs) included, is its signed table
        # checked by __post_init__, so no Q^3 table is built or checked
        monkeypatch.setattr(game, "game_from_tensor", forbidden)
        monkeypatch.setattr(game.XorGame, "__post_init__", forbidden)
        row = compute_gap_row(3, row_seed(0, 3, 0))
        assert row.classical_method == "heuristic" and row.ratio_estimate > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_l1_and_pauli_bias_equal_game_build(self, monkeypatch, n):
        # the row's streamed l1 and the game's l1 are one float, so its
        # pauli_bias and classical_bias are the game build's to the bit
        from xorgap import game
        from xorgap.tensor import SamplerConfig, sample_tensor

        streamed = []
        l1_from_g = game.l1_from_g

        def recording_l1_from_g(T):
            streamed.append(l1_from_g(T))
            return streamed[-1]

        monkeypatch.setattr(game, "l1_from_g", recording_l1_from_g)
        seed = row_seed(0, n, 0)
        row = compute_gap_row(n, seed)
        T = sample_tensor(n, SamplerConfig(seed=seed))
        report = game.game_from_tensor(T)
        assert row.pauli_bias == report.pauli_bias
        assert streamed == ([] if n <= 2 else [report.l1_norm])
        assert l1_from_g(T) == report.l1_norm
        if n == 3:
            assert row.classical_bias == game.classical_value(T, seed)[0] / report.l1_norm

    def test_warm_n3_row_memory_below_one_table(self):
        # no Q^3 float64 table (64^3 * 8 B = 2.1 MB) is formed by a row at n = 3
        import tracemalloc

        compute_gap_row(3, row_seed(0, 3, 0))
        tracemalloc.start()
        try:
            compute_gap_row(3, row_seed(0, 3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64**3 * 8

    def test_n4_row_fills_every_column_in_bounded_memory(self):
        import tracemalloc

        tracemalloc.start()
        try:
            row = compute_gap_row(4, row_seed(0, 4, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert row.classical_method == "heuristic"
        assert row.trilinear_upper is None and row.prop31_lower is None
        assert 0.0 < row.pauli_bias <= 1.0 and 0.0 < row.classical_bias <= 1.0
        assert row.ratio_estimate == row.pauli_bias / row.classical_bias

    def test_n_range_guard(self):
        with pytest.raises(ValueError, match=r"n in \{1, 2, 3, 4\}"):
            gap_sweep([5], 1, seed=0)

    def test_empty_n_list_guard(self, tmp_path):
        with pytest.raises(ValueError, match="at least one n"):
            gap_sweep([], 1, seed=0, out=tmp_path / "gap.csv")
        assert not (tmp_path / "gap.csv").exists()

    def test_samples_guard(self, tmp_path):
        with pytest.raises(ValueError, match="samples per n"):
            gap_sweep([1], 0, seed=0, out=tmp_path / "gap.csv")
        assert not (tmp_path / "gap.csv").exists()

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_budget_guard(self, tmp_path, monkeypatch, budget):
        from xorgap import sweep

        def forbidden(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(sweep, "compute_gap_row", forbidden)
        with pytest.raises(ValueError, match="budget must be a number of seconds >= 0"):
            gap_sweep([1], 2, seed=0, out=tmp_path / "gap.csv", budget_s=budget)
        assert not (tmp_path / "gap.csv").exists()


class TestVerifySuites:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_fast_suites_pass(self, name):
        rep = verify_suite(name, seed=0)
        assert rep.passed, "\n".join(rep.lines)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify_suite("nonsense")

    def test_nets_suite_sphere_net_follows_seed(self, capsys):
        # the printed sphere net is the one built with the suite's seed; seed 3
        # packs a net of another size than seed 0 does
        from xorgap.nets import sphere_net

        size = len(sphere_net(0.5, seed=3))
        assert size != len(sphere_net(0.5, seed=0))
        assert main(["verify", "--suite", "nets", "--seed", "3"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("sphere net cardinality")]
        assert len(printed) == 2
        assert all(line.startswith(f"sphere net cardinality {size} vs") for line in printed)


class TestShow:
    def test_tensor_summary(self, tmp_path):
        assert main(["sample", "--n", "1", "--seed", "3", "--out", str(tmp_path / "t.xgt")]) == 0
        out = show(tmp_path / "t.xgt")
        assert "n=1" in out and "hermitian=True" in out and "raw_g=yes" in out

    def test_game_summary(self, tmp_path):
        tpath, gpath = str(tmp_path / "t.xgt"), str(tmp_path / "g.csv")
        main(["sample", "--n", "1", "--seed", "3", "--out", tpath])
        main(["game", "--in", tpath, "--out", gpath])
        out = show(gpath)
        assert "Q=4" in out and "support=" in out

    def test_gap_summary(self, tmp_path):
        path = tmp_path / "gap.csv"
        gap_sweep([1], 3, seed=0, out=path)
        out = show(path)
        assert "median" in out and "n=1" in out

    def test_general_tensor_summary(self, tmp_path):
        # a general file reads its dense matrix for the Frobenius norm
        from xorgap.tensor import Tensor3, save_tensor

        rng = np.random.default_rng(4)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        save_tensor(tmp_path / "m.xgt", Tensor3(1, M))
        out = show(tmp_path / "m.xgt")
        assert "hermitian=False" in out and "raw_g=no" in out
        assert f"frobenius={np.linalg.norm(M):.6g} " in out

    def test_module_entry_point(self, tmp_path):
        # python -m xorgap runs the same front end
        import os
        import subprocess
        import sys

        import xorgap

        assert main(["sample", "--n", "1", "--seed", "3", "--out", str(tmp_path / "t.xgt")]) == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xorgap.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "xorgap", "show", str(tmp_path / "t.xgt")], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "hermitian=True" in done.stdout

    def test_unrecognized_format(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\xff\xfe\x00junk")
        with pytest.raises(ValueError):
            show(path)


class TestCli:
    def test_pipeline_end_to_end(self, tmp_path, capsys):
        tpath = str(tmp_path / "t.xgt")
        gpath = str(tmp_path / "g.csv")
        assert main(["sample", "--n", "1", "--seed", "42", "--out", tpath]) == 0
        assert main(["norms", "--in", tpath, "--net-eps", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "spectral_norm" in out and "trilinear_upper" in out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("trilinear_lower")]
        assert line.endswith("(exact)")
        dense = str(tmp_path / "dense.xgt")
        save_tensor(dense, Tensor3(1, load_tensor(tpath).matrix))
        assert main(["norms", "--in", dense]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("trilinear_lower")]
        assert line.endswith("(ALS lower bound)")
        assert main(["game", "--in", tpath, "--out", gpath]) == 0
        assert main(["bias", "classical", "--game", gpath]) == 0
        assert "(exact)" in capsys.readouterr().out
        assert main(["bias", "entangled", "--game", gpath, "--tensor", tpath]) == 0
        assert main(["bias", "seesaw", "--game", gpath, "--d", "2", "--restarts", "4"]) == 0

    def test_bias_entangled_with_strategy_file(self, tmp_path, capsys):
        from xorgap.game import ghz_strategy, mermin_game, save_game_csv, strategy_to_json

        gpath = tmp_path / "mermin.csv"
        save_game_csv(gpath, mermin_game())
        spath = tmp_path / "ghz.json"
        spath.write_text(strategy_to_json(ghz_strategy()))
        assert main(["bias", "entangled", "--game", str(gpath), "--strategy", str(spath)]) == 0
        out = capsys.readouterr().out
        assert "entangled_bias_lb" in out
        assert float(out.strip().split("=")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_gap_sweep_cli(self, tmp_path, capsys):
        path = str(tmp_path / "gap.csv")
        assert main(["gap-sweep", "--n-list", "1", "--samples", "2", "--seed", "0", "--out", path]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        assert main(["show", path]) == 0

    def test_gap_sweep_empty_n_list_exits_two(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gap-sweep", "--n-list", "", "--samples", "2", "--out", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
        assert "n_list must name at least one n" in err.splitlines()[-1]
        assert not path.exists()

    def test_gap_sweep_negative_seed_keeps_file(self, tmp_path, capsys):
        # the seed is checked before the out file is touched
        path = tmp_path / "gap.csv"
        assert main(["gap-sweep", "--n-list", "1", "--samples", "1", "--seed", "0", "--out", str(path)]) == 0
        before = path.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["gap-sweep", "--n-list", "1", "--samples", "1", "--seed", "-1", "--out", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
        assert "seed must be >= 0, got -1" in err.splitlines()[-1]
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "1"],
            ["norms", "--in", "missing.xgt"],
            ["bias", "classical", "--game", "missing.csv"],
            ["gap-sweep", "--n-list", "1", "--samples", "1"],
            ["verify", "--suite", "identities"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_named(self, tmp_path, capsys, argv):
        # every --seed is rejected before a file is read or written, with a
        # message that names it
        path = tmp_path / "f"
        path.write_bytes(b"left as it is")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"] + (["--out", str(path)] if argv[0] in ("sample", "gap-sweep") else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
        assert "--seed" in err.splitlines()[-1]
        assert path.read_bytes() == b"left as it is"

    def test_bias_restarts_default_to_library(self, tmp_path, capsys):
        # without --restarts, bias classical takes classical_bias's own
        # default, and bias seesaw seesaw_entangled_bias's
        from xorgap.game import classical_bias, load_game_csv, seesaw_entangled_bias

        tpath, gpath = str(tmp_path / "t.xgt"), str(tmp_path / "g.csv")
        seed = row_seed(0, 2, 1)
        assert main(["sample", "--n", "2", "--seed", str(seed), "--out", tpath]) == 0
        assert main(["game", "--in", tpath, "--out", gpath]) == 0
        capsys.readouterr()
        assert main(["bias", "classical", "--game", gpath]) == 0
        G = load_game_csv(gpath)
        want, _, _ = classical_bias(G)
        assert capsys.readouterr().out.split()[2] == repr(want)
        mpath = str(tmp_path / "m.csv")
        save_game_csv(mpath, mermin_game())
        assert main(["bias", "seesaw", "--game", mpath, "--d", "2"]) == 0
        want, _ = seesaw_entangled_bias(mermin_game(), 2)
        assert capsys.readouterr().out.split()[2] == repr(want)

    def test_gap_sweep_resume_flag(self, tmp_path, monkeypatch, capsys):
        whole, path = tmp_path / "whole.csv", tmp_path / "gap.csv"
        argv = ["gap-sweep", "--n-list", "1", "--samples", "3", "--seed", "0", "--out"]
        assert main(argv + [str(whole)]) == 0
        fake_clock(monkeypatch)
        assert main(argv + [str(path), "--budget-s", "1.5"]) == 0
        monkeypatch.undo()
        assert "budget exhausted before (n, index) = (1, 1)" in capsys.readouterr().out
        assert main(argv + [str(path), "--resume"]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        assert path.read_text() == whole.read_text()
        assert main(argv + [str(path), "--resume"]) == 0  # a finished sweep is left as it is
        assert "wrote 0 rows" in capsys.readouterr().out
        assert path.read_text() == whole.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.csv", "whole.csv"]

    def test_gap_sweep_resume_mismatch_exits_two(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "gap.csv"
        argv = ["gap-sweep", "--samples", "3", "--out", str(path)]
        fake_clock(monkeypatch)
        assert main(argv + ["--n-list", "1", "--seed", "0", "--budget-s", "1.5"]) == 0
        monkeypatch.undo()
        before = path.read_text()
        # another seed, and a grid the file is not a prefix of
        for extra in (["--n-list", "1", "--seed", "5"], ["--n-list", "2", "--seed", "0"]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv + extra + ["--resume"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
            assert "is not a prefix of the rows of seed" in err.splitlines()[-1]
            assert path.read_text() == before

    def test_sampled_file_never_builds_matrix(self, tmp_path, monkeypatch, capsys):
        # an n = 4 sample is written, summarized and normed from g alone
        from xorgap import tensor

        built = []
        masked_outer = tensor._masked_outer

        def counting_masked_outer(g, N):
            built.append(N)
            return masked_outer(g, N)

        monkeypatch.setattr(tensor, "_masked_outer", counting_masked_outer)
        tpath = str(tmp_path / "t4.xgt")
        assert main(["sample", "--n", "4", "--seed", "0", "--out", tpath]) == 0
        assert main(["show", tpath]) == 0
        assert main(["norms", "--in", tpath, "--als-restarts", "2", "--als-iters", "5"]) == 0
        assert built == []
        assert (tmp_path / "t4.xgt").stat().st_size == 12 + 8 * 16**3

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--suite", "identities"]) == 0
        out = capsys.readouterr().out
        assert "suite identities: PASS" in out
        assert "n=1: closed-form lambda == top of dense eigvalsh: pass" in out
        assert "n=1: closed-form trilinear norm >= table ALS on the built matrix, <= net upper bound: pass" in out

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["bias", "entangled", "--game", str(tmp_path / "missing.csv")])
        assert exc.value.code == 2
        for argv in (["show", str(tmp_path)], ["norms", "--in", str(tmp_path)]):  # a directory
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
            assert "Is a directory" in err.splitlines()[-1]

    def test_malformed_files_exit_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.xgt"
        junk.write_bytes(b"NOPE" + b"\x00" * 32)
        tpath = tmp_path / "t.xgt"
        main(["sample", "--n", "1", "--seed", "3", "--out", str(tpath)])
        clipped = tmp_path / "clipped.xgt"
        clipped.write_bytes(tpath.read_bytes()[:60])  # the whole file is 76 bytes
        flags6 = tmp_path / "flags6.xgt"  # unknown flag bits over an 8 x 8 matrix
        flags6.write_bytes(b"XGT1" + struct.pack("<II", 1, 6) + np.eye(8, dtype="<c16").tobytes())
        old_layout = tmp_path / "old_layout.xgt"  # g as complex pairs, then the matrix
        T = load_tensor(tpath)
        old_layout.write_bytes(
            tpath.read_bytes()[:12] + T.raw_g.astype("<c16").tobytes() + T.matrix.astype("<c16").tobytes()
        )
        inf_matrix = tmp_path / "inf_matrix.xgt"  # a general tensor with one inf entry
        M = np.eye(8, dtype=complex)
        M[0, 1] = np.inf
        inf_matrix.write_bytes(b"XGT1" + struct.pack("<II", 1, 0) + M.astype("<c16").tobytes())
        nan_g = tmp_path / "nan_g.xgt"  # the raw vector's first entry is NaN
        nan_g.write_bytes(tpath.read_bytes()[:12] + struct.pack("<d", np.nan) + tpath.read_bytes()[20:])
        half = tmp_path / "half.csv"
        half.write_text("q1,q2,q3,pi,sign\n0,0,0,0.5,1\n")
        short_game = tmp_path / "short_game.csv"
        short_game.write_text("q1,q2,q3,pi,sign\n0,0,0,1.0\n")
        empty_game = tmp_path / "empty_game.csv"
        empty_game.write_text("q1,q2,q3,pi,sign\n")
        negative_game = tmp_path / "negative_game.csv"
        negative_game.write_text("q1,q2,q3,pi,sign\n0,0,0,0.0,1\n-1,0,0,1.0,1\n")
        repeated_game = tmp_path / "repeated_game.csv"
        repeated_game.write_text("q1,q2,q3,pi,sign\n0,0,0,0.5,1\n0,0,0,0.5,-1\n")
        nan_game = tmp_path / "nan_game.csv"
        nan_game.write_text("q1,q2,q3,pi,sign\n0,0,0,nan,1\n")
        huge_game = tmp_path / "huge_game.csv"  # Q = 3001 would ask for Q^3 floats
        huge_game.write_text("q1,q2,q3,pi,sign\n0,0,0,0.0,1\n3000,0,0,1.0,1\n")
        short_gap = tmp_path / "short_gap.csv"
        short_gap.write_text(",".join(GAP_COLUMNS) + "\n1,2,3\n")
        mermin = tmp_path / "mermin.csv"
        save_game_csv(mermin, mermin_game())
        stateless = tmp_path / "stateless.json"
        stateless.write_text('{"dims": [2, 2, 2], "observables": [[], [], []]}')
        gap_resume = ["gap-sweep", "--n-list", "1", "--samples", "3", "--out", str(short_gap)]
        for argv, problem in (
            (["norms", "--in", str(junk)], "not an XGT1 file"),
            (["norms", "--in", str(clipped)], "does not match the file size"),
            (["show", str(flags6)], "XGT1 header has unknown flag bits 0x6"),
            (["norms", "--in", str(old_layout)], "does not match the file size"),
            (["show", str(inf_matrix)], "XGT1 matrix holds a NaN or infinite entry"),
            (["norms", "--in", str(inf_matrix)], "XGT1 matrix holds a NaN or infinite entry"),
            (["game", "--in", str(nan_g), "--out", str(tmp_path / "nan.csv")], "raw vector holds a NaN or infinite entry"),
            (["bias", "classical", "--game", str(half)], "pi must sum to 1"),
            (["bias", "classical", "--game", str(short_game)], "line 2: 4 fields, need 5"),
            (["show", str(short_game)], "line 2: 4 fields, need 5"),
            (["bias", "classical", "--game", str(empty_game)], "no question rows"),
            (["bias", "classical", "--game", str(negative_game)], "line 3: negative question index"),
            (["bias", "classical", "--game", str(repeated_game)], "line 3: repeated question triple (0, 0, 0)"),
            (["bias", "classical", "--game", str(nan_game)], "pi must be nonnegative"),
            (["bias", "classical", "--game", str(huge_game)], "line 3: question index above 255"),
            (["show", str(short_gap)], "line 2: 3 fields, need 11"),
            (gap_resume + ["--resume"], "line 2: 3 fields, need 11"),
            (["bias", "entangled", "--game", str(mermin), "--strategy", str(stateless)], "lacks state"),
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
            assert problem in err.splitlines()[-1]

    def test_bad_arguments_exit_two(self, tmp_path, capsys):
        # n = 8 must fail before anything is drawn (n = 5..7 would ask for
        # gigabytes), and see-saw d = 64 before its 1 TiB game operator;
        # restarts < 1 fails on the enumerated n = 1 game as on n = 2
        tpath = tmp_path / "t.xgt"
        main(["sample", "--n", "1", "--out", str(tpath)])
        game_path = tmp_path / "g.csv"
        main(["game", "--in", str(tpath), "--out", str(game_path)])
        main(["sample", "--n", "2", "--out", str(tmp_path / "t2.xgt")])
        game2_path = tmp_path / "g2.csv"
        main(["game", "--in", str(tmp_path / "t2.xgt"), "--out", str(game2_path)])
        # a 262 kB n = 5 file whose game would need two 8.6 GB tables
        save_tensor(tmp_path / "t5.xgt", Tensor3(5, raw_g=np.ones(2**15)))
        gpath = tmp_path / "gap.csv"
        for argv, problem in (
            (["sample", "--n", "0", "--out", str(tmp_path / "s0.xgt")], "--n must lie in 1..4"),
            (["sample", "--n", "8", "--out", str(tmp_path / "s8.xgt")], "--n must lie in 1..4"),
            (["gap-sweep", "--n-list", "1", "--samples", "0", "--out", str(gpath)], "samples per n must be >= 1"),
            (["gap-sweep", "--n-list", "1", "--budget-s", "nan", "--out", str(gpath)], "budget must be a number"),
            (["gap-sweep", "--n-list", "4,5", "--out", str(gpath)], "limited to n in {1, 2, 3, 4}"),
            (["game", "--in", str(tmp_path / "t5.xgt"), "--out", str(tmp_path / "g5.csv")], "needs n <= 4, got n = 5"),
            (["norms", "--in", str(tpath), "--als-iters", "0"], "max_iters must be >= 1"),
            (["norms", "--in", str(tpath), "--tol", "nan"], "tol must be finite and >= 0"),
            (["norms", "--in", str(tpath), "--tol", "-1"], "tol must be finite and >= 0"),
            (["bias", "seesaw", "--game", str(game_path), "--d", "64"], "d must lie in 1..16"),
            (["bias", "classical", "--game", str(game_path), "--restarts", "0"], "restarts must be >= 1"),
            (["bias", "classical", "--game", str(game_path), "--restarts", "-5"], "restarts must be >= 1"),
            (["bias", "classical", "--game", str(game2_path), "--restarts", "0"], "restarts must be >= 1"),
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.splitlines()[-1].startswith("xorgap: error:")
            assert problem in err.splitlines()[-1]
        assert not any((tmp_path / f).exists() for f in ("s0.xgt", "s8.xgt", "gap.csv", "g5.csv"))

    @pytest.mark.parametrize(
        "field,value,problem",
        [
            ("state", [["a", 0]], "state must be a list of [re, im] number pairs"),
            ("observables", None, "observables must be a list of three lists"),
            ("dims", "abc", "dims must be a list of three positive integers"),
            ("state", 5, "state must be a list of [re, im] number pairs"),
            ("state", [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7, "state must be a unit vector"),
            ("observables", [[_NAN_X, _X], [_X, _X], [_X, _X]], "player 0 question 0: observable not Hermitian"),
        ],
    )
    def test_malformed_strategy_json_exits_two(self, tmp_path, capsys, field, value, problem):
        import json

        from xorgap.game import ghz_strategy, strategy_to_json

        gpath = tmp_path / "mermin.csv"
        save_game_csv(gpath, mermin_game())
        payload = json.loads(strategy_to_json(ghz_strategy()))
        payload[field] = value
        spath = tmp_path / "bad.json"
        spath.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["bias", "entangled", "--game", str(gpath), "--strategy", str(spath)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("xorgap: error:")]
        assert errors == [err.splitlines()[-1]]
        assert problem in errors[0]

    @pytest.mark.parametrize("n,eps", [(1, "0"), (2, "0.5"), (1, "1e-300")])
    def test_norms_net_eps_fails_before_output(self, tmp_path, capsys, n, eps):
        # a bad eps, a tensor the net does not cover, or a net too fine to
        # pack, fails before any value is printed
        tpath = str(tmp_path / "t.xgt")
        main(["sample", "--n", str(n), "--out", tpath])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--in", tpath, "--net-eps", eps])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("xorgap: error:")
        assert sum(line.startswith("xorgap: error:") for line in captured.err.splitlines()) == 1

    def test_seed_changes_sample(self, tmp_path):
        A, B = str(tmp_path / "a.xgt"), str(tmp_path / "b.xgt")
        main(["sample", "--n", "1", "--seed", "1", "--out", A])
        main(["sample", "--n", "1", "--seed", "2", "--out", B])
        from xorgap import load_tensor

        assert not np.array_equal(load_tensor(A).matrix, load_tensor(B).matrix)
