"""Tests for the CLI and the public package surface."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "6.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_campaign_import_leaves_networkx_unloaded(self):
        """networkx is imported only by the graph-building calls that need it."""
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.campaign; "
                "sys.exit('networkx' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr or "networkx was imported"

    def test_paper_algorithms_exposed(self):
        assert repro.Gathering().name == "gathering"
        assert repro.Waiting().name == "waiting"
        assert repro.WaitingGreedy(tau=10).name == "waiting_greedy"

    def test_quickstart_snippet_from_docstring(self):
        nodes = list(range(20))
        adversary = repro.RandomizedAdversary(nodes, seed=1)
        result = repro.Executor(nodes, sink=0, algorithm=repro.Gathering()).run(
            adversary, max_interactions=20_000
        )
        assert result.terminated


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E11" in output
        assert "gathering" in output

    def test_trial_command(self, capsys):
        assert main(["trial", "gathering", "--n", "12", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "terminated=True" in output

    def test_trial_command_waiting_greedy_defaults_tau(self, capsys):
        assert main(["trial", "waiting_greedy", "--n", "12", "--seed", "1"]) == 0

    def test_run_command_writes_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["run", "E5", "--output", str(target)])
        assert code == 0
        assert "Theorem 5" in target.read_text()

    def test_run_command_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "E99"])

    @pytest.mark.parametrize(
        "argv",
        (
            ["trial", "nosuch", "--n", "10"],
            ["trial", "gathering", "--n", "1"],
            ["search", "nosuch", "--n", "8", "--budget", "2"],
        ),
    )
    def test_bad_input_is_a_usage_error(self, argv):
        """One ``error:`` line and exit 2, as ``sweep`` does — no traceback."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
            timeout=120,
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, result.stderr

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCLI:
    """Smoke tests for the sweep subcommand and its engine/worker knobs."""

    def test_sweep_default(self, capsys):
        assert main(["sweep", "gathering", "--ns", "8,10", "--trials", "2"]) == 0
        output = capsys.readouterr().out
        assert "gathering: interactions to termination" in output
        assert "| 8 |" in output and "| 10 |" in output

    def test_sweep_rejects_retired_fast_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "9", "--engine", "fast"])
        assert "invalid choice: 'fast'" in capsys.readouterr().err

    def test_sweep_workers(self, capsys):
        assert main(["sweep", "gathering", "--ns", "8,10", "--trials", "2"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["sweep", "gathering", "--ns", "8,10", "--trials", "2",
                  "--engine", "vectorized", "--workers", "2"]) == 0
        )
        assert capsys.readouterr().out == serial

    def test_sweep_mobility_adversary(self, capsys):
        assert (
            main(["sweep", "waiting", "--ns", "8", "--trials", "2",
                  "--adversary", "community", "--engine", "reference"]) == 0
        )
        assert "waiting" in capsys.readouterr().out

    def test_sweep_writes_output_file(self, tmp_path):
        target = tmp_path / "sweep.md"
        assert (
            main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                  "--output", str(target)]) == 0
        )
        assert "interactions to termination" in target.read_text()

    def test_sweep_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "not-numbers"])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", ""])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "8", "--trials", "0"])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "8", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["sweep", "no_such_algorithm", "--ns", "8"])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "8",
                  "--adversary", "rush_hour"])

    @pytest.mark.parametrize(
        "argv",
        (
            ["sweep", "gathering", "--ns", "8,10", "--trials", "2",
             "--engine", "vectorized", "--workers", "2"],
            ["campaign", "run", "examples/campaign_smoke.toml"],
        ),
    )
    def test_retired_block_size_flag_is_a_usage_error(self, argv, capsys):
        """The window schedule is the engine's own: no command takes it."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--block-size", "64"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --block-size 64" in err
        assert "Traceback" not in err

    def test_trial_engine_flag(self, capsys):
        assert main(["trial", "gathering", "--n", "10", "--seed", "2",
                     "--engine", "vectorized"]) == 0
        vectorized = capsys.readouterr().out
        assert main(["trial", "gathering", "--n", "10", "--seed", "2"]) == 0
        assert capsys.readouterr().out == vectorized

    def test_trial_adversary_flag(self, capsys):
        assert main(["trial", "gathering", "--n", "12", "--seed", "1",
                     "--adversary", "waypoint"]) == 0
        assert "adversary=waypoint" in capsys.readouterr().out


class TestVectorizedEngineCLI:
    """Smoke tests for --engine vectorized across the CLI surface."""

    def test_trial_vectorized_matches_reference(self, capsys):
        assert main(["trial", "waiting_greedy", "--n", "14", "--seed", "3"]) == 0
        reference = capsys.readouterr().out
        assert main(["trial", "waiting_greedy", "--n", "14", "--seed", "3",
                     "--engine", "vectorized"]) == 0
        assert capsys.readouterr().out == reference

    def test_sweep_vectorized_matches_reference(self, capsys):
        assert main(["sweep", "waiting", "--ns", "9,11", "--trials", "3"]) == 0
        reference = capsys.readouterr().out
        assert (
            main(["sweep", "waiting", "--ns", "9,11", "--trials", "3",
                  "--engine", "vectorized"]) == 0
        )
        assert capsys.readouterr().out == reference

    def test_sweep_vectorized_workers_and_block_size_compose(
        self, capsys, monkeypatch
    ):
        """--workers fans out over trial ranges, and each trial crosses
        many block boundaries; together they still print the reference
        table."""
        from repro.core import vector_execution

        args = ["sweep", "waiting_greedy", "--ns", "8,10,12", "--trials", "3",
                "--ratio"]
        assert main(args + ["--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        # Forked workers inherit the patched window cap.
        monkeypatch.setattr(vector_execution, "DEFAULT_BLOCK_SIZE", 16)
        assert (
            main(args + ["--engine", "vectorized", "--workers", "2"]) == 0
        )
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize(
        "algorithm", ("spanning_tree", "full_knowledge", "future_broadcast")
    )
    def test_sweep_vectorized_knowledge_algorithms(self, algorithm, capsys):
        """The knowledge-heavy algorithms run kernelized — no fallback."""
        import warnings

        from repro.core.vector_execution import EngineFallbackWarning

        assert main(["sweep", algorithm, "--ns", "8", "--trials", "2"]) == 0
        reference = capsys.readouterr().out
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            assert (
                main(["sweep", algorithm, "--ns", "8", "--trials", "2",
                      "--engine", "vectorized"]) == 0
            )
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize(
        "algorithm", ("spanning_tree", "full_knowledge", "future_broadcast")
    )
    def test_trial_vectorized_knowledge_algorithms(self, algorithm, capsys):
        assert main(["trial", algorithm, "--n", "12", "--seed", "1"]) == 0
        reference = capsys.readouterr().out
        assert main(["trial", algorithm, "--n", "12", "--seed", "1",
                     "--engine", "vectorized"]) == 0
        assert capsys.readouterr().out == reference

    def test_sweep_vectorized_unknown_kernel_warns(self, monkeypatch, capsys):
        """Removing a kernel surfaces the strict lookup error, CLI-visible.

        ``get_kernel`` now raises a ``KeyError`` naming the algorithm and
        listing the registered kernels; the vectorized engine turns that
        into a per-cell ``EngineFallbackWarning`` carrying the same
        message, and the sweep still completes with the reference numbers
        plus a ``fallbacks`` column surfacing the downgrade per row
        (docs/observability.md).
        """
        from repro.algorithms import kernels as kernels_module
        from repro.core.vector_execution import EngineFallbackWarning

        assert main(["sweep", "gathering", "--ns", "8", "--trials", "2"]) == 0
        reference = capsys.readouterr().out
        monkeypatch.delitem(kernels_module.KERNELS, "gathering")
        with pytest.warns(EngineFallbackWarning) as caught:
            assert (
                main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                      "--engine", "vectorized"]) == 0
            )
        fallback_out = capsys.readouterr().out

        def drop_last_column(table: str) -> str:
            lines = []
            for line in table.splitlines():
                if line.startswith("|") and line.endswith("|"):
                    cells = line[1:-1].split("|")
                    lines.append("|" + "|".join(cells[:-1]) + "|")
                else:
                    lines.append(line)
            return "\n".join(lines) + "\n"

        assert "fallbacks" in fallback_out
        # Both trials of the one cell downgraded; the numbers themselves
        # stay reference-identical, only the new column differs.
        assert "| 2 |" in fallback_out.splitlines()[-1]
        assert drop_last_column(fallback_out) == reference
        message = str(caught[0].message)
        assert "no decision kernel is registered for algorithm" in message
        assert "'gathering'" in message
        assert "registered kernels:" in message

    def test_sweep_vectorized_mobility_adversary(self, capsys):
        assert (
            main(["sweep", "waiting", "--ns", "10", "--trials", "2",
                  "--adversary", "community", "--engine", "vectorized"]) == 0
        )
        assert "waiting" in capsys.readouterr().out

    def test_run_e23_vectorized_equivalence_experiment(self, capsys):
        assert main(["run", "E23"]) == 0
        assert "reproduced" in capsys.readouterr().out
