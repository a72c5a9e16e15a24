"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.peers == 50
        assert args.seed == 0


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--peers", "20", "--keys", "50"]) == 0
        out = capsys.readouterr().out
        assert "invariants: OK" in out

    def test_tree_runs(self, capsys):
        assert main(["tree", "--peers", "7"]) == 0
        out = capsys.readouterr().out
        assert "(0,1)" in out
        assert "level" in out

    def test_ranges_runs(self, capsys):
        assert main(["ranges", "--peers", "6", "--keys", "30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("|")

    def test_peer_dump_runs(self, capsys):
        assert main(["peer", "--peers", "10", "--address", "1"]) == 0
        out = capsys.readouterr().out
        assert "peer addr=1" in out

    def test_experiments_quick(self, capsys, tmp_path):
        out_file = tmp_path / "results.txt"
        canonical = tmp_path / "canonical.txt"
        argv = ["experiments", "--quick", "--out", str(out_file)]
        # runall's own flags are the subcommand's: one shared declaration.
        argv += ["--canonical-out", str(canonical)]
        assert main(argv) == 0
        assert "Fig 8a" in out_file.read_text()
        assert canonical.read_text().startswith("### Fig 8a")

    def test_concurrent_clustered_topology_runs(self, capsys):
        assert (
            main(
                [
                    "concurrent",
                    "--peers", "16",
                    "--duration", "5",
                    "--churn-rate", "0.0",
                    "--query-rate", "2",
                    "--topology", "clustered",
                    "--inter-delay", "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "clustered topology" in out
        assert "transit time" in out

    def test_topology_choices_are_the_factory_names(self, capsys):
        """``--topology`` offers exactly what ``make_topology`` builds;
        any other name is an argparse usage error (exit 2)."""
        from repro.sim.topology import TOPOLOGY_CHOICES

        for name in TOPOLOGY_CHOICES:
            args = build_parser().parse_args(["concurrent", "--topology", name])
            assert args.topology == name
        with pytest.raises(SystemExit) as exit_info:
            main(["concurrent", "--topology", "coordinate"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'coordinate'" in capsys.readouterr().err

    def test_clustered_flags_rejected_elsewhere(self, capsys):
        assert main(["concurrent", "--peers", "10", "--inter-delay", "9"]) == 2
        err = capsys.readouterr().err
        assert "--topology clustered" in err

    def test_concurrent_replication_runs(self, capsys):
        assert (
            main(
                [
                    "concurrent",
                    "--peers", "20",
                    "--keys", "100",
                    "--duration", "8",
                    "--churn-rate", "0.4",
                    "--query-rate", "2",
                    "--fail-fraction", "1.0",
                    "--replication",
                    "--repair-delay", "2",
                    "--maintenance-interval", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replica" in out

    def test_replication_rejected_without_capability(self, capsys):
        assert main(["concurrent", "--overlay", "chord", "--replication"]) == 2
        err = capsys.readouterr().err
        assert "replication" in err

    def test_grid_subcommands_share_one_lookup(self):
        # Every grid subcommand names its driver module; cmd_grid imports
        # repro.experiments.<module> with no per-command special case.
        import importlib

        from repro.cli import cmd_grid

        for command in ("durability", "chaos", "multicast", "locality"):
            args = build_parser().parse_args([command])
            assert args.func is cmd_grid
            grid = importlib.import_module(f"repro.experiments.{args.module}").GRID
            assert grid.name == command
            assert set(args.axes.values()) <= {axis.name for axis in grid.axes}

    def test_durability_subcommand_runs(self, capsys):
        assert main(["durability", "--quick", "--peers", "24"]) == 0
        out = capsys.readouterr().out
        assert "Durability" in out
        assert "keys_lost" in out
