"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_networks(self):
        args = build_parser().parse_args(["table1", "--networks", "lenet", "svhn"])
        assert args.networks == ["lenet", "svhn"]

    def test_scale_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "enormous", "table1"])

    def test_figure5_trained_flag(self):
        args = build_parser().parse_args(["figure5", "--trained"])
        assert args.trained is True

    def test_seed_override(self):
        args = build_parser().parse_args(["--seed", "7", "costs"])
        assert args.seed == 7

    @pytest.mark.parametrize(
        "command",
        [
            "table1",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "attacks",
            "summary",
            "costs",
            "collect",
            "bounds",
            "serve",
        ],
    )
    def test_all_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--batch-window", "16", "--quantize-bits", "8",
             "--requests", "32", "--compare-sequential"]
        )
        assert args.batch_window == 16
        assert args.quantize_bits == 8
        assert args.requests == 32
        assert args.compare_sequential


class TestExecution:
    def test_summary_runs_without_training(self, capsys):
        exit_code = main(["--scale", "tiny", "summary", "--network", "lenet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "conv0" in out and "cut:conv2" in out

    def test_costs_runs(self, capsys):
        # `costs` pre-trains the backbone at tiny scale (~seconds).
        exit_code = main(["--scale", "tiny", "costs", "--network", "lenet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "kMAC" in out and "conv2" in out

    def test_figure6_runs(self, capsys):
        exit_code = main(["--scale", "tiny", "figure6", "--network", "lenet"])
        assert exit_code == 0
        assert "Shredder's cutting point" in capsys.readouterr().out


class TestNewCommands:
    def test_collect_defaults(self):
        args = build_parser().parse_args(["collect"])
        assert args.network == "lenet"
        assert args.out == "noise_collection.npz"
        assert args.fit is None

    def test_collect_fit_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["collect", "--fit", "cauchy"])

    def test_bounds_runs(self, capsys):
        exit_code = main(["bounds", "--signal-power", "4.0", "--scales", "1.0"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "MI lower" in out and "MI upper" in out

    def test_bounds_bracket_ordering(self, capsys):
        main(["bounds", "--signal-power", "2.0", "--scales", "0.5", "2.0"])
        lines = [l.split() for l in capsys.readouterr().out.splitlines()[2:]]
        lower = [float(row[3]) for row in lines]
        upper = [float(row[4]) for row in lines]
        assert all(lo <= hi for lo, hi in zip(lower, upper))
        assert lower[0] > lower[1]  # more noise, less leakage

    def test_collect_writes_collection(self, tmp_path, capsys):
        out = tmp_path / "collection.npz"
        exit_code = main(
            [
                "--scale",
                "tiny",
                "collect",
                "--network",
                "lenet",
                "--members",
                "2",
                "--fit",
                "laplace",
                "--out",
                str(out),
            ]
        )
        assert exit_code == 0
        assert out.exists()
        from repro.core import FittedNoiseDistribution, NoiseCollection

        collection = NoiseCollection.load(out)
        assert len(collection) == 2
        fitted = FittedNoiseDistribution.load(tmp_path / "collection.laplace.npz")
        assert fitted.family == "laplace"


def _uplink_megabytes(out: str) -> list[float]:
    """Each printed deployment's uplink volume."""
    return [
        float(line.split()[1])
        for line in out.splitlines()
        if line.startswith("wire ")
    ]


class TestServe:
    """``repro serve`` honours or refuses every flag on every path
    (single plane, ``--deployment`` and ``--shards``)."""

    @pytest.fixture(autouse=True)
    def _shared_cache(self, _isolated_cache, session_cache_dir, monkeypatch):
        # The tiny lenet pretrains once for the whole class.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(session_cache_dir))

    @staticmethod
    def _serve(*flags: str) -> int:
        return main(
            ["--scale", "tiny", "serve", "--members", "2", "--requests", "16",
             *flags]
        )

    def test_sharded_path_honours_session_isolation(self, capsys):
        assert self._serve("--shards", "1", "--batch-policy", "isolate") == 0
        assert "cross-user mix    0.0%" in capsys.readouterr().out

    def test_multi_deployment_path_quantizes_the_uplink(self, capsys):
        tenants = ("--deployment", "a=lenet", "--deployment", "b=lenet")
        self._serve(*tenants)
        plain = _uplink_megabytes(capsys.readouterr().out)
        self._serve(*tenants, "--quantize-bits", "8")
        quantized = _uplink_megabytes(capsys.readouterr().out)
        assert len(plain) == len(quantized) == 2
        assert all(0 < q <= p / 2 for q, p in zip(quantized, plain))

    def test_sharded_path_refuses_admission(self, capsys):
        assert self._serve("--shards", "1", "--max-pending", "4") == 2
        out, err = capsys.readouterr()
        assert err.startswith("repro: error: max_pending")
        assert "training" not in out

    @pytest.mark.parametrize(
        "flags, refused",
        [
            (["--deployment", "a=lenet", "--compare-sequential"],
             "--compare-sequential"),
            (["--shards", "1", "--compare-sequential"], "--compare-sequential"),
            (["--deployment", "a=lenet", "--network", "svhn"], "--network"),
            (["--trace", "bursty"], "--trace"),
            (["--deployment", "a=lenet", "--trace-rate", "500"], "--trace-rate"),
            (["--shuffle-seed", "3"], "shuffle_seed"),
        ],
    )
    def test_flags_a_path_cannot_honour_are_refused(self, flags, refused, capsys):
        assert self._serve(*flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and refused in err
