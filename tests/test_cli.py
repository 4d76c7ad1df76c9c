"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, make_policy_factory, make_tree


class TestParsers:
    def test_make_tree_variants(self):
        assert make_tree("path", 5, 0).n == 5
        assert make_tree("star", 5, 0).n == 5
        assert make_tree("random", 8, 1).n == 8
        assert make_tree("binary", 15, 0).n == 15

    def test_make_tree_rejects_unknown(self):
        with pytest.raises(SystemExit):
            make_tree("torus", 5, 0)

    def test_policy_specs(self):
        from repro import ABPolicy, AlwaysLeasePolicy, NeverLeasePolicy, RWWPolicy

        factory, name = make_policy_factory("rww")
        assert isinstance(factory(), RWWPolicy) and name == "RWW"
        factory, _ = make_policy_factory("always")
        assert isinstance(factory(), AlwaysLeasePolicy)
        factory, _ = make_policy_factory("never")
        assert isinstance(factory(), NeverLeasePolicy)
        factory, name = make_policy_factory("ab:2,3")
        p = factory()
        assert isinstance(p, ABPolicy) and (p.a, p.b) == (2, 3) and name == "(2,3)"
        factory, _ = make_policy_factory("random:0.5")
        from repro.core.randomized import RandomBreakPolicy

        assert isinstance(factory(), RandomBreakPolicy)

    def test_policy_spec_errors(self):
        with pytest.raises(SystemExit):
            make_policy_factory("ab:nope")
        with pytest.raises(SystemExit):
            make_policy_factory("random:x")
        with pytest.raises(SystemExit):
            make_policy_factory("magic")


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo", "--topology", "path", "--nodes", "5"]) == 0
        out = capsys.readouterr().out
        assert "global aggregate" in out
        assert "leases installed" in out

    def test_lp(self, capsys):
        assert main(["lp"]) == 0
        out = capsys.readouterr().out
        assert "c = 2.5" in out
        assert "feasible at c = 5/2: yes" in out

    def test_ratio(self, capsys):
        rc = main(["ratio", "--topology", "star", "--nodes", "6",
                   "--length", "100", "--policy", "rww"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "messages" in out

    def test_ratio_save_and_load(self, capsys, tmp_path):
        trace = tmp_path / "wl.jsonl"
        assert main(["ratio", "--topology", "path", "--nodes", "4",
                     "--length", "50", "--save", str(trace)]) == 0
        first = capsys.readouterr().out
        assert main(["ratio", "--topology", "path", "--nodes", "4",
                     "--load", str(trace)]) == 0
        second = capsys.readouterr().out

        def messages(text):
            return [ln for ln in text.splitlines() if "messages" in ln]

        assert messages(first) == messages(second)  # bit-identical replay

    def test_exact_rww(self, capsys):
        assert main(["exact", "--policy", "rww"]) == 0
        assert "5/2" in capsys.readouterr().out

    def test_exact_unbounded(self, capsys):
        assert main(["exact", "--policy", "ttl:3"]) == 0
        assert "UNBOUNDED" in capsys.readouterr().out

    def test_exact_rejects_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["exact", "--policy", "quantum"])

    def test_adversary(self, capsys):
        assert main(["adversary", "--a", "1", "--b", "2",
                     "--rounds", "100", "--strong"]) == 0
        out = capsys.readouterr().out
        assert "ratio: 2.5" in out

    def test_baselines(self, capsys):
        assert main(["baselines", "--topology", "binary", "--nodes", "7",
                     "--length", "100"]) == 0
        out = capsys.readouterr().out
        assert "Astrolabe" in out and "MDS-2" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    # A large output breaks inside ``print``; a small one only at the final
    # flush, with its data still buffered for the interpreter's exit flush.
    @pytest.mark.parametrize(
        "argv", [["verify", "effects", "--json"], ["demo"]], ids=["large", "small"]
    )
    def test_closed_stdout_exits_without_traceback(self, argv):
        # The reader closed its end of the pipe before the first write.
        repo = Path(__file__).resolve().parent.parent
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=repo,
                env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr


class TestExtendedCommands:
    def test_exact_grid(self, capsys):
        assert main(["exact-grid", "--max-a", "1", "--max-b", "2"]) == 0
        out = capsys.readouterr().out
        assert "5/2" in out and "RWW" in out

    def test_gap(self, capsys):
        assert main(["gap", "--topology", "path", "--nodes", "4",
                     "--length", "20"]) == 0
        out = capsys.readouterr().out
        assert "relaxation tight" in out

    def test_chaos(self, capsys):
        assert main(["chaos", "--topology", "random", "--nodes", "6",
                     "--length", "15", "--max-rate-pct", "10",
                     "--step-pct", "10"]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "reliable layer held" in out
        # every swept rate kept goodput identical to the fault-free run
        assert "NO" not in out
