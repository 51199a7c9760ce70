"""Smoke runs of the example scripts under ``scripts/`` with small arguments."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_invariance_residues_script(capsys):
    _main("invariance_residues")(["--seed", "2", "--window", "1", "--obs-grid", "256"])
    out = capsys.readouterr().out
    assert out.count("(worst ") == 5
    assert out.count("residue ") == 5 * 2 * 3
    # only the unmatched control, printed last, fails the threshold
    assert out.count("fails threshold") == out.split("unmatched")[-1].count("fails threshold") > 0


def test_substitution_convergence_script(capsys):
    _main("substitution_convergence")(["--seeds", "1,2", "--grid", "512", "--degree", "2",
                                       "--cutoffs", "8,32"])
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split() for ln in lines if not ln.startswith("#")][1:]
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(float(r[2]) <= min(float(r[1]), 1e-6) for r in rows)
