import json
import time

import numpy as np
import pytest

import closedstring as cs
from closedstring.cli import main


def run(argv):
    return main(argv)


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["generate", "--dim", "4", "--modes", "8", "--seed", "42",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    state = cs.state_from_json(a.read_text())
    assert state.truncation == 8 and state.dim == 4


def test_eval_field_csv(tmp_path):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "1", "--out", str(sp)])
    out = tmp_path / "field.csv"
    assert run(["eval", "--state", str(sp), "--grid", "64", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sigma,value0,value1,value2,value3"
    assert len(lines) == 65
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    grid = cs.eval_field(cs.state_from_json(sp.read_text()), "-", 64)
    assert np.allclose(table[:, 1:], grid.values, atol=1e-12)


def test_eval_clock_csv(tmp_path):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "2", "--out", str(sp)])
    out = tmp_path / "clock.csv"
    assert run(["eval", "--state", str(sp), "--grid", "64", "--quantity", "clock",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "sigma,R,dR"


def test_ddf_command(tmp_path):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "3", "--out", str(sp)])
    out = tmp_path / "m.json"
    assert run(["ddf", "--state", str(sp), "--grid", "512", "--modes-out", "16",
                "--out", str(out)]) == 0
    modes = cs.ddfmodes_from_json(out.read_text())
    assert modes.m_max == 16
    direct = cs.ddf_modes(cs.state_from_json(sp.read_text()), cs.default_frame(4), "-", 16, 512)
    assert np.max(np.abs(modes.modes - direct.modes)) < 1e-15


def test_pohlmeyer_command_via_ddf(tmp_path, capsys):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "4", "--out", str(sp)])
    assert run(["pohlmeyer", "--state", str(sp), "--indices", "0,1",
                "--grid", "1024", "--via-ddf", "--modes-out", "128"]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert set(doc) >= {"direct", "via_ddf", "abs_difference"}
    assert doc["abs_difference"] <= 1e-6 * (abs(doc["direct"]) + 1)


def test_bracket_command(tmp_path, capsys):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "5", "--out", str(sp)])
    f = json.dumps({"type": "pohlmeyer", "chirality": "-", "indices": [0, 1],
                    "symmetrized": True})
    g = json.dumps({"type": "virasoro", "chirality": "-", "m": 2})
    assert run(["bracket", "--state", str(sp), "--f", f, "--g", g, "--grid", "256"]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert abs(complex(doc["bracket_re"], doc["bracket_im"])) < 1e-6


def test_verify_report_and_exit_codes(tmp_path, capsys):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "6", "--out", str(sp)])
    rp = tmp_path / "r.json"
    code = run(["verify", "--state", str(sp), "--suite", "reality", "--suite", "shuffle",
                "--grid", "1024", "--report", str(rp)])
    assert code == 0
    report = json.loads(rp.read_text())
    assert report["pass"] is True
    assert report["config"]["params"]["n"] == 1024
    assert all(set(r) >= {"name", "inputs", "measured", "tolerance", "pass"}
               for r in report["rows"])
    assert report["version"] == cs.__version__

    # an absurd tolerance override must flip the exit code to 1
    code = run(["verify", "--state", str(sp), "--suite", "reality", "--grid", "1024",
                "--tolerance", "reality=1e-30", "--report", str(tmp_path / "bad.json")])
    assert code == 1
    capsys.readouterr()


def test_readme_verify_example_passes_on_a_tame_state(tmp_path, capsys):
    # seed 44 alone fails the negative-controls ensemble check (each unmatched
    # control must reach its floor on some state); README's example adds seeds
    sp, rp = tmp_path / "s.json", tmp_path / "report.json"
    assert run(["generate", "--dim", "4", "--modes", "8", "--seed", "44", "--out", str(sp)]) == 0
    assert run(["verify", "--state", str(sp), "--seeds", "1,2,3", "--suite", "all",
                "--report", str(rp)]) == 0
    report = json.loads(rp.read_text())
    assert report["pass"] is True
    assert report["config"]["provenance"]["generator_seeds"] == [1, 2, 3]
    capsys.readouterr()


def test_verify_usage_and_degenerate_exit_codes(tmp_path, capsys):
    assert run(["verify"]) == 2  # no states

    # k.p = 0: degenerate input -> exit 3
    state = cs.StringState(dim=4, tension=cs.DEFAULT_TENSION, truncation=1,
                           x=np.zeros(4), p=np.array([1.0, 1.0, 0.0, 0.0]),
                           left=np.zeros((1, 4), complex),
                           right=np.zeros((1, 4), complex))
    sp = tmp_path / "degenerate.json"
    sp.write_text(cs.state_to_json(state))
    assert run(["verify", "--state", str(sp), "--suite", "periodicity",
                "--grid", "64"]) == 3
    assert run(["bogus-subcommand"]) == 2
    capsys.readouterr()


def test_bracket_accepts_bare_invariant_request(tmp_path, capsys):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "8", "--out", str(sp)])
    f = json.dumps({"chirality": "-", "indices": [0, 1, 2], "symmetrized": False})
    g = json.dumps({"type": "virasoro", "chirality": "+", "m": 1})
    assert run(["bracket", "--state", str(sp), "--f", f, "--g", g, "--grid", "256"]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["f"].startswith("Z[-]")


def test_bracket_rejects_non_integer_indices(tmp_path, capsys):
    # read through int(), m = 1.5, "1" or true bracketed L_1, and level 1.9
    # made a matched level-1 invariant; each exited 0.  An unchecked n =
    # 256.0, "512" or true fails deep inside, in a message that names no key
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "8", "--out", str(sp)])
    g = json.dumps({"type": "virasoro", "chirality": "+", "m": 1})
    for f in ({"chirality": "-", "indices": [0, 1.5]},
              {"type": "ddf", "left": [[1, 1.0]], "right": [[2, 1]], "level": 1},
              *({"type": "virasoro", "chirality": "-", "m": m} for m in (1.5, "1", True)),
              {"type": "ddf", "left": [[1, 1]], "right": [[2, 1]], "level": 1.9},
              *({"type": "virasoro", "chirality": "-", "m": 1, "n": n} for n in (256.0, "512", True))):
        assert run(["bracket", "--state", str(sp), "--f", json.dumps(f), "--g", g,
                    "--grid", "256"]) == 2
        assert "integer" in capsys.readouterr().err


def test_bracket_rejects_unknown_observable_keys(tmp_path, capsys):
    # a misspelt key must not fall back to its default: "symetrized" would
    # bracket the raw word and exit 0
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "8", "--out", str(sp)])
    g = json.dumps({"type": "virasoro", "chirality": "-", "m": 1})
    for f, key, known in (
            ({"type": "pohlmeyer", "chirality": "-", "indices": [0, 1], "symetrized": True},
             "symetrized", "'symmetrized'"),
            ({"chirality": "-", "indices": [0, 1], "sym": True}, "sym", "'indices'"),
            ({"type": "virasoro", "chirality": "-", "m": 1, "n_samples": 128},
             "n_samples", "'m'"),
            ({"type": "ddf", "left": [[1, 1]], "right": [[2, 1]], "level": 1,
              "allow_unmached": True}, "allow_unmached", "'allow_unmatched'")):
        _assert_usage_error(["bracket", "--state", str(sp), "--f", json.dumps(f), "--g", g,
                             "--grid", "256"], capsys, repr(key), known)


def test_bracket_requires_json_booleans_for_flags(tmp_path, capsys):
    # the string "false" is truthy: read through bool() it meant true
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "8", "--out", str(sp)])
    g = json.dumps({"type": "virasoro", "chirality": "-", "m": 1})
    for f, key in (({"type": "pohlmeyer", "chirality": "-", "indices": [0, 1],
                     "symmetrized": "false"}, "symmetrized"),
                   ({"chirality": "-", "indices": [0, 1], "symmetrized": 1}, "symmetrized"),
                   ({"type": "ddf", "left": [[1, 1]], "right": [[2, 2]], "level": 1,
                     "allow_unmatched": "true"}, "allow_unmatched")):
        _assert_usage_error(["bracket", "--state", str(sp), "--f", json.dumps(f), "--g", g,
                             "--grid", "256"], capsys, repr(key), "JSON boolean")
    for f in ([0, 1], "pohlmeyer"):
        _assert_usage_error(["bracket", "--state", str(sp), "--f", json.dumps(f), "--g", g,
                             "--grid", "256"], capsys, "JSON object")


def _assert_usage_error(argv, capsys, *needles):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_out_of_range_indices_are_usage_errors(tmp_path, capsys):
    # an index outside 0..D-1 is a usage error (exit 2, not the check-failed
    # 1), and a DDF factor mu = -1 must not wrap around to mu = D - 1
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "8", "--out", str(sp)])
    _assert_usage_error(["pohlmeyer", "--state", str(sp), "--indices", "0,9", "--grid", "256"],
                        capsys, "dim 4")
    g = json.dumps({"type": "virasoro", "chirality": "-", "m": 1})
    for f, needles in (({"chirality": "-", "indices": [0, 4]}, ("dim 4",)),
                       ({"type": "ddf", "left": [[4, 1]], "right": [[2, 1]], "level": 1},
                        ("(4, 1)", "D = 4")),
                       ({"type": "ddf", "left": [[1, 1]], "right": [[-1, 1]], "level": 1},
                        ("(-1, 1)", "D = 4"))):
        _assert_usage_error(["bracket", "--state", str(sp), "--f", json.dumps(f), "--g", g,
                             "--grid", "256"], capsys, *needles)


def test_verify_seeds_provenance(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["verify", "--seeds", "5,9", "--suite", "reality",
                "--grid", "1024", "--report", str(rp)]) == 0
    doc = json.loads(rp.read_text())
    assert doc["config"]["provenance"]["generator_seeds"] == [5, 9]


def test_generate_shape_errors_name_the_bound(tmp_path, capsys):
    # each bad shape names its bound instead of failing inside the frame or the draw
    out = str(tmp_path / "s.json")
    for argv, needle in ((["--dim", "1"], "dim >= 2"), (["--modes", "0"], "truncation >= 1"),
                         (["--decay", "nan"], "decay > 0"), (["--decay", "0"], "decay > 0")):
        _assert_usage_error(["generate", "--seed", "1", *argv, "--out", out], capsys, needle)


def test_verify_seeds_are_drawn_in_the_given_frame(tmp_path):
    # generated states keep their R' margin in the frame given, not only the default one
    rp = tmp_path / "r.json"
    assert run(["verify", "--seeds", "1,2,3,4,5,6", "--frame", "1,0,1,0",
                "--suite", "periodicity", "--grid", "1024", "--report", str(rp)]) == 0
    doc = json.loads(rp.read_text())
    assert doc["rows"] and all(r["pass"] for r in doc["rows"])
    assert doc["config"]["frame"] == [1.0, 0.0, 1.0, 0.0]


def test_thread_env_override(monkeypatch):
    from closedstring.verify import THREAD_ENV, thread_count

    monkeypatch.setenv(THREAD_ENV, "3")
    assert thread_count() == 3
    monkeypatch.delenv(THREAD_ENV)
    assert thread_count() >= 1


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_thread_env_rejects_bad_value(monkeypatch, capsys, value):
    from closedstring.verify import THREAD_ENV

    monkeypatch.setenv(THREAD_ENV, value)
    assert run(["verify", "--seeds", "1", "--suite", "reality", "--grid", "256"]) == 2
    assert THREAD_ENV in capsys.readouterr().err


def test_verify_thread_count_independence(tmp_path):
    given = []
    for seed in ("7", "8"):
        sp = tmp_path / f"s{seed}.json"
        run(["generate", "--seed", seed, "--out", str(sp)])
        given += ["--state", str(sp)]
    reports = []
    for threads in ("1", "2", "4"):
        rp = tmp_path / f"r{threads}.json"
        assert run(["verify", *given, "--suite", "all", "--grid", "1024", "--modes-out", "128",
                    "--threads", threads, "--report", str(rp)]) == 0
        doc = json.loads(rp.read_text())
        doc["config"].pop("threads")
        doc.pop("timings")
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]


def test_verify_suite_timings_are_wall_and_cpu():
    from closedstring.verify import run_suites

    frame = cs.default_frame(4)
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2, 3, 4)]
    t0 = time.perf_counter()
    report = run_suites(["periodicity", "reality"], states, frame,
                        params={"n": 1024}, threads=2)
    wall = time.perf_counter() - t0
    assert set(report["timings"]) == {"periodicity", "reality"}
    for t in report["timings"].values():
        assert 0.0 <= t["wall_s"] <= wall
        assert t["cpu_s"] >= 0.0


def test_frame_dimension_mismatch_is_usage_error(tmp_path, capsys):
    sp = tmp_path / "s.json"
    run(["generate", "--seed", "3", "--out", str(sp)])
    out = str(tmp_path / "out")
    for argv in (["ddf", "--state", str(sp), "--grid", "512", "--out", out],
                 ["eval", "--state", str(sp), "--grid", "64", "--out", out],
                 ["verify", "--state", str(sp), "--suite", "reality", "--grid", "1024"]):
        capsys.readouterr()
        assert run(argv + ["--frame", "1,1"]) == 2
        assert "frame has dimension 2, state has 4" in capsys.readouterr().err


def test_verify_numeric_flags_at_zero_are_not_ignored(tmp_path, capsys):
    rp = tmp_path / "r.json"
    base = ["verify", "--seeds", "1", "--suite", "reality", "--grid", "256"]
    assert run(base + ["--modes-out", "0", "--report", str(rp)]) == 0
    assert json.loads(rp.read_text())["config"]["params"]["m_out"] == 0

    # a zero grid reaches the suites, which reject it (it used to run at 4096)
    capsys.readouterr()
    assert run(["verify", "--seeds", "1", "--suite", "reality", "--grid", "0"]) == 2
    assert "grid size 0" in capsys.readouterr().err


def test_verify_rejects_m_window_out_of_range(capsys):
    # M = 8 for generated states, so the window runs 1..4
    for window in ("0", "5", "-1"):
        capsys.readouterr()
        assert run(["verify", "--seeds", "1", "--suite", "witt", "--m-window", window]) == 2
        assert "m_window" in capsys.readouterr().err


def test_verify_rejects_zero_threads(capsys):
    assert run(["verify", "--seeds", "1", "--suite", "reality", "--grid", "256",
                "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


def test_verify_runs_a_suite_named_twice_once(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["verify", "--seeds", "1,2", "--suite", "reality", "--suite", "periodicity",
                "--suite", "reality", "--grid", "256", "--report", str(rp)]) == 0
    report = json.loads(rp.read_text())
    assert report["config"]["suites"] == ["reality", "periodicity"]
    names = [(r["suite"], r["state_index"], r["name"]) for r in report["rows"]]
    assert len(names) == len(set(names)) == 8  # 2 suites x 2 states x 2 chiralities


def test_verify_rejects_an_unknown_suite_beside_all(monkeypatch, capsys):
    # `all` used to replace every other name, so a misspelt one was dropped
    from closedstring import verify

    ran = []
    for name in verify.suite_names():
        monkeypatch.setitem(verify.SUITES, name, lambda record, tols: ran.append(record) or [])
    assert run(["verify", "--seeds", "1", "--suite", "all", "--suite", "bogus"]) == 2
    assert ran == []
    assert "bogus" in capsys.readouterr().err


def test_verify_expands_all_in_place(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["verify", "--seeds", "1,2", "--suite", "reality", "--suite", "all", "--grid", "1024",
                "--modes-out", "128", "--report", str(rp)]) == 0
    from closedstring.verify import suite_names

    suites = json.loads(rp.read_text())["config"]["suites"]
    assert suites == ["reality"] + [nm for nm in suite_names() if nm != "reality"]


def test_verify_rejects_an_unknown_tolerance_name(capsys):
    # a misspelt name used to land in config.tolerances while the run passed
    # on the default reality tolerance
    assert run(["verify", "--seeds", "1", "--suite", "reality", "--grid", "256",
                "--tolerance", "realty=1e-30"]) == 2
    err = capsys.readouterr().err
    assert "realty" in err and "'reality'" in err
