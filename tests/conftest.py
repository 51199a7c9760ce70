import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

import closedstring as cs

settings.register_profile("suite", deadline=None, max_examples=25, print_blob=True)
settings.load_profile("suite")

ACCEPTANCE_LINES = []


def record_acceptance(tag, passed, detail):
    ACCEPTANCE_LINES.append((tag, bool(passed), detail))
    print(f"{tag}: {'PASS' if passed else 'FAIL'}  {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for tag, passed, detail in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(f"{tag}: {'PASS' if passed else 'FAIL'}  {detail}")


@pytest.fixture(scope="session")
def frame4():
    return cs.default_frame(4)


@pytest.fixture(scope="session")
def state_bank(frame4):
    """Twenty seeded default-parameter states shared across tests."""
    return [cs.random_state(4, 8, seed=s, frame=frame4) for s in range(1, 21)]


@pytest.fixture(scope="session")
def ddf_bank(state_bank, frame4):
    """DDF modes and clocks at suite defaults (N=4096, M_out=512), cached."""
    out = []
    for st in state_bank:
        entry = {}
        for chir in ("-", "+"):
            entry[chir] = {
                "modes": cs.ddf_modes(st, frame4, chir, 512, 4096),
                "clock": cs.compute_R(st, frame4, chir, 4096),
                "field": cs.eval_field(st, chir, 4096),
            }
        out.append(entry)
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def fft_calls(monkeypatch):
    """numpy's FFT entry points, each call recorded by name in order."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(x, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
