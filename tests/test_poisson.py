import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import closedstring as cs
from closedstring import poisson
from closedstring.ddf import DDFInvariantSpec
from closedstring.errors import GradientMismatch
from closedstring.numerics import TAU
from closedstring.pohlmeyer import InvariantSpec
from closedstring.poisson import (Observable, bracket,
                                  chart_for, coordinate_observable,
                                  ddf_invariant_observable,
                                  finite_difference_gradient, gradient,
                                  invariance_report, pohlmeyer_observable,
                                  product_observable,
                                  smeared_momentum_observable,
                                  smeared_position_observable, virasoro_mode)
from closedstring.verify import NEGATIVE_CONTROLS
from oracles import (central_difference_8, ddf_invariant_oscillator_derivatives,
                     dense_bracket_residues, dense_omega, stencil_gradient,
                     virasoro_mode_direct, witt_target)


@pytest.fixture(scope="module")
def state(frame4):
    return cs.random_state(4, 8, seed=6, frame=frame4)


@pytest.fixture(scope="module")
def chart(state):
    return chart_for(state)


# ----------------------------------------------------------------------
# chart
# ----------------------------------------------------------------------

@given(st.integers(0, 2 ** 16))
@settings(max_examples=10)
def test_pack_unpack_bit_exact(seed):
    st_ = cs.random_state(3, 2, seed=seed, frame=cs.default_frame(3))
    chart = chart_for(st_)
    back = chart.unpack(chart.pack(st_), st_)
    for f in ("x", "p", "left", "right"):
        assert np.array_equal(getattr(back, f), getattr(st_, f))


def test_omega_antisymmetric_and_norm(chart):
    omega = dense_omega(chart)
    assert np.max(np.abs(omega + omega.T)) == 0.0
    assert chart.omega_norm() == pytest.approx(float(np.linalg.norm(omega, 2)), rel=1e-14)


@pytest.mark.parametrize("truncation", [1, 8, 16])
def test_apply_omega_matches_dense_oracle(truncation):
    chart = poisson.CoordinateChart(4, truncation)
    rng = np.random.default_rng(truncation)
    omega = dense_omega(chart)
    for _ in range(3):
        v = rng.standard_normal(chart.size) + 1j * rng.standard_normal(chart.size)
        assert np.array_equal(chart.apply_omega(v), omega @ v)
    assert np.array_equal(chart.omega(), omega)


def test_mode_brackets_from_chart(state, chart):
    # {Re alpha_m^mu, Im alpha_m^nu} = (m/2) eta^{mu nu}, everything else 0
    b = chart._blocks()
    d = chart.dim
    eta = cs.minkowski(d)
    for m in (1, 3):
        for mu in range(d):
            re_idx = b["re_left"].start + (m - 1) * d + mu
            im_idx = b["im_left"].start + (m - 1) * d + mu
            f = coordinate_observable(chart, re_idx)
            g = coordinate_observable(chart, im_idx)
            val = bracket(f, g, state)
            assert val == pytest.approx(m / 2.0 * eta[mu])
    # cross-sector vanishes
    f = coordinate_observable(chart, b["re_left"].start)
    g = coordinate_observable(chart, b["im_right"].start)
    assert bracket(f, g, state) == pytest.approx(0.0, abs=1e-14)


def test_zero_mode_bracket(state, chart):
    # {x^mu, p^nu} = eta^{mu nu}
    for mu in range(4):
        for nu in range(4):
            f = coordinate_observable(chart, mu)
            g = coordinate_observable(chart, 4 + nu)
            expected = -1.0 if mu == nu == 0 else (1.0 if mu == nu else 0.0)
            assert bracket(f, g, state) == pytest.approx(expected, abs=1e-14)


# ----------------------------------------------------------------------
# gradients
# ----------------------------------------------------------------------

def test_gradient_of_coordinate_is_unit_vector(state, chart):
    for idx in (0, 5, 17, chart.size - 1):
        g = gradient(coordinate_observable(chart, idx), state, check=False)
        e = np.zeros(chart.size)
        e[idx] = 1.0
        assert np.max(np.abs(g - e)) < 1e-14


def test_coordinate_observable_reads_the_packed_chart(state, chart):
    # every coordinate of the D=4, M=8 chart reads chart.pack, and its label
    # names the state entry it holds
    y = chart.pack(state)
    assert chart.size == 2 * 4 + 4 * 8 * 4
    for i in range(chart.size):
        obs = coordinate_observable(chart, i)
        assert obs.fn(state) == y[i]
        block, _, where = obs.name.removeprefix("coord:").rstrip("]").partition("[")
        if block in ("x", "p"):
            assert y[i] == getattr(state, block)[int(where)]
        else:
            m, mu = (int(part.split("=")[1]) for part in where.split(","))
            part, sector = block.split("_")
            entry = getattr(state, sector)[m - 1, mu]
            assert y[i] == (entry.real if part == "re" else entry.imag)


def test_coordinate_observable_rejects_an_index_outside_the_chart(chart):
    # -1 used to construct, and failed only when evaluated
    for index in (-1, chart.size):
        with pytest.raises(IndexError):
            coordinate_observable(chart, index)


def test_gradient_degree_one_closed_form(state, chart):
    # Z^mu = sqrt(2 pi) alpha_0^mu = sqrt(2 pi) p^mu / sqrt(4 pi T):
    # gradient lives in the p-block only
    obs = pohlmeyer_observable(InvariantSpec("-", (2,)), 256)
    g = gradient(obs, state, check=False)
    expected = np.zeros(chart.size, complex)
    expected[4 + 2] = np.sqrt(TAU) / np.sqrt(2 * TAU * state.tension)
    assert np.max(np.abs(g - expected)) < 1e-11


def test_gradient_virasoro_vs_finite_differences(state):
    obs = virasoro_mode("-", 0, 256)
    g = gradient(obs, state, check=False)
    fd = finite_difference_gradient(obs, state)
    scale = np.max(np.abs(g))
    assert np.max(np.abs(g - fd)) < 1e-6 * scale


def test_gradient_check_contract(state):
    # the built-in cross-check passes for honest observables ...
    gradient(virasoro_mode("-", 1, 256), state, check=True)
    # ... and trips on one whose chart gradient is wrong
    broken = Observable(name="broken", fn=lambda s: complex(s.p[0]),
                        chart_gradient=lambda s: np.zeros(chart_for(s).size, complex))
    with pytest.raises(GradientMismatch):
        gradient(broken, state, check=True)


# ----------------------------------------------------------------------
# brackets
# ----------------------------------------------------------------------

def test_bracket_antisymmetry(state):
    obs = virasoro_mode("-", 2, 256)
    assert abs(bracket(obs, obs, state)) < 1e-12


def test_bracket_leibniz_random_triples(state, chart):
    rng = np.random.default_rng(2)
    for _ in range(5):
        i, j, k = rng.integers(0, chart.size, 3)
        f = coordinate_observable(chart, int(i))
        g = coordinate_observable(chart, int(j))
        h = coordinate_observable(chart, int(k))
        lhs = bracket(f, product_observable(g, h), state)
        rhs = (complex(g.fn(state)) * bracket(f, h, state)
               + bracket(f, g, state) * complex(h.fn(state)))
        scale = abs(lhs) + abs(complex(g.fn(state))) + abs(complex(h.fn(state))) + 1.0
        assert abs(lhs - rhs) < 1e-6 * scale


def test_smeared_canonical_pairing(state):
    # {int phi eta(e, X), int psi eta(e', P)} = eta(e, e') oint phi psi
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    cases = [
        (("cos", 2), ("cos", 2), e1, e1, np.pi * 1.0),
        (("sin", 3), ("sin", 3), e0, e0, np.pi * -1.0),
        (("cos", 1), ("sin", 1), e1, e1, 0.0),
        (("cos", 2), ("cos", 3), e1, e1, 0.0),
        (("sin", 1), ("sin", 1), e1, np.array([0, 0, 1, 0.0]), 0.0),
    ]
    for (k1, h1), (k2, h2), ea, eb, expected in cases:
        f = smeared_position_observable(h1, k1, ea, 256)
        g = smeared_momentum_observable(h2, k2, eb, 256)
        val = bracket(f, g, state)
        assert abs(val - expected) < 1e-8 * (1 + abs(expected))


def test_virasoro_observable_matches_mode_formula(state):
    for chir in ("-", "+"):
        for m in (0, 1, -2, 4):
            quad = complex(virasoro_mode(chir, m, 512).fn(state))
            direct = virasoro_mode_direct(state, chir, m)
            assert abs(quad - direct) < 1e-12 * (1 + abs(direct))


def test_virasoro_zero_oscillator_value():
    p = np.array([1.0, 0.4, 0.0, -0.2])
    st_ = cs.StringState(dim=4, tension=cs.DEFAULT_TENSION, truncation=2,
                         x=np.zeros(4), p=p,
                         left=np.zeros((2, 4), complex), right=np.zeros((2, 4), complex))
    l0 = complex(virasoro_mode("-", 0, 128).fn(st_))
    alpha0 = st_.alpha0
    assert l0 == pytest.approx(0.5 * cs.eta_dot(alpha0, alpha0))
    c = p / (TAU * np.sqrt(2 * st_.tension))
    assert l0 == pytest.approx(np.pi * cs.eta_dot(c, c))
    assert abs(complex(virasoro_mode("-", 2, 128).fn(st_))) < 1e-15


def test_witt_algebra_small_window(state, chart):
    grads = {m: gradient(virasoro_mode("-", m, 512), state, check=False)
             for m in range(-2, 3)}
    residues = dense_bracket_residues(chart, {m: grads[m] for m in (-2, 0, 1, 2)},
                                      {k: grads[k] for k in (-2, -1, 1, 2)},
                                      witt_target(state, "-"))
    assert len(residues) == 16 and max(residues.values()) <= 1e-5


# ----------------------------------------------------------------------
# Virasoro windows
# ----------------------------------------------------------------------

WINDOW = range(-4, 5)


@pytest.mark.parametrize("chir", ["-", "+"])
def test_window_rows_are_the_scalar_gradients(state, chart, chir):
    rows = gradient(virasoro_mode(chir, WINDOW, 512), state, check=False)
    assert rows.shape == (len(WINDOW), chart.size)
    for m, row in zip(WINDOW, rows):
        scalar = gradient(virasoro_mode(chir, m, 512), state, check=False)
        assert np.max(np.abs(row - scalar)) <= 1e-13 * np.max(np.abs(scalar))


@pytest.mark.parametrize("chir", ["-", "+"])
def test_window_gradient_matches_finite_differences(state, chir):
    window = virasoro_mode(chir, WINDOW, 512)
    ad = gradient(window, state, check=False)
    fd = finite_difference_gradient(window, state)
    assert fd.shape == ad.shape
    # A12's measure, per element
    scale = np.max(np.abs(ad), axis=-1, keepdims=True)
    assert np.max(np.abs(ad - fd) / (np.abs(ad) + scale)) <= 1e-5


@pytest.mark.parametrize("chir", ["-", "+"])
def test_window_values_match_mode_formula(state, chir):
    values = virasoro_mode(chir, WINDOW, 512).fn(state)
    for m, val in zip(WINDOW, values):
        direct = virasoro_mode_direct(state, chir, m)
        assert abs(val - direct) < 1e-12 * (1 + abs(direct))


@pytest.mark.parametrize("chir", ["-", "+"])
def test_window_gradient_check(state, chir):
    gradient(virasoro_mode(chir, WINDOW, 256), state, check=True)
    # a vector observable whose second element carries a wrong derivative
    def chart_gradient(s):
        out = np.zeros((2, chart_for(s).size), complex)
        out[0, 4] = 1.0
        return out

    broken = Observable(name="broken-vector",
                        fn=lambda s: np.asarray([complex(s.p[0]), complex(s.p[1])]),
                        chart_gradient=chart_gradient)
    with pytest.raises(GradientMismatch, match=r"element \(1,\)"):
        gradient(broken, state, check=True)


def test_window_beyond_truncation_raises(state):
    window = virasoro_mode("-", [0, 9])
    with pytest.raises(ValueError, match="exceeds the truncation"):
        window.fn(state)
    with pytest.raises(ValueError, match="exceeds the truncation"):
        gradient(window, state, check=False)


def test_window_takes_its_truncation_and_dimension_from_the_state():
    # one observable over |m| <= 6 serves every state with M >= 6, whatever its D
    window = virasoro_mode("-", range(-6, 7))
    big = cs.random_state(4, 8, 1)
    values = window.fn(big)
    assert values.shape == (13,)
    for m, value in zip(range(-6, 7), values):
        assert value == pytest.approx(virasoro_mode_direct(big, "-", m), rel=1e-12, abs=1e-12)
    assert gradient(window, big, check=False).shape == (13, chart_for(big).size)
    assert gradient(window, cs.random_state(3, 8, 2), check=False).shape == (13, 2 * 3 + 4 * 8 * 3)
    small = cs.random_state(4, 4, 1)
    for read in (window.fn, lambda st: gradient(window, st, check=False)):
        with pytest.raises(ValueError, match="M = 4"):
            read(small)


# ----------------------------------------------------------------------
# invariance reports
# ----------------------------------------------------------------------

def test_invariance_report_pohlmeyer(state):
    obs = pohlmeyer_observable(InvariantSpec("-", (0, 1), symmetrized=True), 512)
    [rows] = invariance_report([obs], state, m_window=3)
    assert all(r["pass"] for r in rows)
    assert {(r["chirality"], r["m"]) for r in rows} == {(c, m) for c in "+-" for m in range(-3, 4)}
    assert rows == sorted(rows, key=lambda r: (r["chirality"], r["m"]))


def test_invariance_report_matched_vs_unmatched(state, frame4):
    matched = ddf_invariant_observable(
        DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1), frame4, 512)
    [rows] = invariance_report([matched], state, m_window=3)
    assert max(r["residue"] for r in rows) <= 1e-5

    unmatched = ddf_invariant_observable(
        DDFInvariantSpec(left=[], right=[], level=1, allow_unmatched=True), frame4, 512)
    [rows] = invariance_report([unmatched], state, m_window=3)
    assert max(r["residue"] for r in rows) >= 1e-2


def test_invariance_report_window_guard(state):
    obs = pohlmeyer_observable(InvariantSpec("-", (0,)), 256)
    with pytest.raises(ValueError):
        invariance_report([obs], state, m_window=5)  # > M/2


# ----------------------------------------------------------------------
# JSON descriptions
# ----------------------------------------------------------------------

DDF_CONFIG = {"type": "ddf", "left": [[1, 1]], "right": [[2, 1]]}


@pytest.mark.parametrize("cfg", [
    {"type": "virasoro", "chirality": "-", "m": 1.5},
    {"type": "virasoro", "chirality": "-", "m": 1.0},
    {"type": "virasoro", "chirality": "-", "m": "1"},
    {"type": "virasoro", "chirality": "-", "m": True},
    {**DDF_CONFIG, "level": 1.9},
    {**DDF_CONFIG, "level": "1"},
    {**DDF_CONFIG, "level": True},
    *({"type": "virasoro", "chirality": "-", "m": 1, "n": n} for n in (256.0, "512", True)),
])
def test_config_integers_are_json_integers(frame4, cfg):
    # read through int(), 1.5, "1" and true all meant L_1, and level 1.9 meant
    # level 1; an unchecked n fails deep inside, in a message that names no key
    key = "n" if "n" in cfg else "m" if cfg["type"] == "virasoro" else "level"
    with pytest.raises(TypeError, match=f"'{key}' must be a JSON integer"):
        poisson.observable_from_config(cfg, frame4)


def test_config_integers_build_their_observables(state, frame4):
    lm = poisson.observable_from_config({"type": "virasoro", "chirality": "-", "m": -2}, frame4)
    assert lm.fn(state) == virasoro_mode("-", -2).fn(state)
    spec = DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1)
    ddf = poisson.observable_from_config({**DDF_CONFIG, "level": 1}, frame4)
    assert ddf.name == ddf_invariant_observable(spec, frame4).name
    assert ddf.fn(state) == ddf_invariant_observable(spec, frame4).fn(state)


# ----------------------------------------------------------------------
# reverse route against independent oracles
# ----------------------------------------------------------------------

def _worst_row_rel(got, oracle):
    return float(np.max(np.abs(got - oracle) / np.max(np.abs(oracle), axis=-1, keepdims=True)))


@pytest.mark.parametrize("truncation", [1, 8, 16])
@pytest.mark.parametrize("chir", ["-", "+"])
def test_virasoro_reverse_route_matches_stencil(truncation, chir):
    # L_m is quadratic in the chart
    w = max(truncation // 2, 1)
    for seed in (1, 2, 3):
        st_ = cs.random_state(4, truncation, seed)
        chart = chart_for(st_)
        for m in (range(-w, w + 1), range(-truncation, truncation + 1), 0, 1, -truncation):
            obs = virasoro_mode(chir, m, 512)
            got = gradient(obs, st_, check=False)
            oracle = stencil_gradient(obs, st_, chart)
            assert got.shape == oracle.shape
            assert _worst_row_rel(got, oracle) <= 1e-13


def test_virasoro_phase_is_built_by_the_first_gradient(monkeypatch, state):
    # values never read the (K, n) phase; the first gradient builds it and keeps it
    built = []
    half_basis = poisson._half_basis
    monkeypatch.setattr(poisson, "_half_basis", lambda *args: built.append(args) or half_basis(*args))
    window = virasoro_mode("+", range(-4, 5), 512)
    window.fn(state)
    assert built == []
    grads = gradient(window, state, check=False)
    assert np.array_equal(gradient(window, state, check=False), grads)
    assert len(built) == 1
    assert _worst_row_rel(grads, stencil_gradient(window, state, chart_for(state))) <= 1e-13


DDF_SPECS = [DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1),  # the poisson suite's
              *NEGATIVE_CONTROLS,
              DDFInvariantSpec(left=[(1, 1), (1, 1)], right=[(2, 1), (3, 1)], level=2),
              DDFInvariantSpec(left=[(1, 2), (3, -2), (2, 1)], right=[(2, 2), (0, -1)], level=1)]


@pytest.mark.parametrize("truncation", [1, 8, 16])
def test_ddf_reverse_route_matches_oracles(truncation, frame4):
    for seed in (1, 2, 3):
        st_ = cs.random_state(4, truncation, seed, frame=frame4)
        chart = chart_for(st_)
        observables = [ddf_invariant_observable(spec, frame4, 512) for spec in DDF_SPECS]
        got = np.array([gradient(obs, st_, check=False) for obs in observables])
        scale = np.max(np.abs(got), axis=-1, keepdims=True)
        exact = ddf_invariant_oscillator_derivatives(st_, frame4, DDF_SPECS, 512)
        assert np.max(np.abs(got[:, 2 * st_.dim:] - exact) / scale) <= 1e-12
        y0 = chart.pack(st_)
        for obs, row, row_scale in zip(observables, got, scale):
            for i in range(2 * st_.dim):  # x and p
                fd = central_difference_8(lambda y: complex(obs.fn(chart.unpack(y, st_))), y0, i,
                                          3e-3 * (1.0 + abs(y0[i])))
                assert abs(row[i] - fd) <= 1e-8 * row_scale[0]


def _sweep_observables(chart, frame4):
    # x[1] and the unmatched control do not commute with the L_m; the others do
    return [coordinate_observable(chart, 1),
            pohlmeyer_observable(InvariantSpec("-", (0, 1), symmetrized=True), 256),
            ddf_invariant_observable(
                DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1), frame4, 256),
            ddf_invariant_observable(
                DDFInvariantSpec(left=[], right=[], level=1, allow_unmatched=True), frame4, 256)]


def test_sweep_computes_each_gradient_once(state, chart, frame4, monkeypatch):
    calls = []

    def counting(obs, *args, **kwargs):
        calls.append(obs.name)
        return gradient(obs, *args, **kwargs)

    monkeypatch.setattr(poisson, "gradient", counting)
    observables = _sweep_observables(chart, frame4)
    window = 2
    reports = invariance_report(observables, state, window, n_samples=256)
    assert len(reports) == len(observables)
    # one gradient per observable and one window gradient per chirality
    assert len(calls) == len(observables) + 2
    assert len(set(calls)) == len(calls)


def test_sweep_residues_match_direct_brackets(state, chart, frame4):
    observables = _sweep_observables(chart, frame4)
    grads = {(c, m): gradient(virasoro_mode(c, m, 256), state, check=False)
             for c in "+-" for m in range(-2, 3)}
    reports = invariance_report(observables, state, 2, n_samples=256)
    for obs, rows in zip(observables, reports):
        assert [(r["observable"], r["chirality"], r["m"]) for r in rows] == \
            [(obs.name, c, m) for c in "+-" for m in range(-2, 3)]
        want = dense_bracket_residues(chart, {obs.name: gradient(obs, state, check=False)}, grads,
                                      lambda i, j: 0.0)
        for r in rows:
            # residues are normalized to at most 1, so abs=1e-12 is relative to that scale
            assert r["residue"] == pytest.approx(want[obs.name, (r["chirality"], r["m"])],
                                                 rel=1e-12, abs=1e-12)
            assert r["pass"] == (r["residue"] <= 1e-5)
    peaks = [max(r["residue"] for r in rows) for rows in reports]
    assert peaks[0] >= 1e-2 and peaks[3] >= 1e-2
    assert peaks[1] <= 1e-5 and peaks[2] <= 1e-5
