import copy
import dataclasses
import gc
import itertools
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

import closedstring as cs
from closedstring import numerics, pohlmeyer, poisson
from closedstring.numerics import (TAU, simplex_iterated_integral, _alias_free_samples,
                                   _PrefixIntegrals)
from closedstring.pohlmeyer import (InvariantSpec, WilsonConfig,
                                    pohlmeyer_invariant, pohlmeyer_invariants,
                                    pohlmeyer_via_ddf, reparam_check, wilson_loop)
from closedstring.reparam import random_diffeo, pullback_weight_one
from oracles import RotationMap, iterated_integral_modes, stencil_gradient


def zero_osc_state(p, x=None):
    return cs.StringState(dim=4, tension=cs.DEFAULT_TENSION, truncation=1,
                          x=np.zeros(4) if x is None else np.asarray(x, float),
                          p=np.asarray(p, float),
                          left=np.zeros((1, 4), complex), right=np.zeros((1, 4), complex))


# ----------------------------------------------------------------------
# direct invariants
# ----------------------------------------------------------------------

def test_degree_one_is_zero_mode(state_bank):
    state = state_bank[0]
    field = cs.eval_field(state, "-", 1024)
    for mu in range(4):
        z = pohlmeyer_invariant(field, InvariantSpec("-", (mu,)))
        assert abs(z - np.sqrt(TAU) * state.alpha0[mu]) < 1e-12 * (1 + abs(z))


def test_degree_two_zero_oscillators():
    p = np.array([1.0, 0.4, -0.3, 0.2])
    state = zero_osc_state(p)
    field = cs.eval_field(state, "-", 256)
    c = p / (TAU * np.sqrt(2 * state.tension))
    for mu, nu in [(0, 1), (2, 3), (1, 1)]:
        z = pohlmeyer_invariant(field, InvariantSpec("-", (mu, nu)))
        assert abs(z - c[mu] * c[nu] * TAU ** 2 / 2) < 1e-13


def test_degree_three_vs_mode_oracle(state_bank):
    state = state_bank[1]
    field = cs.eval_field(state, "-", 256)
    for word in [(0, 1, 2), (3, 3, 1)]:
        z = pohlmeyer_invariant(field, InvariantSpec("-", word))
        oracle = iterated_integral_modes([field.values[:, mu] for mu in word])
        assert abs(z - oracle) <= 1e-9 * (abs(oracle) + 1e-6)


def test_symmetrized_is_cyclic_average(state_bank):
    state = state_bank[2]
    field = cs.eval_field(state, "-", 512)
    word = (0, 1, 3)
    zs = [pohlmeyer_invariant(field, InvariantSpec("-", word[r:] + word[:r]))
          for r in range(3)]
    sym = pohlmeyer_invariant(field, InvariantSpec("-", word, symmetrized=True))
    assert abs(sym - np.mean(zs)) < 1e-12 * (1 + abs(sym))


def test_index_out_of_range(state_bank):
    field = cs.eval_field(state_bank[0], "-", 256)
    with pytest.raises(IndexError):
        pohlmeyer_invariant(field, InvariantSpec("-", (0, 7)))


def test_spec_rejects_non_integer_indices():
    # a float index is an error, not silently truncated; numpy integers pass
    for indices in ((0.7, 1.9), (np.float64(2.5),), (0, 1.0)):
        with pytest.raises(TypeError):
            InvariantSpec("-", indices)
    spec = InvariantSpec("-", (np.int64(2), np.int32(0), 1))
    assert spec.indices == (2, 0, 1) and all(type(i) is int for i in spec.indices)


def test_spec_error_names_a_bad_chirality():
    with pytest.raises(ValueError, match="got 'L'"):
        InvariantSpec("L", (0,))


def test_shuffle_identities(state_bank):
    state = state_bank[3]
    field = cs.eval_field(state, "-", 1024)
    z1 = {mu: pohlmeyer_invariant(field, InvariantSpec("-", (mu,))) for mu in range(4)}
    z2 = {(a, b): pohlmeyer_invariant(field, InvariantSpec("-", (a, b)))
          for a in range(4) for b in range(4)}
    scale2 = max(abs(v) for v in z2.values()) + max(abs(v) ** 2 for v in z1.values())
    for a in range(4):
        for b in range(4):
            assert abs(z1[a] * z1[b] - z2[(a, b)] - z2[(b, a)]) <= 1e-10 * scale2
    a, b, c = 0, 1, 2
    z3 = {w: pohlmeyer_invariant(field, InvariantSpec("-", w))
          for w in [(a, b, c), (b, a, c), (b, c, a)]}
    lhs = z1[a] * z2[(b, c)]
    rhs = sum(z3.values())
    scale3 = abs(lhs) + max(abs(v) for v in z3.values())
    assert abs(lhs - rhs) <= 1e-9 * scale3


# ----------------------------------------------------------------------
# prefix sharing across words
# ----------------------------------------------------------------------

WORDS4 = sorted(w for deg in range(1, 5) for w in itertools.product(range(4), repeat=deg))


def _all_words(field, words):
    return [pohlmeyer_invariant(field, InvariantSpec("-", w)) for w in words]


def _paths(field):
    """This thread's {N': path} on ``field``."""
    return vars(field._word_paths)


def _path(field, degree):
    """This thread's path on ``field`` for words of ``degree``."""
    return _paths(field)[_alias_free_samples(field.values, field.bandwidth, degree).shape[0]]


def test_lexicographic_words_share_prefixes(state_bank, fft_calls):
    # on 64 samples the block of a degree-m word fits under head (): it holds
    # all D^m words, 64 D^m <= 2^16 elements.  A step with j letters behind it
    # costs 2j transforms (the top power of a step is a constant, filled
    # without one), and the last letter costs none.  In sorted order the
    # first words of each degree walk (0, 0, 0) once, 2 (1 + 2 + 3); the
    # third word of degree m builds its block in m - 1 steps, m(m - 1), and
    # every later word of the degree reads it:
    # 12 + sum_{1<m<=4} m(m - 1) = 12 + 2 + 6 + 12 = 32 (192 with blocks of
    # D^2 words).  With the bandwidth, degree-1 words run on 32 samples and
    # the rest on 64, each grid on its own path of the field, and degree-1
    # words cost no transform on either, so the count is the same
    banded = [cs.eval_field(state_bank[i], "-", 64) for i in (1, 0)]
    plain = [cs.FieldGrid(f.values) for f in banded]
    assert len(WORDS4) == 340
    want = 2 * (1 + 2 + 3) + sum(m * (m - 1) for m in range(2, 5))
    assert want == 32
    for warm, field in (plain, banded):
        _all_words(warm, WORDS4)  # fill the cached weights
        fft_calls.clear()
        _all_words(field, WORDS4)
        assert len(fft_calls) == want
        assert all(head == () for head, _, _ in _path(field, 4).blocks.values())


def test_words_alternating_between_two_fields_keep_their_paths(state_bank, monkeypatch):
    # a stream that alternates between a field and another one, as a
    # substitution check alternates between the direct and the rebuilt
    # field, takes the transforms of each field's words alone
    pairs = [(cs.eval_field(state_bank[2], "-", 64), cs.eval_field(state_bank[3], "-", 64)),
             (cs.FieldGrid(cs.eval_field(state_bank[2], "-", 64).values),
              cs.eval_field(state_bank[3], "-", 64))]
    words = WORDS4[::2]
    for pair in pairs:
        for f in pair:  # fill the cached weights
            _all_words(cs.FieldGrid(f.values, f.bandwidth), words)
        want, alone = [], []
        for f in pair:
            sizes = _record_fft_lengths(monkeypatch, size=True)
            want.append(_all_words(cs.FieldGrid(f.values, f.bandwidth), words))
            monkeypatch.undo()
            alone += sizes
        sizes = _record_fft_lengths(monkeypatch, size=True)
        got = [[], []]
        for w in words:
            for out, f in zip(got, pair):
                out.append(pohlmeyer_invariant(f, InvariantSpec("-", w)))
        monkeypatch.undo()
        assert got == want
        assert sorted(sizes) == sorted(alone)


def test_substitution_stream_at_high_resolution_shares_prefixes(state_bank, frame4, monkeypatch):
    # the word stream of a high-resolution substitution check: words
    # (0), (0, 1), (0, 1, 2), (0, 1, 2, 3), each on the field and then on the
    # rebuilt field.  The field (K = 8) runs degrees 2-3 on 64 samples and
    # degree 4 on 128, and walks (0) at 2 and (0, 1) at 4 on the first and
    # (0, 1, 2) at 2 + 4 + 6 on the second: 18.  The rebuilt field's modes
    # come from Q on its resolving grid, 512 points, so its bandwidth is
    # 255 and it runs degree 2 on 1024 samples, walking (0) at 2, and degrees
    # 3-4 on 2048, walking (0, 1, 2) at 2 + 4 + 6: 14.  With one path per
    # field and grid that is 32 transforms, where each word alone walks its
    # whole prefix, 2 (0 + 2 + 6 + 12) = 40
    state, n = state_bank[1], 8192
    field = cs.eval_field(state, "-", n)
    modes = cs.ddf_modes(state, frame4, "-", n // 8, n)
    rebuilt = cs.reconstruct_field(pohlmeyer.align_base_point(modes, cs.compute_R(state, frame4, "-", n)), n)
    assert rebuilt.bandwidth == 255
    specs = [InvariantSpec("-", tuple(range(deg))) for deg in range(1, 5)]
    for f in (field, rebuilt):  # fill the cached weights
        for spec in specs:
            pohlmeyer_invariant(cs.FieldGrid(f.values, f.bandwidth), spec)
    lengths = _record_fft_lengths(monkeypatch)
    for spec in specs:
        for f in (field, rebuilt):
            pohlmeyer_invariant(f, spec)
    assert len(lengths) == 32
    assert sorted(set(lengths)) == [64, 128, 1024, 2048]


@pytest.mark.parametrize("dim,degree", [(4, 4), (26, 3)])
def test_block_values_equal_word_values(dim, degree):
    # blocks serve lexicographic and reversed sweeps, random order and the
    # rotations of symmetrized words go mostly word by word; every value is
    # bit-identical to the word's own close, whatever route served it.
    # Symmetrized words at D=26 run in one order only: 18,278 of them take
    # three closes each, nearly all word by word
    # grids of 16 samples and more, where numpy's pairwise sums unroll
    field = cs.eval_field(cs.random_state(dim, 8 if dim == 4 else 4, seed=dim), "-", 256)
    words = [w for deg in range(1, degree + 1) for w in itertools.product(range(dim), repeat=deg)]
    raw = {}
    for w in words:
        columns = _alias_free_samples(field.values, field.bandwidth, len(w))
        raw[w] = simplex_iterated_integral([columns[:, mu] for mu in w])
    shuffled = [words[i] for i in np.random.default_rng(dim).permutation(len(words))]
    for symmetrized, orders in ((False, (words, words[::-1], shuffled)),
                                (True, (shuffled,) if dim > 4 else (words, words[::-1], shuffled))):
        for listed in orders:
            for w in listed:
                spec = InvariantSpec("-", w, symmetrized)
                z = pohlmeyer_invariant(field, spec)
                # the rotations summed as pohlmeyer_invariant sums them
                rotations = pohlmeyer._words(spec, dim)
                want = 0.0
                for r in rotations:
                    want = want + raw[r]
                want = want / len(rotations)
                assert z == want and type(z) is type(want)


def _necklaces(dim, degree):
    """The words of ``degree`` that are the least of their rotations."""
    return [w for w in itertools.product(range(dim), repeat=degree)
            if all(w <= w[r:] + w[:r] for r in range(1, degree))]


def _bits(z):
    return type(z), complex(z).real.hex(), complex(z).imag.hex()


@pytest.mark.parametrize("dim,n,banded", [(4, 256, True), (4, 4096, False), (26, 256, True)])
def test_batched_invariants_equal_one_spec_values(dim, n, banded):
    # raw and symmetrized specs of degree 1 to 4, shuffled, with repeats: the
    # sweep equals each spec asked alone on a field of its own, bit for bit
    field = cs.eval_field(cs.random_state(dim, 8 if dim == 4 else 4, seed=dim + n), "-", n)
    if not banded:
        field = cs.FieldGrid(field.values)
    rng = np.random.default_rng(dim + n)
    specs = [InvariantSpec("-", tuple(rng.integers(0, dim, deg)), bool(rng.integers(2)))
             for deg in rng.integers(1, 5, 150)]
    specs += [specs[i] for i in rng.integers(0, len(specs), 30)]
    specs += [InvariantSpec("-", w, True) for w in _necklaces(dim, 2)]
    specs = [specs[i] for i in rng.permutation(len(specs))]
    got = pohlmeyer_invariants(field, specs)
    alone = cs.FieldGrid(field.values, field.bandwidth)
    assert [_bits(z) for z in got] == [_bits(pohlmeyer_invariant(alone, s)) for s in specs]


def test_batched_invariants_check_every_letter_before_reading(state_bank):
    field = cs.eval_field(state_bank[0], "-", 256)
    specs = [InvariantSpec("-", (0, 1, 2), True), InvariantSpec("-", (3,)), InvariantSpec("-", (1, 4))]
    with pytest.raises(IndexError):
        pohlmeyer_invariants(field, specs)
    with pytest.raises(IndexError):
        pohlmeyer_invariants(field, [InvariantSpec("-", (0, -1), True)] + specs[:2])
    assert _paths(field) == {}
    assert pohlmeyer_invariants(field, []) == []
    assert _paths(field) == {}


def test_batched_necklace_sweep_costs_the_raw_sweep(state_bank, fft_calls):
    # on 4096 plain samples the rotations of the 24 degree-3 necklaces are
    # all 64 words: read once each in sorted order, they take no more
    # transforms than the raw lexicographic sweep, where spec by spec every
    # rotation is a read under a head of its own
    values = cs.eval_field(state_bank[4], "-", 4096).values
    necklaces = [InvariantSpec("-", w, True) for w in _necklaces(4, 3)]
    assert len(necklaces) == 24
    pohlmeyer_invariants(cs.FieldGrid(values), necklaces)  # fill the cached end weights
    counts = []
    for sweep in (lambda f: pohlmeyer_invariants(f, necklaces),
                  lambda f: _all_words(f, list(itertools.product(range(4), repeat=3))),
                  lambda f: [pohlmeyer_invariant(f, s) for s in necklaces]):
        fft_calls.clear()
        sweep(cs.FieldGrid(values))
        counts.append(len(fft_calls))
    batched, raw, one_by_one = counts
    assert batched <= raw < one_by_one


def test_random_word_stream_pays_for_no_block(monkeypatch):
    # unrelated words at D=26 go word by word: the same transforms, of the
    # same sizes, as a lone prefix path, and no block is built
    field = cs.FieldGrid(cs.eval_field(cs.random_state(26, 8, seed=4), "-", 4096).values)
    rng = np.random.default_rng(26)
    words = [tuple(rng.integers(0, 26, deg)) for deg in rng.integers(3, 5, 40)]
    for deg in (3, 4):  # no head comes three times in a row within a degree
        heads = [w[:-2] for w in words if len(w) == deg]
        assert not any(a == b == c for a, b, c in zip(heads, heads[1:], heads[2:]))
    _PrefixIntegrals(field.values).integral((0, 1, 2, 3))  # fill the cached end weights
    sizes = _record_fft_lengths(monkeypatch, size=True)
    lone = _PrefixIntegrals(field.values)
    want = [lone.integral(w) for w in words]
    alone = list(sizes)
    sizes.clear()
    got = [pohlmeyer_invariant(field, InvariantSpec("-", w)) for w in words]
    assert list(_paths(field)) == [4096]
    assert all(entry[1] is None for entry in _path(field, 4).blocks.values())
    assert got == want
    assert sizes == alone


def test_blocks_are_built_on_a_third_word_or_after_a_sweep(state_bank):
    # on 4096 plain samples no degree-4 block wider than D^2 words fits, so
    # heads keep two letters
    banded = cs.eval_field(state_bank[3], "-", 4096)
    field = cs.FieldGrid(banded.values)
    pohlmeyer_invariant(field, InvariantSpec("-", (0, 1, 2, 3)))  # makes the path
    path = _path(field, 4)
    # two words under one head go word by word; the third builds the block
    for k, w in enumerate([(1, 2, 0, 1), (1, 2, 3, 3), (1, 2, 2, 0)]):
        pohlmeyer_invariant(field, InvariantSpec("-", w))
        assert path.blocks[4][:1] == [(1, 2)]
        assert (path.blocks[4][1] is None) == (k < 2)
    # a sweep of at least D words builds the next head's block at once ...
    for w in itertools.product(range(4), repeat=2):
        pohlmeyer_invariant(field, InvariantSpec("-", (1, 2) + w))
    assert path.blocks[4][2] == 19
    pohlmeyer_invariant(field, InvariantSpec("-", (3, 0, 0, 0)))
    assert path.blocks[4][0] == (3, 0) and path.blocks[4][1] is not None
    # ... but a head that served fewer does not
    pohlmeyer_invariant(field, InvariantSpec("-", (2, 2, 0, 0)))
    assert path.blocks[4][0] == (2, 2) and path.blocks[4][1] is None
    # with the bandwidth, degree 4 runs on 128 samples, where the block of
    # head () fits (128 D^4 <= 2^16): every word shares it, and the third
    # word of the degree builds all D^4 at once
    pohlmeyer_invariant(banded, InvariantSpec("-", (0, 1, 2, 3)))
    path = _path(banded, 4)
    for k, w in enumerate([(1, 2, 0, 1), (3, 0, 3, 2)]):
        pohlmeyer_invariant(banded, InvariantSpec("-", w))
        assert path.blocks[4][0] == ()
        assert (path.blocks[4][1] is None) == (k < 1)
    assert path.blocks[4][1].shape == (4, 4, 4, 4)


def test_word_order_does_not_change_values(state_bank):
    # each word runs on the strided columns of its alias-free grid
    field = cs.eval_field(state_bank[2], "-", 256)
    lex = dict(zip(WORDS4, _all_words(field, WORDS4)))
    shuffled = list(WORDS4)
    np.random.default_rng(5).shuffle(shuffled)
    for w, z in zip(shuffled, _all_words(field, shuffled)):
        assert z == lex[w]
        columns = _alias_free_samples(field.values, field.bandwidth, len(w))
        assert z == simplex_iterated_integral([columns[:, mu] for mu in w])


def test_words_in_random_order_vs_mode_oracle():
    # a low-truncation state keeps the degree-4 mode-tuple enumeration small
    field = cs.eval_field(cs.random_state(4, 2, seed=7), "-", 64)
    rng = np.random.default_rng(11)
    words = [tuple(rng.integers(0, 4, deg)) for deg in (3, 4, 3, 4, 4, 3, 4, 4, 3, 4)]
    words += [words[1][:3], words[4][:2] + (0, 1)]  # shared prefixes after other words
    for i in rng.permutation(len(words)):
        w = words[i]
        z = pohlmeyer_invariant(field, InvariantSpec("-", w))
        oracle = iterated_integral_modes([field.values[:, mu] for mu in w])
        assert abs(z - oracle) <= 1e-9 * (abs(oracle) + 1e-6)


def _run_threads(work, count):
    # more threads than cores and a short switch interval, so the threads'
    # words interleave
    barrier = threading.Barrier(count)

    def run(i):
        barrier.wait()
        work(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_threads_with_different_fields_match_serial(state_bank):
    fields = [cs.eval_field(state_bank[i], "-", 256) for i in (3, 4, 7, 8)]
    words = WORDS4[::3]
    serial = [_all_words(cs.FieldGrid(f.values, f.bandwidth), words) for f in fields]
    results = [None] * len(fields)

    def work(i):
        results[i] = _all_words(fields[i], words)

    _run_threads(work, len(fields))
    assert results == serial


def test_threads_sharing_one_field_match_serial(state_bank):
    # each thread keeps its own paths on the shared field, and walks the
    # words in its own order
    field = cs.eval_field(state_bank[5], "-", 256)
    serial = dict(zip(WORDS4, _all_words(cs.FieldGrid(field.values, field.bandwidth), WORDS4)))
    orders = [WORDS4, WORDS4[::-1]] + [[WORDS4[i] for i in np.random.default_rng(seed).permutation(340)]
                                       for seed in (1, 2)]
    results = [None] * len(orders)

    def work(i):
        results[i] = dict(zip(orders[i], _all_words(field, orders[i])))

    _run_threads(work, len(orders))
    assert all(r == serial for r in results)
    assert list(_paths(field)) == []  # the main thread walked nothing on it


def test_field_values_are_read_only(state_bank):
    field = cs.eval_field(state_bank[0], "-", 64)
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0
    raw = np.ones((64, 2))
    grid = cs.FieldGrid(raw)
    raw[0, 0] = 5.0  # the caller's array stays writable and is not shared
    assert grid.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        grid.values[0, 0] = 5.0


def test_new_field_after_same_words_gives_fresh_values(state_bank):
    words = WORDS4[:40]
    first = cs.eval_field(state_bank[5], "-", 128)
    second = cs.FieldGrid(np.asarray(first.values) * np.linspace(1.0, 2.0, 4))
    z_first = _all_words(first, words)
    z_second = _all_words(second, words)
    for w, a, b in zip(words, z_first, z_second):
        assert b == simplex_iterated_integral([second.values[:, mu] for mu in w])
        assert a != b or all(mu == 0 for mu in w)


def test_prefix_memo_is_small(state_bank):
    field = cs.eval_field(state_bank[6], "-", 4096)
    other = cs.eval_field(state_bank[5], "-", 4096)
    for f in (field, other, field):
        # words that alternate between fields keep each field's states
        pohlmeyer_invariant(f, InvariantSpec("-", (0, 1, 2, 3)))
        assert len(_path(f, 4).states) == 4
    assert list(_paths(field)) == list(_paths(other)) == [128]
    path = _path(field, 4)
    held = sum(g.nbytes for state in path.states for g in state.values()
               if isinstance(g, np.ndarray))
    assert 0 < held <= 1 << 20
    # one block per degree and grid, whatever the stream; on these grids
    # (32 to 128 samples) every degree's block fits under head ()
    rng = np.random.default_rng(6)
    built = 0
    for w in WORDS4 + WORDS4[::-1] + [WORDS4[i] for i in rng.permutation(len(WORDS4))]:
        pohlmeyer_invariant(field, InvariantSpec("-", w))
        for n_grid, grid_path in _paths(field).items():
            for degree, (head, block, reads) in grid_path.blocks.items():
                assert _alias_free_samples(field.values, field.bandwidth, degree).shape[0] == n_grid
                assert head == () and reads >= 1
                assert block is None or block.shape == (4,) * degree
                assert block is None or n_grid * block.size <= numerics._BLOCK_BOUND
                built += block is not None
    assert built
    # one path per grid: degree 1 on 32 samples, degrees 2 and 3 on 64, 4 on 128
    assert sorted(_paths(field)) == [32, 64, 128]


def test_wide_grid_sweep_keeps_narrow_heads(state_bank):
    # on 4096 plain samples a degree-3 block under head () would hold
    # 4096 D^3 = 2^18 elements, over the bound: heads keep one letter and
    # blocks D^2 words, as at D = 26, and values stay bit-equal to the words'
    field = cs.FieldGrid(cs.eval_field(state_bank[4], "-", 4096).values)
    words = [w for w in WORDS4 if len(w) <= 3]
    for w, z in zip(words, _all_words(field, words)):
        want = simplex_iterated_integral([field.values[:, mu] for mu in w])
        assert z == want and type(z) is type(want)
    for degree, (head, block, reads) in _path(field, 3).blocks.items():
        assert len(head) == max(degree - 2, 0)
        assert block.shape == (4,) * min(degree, 2)
        assert 4096 * block.size <= numerics._BLOCK_BOUND
    assert 4096 * 4 ** 3 > numerics._BLOCK_BOUND


def test_prefix_memo_goes_with_its_field(state_bank):
    field = cs.eval_field(state_bank[7], "-", 256)
    for _ in range(2):
        pohlmeyer_invariant(field, InvariantSpec("-", (0, 1, 2)))
    path = _path(field, 3)
    assert len(path.states) == 3
    for w in itertools.product(range(4), repeat=3):
        pohlmeyer_invariant(field, InvariantSpec("-", w))
    assert path.blocks[3][1] is not None
    field_ref, path_ref = weakref.ref(field), weakref.ref(path)
    del field, path
    gc.collect()
    assert field_ref() is None and path_ref() is None


def test_copies_of_a_warm_field_start_with_no_paths(state_bank):
    field = cs.eval_field(state_bank[8], "-", 256)
    words = WORDS4[::5]
    want = _all_words(field, words)
    assert _paths(field)
    for copied in (copy.deepcopy(field), copy.copy(field), pickle.loads(pickle.dumps(field))):
        assert type(copied) is cs.FieldGrid and copied is not field
        assert copied.bandwidth == field.bandwidth
        assert np.array_equal(copied.values, field.values) and not copied.values.flags.writeable
        assert _paths(copied) == {}
        assert _all_words(copied, words) == want


def test_fields_compare_and_hash_by_identity():
    a = cs.FieldGrid(np.ones((8, 2)))
    b = cs.FieldGrid(np.ones((8, 2)))
    assert a == a and a != b and not (a == b)
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_writable_again_values_get_a_throwaway_path(state_bank):
    field = cs.eval_field(state_bank[4], "-", 256)
    field.values.setflags(write=True)
    z = _all_words(field, WORDS4[:30])
    assert _paths(field) == {}
    fresh = cs.FieldGrid(field.values, field.bandwidth)
    assert z == _all_words(fresh, WORDS4[:30])


# ----------------------------------------------------------------------
# words and Wilson loops on the smallest alias-free grid
# ----------------------------------------------------------------------

def _power_scale(values, degree):
    # the acceptance gate's scale (2 pi max|P|)^n / n!
    return (TAU * float(np.max(np.abs(values)))) ** degree / math.factorial(degree)


def _anti_hermitian(rng, dim, d, norm):
    herm = rng.standard_normal((dim, d, d)) + 1j * rng.standard_normal((dim, d, d))
    anti = 0.5 * (herm - np.conj(np.transpose(herm, (0, 2, 1))))
    return anti * (norm / max(np.linalg.norm(m, 2) for m in anti))


def _record_fft_lengths(monkeypatch, size=False):
    """Record each transform's length along its axis, or the whole size of its input.

    Real and complex transforms alike; an ``irfft``'s length is that of its
    output grid.
    """
    lengths = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def recorded(x, n=None, axis=-1, _fn=getattr(np.fft, name)):
            lengths.append(np.size(x) if size else n or np.shape(x)[axis])
            return _fn(x, n, axis=axis)
        monkeypatch.setattr(np.fft, name, recorded)
    return lengths


@pytest.mark.parametrize("m", [1, 8, 16])
def test_eval_field_keeps_its_bandwidth_promise(m):
    state = cs.random_state(4, m, seed=m)
    for chir in ("-", "+"):
        field = cs.eval_field(state, chir, 4096)
        assert field.bandwidth == m
        spec = np.abs(np.fft.fft(field.values, axis=0))
        freqs = np.abs(np.fft.fftfreq(4096, 1.0 / 4096))
        assert np.max(spec[freqs > m]) <= 1e-15 * np.max(spec)


def test_only_exact_producers_set_a_bandwidth(state_bank, frame4):
    state = state_bank[0]
    modes = cs.ddf_modes(state, frame4, "-", 512, 4096)
    # the highest mode with a nonzero row: Q's resolving grid has 512 points,
    # so the rows |m| > 255 are exact zeros
    assert cs.reconstruct_field(modes, 4096).bandwidth == 255
    # a tiny top mode is still a mode: no threshold
    top = modes.modes.copy()
    top[0, 1] = top[-1, 1] = 1e-300
    assert cs.reconstruct_field(dataclasses.replace(modes, modes=top), 4096).bandwidth == 512
    assert cs.reconstruct_field(dataclasses.replace(modes, modes=np.zeros_like(top)), 4096).bandwidth == 0
    assert cs.reconstruct_field_direct(state, frame4, "-", 512).bandwidth is None
    field = cs.eval_field(state, "-", 512)
    assert pullback_weight_one(field, random_diffeo(3)).bandwidth is None
    assert cs.FieldGrid(field.values).bandwidth is None


def test_field_grid_rejects_a_bandwidth_it_cannot_hold():
    vals = np.ones((8, 2))
    assert cs.FieldGrid(vals, bandwidth=3).bandwidth == 3
    assert cs.FieldGrid(vals, bandwidth=np.int64(0)).bandwidth == 0
    for bad in (-1, 4, 100):
        with pytest.raises(ValueError):
            cs.FieldGrid(vals, bandwidth=bad)
    with pytest.raises(TypeError):
        cs.FieldGrid(vals, bandwidth=2.5)


def test_words_and_wilson_on_the_reduced_grid_match_the_full_grid(state_bank):
    field = cs.eval_field(state_bank[0], "-", 4096)
    full = cs.FieldGrid(field.values)
    for w, fast, slow in zip(WORDS4, _all_words(field, WORDS4), _all_words(full, WORDS4)):
        assert abs(fast - slow) <= 1e-14 * (abs(slow) + _power_scale(field.values, len(w)))
    config = WilsonConfig(_anti_hermitian(np.random.default_rng(4), 4, 2, 0.05), n_max=4)
    (fast, fast_rem), (slow, slow_rem) = wilson_loop(field, config), wilson_loop(full, config)
    assert abs(fast - slow) <= 1e-14 * abs(slow)
    assert fast_rem == slow_rem


def test_word_cotangent_on_the_reduced_grid_gives_the_full_grid_gradient(state_bank):
    state = state_bank[1]
    chart = poisson.chart_for(state)
    for chir in ("-", "+"):
        field = cs.eval_field(state, chir, 512)
        for spec in [InvariantSpec(chir, (0, 1, 2)), InvariantSpec(chir, (3, 1, 1, 2), True)]:
            fast = pohlmeyer._word_cotangent(field, spec)
            slow = pohlmeyer._word_cotangent(cs.FieldGrid(field.values), spec)
            assert fast.shape == (64 if spec.degree == 3 else 128, 4) and slow.shape == (512, 4)
            got = chart._field_gradient(fast, chir, state.tension)
            want = chart._field_gradient(slow, chir, state.tension)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_words_in_random_order_on_the_reduced_grid_vs_mode_oracle():
    for m, seed in ((2, 3), (3, 8)):
        field = cs.eval_field(cs.random_state(4, m, seed=seed), "-", 256)
        rng = np.random.default_rng(seed)
        specs = [InvariantSpec("-", tuple(rng.integers(0, 4, deg)), bool(sym))
                 for deg, sym in zip(rng.integers(1, 5, 12), rng.integers(0, 2, 12))]
        for spec in specs:
            z = pohlmeyer_invariant(field, spec)
            words = pohlmeyer._words(spec, 4)
            oracle = sum(iterated_integral_modes([field.values[:, mu] for mu in w])
                         for w in words) / len(words)
            assert abs(z - oracle) <= 1e-9 * (abs(oracle) + 1e-6)


def test_fields_without_bandwidth_run_on_all_samples(state_bank, monkeypatch):
    field = cs.eval_field(state_bank[4], "-", 256)
    config = WilsonConfig(_anti_hermitian(np.random.default_rng(6), 4, 2, 0.05), n_max=3)
    spec = InvariantSpec("-", (2, 0, 1), symmetrized=True)
    for plain in (pullback_weight_one(field, random_diffeo(5)), cs.FieldGrid(field.values)):
        lengths = _record_fft_lengths(monkeypatch)
        for w in WORDS4[:60]:
            z = pohlmeyer_invariant(plain, InvariantSpec("-", w))
            assert z == simplex_iterated_integral([plain.values[:, mu] for mu in w])
        wilson_loop(plain, config)
        cot = pohlmeyer._word_cotangent(plain, spec)
        monkeypatch.undo()
        assert cot.shape == (256, 4)
        assert lengths and set(lengths) == {256}


def test_benchmark_shaped_cycle_of_fields():
    # a pool of 24 fields, cycled as a benchmark cycles through its inputs,
    # each with every word in order of degree and then a Wilson loop; the
    # strided views of one call are freed before the next, so their
    # addresses recur: every word must run on its own field's strided
    # columns, and the Wilson loop must match its index expansion
    words = [w for deg in range(1, 5) for w in itertools.product(range(4), repeat=deg)]
    pool = [cs.eval_field(cs.random_state(4, 8, seed=seed), "-", 4096) for seed in range(100, 124)]
    rng = np.random.default_rng(24)
    for field in pool:
        z = {w: pohlmeyer_invariant(field, InvariantSpec("-", w)) for w in words}
        for w in words:
            columns = _alias_free_samples(field.values, field.bandwidth, len(w))
            assert z[w] == simplex_iterated_integral([columns[:, mu] for mu in w])
        peak = TAU * np.max(np.sum(np.abs(field.values), axis=1))
        anti = _anti_hermitian(rng, 4, 2, 0.3 / peak)
        value, _ = wilson_loop(field, WilsonConfig(anti, n_max=4))
        total = 2.0 + sum(z[w] * np.trace(np.linalg.multi_dot([np.eye(2)] + [anti[mu] for mu in w]))
                          for w in words)
        assert abs(value - total) <= 1e-9 * (1.0 + abs(total))


def test_constant_field_runs_on_one_sample():
    # bandwidth 0: Z^w = prod_k c_{w_k} (2 pi)^n / n!, and the Wilson loop is
    # the truncated exponential of 2 pi c.A
    c = np.array([0.7, -1.1, 0.4])
    field = cs.FieldGrid(np.tile(c, (64, 1)), bandwidth=0)
    for w in [(0,), (1, 2), (2, 2, 0), (0, 1, 2, 1), (1, 0, 2, 2, 1)]:
        z = pohlmeyer_invariant(field, InvariantSpec("-", w))
        exact = np.prod(c[list(w)]) * TAU ** len(w) / math.factorial(len(w))
        assert abs(z - exact) <= 1e-14 * abs(exact)
    anti = _anti_hermitian(np.random.default_rng(2), 3, 2, 0.1)
    gen = TAU * np.einsum("m,mij->ij", c, anti)
    exact = sum(np.trace(np.linalg.matrix_power(gen, k)) / math.factorial(k) for k in range(6))
    value, _ = wilson_loop(field, WilsonConfig(anti, n_max=5))
    assert abs(value - exact) <= 1e-14 * abs(exact)


def test_wilson_config_rejects_a_non_integer_order():
    matrices = np.zeros((2, 2, 2), complex)
    for bad in (3.0, 2.5, np.float64(3.0)):
        with pytest.raises(TypeError):
            WilsonConfig(matrices, n_max=bad)
    config = WilsonConfig(matrices, n_max=np.int64(3))
    assert config.n_max == 3 and type(config.n_max) is int
    with pytest.raises(ValueError):
        WilsonConfig(matrices, n_max=0)


def test_wilson_remainder_takes_the_config_norm(state_bank):
    # the operator norm is taken once per config; the bound keeps the bits
    # of the per-call formula max_mu ||A_mu||_2
    config = WilsonConfig(_anti_hermitian(np.random.default_rng(8), 4, 3, 0.05), n_max=4)
    assert config.a_norm == float(max(np.linalg.norm(m, 2) for m in config.matrices))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.a_norm = 0.0
    for state in state_bank[:3]:
        field = cs.eval_field(state, "-", 4096)
        c_factor = TAU * float(np.max(np.sum(np.abs(field.values), axis=1)))
        x = c_factor * float(max(np.linalg.norm(m, 2) for m in config.matrices))
        _, remainder = wilson_loop(field, config)
        assert remainder == x ** 5 / math.factorial(5)


def test_wilson_remainder_sees_a_peak_between_coarse_samples():
    # |P| peaks at sample 3 of 64; the n' = 8 grid of n_max = 2 misses it
    sig = cs.FieldGrid(np.zeros((64, 1))).sigma()
    field = cs.FieldGrid(np.cos(sig - sig[3])[:, None], bandwidth=1)
    config = WilsonConfig(np.array([[[0.0, 0.2], [-0.2, 0.0]]], complex), n_max=2)
    coarse = _alias_free_samples(field.values, 1, 2)
    assert coarse.shape[0] == 8 and np.max(np.abs(coarse)) < 0.96
    _, remainder = wilson_loop(field, config)
    assert abs(remainder - (TAU * 0.2) ** 3 / 6) <= 1e-15 * remainder


# ----------------------------------------------------------------------
# word gradients by Chen's identity against the five-point stencil
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chir", ["-", "+"])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_word_reverse_route_matches_stencil(state_bank, chir, symmetrized):
    # a word of degree n is a polynomial of degree n in the chart
    for state in state_bank[:3]:
        chart = poisson.chart_for(state)
        for word in [(0,), (0, 1), (0, 1, 2), (3, 1, 1, 2), (2, 2, 2, 2)]:
            obs = poisson.pohlmeyer_observable(InvariantSpec(chir, word, symmetrized), 512)
            got = poisson.gradient(obs, state, check=False)
            oracle = stencil_gradient(obs, state, chart)
            assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_word_gradient_leaves_the_prefix_memo_alone(state_bank):
    state = state_bank[3]
    field = cs.eval_field(state, "-", 256)
    pohlmeyer_invariant(field, InvariantSpec("-", (0, 1, 2)))
    pohlmeyer_invariant(field, InvariantSpec("-", (0, 1, 3)))
    paths = dict(_paths(field))
    path = _path(field, 3)
    states, blocks = list(path.states), dict(path.blocks)
    poisson.gradient(poisson.pohlmeyer_observable(InvariantSpec("-", (0, 1, 2), True), 256),
                     state, check=False)
    pohlmeyer._word_cotangent(field, InvariantSpec("-", (0, 1, 2), symmetrized=True))
    assert _paths(field) == paths
    assert path.states == states and path.blocks == blocks


# ----------------------------------------------------------------------
# substitution
# ----------------------------------------------------------------------

def test_substitution_zero_oscillators(frame4):
    state = zero_osc_state([1.0, 0.3, 0.0, 0.1], [0.7, 0.2, -0.4, 0.0])
    field = cs.eval_field(state, "-", 256)
    for word in [(0,), (0, 1)]:
        spec = InvariantSpec("-", word)
        direct = pohlmeyer_invariant(field, spec)
        via = pohlmeyer_via_ddf(state, frame4, spec, 8, 256)
        assert abs(direct - via) < 1e-12 * (1 + abs(direct))


def test_substitution_identity_clock(frame4):
    from test_ddf import transverse_state

    state = transverse_state(frame4)
    field = cs.eval_field(state, "-", 512)
    spec = InvariantSpec("-", (0, 1, 2))
    direct = pohlmeyer_invariant(field, spec)
    via = pohlmeyer_via_ddf(state, frame4, spec, 16, 512)
    assert abs(direct - via) < 1e-12 * (1 + abs(direct))


def test_substitution_random_states(state_bank, frame4):
    for state in state_bank[:3]:
        field = cs.eval_field(state, "-", 4096)
        peak = TAU * np.max(np.abs(field.values))
        scale = 1.0
        for deg in (1, 2, 3, 4):
            scale *= peak / deg
            word = tuple(i % 4 for i in range(deg))
            spec = InvariantSpec("-", word)
            direct = pohlmeyer_invariant(field, spec)
            via = pohlmeyer_via_ddf(state, frame4, spec, 512, 4096)
            assert abs(direct - via) <= 1e-6 * (abs(direct) + scale)


def test_raw_substitution_shows_base_point_rotation(state_bank, frame4):
    # without alignment the substituted loop starts at R^{-1}(0): raw
    # coefficients move, cyclically symmetrized ones do not
    state = state_bank[0]
    field = cs.eval_field(state, "-", 4096)
    raw = InvariantSpec("-", (0, 1))
    direct = pohlmeyer_invariant(field, raw)
    via_raw = pohlmeyer_via_ddf(state, frame4, raw, 512, 4096, align=False)
    scale = abs(direct) + TAU ** 2 / 2 * np.max(np.abs(field.values)) ** 2
    assert abs(direct - via_raw) > 1e-4 * scale

    sym = InvariantSpec("-", (0, 1), symmetrized=True)
    d_sym = pohlmeyer_invariant(field, sym)
    v_sym = pohlmeyer_via_ddf(state, frame4, sym, 512, 4096, align=False)
    assert abs(d_sym - v_sym) <= 1e-8 * scale


def test_via_ddf_frame_independence():
    # the clock depends on the lightlike frame but the reconstructed
    # invariants must not (up to truncation); the generator's monotonicity
    # margin only covers its own frame, so use a state tame enough that
    # every frame below keeps a monotone clock
    state = cs.random_state(4, 8, seed=3, decay=0.35)
    spec = InvariantSpec("-", (0, 1))
    direct = pohlmeyer_invariant(cs.eval_field(state, "-", 2048), spec)
    for k in ([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [np.sqrt(2.0), 1.0, 1.0, 0.0]):
        frame = cs.LightlikeFrame(np.asarray(k))
        assert cs.compute_R(state, frame, "-", 2048).min_deriv() > 0
        via = pohlmeyer_via_ddf(state, frame, spec, 256, 2048)
        assert abs(direct - via) <= 1e-8 * (1 + abs(direct))


def test_via_ddf_x_shift_invariance(state_bank, frame4):
    # weight-0 consistency: the aligned substitution route does not feel x
    state = state_bank[1]
    spec = InvariantSpec("-", (0, 1))
    base = pohlmeyer_via_ddf(state, frame4, spec, 64, 1024)
    shifted = state.replace(x=state.x + np.array([0.9, -0.9, 0.3, 0.0]))
    moved = pohlmeyer_via_ddf(shifted, frame4, spec, 64, 1024)
    assert abs(base - moved) <= 1e-10 * (1 + abs(base))


@pytest.mark.parametrize("align", [True, False])
def test_via_ddf_builds_its_clock_once(monkeypatch, state_bank, frame4, align):
    # one clock serves the substitution and the alignment, and the value is
    # the one of the composed public route: ddf_modes, then the aligned clock
    from closedstring import ddf

    state = state_bank[0]
    spec = InvariantSpec("+", (0, 1, 2))
    modes = cs.ddf_modes(state, frame4, "+", 64, 1024)
    if align:
        modes = cs.align_base_point(modes, cs.compute_R(state, frame4, "+", 1024))
    want = pohlmeyer_invariant(cs.reconstruct_field(modes, 1024), spec)
    calls, compute_R = [], ddf.compute_R

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_R(*args, **kwargs)

    monkeypatch.setattr(ddf, "compute_R", counted)
    assert pohlmeyer_via_ddf(state, frame4, spec, 64, 1024, align=align) == want
    assert len(calls) == 1


# ----------------------------------------------------------------------
# reparameterization checks
# ----------------------------------------------------------------------

def test_reparam_check_identity(state_bank):
    # the identity pullback goes through the trigonometric interpolant,
    # which reproduces the grid only to roundoff
    spec = InvariantSpec("-", (0, 1))
    for state in state_bank:
        field = cs.eval_field(state, "-", 512)
        direct, pulled = reparam_check(field, random_diffeo(0, 2, 0.0), spec)
        scale = abs(direct) + (TAU * np.max(np.abs(field.values))) ** 2 / 2
        assert abs(direct - pulled) <= 1e-14 * scale


def test_reparam_check_base_point_preserving(state_bank):
    field = cs.eval_field(state_bank[2], "-", 2048)
    spec = InvariantSpec("-", (0, 1, 2))
    peak = TAU * np.max(np.abs(field.values))
    scale = peak ** 3 / 6
    for seed in range(4):
        cmap = random_diffeo(seed, 3, 0.5, fix_base_point=True)
        direct, pulled = reparam_check(field, cmap, spec)
        assert abs(direct - pulled) <= 1e-8 * (abs(direct) + scale)


def test_rotation_negative_control(state_bank):
    # a rigid rotation moves raw degree-2 words but not their cyclic average
    field = cs.eval_field(state_bank[0], "-", 2048)
    rot = RotationMap(1.1)
    raw = InvariantSpec("-", (0, 1))
    direct = pohlmeyer_invariant(field, raw)
    pulled = pohlmeyer_invariant(pullback_weight_one(field, rot), raw)
    scale = abs(direct) + TAU ** 2 / 2 * np.max(np.abs(field.values)) ** 2
    assert abs(direct - pulled) > 1e-4 * scale
    with pytest.raises(ValueError):
        reparam_check(field, rot, raw)

    sym = InvariantSpec("-", (0, 1), symmetrized=True)
    d, p = reparam_check(field, rot, sym)
    assert abs(d - p) <= 1e-8 * scale


# ----------------------------------------------------------------------
# Wilson loops
# ----------------------------------------------------------------------

def test_wilson_zero_connection(state_bank):
    field = cs.eval_field(state_bank[0], "-", 512)
    config = WilsonConfig(np.zeros((4, 3, 3), complex), n_max=5)
    value, remainder = wilson_loop(field, config)
    assert value == pytest.approx(3.0)
    assert remainder == 0.0


def test_wilson_abelian_exponential(state_bank):
    # d = 1: path ordering is trivial and the loop is exp(sum_mu a_mu Z^mu)
    state = state_bank[1]
    field = cs.eval_field(state, "-", 512)
    a = np.array([0.11, -0.07, 0.05, 0.02])
    config = WilsonConfig(a.reshape(4, 1, 1).astype(complex), n_max=18)
    value, remainder = wilson_loop(field, config)
    z1 = np.array([pohlmeyer_invariant(field, InvariantSpec("-", (mu,))) for mu in range(4)])
    expected = np.exp(np.dot(a, z1))
    assert abs(value - expected) <= remainder + 1e-12 * abs(expected)


def test_wilson_steps_its_complex_matrices_by_complex_transforms(state_bank, fft_calls):
    # the field is real but the connection complex: each step of the matrix
    # recursion takes fft/ifft (step j: j of each, its top power a constant),
    # and no real transform runs
    field = cs.eval_field(state_bank[2], "-", 1024)
    config = WilsonConfig(_anti_hermitian(np.random.default_rng(3), 4, 2, 0.05), n_max=4)
    want = wilson_loop(field, config)  # fill the cached end weights
    fft_calls.clear()
    assert wilson_loop(field, config) == want
    assert sorted(fft_calls) == ["fft"] * 6 + ["ifft"] * 6


def test_wilson_matches_index_enumeration(state_bank):
    state = state_bank[2]
    field = cs.eval_field(state, "-", 1024)
    rng = np.random.default_rng(3)
    herm = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    anti = 0.5 * (herm - np.conj(np.transpose(herm, (0, 2, 1))))
    anti *= 0.05  # keep C*||A|| < 1 so the factorial tail dominates
    config = WilsonConfig(anti, n_max=4)
    value, _ = wilson_loop(field, config)

    total = 2.0 + 0.0j
    z_cache = {}
    for deg in range(1, 5):
        for word in np.ndindex(*(4,) * deg):
            if word not in z_cache:
                z_cache[word] = pohlmeyer_invariant(field, InvariantSpec("-", word))
            mat = np.eye(2, dtype=complex)
            for mu in word:
                mat = mat @ anti[mu]
            total += z_cache[word] * np.trace(mat)
    assert abs(value - total) <= 1e-9 * (1 + abs(total))


def test_wilson_orders_one_and_two_match_their_words(state_bank):
    # order 1 integrates b = P.A itself, and order 2 steps it once by b:
    # d + sum_mu Z^mu Tr A_mu, then + sum_{mu nu} Z^{mu nu} Tr(A_mu A_nu)
    field = cs.eval_field(state_bank[5], "-", 1024)
    anti = _anti_hermitian(np.random.default_rng(4), 4, 2, 0.05)
    words = [w for deg in (1, 2) for w in itertools.product(range(4), repeat=deg)]
    z = dict(zip(words, pohlmeyer_invariants(field, [InvariantSpec("-", w) for w in words])))
    want = 2.0 + 0.0j
    for n_max in (1, 2):
        for w in words:
            if len(w) == n_max:
                want += z[w] * np.trace(np.linalg.multi_dot([np.eye(2)] + [anti[mu] for mu in w]))
        value, _ = wilson_loop(field, WilsonConfig(anti, n_max=n_max))
        assert abs(value - want) <= 1e-15 * abs(want)


def test_wilson_remainder_bound(state_bank):
    field = cs.eval_field(state_bank[3], "-", 512)
    rng = np.random.default_rng(9)
    herm = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    anti = 0.5 * (herm - np.conj(np.transpose(herm, (0, 2, 1)))) * 0.04
    ref, _ = wilson_loop(field, WilsonConfig(anti, n_max=24))
    for n_max in (1, 4, 6, 8):
        value, remainder = wilson_loop(field, WilsonConfig(anti, n_max=n_max))
        # tail sum <= bound/(1 - x/(n_max+2)) <= 1.1*bound for x <= 1, times
        # d for the trace
        assert abs(value - ref) <= 1.1 * 2 * remainder + 1e-14
