import itertools
import math
import warnings

import numpy as np
import pytest

import menet as mn
from menet import Assignment


def svd_rank_separable(psi, m, cutoff=1e-9):
    """Independent oracle: reshape and test the second singular value."""
    n = psi.num_qubits
    ms = sorted(m)
    rest = sorted(set(range(1, n + 1)) - set(ms))
    perm = [q - 1 for q in ms + rest]
    mat = psi.amplitudes.reshape((2,) * n).transpose(perm).reshape(2 ** len(ms), -1)
    singular = np.linalg.svd(mat, compute_uv=False)
    return singular[1] < cutoff if len(singular) > 1 else True


def bipartitions(n):
    for r in range(1, n):
        for m in itertools.combinations(range(1, n + 1), r):
            yield set(m)


class TestAIndependence:
    def test_bell_dependent(self, bell):
        assert not mn.a_independent(bell, {1}, Assignment.zeros(2))

    def test_product_independent(self, plus):
        psi = mn.tensor_product(plus, mn.basis_state(1, 0))
        assert mn.a_independent(psi, {1}, Assignment.zeros(2))

    def test_reference_instances_hold_trivially(self):
        # instances with x_M = x_M^0 contribute the identity 0 = 0, so a
        # product state passes at any nonzero reference point
        sample = mn.random_product_state(({1}, {2, 3}), 2)
        for index in range(8):
            x0 = mn.assignment_of(index, 3)
            if abs(sample.state.amplitude(x0)) < 0.05:
                continue
            assert mn.a_independent(sample.state, {1}, x0)

    @pytest.mark.parametrize("m", [set(), {1, 2}])
    def test_invalid_partition(self, bell, m):
        with pytest.raises(mn.InvalidPartition):
            mn.a_independent(bell, m, Assignment.zeros(2))


class TestIsSeparable:
    def test_ghz_entangled(self, ghz):
        verdict = mn.is_separable(ghz, {1})
        assert not verdict.separable
        assert verdict.max_minor_magnitude == pytest.approx(0.5)
        assert verdict.witness is not None

    def test_w_entangled(self, w_state):
        assert not mn.is_separable(w_state, {3}).separable

    def test_zero_times_bell(self, bell):
        psi = mn.tensor_product(mn.basis_state(1, 0), bell)
        verdict = mn.is_separable(psi, {1})
        assert verdict.separable
        assert verdict.witness is None
        assert verdict.max_minor_magnitude < 1e-12

    def test_witness_is_violating_minor(self, ghz):
        w1, w2 = mn.is_separable(ghz, {1}).witness
        a = ghz.amplitude
        minor = a(w1) * a(w2) - a(w1.restrict([1]).merge(w2.restrict([2, 3]))) * a(
            w2.restrict([1]).merge(w1.restrict([2, 3]))
        )
        assert abs(minor) == pytest.approx(0.5)

    def test_deterministic(self, w_state):
        assert mn.is_separable(w_state, {2}) == mn.is_separable(w_state, {2})

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_svd_oracle(self, seed):
        n = 3 + seed % 2
        if seed % 2:
            psi = mn.random_product_state(([1], list(range(2, n + 1))), seed).state
        else:
            psi = mn.random_state(n, seed)
        for m in bipartitions(n):
            assert mn.is_separable(psi, m).separable == svd_rank_separable(psi, m)

    def test_invalid_partition(self, bell):
        with pytest.raises(mn.InvalidPartition):
            mn.is_separable(bell, {1, 2})


class TestAIndependenceMatchesRankTest:
    """a-independence at the max-modulus reference matches the rank test."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_states(self, seed):
        n = 2 + seed % 3
        if seed % 3 == 0 and n > 1:
            psi = mn.random_product_state(([1], list(range(2, n + 1))), seed).state
        else:
            psi = mn.random_state(n, seed)
        x0 = mn.assignment_of(int(np.argmax(np.abs(psi.amplitudes))), n)
        for m in bipartitions(n):
            assert mn.a_independent(psi, m, x0) == mn.is_separable(psi, m).separable


class TestExtractFactors:
    def test_plus_times_one(self, plus):
        psi = mn.tensor_product(plus, mn.basis_state(1, 1))
        phi, chi = mn.extract_factors(psi, {1})
        assert mn.fidelity_up_to_phase(phi, plus) == pytest.approx(1.0)
        assert mn.fidelity_up_to_phase(chi, mn.basis_state(1, 1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("blocks", [({1, 2}, {3}), ({2}, {1, 3}), ({1, 3}, {2, 4})])
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_random_products(self, blocks, seed):
        sample = mn.random_product_state(blocks, seed)
        m = set(blocks[0])
        assert mn.factor_round_trip_fidelity(sample.state, m) >= 1 - 1e-9

    def test_factors_unit_norm(self):
        sample = mn.random_product_state(({1, 2}, {3}), 11)
        phi, chi = mn.extract_factors(sample.state, {1, 2})
        assert abs(np.linalg.norm(phi.amplitudes) - 1.0) < 1e-12
        assert abs(np.linalg.norm(chi.amplitudes) - 1.0) < 1e-12

    def test_entangled_rejected(self, bell):
        with pytest.raises(mn.NotSeparable):
            mn.extract_factors(bell, {1})


class TestConditionallySeparable:
    def test_w_entangled_pair(self, w_state):
        verdict = mn.conditionally_separable(w_state, {1}, {2}, {3})
        assert not verdict.separable
        # the x3 = 0 slice has minor a(000)a(110) - a(100)a(010) = -1/3
        assert verdict.max_minor_magnitude == pytest.approx(1 / 3)

    @pytest.mark.parametrize("mode", ["strict", "robust"])
    def test_product_state_separable(self, mode):
        psi = mn.random_product_state(({1}, {2}, {3}), 4).state
        verdict = mn.conditionally_separable(psi, {1}, {2}, {3}, mode=mode)
        assert verdict.separable

    def test_ghz_zero_amplitude_pathology(self, ghz):
        # slice-wise rank 1 despite full entanglement: separable verdict
        # plus an attached warning
        with pytest.warns(mn.ZeroAmplitudeWarning):
            verdict = mn.conditionally_separable(ghz, {1}, {2}, {3})
        assert verdict.separable
        assert verdict.zero_amplitudes

    def test_strict_records_reference(self, ghz):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
            verdict = mn.conditionally_separable(ghz, {1}, {2}, {3}, mode="strict")
        assert verdict.reference == Assignment.zeros(3)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        psi = mn.random_state(4, seed)
        for a, b in [({1}, {2}), ({1, 3}, {4}), ({2}, {3, 4})]:
            c = set(range(1, 5)) - set(a) - set(b)
            left = mn.conditionally_separable(psi, a, b, c).separable
            right = mn.conditionally_separable(psi, b, a, c).separable
            assert left == right

    @pytest.mark.parametrize("seed", range(6))
    def test_strict_and_robust_agree_on_nonzero_states(self, seed):
        psi = mn.random_nonzero_state(4, seed)
        for a, b, c in [({1}, {2}, {3, 4}), ({1, 2}, {3}, {4}), ({1}, {4}, set())]:
            robust = mn.conditionally_separable(psi, a, b, c, mode="robust").separable
            strict = mn.conditionally_separable(psi, a, b, c, mode="strict").separable
            assert robust == strict

    def test_robust_sees_a_slice_the_reference_row_misses(self):
        """Held x4 = 1: the reference row x1x2 = 00 is zero there, so the strict
        identity holds vacuously, while rows 01 and 10 form a rank-2 slice."""
        amps = np.zeros(16)
        amps[[0b0000, 0b0101, 0b1011]] = 1.0
        psi = mn.PureState.normalized(amps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
            strict = mn.conditionally_separable(psi, {1, 2}, {3}, {4}, mode="strict")
        robust = mn.conditionally_separable(psi, {1, 2}, {3}, {4})
        assert strict.separable and strict.reference == Assignment.zeros(4)
        assert not robust.separable and robust.reference is None
        assert robust.witness == (Assignment({1: 0, 2: 1, 3: 0, 4: 1}), Assignment({1: 1, 2: 0, 3: 1, 4: 1}))
        assert robust.max_minor_magnitude == pytest.approx(1 / 3)

    def test_general_form_ignores_held_split(self, w_state):
        # qubits outside A and B are held either way, so moving them between
        # C and the remainder cannot change the verdict
        with_c = mn.conditionally_separable(w_state, {1}, {2}, {3}).separable
        without_c = mn.conditionally_separable(w_state, {1}, {2}, set()).separable
        assert with_c == without_c

    def test_overlap_rejected(self, w_state):
        with pytest.raises(mn.InvalidPartition):
            mn.conditionally_separable(w_state, {1}, {1}, {3})
        with pytest.raises(mn.InvalidPartition):
            mn.conditionally_separable(w_state, {1}, set(), {3})

    def test_unknown_mode(self, w_state):
        with pytest.raises(ValueError):
            mn.conditionally_separable(w_state, {1}, {2}, {3}, mode="loose")


class TestDefaultReference:
    def test_prefers_all_zeros(self, plusplus):
        assert mn.default_reference(plusplus) == Assignment.zeros(2)

    def test_falls_back_to_max_modulus(self, w_state):
        # a(000) = 0, so the reference moves to a maximal amplitude
        ref = mn.default_reference(w_state)
        assert abs(w_state.amplitude(ref)) == pytest.approx(1 / math.sqrt(3))


def _old_minor_bound(m1, m2, m3, m4, tol):
    """The sort-based top-two formula, kept as the reference."""
    stacked = np.sort(np.stack(np.broadcast_arrays(m1, m2, m3, m4)), axis=0)
    return tol.abs_eps + tol.rel_eps * stacked[-1] * stacked[-2]


def _old_scan_all_minors(arr, tol):
    """The masked full-square scan, kept as the reference."""
    rows, cols, _ = arr.shape
    mods = np.abs(arr)
    max_minor = 0.0
    first = None
    upper = np.triu(np.ones((cols, cols), dtype=bool), k=1)[None, :, :, None]
    for i in range(rows - 1):
        u = arr[i]
        v = arr[i + 1 :]
        minors = u[None, :, None, :] * v[:, None, :, :] - v[:, :, None, :] * u[None, None, :, :]
        mags = np.abs(minors)
        bounds = _old_minor_bound(
            mods[i][None, :, None, :],
            mods[i][None, None, :, :],
            mods[i + 1 :][:, :, None, :],
            mods[i + 1 :][:, None, :, :],
            tol,
        )
        mags = np.where(upper, mags, 0.0)
        max_minor = max(max_minor, float(mags.max(initial=0.0)))
        viol = (mags > bounds) & upper
        if viol.any():
            pos = np.argwhere(viol)
            best = pos[np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], pos[:, 3]))][0]
            cand = (int(best[3]), i, i + 1 + int(best[0]), int(best[1]), int(best[2]))
            if first is None or cand < first:
                first = cand
    return max_minor, first


class TestMinorScanMatchesOldFormula:
    @pytest.mark.parametrize("seed", range(10))
    def test_minor_bound_bit_identical(self, seed):
        from menet.separability import _minor_bound

        rng = np.random.default_rng(seed)
        # few distinct values, so ties and zeros are common
        m = [rng.integers(0, 4, size=(3, 1, 5)) * 0.25, rng.random((1, 4, 5)),
             rng.integers(0, 4, size=(3, 4, 1)) * 0.25, rng.random((3, 4, 5))]
        got = _minor_bound(*m, mn.DEFAULT_TOL)
        want = _old_minor_bound(*m, mn.DEFAULT_TOL)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 4, 3), (4, 2, 2), (4, 8, 1), (8, 4, 2), (1, 4, 2), (4, 1, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_scan_same_max_and_first_violation(self, shape, seed):
        from menet.separability import _scan_all_minors

        rng = np.random.default_rng([seed, *shape])
        rows, cols, held = shape
        col = rng.normal(size=(rows, 1, held)) + 1j * rng.normal(size=(rows, 1, held))
        row = rng.normal(size=(1, cols, held)) + 1j * rng.normal(size=(1, cols, held))
        arr = col * row  # rank 1 in every context
        # perturb a few entries, zero a few others, so the first violation moves
        flat = arr.reshape(-1)
        hits = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        flat[hits[:2]] *= 1.5
        flat[hits[2:]] = 0.0
        if seed % 2:
            arr[0] = 0.0  # minors through row 0 vanish; the witness moves to i >= 1
        got = _scan_all_minors(arr, mn.DEFAULT_TOL)
        want = _old_scan_all_minors(arr, mn.DEFAULT_TOL)
        assert got == want


def _pairwise_factor_state(n, edges, seed, zero_fraction=0.0):
    """Normalized product of one random factor per qubit and one per edge."""
    rng = np.random.default_rng(seed)
    index = np.arange(2**n)
    bits = [(index >> (n - q)) & 1 for q in range(1, n + 1)]
    amps = np.ones(2**n, dtype=np.complex128)
    for q in range(n):
        amps *= (rng.normal(size=2) + 1j * rng.normal(size=2))[bits[q]]
    for i, j in edges:
        factor = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        amps *= factor[bits[i - 1], bits[j - 1]]
    if zero_fraction:
        amps[rng.random(2**n) < zero_fraction] = 0.0
        amps[0] = 1.0  # never the zero vector
    return mn.PureState.normalized(amps)


def _oracle_edges(psi):
    n = psi.num_qubits
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            rest = set(range(1, n + 1)) - {i, j}
            out.append(not mn.conditionally_separable(psi, {i}, {j}, rest, mode="robust").separable)
    return out


def _ghz(n):
    amps = np.zeros(2**n)
    amps[0] = amps[-1] = 1.0
    return mn.PureState.normalized(amps)


def _w(n):
    amps = np.zeros(2**n)
    amps[[1 << k for k in range(n)]] = 1.0
    return mn.PureState.normalized(amps)


class TestOneVerdictBuilder:
    """is_separable and a_independent give conditionally_separable's verdicts with nothing held."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_entry_points_agree(self, n):
        states = [
            _ghz(n),
            _w(n),
            mn.random_product_state([[q] for q in range(1, n + 1)], n).state,
            mn.random_nonzero_state(n, n),
            mn.random_state(n, 10 + n),
        ]
        references = [Assignment.zeros(n), mn.assignment_of(2**n - 1, n)]
        for psi in states:
            for m in bipartitions(n):
                rest = set(range(1, n + 1)) - m
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
                    assert mn.is_separable(psi, m) == mn.conditionally_separable(psi, m, rest)
                    for x0 in references:
                        strict = mn.conditionally_separable(psi, m, rest, mode="strict", x0=x0)
                        assert mn.a_independent(psi, m, x0) == strict.separable


class TestPairwiseKernel:
    """The batched 2x2-minor kernel against pairwise conditionally_separable."""

    @staticmethod
    def kernel(psi):
        from menet.separability import _pairwise_entangled

        return list(_pairwise_entangled(psi.amplitudes[None, :], mn.DEFAULT_TOL)[0])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_dense_states(self, n):
        for seed in range(3):
            psi = mn.random_state(n, [seed, n])
            assert self.kernel(psi) == _oracle_edges(psi)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pairwise_factor_states_on_sparse_graphs(self, n):
        for seed in range(3):
            rng = np.random.default_rng([seed, n, 1])
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = [p for p in pairs if rng.random() < 0.3]
            psi = _pairwise_factor_state(n, edges, [seed, n])
            got = self.kernel(psi)
            assert got == _oracle_edges(psi)
            assert {p for p, hit in zip(pairs, got) if hit} == set(edges)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_states_with_exact_zeros(self, n):
        states = [_ghz(n), _w(n), mn.basis_state(n, 0), mn.basis_state(n, 2**n - 1)]
        if n > 1:
            states.append(mn.random_product_state(([1], list(range(2, n + 1))), n).state)
            states.append(_pairwise_factor_state(n, [(1, n)], n, zero_fraction=0.3))
        states.append(mn.PureState.normalized(
            np.where(np.arange(2**n) % 3 == 1, 0.0, mn.random_state(n, n).amplitudes)
        ))
        for psi in states:
            assert self.kernel(psi) == _oracle_edges(psi)

    def test_batch_rows_are_independent(self):
        from menet.separability import _pairwise_entangled

        states = [_ghz(4), _w(4), mn.random_state(4, 1), mn.basis_state(4, 5)]
        stack = np.stack([psi.amplitudes for psi in states])
        batched = _pairwise_entangled(stack, mn.DEFAULT_TOL)
        assert batched.shape == (4, 6)
        for row, psi in zip(batched, states):
            assert list(row) == self.kernel(psi)

    def test_empty_batch(self):
        from menet.separability import _pairwise_entangled

        assert _pairwise_entangled(np.zeros((0, 8), dtype=np.complex128), mn.DEFAULT_TOL).shape == (0, 3)


def _split_oracle(psi, splits):
    n = psi.num_qubits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
        return [
            mn.conditionally_separable(psi, a, b, set(range(1, n + 1)) - set(a) - set(b)).separable
            for a, b in splits
        ]


def _ordered_splits(n):
    """Every ordered (A, B) pair of nonempty disjoint qubit sets; the rest is held."""
    out = []
    for colors in itertools.product(range(3), repeat=n):  # the order verify enumerates them in
        a, b = (tuple(q for q in range(1, n + 1) if colors[q - 1] == role) for role in (0, 1))
        if a and b:
            out.append((a, b))
    return out


class TestSplitKernel:
    """The batched split kernel against conditionally_separable, split by split."""

    @pytest.fixture
    def kernel(self, split_masks):
        from menet.separability import _splits_separable

        def run(psi, splits):
            return _splits_separable(psi.amplitudes, *split_masks(psi.num_qubits, splits), mn.DEFAULT_TOL).tolist()

        return run

    @pytest.mark.parametrize("n", range(2, 8))
    def test_pairwise_factor_states(self, kernel, n):
        splits = _ordered_splits(n)
        for seed in range(2 if n < 6 else 1):
            rng = np.random.default_rng([seed, n, 2])
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = [p for p in pairs if rng.random() < 0.4]
            psi = _pairwise_factor_state(n, edges, [seed, n, 2])
            got = kernel(psi, splits)
            assert got == _split_oracle(psi, splits)
            assert all(got) == (not edges)  # an edge's ends on both sides are entangled
            assert any(got) == (len(edges) < len(pairs))  # two non-neighbours are not

    @pytest.mark.parametrize("n", range(2, 7))
    def test_states_with_exact_zeros(self, kernel, n):
        splits = _ordered_splits(n)
        states = [_ghz(n), _w(n), mn.basis_state(n, 0)]
        bell = np.zeros(2**n)
        bell[0] = bell[2 ** (n - 1) + 1] = 1.0  # qubits 1 and n entangled, the rest |0>
        states.append(mn.PureState.normalized(bell))
        states.append(mn.random_product_state(([1], list(range(2, n + 1))), n).state)
        states.append(_pairwise_factor_state(n, [(1, n)], [n, 3], zero_fraction=0.4))
        for psi in states:
            assert kernel(psi, splits) == _split_oracle(psi, splits)

    def test_split_order_and_repeats_do_not_matter(self, kernel):
        psi = _pairwise_factor_state(5, [(1, 2), (2, 5), (3, 4)], 9)
        splits = _ordered_splits(5)
        want = _split_oracle(psi, splits)
        shuffled = list(range(len(splits)))
        np.random.default_rng(1).shuffle(shuffled)
        picked = shuffled + shuffled[:7]
        got = kernel(psi, [(tuple(reversed(splits[k][0])), splits[k][1]) for k in picked])
        assert got == [want[k] for k in picked]
        assert kernel(psi, []) == []

    @pytest.mark.parametrize("held", [0, 1])
    def test_minor_at_the_tolerance_boundary(self, kernel, held):
        """Real amplitudes (0.1, 0.3, 0.3, s), normalized: both routes do the same
        real arithmetic, and a one-ulp step in s takes the minor across its bound.
        The entries' moduli differ, so the bound's choice of the two largest shows;
        `held` adds a qubit in |0>."""

        def state(s):
            amps = np.array([0.1, 0.3, 0.3, s])
            return mn.PureState.normalized(np.kron(amps, [1.0, 0.0]) if held else amps)

        splits = _ordered_splits(2 + held)
        first = [((1,), (2,))]

        def separable(s):
            return _split_oracle(state(s), first)[0]

        tol = mn.DEFAULT_TOL
        s = 0.9 + (tol.abs_eps + tol.rel_eps * 0.27) / 0.1  # minor = bound, to first order
        while not separable(s):
            s = np.nextafter(s, 0.0)
        while separable(np.nextafter(s, 1.0)):
            s = np.nextafter(s, 1.0)
        on, past = state(s), state(np.nextafter(s, 1.0))
        assert _split_oracle(on, first) == [True]
        assert _split_oracle(past, first) == [False]
        for psi in (on, past):
            assert kernel(psi, splits) == _split_oracle(psi, splits)

    def test_passes_are_chunked(self, kernel, monkeypatch):
        from menet import separability

        psi = _pairwise_factor_state(5, [(1, 3), (3, 4)], 4)
        splits = _ordered_splits(5)
        want = kernel(psi, splits)
        monkeypatch.setattr(separability, "_SPLIT_PASS_MINORS", 1)
        assert kernel(psi, splits) == want

    def test_one_class_a_pass(self, kernel, monkeypatch):
        from menet import separability

        psi = _pairwise_factor_state(6, [(1, 4), (2, 6), (4, 5)], 6)
        splits = _ordered_splits(6)
        want = _split_oracle(psi, splits)
        assert kernel(psi, splits) == want
        monkeypatch.setattr(separability, "_SPLIT_PASS_MINORS", 1)
        assert kernel(psi, splits) == want

    def test_at_the_perfect_map_bound(self, kernel):
        """At n = _PERFECT_MAP_MAX the oracle is too slow for every split: all
        ordered splits are checked against the state's own factor graph (A and B
        are separable iff no factor joins them; the factors are generic and no
        amplitude is near zero), and a random sample of them against the oracle."""
        from menet.network import _PERFECT_MAP_MAX

        n = _PERFECT_MAP_MAX
        edges = [(1, 2), (2, 5), (3, 4), (4, 8), (6, 7), (5, 9)]
        psi = _dense_factor_state(n, edges, 11)
        splits = _ordered_splits(n)
        got = kernel(psi, splits)
        assert got == [not any((i in a and j in b) or (j in a and i in b) for i, j in edges) for a, b in splits]
        assert any(got) and not all(got)
        picked = np.random.default_rng(12).choice(len(splits), size=120, replace=False)
        assert [got[k] for k in picked] == _split_oracle(psi, [splits[k] for k in picked])

    @pytest.mark.parametrize("n", range(3, 7))
    def test_peak_minor_bit_for_bit(self, split_masks, n):
        """Complex amplitudes, so operand order shows in the last bit: a split's
        largest |minor| in the general scan equals, exactly, the largest peak of
        the (D_A, D_B) classes below it, which the kernel's passes compute."""
        from menet.separability import _minor_classes, _minor_passes, _partition_matrix, _scan_all_minors

        splits = _ordered_splits(n)
        weight = {q: 1 << (n - q) for q in range(1, n + 1)}
        d_a, d_b = _minor_classes(n, *split_masks(n, splits))

        def class_peaks(amps):
            """Peak |minor| of each class below the splits, as a (2^n, 2^n) table by masks."""
            peaks = np.zeros((1 << n, 1 << n))
            for rows, mags, _ in _minor_passes(amps, d_a, d_b):
                peaks[d_a[rows], d_b[rows]] = mags.max(axis=1)
            return peaks

        def below(qubits):
            mask = sum(weight[q] for q in qubits)
            return [d for d in range(1, mask + 1) if d & mask == d]

        for seed in range(3):
            psi = mn.random_state(n, [seed, n])
            peaks = class_peaks(psi.amplitudes)
            for a, b in splits:
                arr, _ = _partition_matrix(psi, list(a), list(b))
                want, _ = _scan_all_minors(arr, mn.DEFAULT_TOL)
                assert max(peaks[d_a, d_b] for d_a in below(a) for d_b in below(b)) == want


def _exact_pairwise(rows, tol=mn.DEFAULT_TOL):
    """The tolerance law on raw rows (B, 2**n), pair by pair, with no screen."""
    from menet.separability import _minor_bound

    batch, dim = rows.shape
    n = dim.bit_length() - 1
    out = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        t = np.moveaxis(rows.reshape((batch,) + (2,) * n), (i, j), (1, 2)).reshape(batch, 2, 2, -1)
        minor = np.abs(t[:, 0, 0] * t[:, 1, 1] - t[:, 1, 0] * t[:, 0, 1])
        bound = _minor_bound(*(np.abs(t[:, a, b]) for a, b in ((0, 0), (1, 1), (1, 0), (0, 1))), tol)
        out.append((minor > bound).any(axis=1))
    return np.stack(out, axis=1).reshape(batch, -1)


def _dense_factor_state(n, edges, seed):
    """Pairwise-factor state whose factor moduli lie in [0.8, 1.25]: no amplitude near zero."""
    rng = np.random.default_rng(seed)
    bits = [(np.arange(2**n) >> (n - q)) & 1 for q in range(1, n + 1)]
    amps = np.ones(2**n, dtype=np.complex128)

    def factor(shape):
        return rng.uniform(0.8, 1.25, size=shape) * np.exp(2j * np.pi * rng.random(shape))

    for q in range(n):
        amps *= factor(2)[bits[q]]
    for i, j in edges:
        amps *= factor((2, 2))[bits[i - 1], bits[j - 1]]
    return mn.PureState.normalized(amps)


def _ladder(n):
    return [(k, k + 1) for k in range(1, n, 2)] + [(k, k + 2) for k in range(1, n - 1)]


class TestBoundScreen:
    """The per-row bound range: decided pairs skip `_minor_bound`, and verdicts
    equal the exact tolerance law, undecided pairs included."""

    @staticmethod
    def count_exact_bounds(monkeypatch):
        from menet import separability

        calls = []
        original = separability._minor_bound

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(separability, "_minor_bound", counting)
        return calls

    @staticmethod
    def at_the_bound():
        """y with the minor of (1, 0, 0, y) equal to its bound abs_eps + (rel_eps*1)*y."""
        tol = mn.DEFAULT_TOL
        y = tol.abs_eps
        for _ in range(3):
            y = tol.abs_eps + tol.rel_eps * 1.0 * y
        assert y == tol.abs_eps + tol.rel_eps * 1.0 * y
        return y

    def test_undecided_pairs_fall_back_to_the_exact_law(self, monkeypatch, split_masks):
        """Rows (1, 0, 0, y) put the minor y strictly between lo = abs_eps and hi:
        at the bound it is separable, one ulp above it entangled."""
        from menet.separability import _bound_range, _pairwise_entangled, _splits_separable

        y = self.at_the_bound()
        values = [np.nextafter(y, 0.0), y, np.nextafter(y, 1.0)]
        rows = np.array([[1.0, 0.0, 0.0, v] for v in values], dtype=np.complex128)
        lo, hi = _bound_range(np.abs(rows), mn.DEFAULT_TOL)
        assert np.all((lo < rows[:, 3].real) & (rows[:, 3].real < hi))
        want = [_oracle_edges(mn.PureState(row)) for row in rows]
        assert want == [[False], [False], [True]]
        assert _exact_pairwise(rows).tolist() == want
        calls = self.count_exact_bounds(monkeypatch)
        assert _pairwise_entangled(rows, mn.DEFAULT_TOL).tolist() == want
        assert len(calls) == 1
        splits = split_masks(2, [((1,), (2,)), ((2,), (1,))])
        for row, (entangled,) in zip(rows, want):
            assert _splits_separable(row, *splits, mn.DEFAULT_TOL).tolist() == [not entangled] * 2
        assert len(calls) == 4

    def test_a_peak_equal_to_hi_is_not_a_violation(self, split_masks):
        """Row (x, p, q, x): the two largest moduli are both the row's largest, so
        the bound of its one minor x*x - q*p is hi itself, and p and q are picked
        to make the minor equal to it, exactly. It does not exceed its bound."""
        from menet.separability import _bound_range, _pairwise_entangled, _splits_separable

        tol = mn.DEFAULT_TOL
        x = math.sqrt(tol.abs_eps / (1.0 - tol.rel_eps))
        while x * x <= tol.abs_eps + tol.rel_eps * x * x:
            x = float(np.nextafter(x, 1.0))
        hi = tol.abs_eps + tol.rel_eps * x * x
        q = 2.0**-20
        p = (x * x - hi) / q  # both steps exact: Sterbenz, then a power of two
        assert 0.0 < p < q < x and x * x - q * p == hi
        row = np.array([[x, p, q, x]], dtype=np.complex128)  # a00, a01, a10, a11
        lo, top = _bound_range(np.abs(row), tol)
        assert lo[0] < hi == top[0]
        assert _exact_pairwise(row).tolist() == [[False]]
        assert _pairwise_entangled(row, tol).tolist() == [[False]]
        assert _splits_separable(row[0], *split_masks(2, [((1,), (2,))]), tol).tolist() == [True]
        past = np.array([[x, p / 2, q, x]], dtype=np.complex128)
        assert _exact_pairwise(past).tolist() == [[True]]
        assert _pairwise_entangled(past, tol).tolist() == [[True]]

    def test_thresholds_are_per_row(self, monkeypatch):
        """Rows 1e6 apart in scale are each decided by their own range, with no
        exact bound: a range shared by the batch would leave the small row's
        entangled pairs undecided."""
        from menet.separability import _pairwise_entangled

        edges = [(1, 2), (2, 3), (3, 5), (4, 6)]
        psi = _dense_factor_state(6, edges, 5)
        rows = np.stack([psi.amplitudes, 1e6 * psi.amplitudes, 1e-3 * psi.amplitudes])
        want = _exact_pairwise(rows)
        pairs = list(itertools.combinations(range(1, 7), 2))
        assert want.tolist() == [[p in edges for p in pairs]] * 3
        calls = self.count_exact_bounds(monkeypatch)
        assert _pairwise_entangled(rows, mn.DEFAULT_TOL).tolist() == want.tolist()
        assert calls == []

    def test_rows_with_exact_zeros_and_the_empty_batch(self):
        from menet.separability import _bound_range, _pairwise_entangled

        tol = mn.DEFAULT_TOL
        states = [_ghz(4), _w(4), mn.basis_state(4, 6), _dense_factor_state(4, [(1, 3)], 2)]
        states.append(_pairwise_factor_state(4, [(2, 4)], 3, zero_fraction=0.3))
        rows = np.stack([psi.amplitudes for psi in states])
        lo, _ = _bound_range(np.abs(rows), tol)
        assert lo.tolist() == [tol.abs_eps] * 3 + [lo[3], tol.abs_eps]
        assert lo[3] > tol.abs_eps
        got = _pairwise_entangled(rows, tol).tolist()
        assert got == _exact_pairwise(rows).tolist() == [_oracle_edges(psi) for psi in states]
        empty = np.zeros((0, 16), dtype=np.complex128)
        assert [a.shape for a in _bound_range(np.abs(empty), tol)] == [(0,), (0,)]
        assert _pairwise_entangled(empty, tol).shape == (0, 6)

    def test_dense_states_make_no_exact_bound_call(self, monkeypatch):
        """On all-nonzero factor states like the dense benchmark inputs, the range
        decides every pair of build_graph and every split of verify."""
        graph_state = _dense_factor_state(10, _ladder(10), 7)
        verify_state = _dense_factor_state(6, _ladder(6), 8)
        calls = self.count_exact_bounds(monkeypatch)
        assert mn.build_graph(graph_state).edges == frozenset(_ladder(10))
        g = mn.build_graph(verify_state)
        assert g.edges == frozenset(_ladder(6))
        assert mn.verify_perfect_map(verify_state, g).passed
        assert calls == []


def _complete(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def _pinned_states(n, seed):
    """States of n qubits: 1, 2 and n - 1 qubits pinned by measurement,
    qubits 1 and n pinned by a basis-state factor, and a basis state."""
    rng = np.random.default_rng([seed, n, 2])
    psi = _pairwise_factor_state(n, [p for p in _complete(n) if rng.random() < 0.5], [seed, n])
    qubits = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
    states = []
    collapsed = psi
    for count, q in enumerate(qubits[:-1], start=1):
        collapsed = mn.measure_qubit(collapsed, q, int(rng.integers(2)))[1]
        if count in (1, 2, n - 1):
            states.append(collapsed)
    pinned = mn.basis_state(2, int(rng.integers(4)))
    states.append(mn.tensor_product(pinned, _dense_factor_state(n - 2, _complete(n - 2), seed), [1, n]))
    states.append(mn.basis_state(n, int(rng.integers(2**n))))
    return states


class TestSampleFirstKernel:
    """Sampled contexts first, full scans only for open pairs, pinned qubits
    dropped by build_graph: the same verdicts as the tolerance law."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_pairwise_factor_states(self, n):
        from menet.separability import _pairwise_entangled

        rng = np.random.default_rng([n, 3])
        sparse = [p for p in _complete(n) if rng.random() < 0.3]
        for edges in (sparse, _complete(n)):
            psi = _pairwise_factor_state(n, edges, [n, len(edges)])
            got = _pairwise_entangled(psi.amplitudes[None, :], mn.DEFAULT_TOL)
            assert got.tolist() == _exact_pairwise(psi.amplitudes[None, :]).tolist()
            assert got[0].tolist() == _oracle_edges(psi)
            with warnings.catch_warnings():  # products of many normal factors come near zero
                warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
                assert mn.build_graph(psi).edges == frozenset(edges)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_pinned_qubits(self, n):
        from menet.separability import _pairwise_entangled

        for psi in _pinned_states(n, 4):
            want = _oracle_edges(psi)
            row = psi.amplitudes[None, :]
            assert _pairwise_entangled(row, mn.DEFAULT_TOL)[0].tolist() == want
            assert _exact_pairwise(row)[0].tolist() == want
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
                graph = mn.build_graph(psi)
            assert graph.edges == {p for p, hit in zip(_complete(n), want) if hit}

    @pytest.mark.parametrize("n", [5, 7])
    def test_batches_mixing_rows(self, n, monkeypatch):
        """Rows decided by the sample sit beside rows that need full scans and
        rows with a lone minor between lo and hi, at its bound and one ulp
        above: the exact fallback runs for pair (1, 2) only, and every row
        matches its own call and the exact law."""
        from menet.separability import _pairwise_entangled

        states = _pinned_states(n, 6) + [
            _dense_factor_state(n, _complete(n), 1),
            _dense_factor_state(n, _ladder(n), 2),
            _ghz(n),
            _w(n),
        ]
        y = TestBoundScreen.at_the_bound()
        lone = np.zeros((2, 2**n), dtype=np.complex128)
        lone[:, 0] = 1.0
        lone[:, 3 << (n - 2)] = y, np.nextafter(y, 1.0)  # qubits 1 and 2 set: minor y of pair (1, 2)
        rows = np.concatenate([np.stack([psi.amplitudes for psi in states]), lone])
        want = _exact_pairwise(rows)
        assert want[-2:].tolist() == [[False] * len(_complete(n)), [True] + [False] * (len(_complete(n)) - 1)]
        bounds = self.count(monkeypatch, "_minor_bound")
        got = _pairwise_entangled(rows, mn.DEFAULT_TOL)
        assert got.tolist() == want.tolist()
        assert len(bounds) == 1
        for row, hits in zip(rows, got):
            assert _pairwise_entangled(row[None, :], mn.DEFAULT_TOL)[0].tolist() == hits.tolist()

    def test_sample_corners(self):
        from menet.separability import _PAIR_SAMPLES, _sample_corners

        for n in range(5, 12):
            c00, c11, c10, c01 = _sample_corners(n)
            for col, (i, j) in enumerate(_complete(n)):
                bit_i, bit_j = 1 << (n - i), 1 << (n - j)
                assert not np.any(c00[:, col] & (bit_i | bit_j))
                assert np.array_equal(c11[:, col], c00[:, col] | bit_i | bit_j)
                assert np.array_equal(c10[:, col], c00[:, col] | bit_i)
                assert np.array_equal(c01[:, col], c00[:, col] | bit_j)
                assert len(set(c00[:, col].tolist())) == _PAIR_SAMPLES

    @staticmethod
    def count(monkeypatch, name):
        from menet import separability

        calls = []
        original = getattr(separability, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(separability, name, counting)
        return calls

    def test_complete_graph_needs_no_full_scan(self, monkeypatch):
        psi = _dense_factor_state(10, _complete(10), 9)
        scans = self.count(monkeypatch, "_quad_minors")
        bounds = self.count(monkeypatch, "_minor_bound")
        assert mn.build_graph(psi).edges == frozenset(_complete(10))
        assert scans == [] and bounds == []

    def test_sparse_graph_scans_only_its_non_edges(self, monkeypatch):
        psi = _dense_factor_state(10, _ladder(10), 9)
        scans = self.count(monkeypatch, "_quad_minors")
        bounds = self.count(monkeypatch, "_minor_bound")
        assert mn.build_graph(psi).edges == frozenset(_ladder(10))
        assert len(scans) == 45 - len(_ladder(10)) and bounds == []

    def test_collapsed_state_is_scanned_without_its_pinned_qubit(self, monkeypatch):
        psi = _dense_factor_state(9, _ladder(9), 10)
        _, collapsed = mn.measure_qubit(psi, 4, 1)
        kernels = self.count(monkeypatch, "_pairwise_entangled")
        bounds = self.count(monkeypatch, "_minor_bound")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
            graph = mn.build_graph(collapsed)
        assert graph.edges <= {e for e in _ladder(9) if 4 not in e}
        assert [args[0].shape for args in kernels] == [(1, 2**8)]
        assert bounds == []
        assert graph.edges == {p for p, hit in zip(_complete(9), _oracle_edges(collapsed)) if hit}

    def test_pinned_reduction(self):
        from menet.separability import _pinned_reduction

        psi = _dense_factor_state(3, _complete(3), 11)
        state = mn.tensor_product(mn.tensor_product(mn.basis_state(1, 1), psi), mn.basis_state(1, 0))
        kept, amps = _pinned_reduction(state.amplitudes)
        assert kept == [2, 3, 4]
        assert np.array_equal(amps, psi.amplitudes)
        assert _pinned_reduction(mn.basis_state(3, 5).amplitudes)[0] == []
