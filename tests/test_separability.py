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
