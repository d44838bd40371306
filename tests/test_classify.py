import functools
import itertools
import math
import re

import numpy as np
import pytest

import menet as mn
from menet import ClassTag, MenGraph, TripartiteClass


class TestCanonicalStates:
    def test_ghz(self, ghz):
        nonzero = np.flatnonzero(np.abs(ghz.amplitudes) > 0)
        assert list(nonzero) == [0, 7]
        assert abs(np.linalg.norm(ghz.amplitudes) - 1.0) < 1e-12

    def test_w(self, w_state):
        nonzero = np.flatnonzero(np.abs(w_state.amplitudes) > 0)
        assert list(nonzero) == [1, 2, 4]
        np.testing.assert_allclose(
            np.abs(w_state.amplitudes[nonzero]), 1 / math.sqrt(3)
        )

    def test_bell12_0_indices(self):
        psi = mn.canonical_state("bell12_0")
        assert list(np.flatnonzero(np.abs(psi.amplitudes) > 0)) == [0, 6]

    def test_bell13_0_indices(self):
        psi = mn.canonical_state("bell13_0")
        assert list(np.flatnonzero(np.abs(psi.amplitudes) > 0)) == [0, 5]

    def test_bell23_0_indices(self):
        psi = mn.canonical_state("bell23_0")
        assert list(np.flatnonzero(np.abs(psi.amplitudes) > 0)) == [0, 3]

    def test_product(self):
        assert mn.canonical_state("product").amplitudes[0] == 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            mn.canonical_state("nope")


class TestTopologyShape:
    def test_shapes(self):
        assert mn.topology_shape(MenGraph.empty(3)) == "empty"
        assert mn.topology_shape(MenGraph.from_edges(3, [(1, 3)])) == "edge(1,3)"
        assert mn.topology_shape(MenGraph.path(3)) == "chain(2)"
        assert (
            mn.topology_shape(MenGraph.from_edges(3, [(1, 2), (1, 3)])) == "chain(1)"
        )
        assert (
            mn.topology_shape(MenGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))
            == "triangle"
        )

    def test_wrong_arity(self):
        with pytest.raises(mn.WrongArity):
            mn.topology_shape(MenGraph.empty(2))


class TestTopologyCensus:
    def test_product_all_empty(self):
        census = mn.topology_census(mn.canonical_state("product"), 32, 7)
        accepted = census.accepted
        assert accepted > 0
        assert census.count("empty") == accepted

    def test_w_only_triangles(self, w_state):
        census = mn.topology_census(w_state, 64, 7)
        assert census.accepted > 0
        assert census.count("triangle") == census.accepted

    def test_ghz_has_chain_and_triangle(self, ghz):
        census = mn.topology_census(ghz, 64, 7)
        assert census.count("triangle") > 0
        assert any(census.count(f"chain({c})") > 0 for c in (1, 2, 3))

    def test_counts_sum_invariant(self, ghz):
        census = mn.topology_census(ghz, 16, 3)
        assert sum(census.counts.values()) == census.bases_sampled - census.bases_rejected_for_zeros

    def test_deterministic(self, ghz):
        a = mn.topology_census(ghz, 32, 9)
        b = mn.topology_census(ghz, 32, 9)
        assert dict(a.counts) == dict(b.counts)
        assert a.bases_rejected_for_zeros == b.bases_rejected_for_zeros

    def test_wrong_arity(self, bell):
        with pytest.raises(mn.WrongArity):
            mn.topology_census(bell, 8, 0)

    def test_report_lines_stable_order(self, ghz):
        lines = mn.topology_census(ghz, 8, 0).to_lines()
        shapes = [line.split(":")[0] for line in lines[2:]]
        assert shapes == [
            "empty",
            "edge(1,2)",
            "edge(1,3)",
            "edge(2,3)",
            "chain(1)",
            "chain(2)",
            "chain(3)",
            "triangle",
        ]


def _per_basis_census(psi, samples, seed, tol=mn.DEFAULT_TOL):
    """Reference census: rotate one basis at a time, test each pair with the oracle."""
    from menet.classify import SHAPE_ORDER, adaptive_bases, structured_bases

    bases = list(structured_bases()) + list(adaptive_bases(psi, tol))
    bases += [mn.LocalBasisChange.random(3, seed=[seed, k]) for k in range(samples)]
    counts = {shape: 0 for shape in SHAPE_ORDER}
    rejected = 0
    for change in bases:
        rotated = mn.apply_local_basis_change(psi, change)
        if rotated.min_modulus() <= tol.zero_amp_threshold:
            rejected += 1
            continue
        edges = [
            (i, j)
            for i, j in ((1, 2), (1, 3), (2, 3))
            if not mn.conditionally_separable(rotated, {i}, {j}, {6 - i - j}, tol).separable
        ]
        counts[mn.topology_shape(MenGraph.from_edges(3, edges))] += 1
    return counts, len(bases), rejected


class TestBatchedCensus:
    @pytest.mark.parametrize("name", ["ghz", "w", "product", "bell12_0", "bell13_0", "bell23_0"])
    @pytest.mark.parametrize("trial", range(3))
    def test_matches_per_basis_oracle(self, name, trial):
        psi = mn.canonical_state(name)
        if trial:  # a local-unitary image of the canonical state
            psi = mn.apply_local_basis_change(psi, mn.LocalBasisChange.random(3, seed=[21, trial]))
        census = mn.topology_census(psi, 24, 5)
        counts, sampled, rejected = _per_basis_census(psi, 24, 5)
        assert dict(census.counts) == counts
        assert census.bases_sampled == sampled
        assert census.bases_rejected_for_zeros == rejected

    def test_all_rejected_is_an_empty_census(self, ghz):
        census = mn.topology_census(ghz, 4, 0, mn.ToleranceConfig(zero_amp_threshold=0.9))
        assert census.accepted == 0
        assert sum(census.counts.values()) == 0

    def test_no_per_basis_graphs_or_rotations(self, monkeypatch, ghz):
        import importlib

        calls = []

        def forbidden(*args, **kwargs):
            calls.append(1)
            raise AssertionError("called")

        for module in ("menet.network", "menet.classify"):
            monkeypatch.setattr(importlib.import_module(module), "build_graph", forbidden, raising=False)
        for module in ("menet.state", "menet.classify"):
            monkeypatch.setattr(
                importlib.import_module(module), "apply_local_basis_change", forbidden, raising=False
            )
        census = mn.topology_census(ghz, 16, 3)
        assert census.accepted > 0
        assert calls == []


def _bits(stack):
    return np.asarray(stack, dtype=np.complex128).view(np.float64)


GENERATOR_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 20070212]


class TestBasisStacks:
    """The census's array-built bases against the LocalBasisChange constructors."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**40])
    def test_haar_stack_bit_identical(self, seed):
        from menet.classify import _haar_stack

        want = [mn.LocalBasisChange.random(3, seed=[seed, k]).matrices for k in range(40)]
        assert np.array_equal(_bits(_haar_stack(seed, 40)), _bits(want))

    @pytest.mark.parametrize("seed", GENERATOR_SEEDS)
    def test_uniforms_match_numpy(self, seed):
        """The stdlib PCG64 draws equal numpy's default_rng([seed, k]).random(9), bit for bit."""
        from menet.classify import _pcg64_uniforms

        for k in range(301):
            want = np.random.default_rng([seed, k]).random(9)
            got = np.array(_pcg64_uniforms([seed, k], 9))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k

    @pytest.mark.parametrize("entropy", [[2**96 + 5, 3], [2**100 - 1, 2**64 + 9], [], [0] * 9])
    def test_uniforms_match_numpy_past_the_pool(self, entropy):
        """More or fewer 32-bit entropy words than the pool's four, and a long draw."""
        from menet.classify import _pcg64_uniforms

        want = np.random.default_rng(entropy).random(1000).tolist()
        assert _pcg64_uniforms(entropy, 1000) == want

    @pytest.mark.parametrize("seed", GENERATOR_SEEDS)
    def test_haar_stack_matches_the_generator_draws(self, seed):
        from menet.classify import _haar_stack

        want = [mn.LocalBasisChange.random(3, seed=[seed, k]).matrices for k in range(301)]
        assert np.array_equal(_bits(_haar_stack(seed, 301)), _bits(want))

    @pytest.mark.parametrize("seed", [-1, np.int64(-7), -(2**70)])
    def test_negative_seed_refused(self, ghz, seed):
        """menet's own one-line error, before any draw (numpy's says "expected non-negative integer")."""
        message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            mn.topology_census(ghz, 4, seed)
        with pytest.raises(ValueError, match=message):
            mn.class_invariance_check(ghz, 1, seed)

    @pytest.mark.parametrize(
        "samples, seed, message",
        [
            (2.5, 0, "samples must be a non-negative integer, got 2.5"),
            (True, 0, "samples must be a non-negative integer, got True"),
            (-1, 0, "samples must be a non-negative integer, got -1"),
            ("8", 0, "samples must be a non-negative integer, got '8'"),
            (np.float64(8.0), 0, "samples must be a non-negative integer, got np.float64(8.0)"),
            (4, True, "seed must be a non-negative integer, got True"),
            (4, 1.0, "seed must be a non-negative integer, got 1.0"),
            (4, np.True_, "seed must be a non-negative integer, got np.True_"),
            (4, None, "seed must be a non-negative integer, got None"),
        ],
    )
    def test_census_arguments_refused(self, ghz, samples, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mn.topology_census(ghz, samples, seed)

    @pytest.mark.parametrize(
        "trials, seed, message",
        [
            (-3, 0, "trials must be a non-negative integer, got -3"),
            (2.0, 0, "trials must be a non-negative integer, got 2.0"),
            (False, 0, "trials must be a non-negative integer, got False"),
            (2, True, "seed must be a non-negative integer, got True"),
            (2, 0.5, "seed must be a non-negative integer, got 0.5"),
        ],
    )
    def test_invariance_arguments_refused(self, ghz, trials, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mn.class_invariance_check(ghz, trials, seed)

    def test_integer_types_accepted(self, ghz):
        assert mn.topology_census(ghz, np.int64(8), np.uint8(3)) == mn.topology_census(ghz, 8, 3)
        report = mn.class_invariance_check(ghz, np.int32(2), np.int64(3))
        assert len(report.outcomes) == 2 and report.passed
        assert len(mn.class_invariance_check(ghz, 0).outcomes) == 0

    def test_numpy_integer_seed(self, ghz):
        from menet.classify import _haar_stack

        seed = np.int64(11)
        want = [mn.LocalBasisChange.random(3, seed=[seed, k]).matrices for k in range(8)]
        assert np.array_equal(_bits(_haar_stack(11, 8)), _bits(want))
        assert mn.topology_census(ghz, 8, seed) == mn.topology_census(ghz, 8, 11)

    def test_stacks_are_cached_and_read_only(self):
        from menet.classify import _haar_stack, _structured_stack

        for stack in (_haar_stack(5, 6), _structured_stack()):
            assert isinstance(stack, tuple) and isinstance(stack[0][0][0], tuple)
            with pytest.raises(TypeError):
                stack[0][0][0][0] = 0.0
        assert _haar_stack(5, 6) is _haar_stack(5, 6)
        assert _structured_stack() is _structured_stack()
        assert _haar_stack(5, 0) == ()

    def test_structured_stack_bit_identical(self):
        from menet.classify import _structured_stack, structured_bases

        want = [change.matrices for change in structured_bases()]
        assert np.array_equal(_bits(_structured_stack()), _bits(want))

    @pytest.mark.parametrize("name", ["ghz", "w"])
    def test_adaptive_stack_matches_adaptive_bases(self, name):
        from menet.classify import _adaptive_stack, adaptive_bases

        psi = mn.apply_local_basis_change(mn.canonical_state(name), mn.LocalBasisChange.random(3, seed=4))
        stack = _adaptive_stack(psi.amplitudes.tolist(), mn.DEFAULT_TOL)
        assert len(stack) == (27 if name == "ghz" else 0)
        want = [change.matrices for change in adaptive_bases(psi)]
        assert np.array_equal(_bits(stack).reshape(-1, 3, 2, 4), _bits(want).reshape(-1, 3, 2, 4))

    def test_census_builds_no_basis_objects(self, monkeypatch, ghz):
        import menet.state as state_module

        calls = []
        original = state_module.LocalBasisChange.__post_init__

        def counting(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(state_module.LocalBasisChange, "__post_init__", counting)
        rotated = mn.apply_local_basis_change(ghz, mn.LocalBasisChange.random(3, seed=2))
        calls.clear()
        census = mn.topology_census(rotated, 32, 19)
        assert census.bases_sampled == 64 + 27 + 32
        assert calls == []


class TestClassify:
    def test_ghz(self, ghz):
        assert mn.classify(ghz) == TripartiteClass(ClassTag.GHZ_LIKE)

    def test_w(self, w_state):
        assert mn.classify(w_state) == TripartiteClass(ClassTag.W_LIKE)

    def test_product(self):
        got = mn.classify(mn.canonical_state("product"))
        assert got == TripartiteClass(ClassTag.FULLY_SEPARABLE)

    @pytest.mark.parametrize(
        "name,qubit", [("bell12_0", 3), ("bell13_0", 2), ("bell23_0", 1)]
    )
    def test_biseparable(self, name, qubit):
        got = mn.classify(mn.canonical_state(name))
        assert got == TripartiteClass(ClassTag.BISEPARABLE, qubit)

    def test_wrong_arity(self, bell):
        with pytest.raises(mn.WrongArity):
            mn.classify(bell)

    def test_amplitude_sequences(self, ghz):
        """The CLI passes the amplitude list it read; a list or an array is taken as the state."""
        psi = mn.apply_local_basis_change(ghz, mn.LocalBasisChange.random(3, seed=6))
        for amps in (psi.amplitudes.tolist(), psi.amplitudes):
            assert mn.classify(amps) == mn.classify(psi) == TripartiteClass(ClassTag.GHZ_LIKE)
            assert mn.topology_census(amps, 8, 2) == mn.topology_census(psi, 8, 2)
        with pytest.raises(mn.WrongArity, match=r"^classification requires a 3-qubit state, got n=4$"):
            mn.classify([0.25] * 16)
        with pytest.raises(mn.WrongArity, match=r"^census requires a 3-qubit state, got n=2$"):
            mn.topology_census([0.5] * 4, 8, 2)

    @pytest.mark.parametrize("name", ["ghz", "w", "bell12_0", "product", "random", "random_zeros"])
    def test_stage_one_equals_is_separable(self, name, monkeypatch):
        """Stage 1 reads its three single-qubit splits from the plain-Python
        kernel; each verdict equals is_separable's."""
        import importlib

        module = importlib.import_module("menet.classify")
        if name.startswith("random"):
            amps = mn.random_state(3, 5).amplitudes.copy()
            if name == "random_zeros":
                amps[[1, 6]] = 0.0
            psi = mn.PureState.normalized(amps)
        else:
            psi = mn.canonical_state(name)
        want = [mn.is_separable(psi, {i}).separable for i in (1, 2, 3)]
        seen = []
        original = module._single_qubit_separable

        def recording(*args):
            result = original(*args)
            seen.append(result)
            return result

        monkeypatch.setattr(module, "_single_qubit_separable", recording)
        got = mn.classify(psi)
        assert seen[0] == want
        if sum(want) == 3:
            assert got == TripartiteClass(ClassTag.FULLY_SEPARABLE)
        elif sum(want) == 1:
            assert got == TripartiteClass(ClassTag.BISEPARABLE, want.index(True) + 1)
        else:
            assert got.tag in (ClassTag.GHZ_LIKE, ClassTag.W_LIKE)

    def test_all_bases_rejected(self, ghz):
        # an absurd zero threshold rejects every basis
        tol = mn.ToleranceConfig(zero_amp_threshold=0.9)
        with pytest.raises(mn.AllBasesRejected):
            mn.classify(ghz, tol)

    def test_label_text(self):
        assert TripartiteClass(ClassTag.GHZ_LIKE).label() == "GHZ-like"
        assert TripartiteClass(ClassTag.BISEPARABLE, 2).label() == "biseparable(qubit 2)"

    def test_invariant_fields(self):
        with pytest.raises(ValueError):
            TripartiteClass(ClassTag.W_LIKE, 1)
        with pytest.raises(ValueError):
            TripartiteClass(ClassTag.BISEPARABLE)


class TestInvariance:
    @pytest.mark.parametrize("name", ["ghz", "w", "product", "bell13_0"])
    def test_class_stable_under_local_bases(self, name):
        report = mn.class_invariance_check(mn.canonical_state(name), trials=5, seed=3)
        assert report.passed, report.changes

    def test_singleton_separability_basis_invariant(self):
        # unconditional separability is preserved by local unitaries
        for name in ("bell23_0", "product"):
            psi = mn.canonical_state(name)
            before = [mn.is_separable(psi, {i}).separable for i in (1, 2, 3)]
            for trial in range(5):
                change = mn.LocalBasisChange.random(3, seed=[11, trial])
                rotated = mn.apply_local_basis_change(psi, change)
                after = [mn.is_separable(rotated, {i}).separable for i in (1, 2, 3)]
                assert after == before


class TestAdaptiveBases:
    def test_ghz_gets_candidates(self, ghz):
        from menet.classify import adaptive_bases

        assert len(adaptive_bases(ghz)) == 27  # all three qubits qualify

    def test_w_gets_none(self, w_state):
        from menet.classify import adaptive_bases

        assert adaptive_bases(w_state) == ()

    def test_candidates_are_unitary(self, ghz):
        from menet.classify import adaptive_bases

        for change in adaptive_bases(ghz):
            for u in change.matrices:
                np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-9)


# --- the numpy census, kept as the oracle of the plain-Python kernel --------


def _rotate_stack(amps, unitaries):
    """Amplitudes (B, 8) of one state under a (B, 3, 2, 2) stack of local
    unitaries, qubits 1, 2, 3 rotated in that order."""
    tensor = np.einsum("bxy,yjk->bxjk", unitaries[:, 0], amps.reshape(2, 2, 2))
    tensor = np.einsum("bxy,biyk->bixk", unitaries[:, 1], tensor)
    tensor = np.einsum("bxy,bijy->bijx", unitaries[:, 2], tensor)
    return tensor.reshape(len(unitaries), 8)


def _numpy_singular_direction_basis(psi, qubit, tol):
    """The adaptive candidates' unitary, in numpy arithmetic."""
    arr = psi.amplitudes.reshape(2, 2, 2)
    m0 = np.take(arr, 0, axis=qubit - 1)
    m1 = np.take(arr, 1, axis=qubit - 1)
    d0 = m0[0, 0] * m0[1, 1] - m0[0, 1] * m0[1, 0]
    d1 = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    cross = m0[0, 0] * m1[1, 1] + m0[1, 1] * m1[0, 0] - m0[0, 1] * m1[1, 0] - m0[1, 0] * m1[0, 1]
    threshold = tol.abs_eps + tol.rel_eps * float(max(np.max(np.abs(m0)), np.max(np.abs(m1)))) ** 2
    if abs(d0) <= threshold:
        if abs(cross) <= threshold:
            return None
        roots = [np.array([1.0, 0.0], dtype=complex), np.array([-d1 / cross, 1.0], dtype=complex)]
    else:
        sq = np.sqrt(np.complex128(cross * cross - 4.0 * d0 * d1))
        roots = [np.array([(-cross + s) / (2.0 * d0), 1.0], dtype=complex) for s in (sq, -sq)]
    r1, r2 = (r / np.linalg.norm(r) for r in roots)
    if abs(np.vdot(r1, r2)) > 1e-8:
        return None
    r2 = r2 - r1 * np.vdot(r1, r2)
    return np.stack([r1, r2 / np.linalg.norm(r2)])


@functools.lru_cache(maxsize=None)
def _numpy_fixed_stacks(seed, samples):
    """The structured bases and `samples` Haar bases, from the LocalBasisChange constructors."""
    from menet.classify import structured_bases

    changes = list(structured_bases()) + [mn.LocalBasisChange.random(3, seed=[seed, k]) for k in range(samples)]
    stack = np.array([change.matrices for change in changes])
    return stack[:64], stack[64:]


def _numpy_census(psi, samples, seed, tol=mn.DEFAULT_TOL):
    """(counts, bases sampled, rejected) of the batched numpy census."""
    from menet.classify import _SHAPE_BY_EDGE_CODE, SHAPE_ORDER, _ADAPTIVE_PAIR_ROTATIONS
    from menet.separability import _pairwise_entangled

    pair_rotations = [np.array(r) for r in _ADAPTIVE_PAIR_ROTATIONS]
    adaptive = []
    for qubit in (1, 2, 3):
        u = _numpy_singular_direction_basis(psi, qubit, tol)
        if u is not None:
            for r1, r2 in itertools.product(pair_rotations, repeat=2):
                mats = [r1, r2]
                mats.insert(qubit - 1, u)
                adaptive.append(mats)
    structured, haar = _numpy_fixed_stacks(seed, samples)
    bases = np.concatenate([structured, np.array(adaptive, dtype=complex).reshape(-1, 3, 2, 2), haar])
    rotated = _rotate_stack(psi.amplitudes, bases)
    accepted = np.abs(rotated).min(axis=1) > tol.zero_amp_threshold
    tally = np.bincount(_pairwise_entangled(rotated[accepted], tol) @ np.array([4, 2, 1]), minlength=8)
    counts = {shape: 0 for shape in SHAPE_ORDER}
    for code, shape in enumerate(_SHAPE_BY_EDGE_CODE):
        counts[shape] += int(tally[code])
    return counts, len(bases), len(bases) - int(accepted.sum())


def _numpy_stage_one(psi, tol=mn.DEFAULT_TOL):
    from menet.separability import _splits_separable

    return _splits_separable(psi.amplitudes, np.array([4, 2, 1]), np.array([3, 5, 6]), tol).tolist()


def _numpy_default_verdict(psi, tol=mn.DEFAULT_TOL):
    """The class the numpy census gave with its default 256 samples and
    seed 0, or the error it raised."""
    separable = _numpy_stage_one(psi, tol)
    if sum(separable) == 3:
        return TripartiteClass(ClassTag.FULLY_SEPARABLE)
    if sum(separable) == 1:
        return TripartiteClass(ClassTag.BISEPARABLE, separable.index(True) + 1)
    if sum(separable) == 2:
        return mn.InconsistentGraph
    counts, sampled, rejected = _numpy_census(psi, 256, 0, tol)
    if sampled == rejected:
        return mn.AllBasesRejected
    if counts["triangle"] < sampled - rejected:
        return TripartiteClass(ClassTag.GHZ_LIKE)
    return TripartiteClass(ClassTag.W_LIKE)


# (samples, seed) of the compared censuses: fewer pairs than the Haar cache holds
CENSUS_DRAWS = [(0, 0), (16, 0), (256, 0), (16, 1), (256, 1), (16, 9), (256, 9)]
def _assert_default_verdict(psi):
    want = _numpy_default_verdict(psi)
    if isinstance(want, type):
        with pytest.raises(want):
            mn.classify(psi)
    else:
        assert mn.classify(psi) == want


CANONICAL = ["ghz", "w", "product", "bell12_0", "bell13_0", "bell23_0"]


def _oracle_states(family, chunk):
    """About 2,000 3-qubit states in 5 families, in chunks of a few hundred."""
    from menet.classify import structured_bases

    if family == "lu":  # local-unitary images of the canonical states
        name = CANONICAL[chunk]
        psi = mn.canonical_state(name)
        return [
            mn.apply_local_basis_change(psi, mn.LocalBasisChange.random(3, seed=[31, t, chunk]))
            for t in range(160)
        ]
    if family == "random":
        return [mn.random_nonzero_state(3, 7000 + 100 * chunk + k) for k in range(100)]
    if family == "structured":  # the canonical states and their structured images, with exact zeros
        psi = mn.canonical_state(CANONICAL[chunk])
        return [psi] + [mn.apply_local_basis_change(psi, change) for change in structured_bases()]
    if family == "zeros":  # random states with one to three exact zeros
        rng = np.random.default_rng([41, chunk])
        states = []
        for _ in range(75):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps[rng.choice(8, size=rng.integers(1, 4), replace=False)] = 0.0
            states.append(mn.PureState.normalized(amps))
        return states
    # random biseparable states, each qubit split off in turn
    blocks = [[[1], [2, 3]], [[2], [1, 3]], [[3], [1, 2]]][chunk % 3]
    return [mn.random_product_state(blocks, [43, chunk, k]).state for k in range(75)]


ORACLE_CASES = (
    [("lu", c) for c in range(6)]
    + [("random", c) for c in range(4)]
    + [("structured", c) for c in range(6)]
    + [("zeros", c) for c in range(2)]
    + [("biseparable", c) for c in range(3)]
)


class TestKernelAgainstNumpyCensus:
    """The plain-Python kernel against the numpy census it replaced: equal
    stage-1 verdicts, census counts, bases sampled and rejected, and the
    class the numpy census gave with its default 256 samples."""

    def test_the_states_number_two_thousand(self):
        assert sum(len(_oracle_states(*case)) for case in ORACLE_CASES) >= 2000

    @pytest.mark.parametrize("family, chunk", ORACLE_CASES, ids=[f"{f}-{c}" for f, c in ORACLE_CASES])
    def test_counts_and_verdicts(self, family, chunk):
        from menet.classify import _single_qubit_separable

        for k, psi in enumerate(_oracle_states(family, chunk)):
            samples, seed = CENSUS_DRAWS[k % len(CENSUS_DRAWS)]
            census = mn.topology_census(psi, samples, seed)
            counts, sampled, rejected = _numpy_census(psi, samples, seed)
            assert dict(census.counts) == counts, k
            assert (census.bases_sampled, census.bases_rejected_for_zeros) == (sampled, rejected), k
            assert _single_qubit_separable(psi.amplitudes.tolist(), mn.DEFAULT_TOL) == _numpy_stage_one(psi), k
            _assert_default_verdict(psi)

    def test_minors_between_the_screen_bounds(self):
        """Near-product states whose moduli span four decades put pair and
        split minors between the screen's lo and hi, where only the exact
        bound decides; the kernel still matches the numpy census."""
        from menet.classify import _PAIR_MINORS, _single_qubit_separable
        from menet.separability import _minor_bound

        rng = np.random.default_rng(2208)
        tol = mn.DEFAULT_TOL
        decided = {True: 0, False: 0}
        for k in range(150):
            factors = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
            factors[k % 3][1] *= 10.0 ** -rng.uniform(1, 2)
            product = np.kron(np.kron(factors[0], factors[1]), factors[2])
            noise = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps = product / np.linalg.norm(product) + 10.0 ** -rng.uniform(8, 12) * noise
            psi = mn.PureState.normalized(amps)
            mods = np.abs(psi.amplitudes)
            lo, hi = (tol.abs_eps + tol.rel_eps * m * m for m in (mods.min(), mods.max()))
            for tl, br, bl, tr in itertools.chain(*_PAIR_MINORS):
                a = psi.amplitudes
                m = abs(a[tl] * a[br] - a[bl] * a[tr])
                if lo < m <= hi:
                    decided[bool(m > _minor_bound(mods[tl], mods[tr], mods[bl], mods[br], tol))] += 1
            samples, seed = CENSUS_DRAWS[k % len(CENSUS_DRAWS)]
            census = mn.topology_census(psi, samples, seed)
            counts, sampled, rejected = _numpy_census(psi, samples, seed)
            assert dict(census.counts) == counts, k
            assert (census.bases_sampled, census.bases_rejected_for_zeros) == (sampled, rejected), k
            assert _single_qubit_separable(psi.amplitudes.tolist(), tol) == _numpy_stage_one(psi), k
            _assert_default_verdict(psi)
        assert decided[True] > 0 and decided[False] > 0, decided
