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
            mn.classify(ghz, seed=seed)

    def test_numpy_integer_seed(self, ghz):
        from menet.classify import _haar_stack

        seed = np.int64(11)
        want = [mn.LocalBasisChange.random(3, seed=[seed, k]).matrices for k in range(8)]
        assert np.array_equal(_bits(_haar_stack(11, 8)), _bits(want))
        assert mn.topology_census(ghz, 8, seed) == mn.topology_census(ghz, 8, 11)

    def test_stacks_are_cached_and_read_only(self):
        from menet.classify import _haar_stack, _structured_stack

        for stack in (_haar_stack(5, 6), _structured_stack()):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0, 0] = 0.0
        assert _haar_stack(5, 6) is _haar_stack(5, 6)
        assert _haar_stack(5, 0).shape == (0, 3, 2, 2)

    def test_structured_stack_bit_identical(self):
        from menet.classify import _structured_stack, structured_bases

        want = [change.matrices for change in structured_bases()]
        assert np.array_equal(_bits(_structured_stack()), _bits(want))

    @pytest.mark.parametrize("name", ["ghz", "w"])
    def test_adaptive_stack_matches_adaptive_bases(self, name):
        from menet.classify import _adaptive_stack, adaptive_bases

        psi = mn.apply_local_basis_change(mn.canonical_state(name), mn.LocalBasisChange.random(3, seed=4))
        stack = _adaptive_stack(psi, mn.DEFAULT_TOL)
        assert len(stack) == (27 if name == "ghz" else 0)
        want = [change.matrices for change in adaptive_bases(psi)]
        assert np.array_equal(_bits(stack), _bits(want).reshape(-1, 3, 2, 4))

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
        assert mn.classify(ghz, 64, 7) == TripartiteClass(ClassTag.GHZ_LIKE)

    def test_w(self, w_state):
        assert mn.classify(w_state, 64, 7) == TripartiteClass(ClassTag.W_LIKE)

    def test_product(self):
        got = mn.classify(mn.canonical_state("product"), 64, 7)
        assert got == TripartiteClass(ClassTag.FULLY_SEPARABLE)

    @pytest.mark.parametrize(
        "name,qubit", [("bell12_0", 3), ("bell13_0", 2), ("bell23_0", 1)]
    )
    def test_biseparable(self, name, qubit):
        got = mn.classify(mn.canonical_state(name), 64, 7)
        assert got == TripartiteClass(ClassTag.BISEPARABLE, qubit)

    def test_wrong_arity(self, bell):
        with pytest.raises(mn.WrongArity):
            mn.classify(bell)

    @pytest.mark.parametrize("name", ["ghz", "w", "bell12_0", "product", "random", "random_zeros"])
    def test_stage_one_equals_is_separable(self, name, monkeypatch):
        """Stage 1 reads its three single-qubit splits from the split kernel;
        each verdict equals is_separable's."""
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
        original = module._splits_separable

        def recording(*args):
            result = original(*args)
            seen.append(result.tolist())
            return result

        monkeypatch.setattr(module, "_splits_separable", recording)
        got = mn.classify(psi, 16, 0)
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
            mn.classify(ghz, 4, 0, tol)

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
