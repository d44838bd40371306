import itertools
import math
import time
import warnings

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph, MenModel, QFunctionTable


def uniform_chain_model(n, entry=1.0):
    """Chain model whose off-reference entries are a constant (any context)."""
    tables = []
    for i in range(1, n + 1):
        nb = MenGraph.path(n).neighbors(i)
        values = {}
        for ctx in itertools.product((0, 1), repeat=len(nb)):
            values[(0, ctx)] = complex(1.0)
            values[(1, ctx)] = complex(entry)
        tables.append(QFunctionTable(i, nb, 0, values))
    modulus = mn.normalization_modulus(tuple(tables), (0,) * n, n)
    return MenModel(MenGraph.path(n), tuple(tables), Assignment.zeros(n), modulus)


class TestMarginalProbability:
    def test_full_assignment(self, w_state):
        p = mn.marginal_probability(w_state, Assignment.from_bits((0, 0, 1)))
        assert p == pytest.approx(1 / 3)

    def test_empty_assignment(self, w_state):
        assert mn.marginal_probability(w_state, Assignment()) == pytest.approx(1.0)

    def test_w_first_qubit_zero(self, w_state):
        # |a(001)|^2 + |a(010)|^2 = 2/3
        assert mn.marginal_probability(w_state, Assignment({1: 0})) == pytest.approx(2 / 3)

    def test_out_of_range(self, w_state):
        with pytest.raises(mn.InvalidQuery):
            mn.marginal_probability(w_state, Assignment({4: 0}))


class TestMarginalRatio:
    def test_full_reference_is_one(self):
        model = mn.random_chain_model(4, 0)
        result = mn.marginal_ratio(model, Assignment.zeros(4))
        assert result.value == pytest.approx(1.0)
        assert result.op_count > 0

    def test_uniform_state_ratio(self, plusplus):
        model = mn.extract_men(plusplus)
        result = mn.marginal_ratio(model, Assignment({1: 0}))
        assert result.value == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_cross_check(self, seed):
        psi = mn.random_nonzero_state(4, seed)
        model = mn.extract_men(psi)
        p_ref = mn.probability_of(psi, Assignment.zeros(4))
        rng = np.random.default_rng(seed)
        for _ in range(6):
            qubits = rng.choice(4, size=rng.integers(1, 4), replace=False) + 1
            x_m = Assignment({int(q): int(rng.integers(0, 2)) for q in qubits})
            expected = mn.marginal_probability(psi, x_m) / p_ref
            got = mn.marginal_ratio(model, x_m).value
            assert abs(got - expected) / expected < 1e-10

    def test_out_of_range(self):
        model = mn.random_chain_model(3, 0)
        with pytest.raises(mn.InvalidQuery):
            mn.marginal_ratio(model, Assignment({9: 1}))


class TestConditionalProbability:
    def test_empty_query_is_one(self):
        model = mn.random_chain_model(4, 1)
        assert mn.conditional_probability(model, Assignment(), Assignment({2: 1})) == pytest.approx(1.0)

    def test_uniform_state(self, plusplus):
        model = mn.extract_men(plusplus)
        p = mn.conditional_probability(model, Assignment({1: 0}), Assignment({2: 1}))
        assert p == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_cross_check(self, seed):
        psi = mn.random_nonzero_state(4, seed + 50)
        model = mn.extract_men(psi)
        query, evidence = Assignment({2: 1}), Assignment({1: 0, 4: 1})
        expected = mn.marginal_probability(psi, query.merge(evidence)) / mn.marginal_probability(psi, evidence)
        got = mn.conditional_probability(model, query, evidence)
        assert abs(got - expected) < 1e-10

    def test_overlap_rejected(self):
        model = mn.random_chain_model(3, 0)
        with pytest.raises(mn.InvalidQuery):
            mn.conditional_probability(model, Assignment({1: 0}), Assignment({1: 1}))

    @pytest.mark.parametrize("seed", range(3))
    def test_probability_laws(self, seed):
        model = mn.random_chain_model(5, seed + 9)
        evidence = Assignment({4: 1})
        total = 0.0
        for bits in itertools.product((0, 1), repeat=2):
            p = mn.conditional_probability(model, Assignment({1: bits[0], 2: bits[1]}), evidence)
            assert 0.0 <= p <= 1.0
            total += p
        assert total == pytest.approx(1.0, abs=1e-9)


class TestBruteForceIndexGuards:
    """Brute-force sums refuse what they cannot enumerate or index."""

    def test_too_many_free_qubits(self):
        model = mn.random_chain_model(30, 0)
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.conditional_probability(model, Assignment({1: 0}), Assignment({2: 1}))
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.marginal_ratio(model, Assignment())

    @pytest.mark.parametrize("n", [64, 70])
    def test_indices_past_int64(self, n):
        # formerly 0.5 on n = 70 (the true value is far from it): the high
        # qubits' bits were shifted out of the int64 index without a word
        model = mn.random_chain_model(n, 1)
        evidence = Assignment({q: 0 for q in range(2, n - 4)})
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.conditional_probability(model, Assignment({1: 0}), evidence)
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.marginal_ratio(model, Assignment({1: 1}).merge(evidence))

    def test_widest_indexable_chain_is_exact(self):
        # n = 63 uses bits 62..0 of an int64 index: still exact
        n = 63
        model = mn.random_chain_model(n, 1)
        query = Assignment({1: 1})
        evidence = Assignment({q: q % 2 for q in range(2, n - 4)})
        expected = (
            mn.chain_marginal_ratio(model, query.merge(evidence)).value
            / mn.chain_marginal_ratio(model, evidence).value
        )
        got = mn.conditional_probability(model, query, evidence)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_dense_products_refuse_wide_indices(self):
        from menet.network import _relative_amplitude_products

        model = mn.random_chain_model(64, 0)
        with pytest.raises(mn.EnumerationBoundExceeded):
            _relative_amplitude_products(
                model.potentials, model.reference_bits(), 64, np.arange(4)
            )


class TestChainPrefix:
    def test_full_prefix_is_plain_product(self):
        model = mn.random_chain_model(6, 3)
        x = Assignment.from_bits((1, 0, 1, 1, 0, 1))
        got = mn.chain_prefix_marginal_ratio(model, x)
        brute = mn.marginal_ratio(model, x)
        assert got.value == pytest.approx(brute.value, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        model = mn.random_chain_model(12, seed)
        x = Assignment({i: (0, 1, 1, 0)[i - 1] for i in range(1, 5)})
        got = mn.chain_prefix_marginal_ratio(model, x)
        brute = mn.marginal_ratio(model, x)
        assert abs(got.value - brute.value) / brute.value < 1e-12

    def test_op_count_affine_in_n(self):
        m = 4
        x = Assignment({i: 0 for i in range(1, m + 1)})
        ops = [
            mn.chain_prefix_marginal_ratio(mn.random_chain_model(n, 1), x).op_count
            for n in range(8, 17)
        ]
        diffs = [b - a for a, b in zip(ops, ops[1:])]
        assert len(set(diffs)) == 1  # exactly affine

    def test_op_count_affine_in_m(self):
        n = 12
        model = mn.random_chain_model(n, 1)
        ops = [
            mn.chain_prefix_marginal_ratio(
                model, Assignment({i: 0 for i in range(1, m + 1)})
            ).op_count
            for m in range(1, n)
        ]
        diffs = [b - a for a, b in zip(ops, ops[1:])]
        assert len(set(diffs)) == 1

    def test_not_a_chain(self):
        model = mn.random_model(MenGraph.from_edges(3, [(1, 3)]), 0)
        with pytest.raises(mn.NotAChain):
            mn.chain_prefix_marginal_ratio(model, Assignment({1: 0}))

    def test_not_a_prefix(self):
        model = mn.random_chain_model(4, 0)
        with pytest.raises(mn.NotAPrefix):
            mn.chain_prefix_marginal_ratio(model, Assignment({2: 0}))


class TestChainMarginal:
    @pytest.mark.parametrize("seed", range(4))
    def test_prefix_queries_match_prefix_algorithm(self, seed):
        model = mn.random_chain_model(9, seed)
        x = Assignment({1: 1, 2: 0})
        a = mn.chain_prefix_marginal_ratio(model, x).value
        b = mn.chain_marginal_ratio(model, x).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_last_qubit_only(self):
        model = mn.random_chain_model(10, 2)
        x = Assignment({10: 1})
        got = mn.chain_marginal_ratio(model, x)
        brute = mn.marginal_ratio(model, x)
        assert abs(got.value - brute.value) / brute.value < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_scattered_bindings(self, seed):
        model = mn.random_chain_model(11, seed + 20)
        x = Assignment({2: 1, 5: 0, 9: 1})
        got = mn.chain_marginal_ratio(model, x)
        brute = mn.marginal_ratio(model, x)
        assert abs(got.value - brute.value) / brute.value < 1e-12

    def test_empty_assignment_normalization_identity(self):
        model = mn.random_chain_model(9, 4)
        result = mn.chain_marginal_ratio(model, Assignment())
        assert result.value * model.reference_modulus**2 == pytest.approx(1.0, abs=1e-10)

    def test_linear_op_growth(self):
        ops_n = mn.chain_marginal_ratio(mn.random_chain_model(500, 0), Assignment({1: 1})).op_count
        ops_2n = mn.chain_marginal_ratio(mn.random_chain_model(1000, 0), Assignment({1: 1})).op_count
        assert 1.8 <= ops_2n / ops_n <= 2.2


class TestMleBruteForce:
    def test_dominant_amplitude(self):
        amps = np.full(8, math.sqrt((1 - 0.81) / 7))
        amps[5] = 0.9
        result = mn.mle_brute_force(mn.PureState(amps))
        assert result.assignment == Assignment.from_bits((1, 0, 1))
        assert result.probability == pytest.approx(0.81)

    def test_uniform_tie_breaks_to_zero(self, plusplus):
        result = mn.mle_brute_force(plusplus)
        assert result.assignment == Assignment.zeros(2)

    @pytest.mark.parametrize("seed", range(4))
    def test_is_global_max(self, seed):
        psi = mn.random_state(6, seed)
        result = mn.mle_brute_force(psi)
        assert result.probability >= float(np.max(np.abs(psi.amplitudes) ** 2)) - 1e-15


class TestMleChain:
    def test_context_independent_tables(self):
        # every factor is context free, so nodes maximize independently
        model = uniform_chain_model(5, entry=2.0)
        result = mn.mle_chain(model)
        assert result.assignment == Assignment.from_bits((1,) * 5)
        model = uniform_chain_model(5, entry=0.5)
        assert mn.mle_chain(model).assignment == Assignment.zeros(5)

    def test_tie_breaks_lexicographically(self):
        result = mn.mle_chain(uniform_chain_model(4, entry=1.0))
        assert result.assignment == Assignment.zeros(4)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        model = mn.random_chain_model(10, seed)
        chain = mn.mle_chain(model)
        brute = mn.mle_brute_force(mn.reconstruct_state(model))
        assert chain.assignment == brute.assignment
        assert abs(chain.probability - brute.probability) <= 1e-12

    def test_long_chain_fast_and_linear(self):
        model = mn.random_chain_model(2000, 7)
        start = time.perf_counter()
        result = mn.mle_chain(model)
        assert time.perf_counter() - start < 1.0
        half = mn.mle_chain(mn.random_chain_model(1000, 7))
        assert 1.8 <= result.op_count / half.op_count <= 2.2

    def test_not_a_chain(self):
        model = mn.random_model(MenGraph.from_edges(3, [(1, 3)]), 0)
        with pytest.raises(mn.NotAChain):
            mn.mle_chain(model)


class TestMeasureAndUpdate:
    def test_chain_measurement_erases_incident_edges(self):
        psi = mn.reconstruct_state(mn.random_chain_model(3, 8))
        g = mn.build_graph(psi)
        assert g.sorted_edges() == [(1, 2), (2, 3)]
        p, collapsed, new_graph = mn.measure_and_update(psi, g, 2, 0)
        assert 0.0 < p < 1.0
        assert all(2 not in e for e in new_graph.edges)
        assert new_graph.edges <= {e for e in g.edges if 2 not in e}

    def test_product_state_stays_empty(self):
        psi = mn.random_product_state(({1}, {2}, {3}), 3).state
        g = mn.build_graph(psi)
        _, _, new_graph = mn.measure_and_update(psi, g, 1, 0)
        assert new_graph.sorted_edges() == []

    def test_rotated_ghz_shrinks(self):
        change = mn.LocalBasisChange.uniform(mn.rotation(math.pi / 5), 3)
        psi = mn.apply_local_basis_change(mn.canonical_state("ghz"), change)
        g = mn.build_graph(psi)
        assert len(g.edges) == 3
        _, _, new_graph = mn.measure_and_update(psi, g, 3, 0)
        assert new_graph.edges <= {e for e in g.edges if 3 not in e}
        assert len(new_graph.edges) < len(g.edges)

    def test_zero_probability_propagates(self):
        psi = mn.basis_state(2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
            g = mn.build_graph(psi)
            with pytest.raises(mn.ZeroProbabilityOutcome):
                mn.measure_and_update(psi, g, 1, 1)


class TestRandomChainModel:
    def test_single_node(self):
        model = mn.random_chain_model(1, 0)
        psi = mn.reconstruct_state(model)
        assert psi.num_qubits == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_norm(self, seed):
        psi = mn.reconstruct_state(mn.random_chain_model(7, seed))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9

    def test_reproducible(self):
        a = mn.random_chain_model(6, 42)
        b = mn.random_chain_model(6, 42)
        assert a.potentials == b.potentials

    def test_moduli_range(self):
        model = mn.random_chain_model(8, 5)
        for table in model.potentials:
            for (bit, _ctx), val in table.values.items():
                if bit == 1:
                    assert 0.2 <= abs(val) <= 5.0


class TestBench:
    def test_op_count_scaling(self):
        report = mn.bench_chains([500, 1000, 2000], seed=0, repetitions=1, timing=False)
        ops = {
            row.size: row.op_count
            for row in report.rows
            if row.task == "chain_marginal"
        }
        assert 1.8 <= ops[2000] / ops[1000] <= 2.2
        assert 1.8 <= ops[1000] / ops[500] <= 2.2

    def test_oracle_column_presence(self):
        report = mn.bench_chains([10, 14], seed=1, repetitions=1, timing=False)
        rows = {(r.size, r.task): r for r in report.rows}
        assert rows[(10, "chain_marginal")].oracle_agreement is not None
        assert rows[(10, "chain_marginal")].oracle_agreement < 1e-10
        assert rows[(14, "chain_marginal")].oracle_agreement is None  # > 12: skipped
        assert (14, "brute_marginal") in rows  # brute included up to 14

    def test_no_brute_rows_above_14(self):
        report = mn.bench_chains([16], seed=0, repetitions=1, timing=False)
        assert {r.task for r in report.rows} == {"chain_marginal", "chain_mle"}

    def test_deterministic_op_counts(self):
        a = mn.bench_chains([12], seed=3, repetitions=1, timing=False)
        b = mn.bench_chains([12], seed=3, repetitions=1, timing=False)
        assert a.to_text() == b.to_text()

    def test_text_shape(self):
        report = mn.bench_chains([8], seed=0, repetitions=1, timing=False)
        lines = report.to_text().splitlines()
        assert lines[0] == "size\ttask\twall_ns_median\top_count\toracle_agreement"
        assert all(line.split("\t")[2] == "-" for line in lines[1:])

    def test_timing_column_filled_when_enabled(self):
        report = mn.bench_chains([8], seed=0, repetitions=2, timing=True)
        assert all(row.wall_ns_median is not None for row in report.rows)
