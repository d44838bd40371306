import itertools
import math
import time
import warnings

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph, MenModel, QFunctionTable
from menet.cli import main


def uniform_chain_model(n, entry=1.0):
    """Chain model whose off-reference entries are a constant (any context)."""
    tables = []
    for i in range(1, n + 1):
        nb = MenGraph.path(n).neighbors(i)
        half = 1 << len(nb)
        tables.append(QFunctionTable(i, nb, 0, [complex(1.0)] * half + [complex(entry)] * half))
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

    def test_log_field_comes_last_and_defaults_to_the_log_of_the_value(self):
        result = mn.marginal_ratio(mn.random_chain_model(4, 0), Assignment({1: 1}))
        assert result.log_value == math.log(result.value)
        assert mn.QueryResult(0.25, 3) == mn.QueryResult(0.25, 3, math.log(0.25))
        assert mn.QueryResult(0.0, 3).log_value == -math.inf
        assert repr(mn.QueryResult(0.5, 3, -0.75)) == "QueryResult(value=0.5, op_count=3, log_value=-0.75)"
        mle = mn.mle_brute_force(mn.PureState([0.6, 0.8]))
        assert mle.log_probability == math.log(mle.probability)
        assert repr(mn.MleResult(Assignment({1: 1}), 0.5, 2, -0.5)) == (
            "MleResult(assignment=Assignment(1=1), probability=0.5, op_count=2, log_probability=-0.5)"
        )


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

    @pytest.mark.parametrize(
        "seed, stored",
        [(0, "0.10983577362501876"), (1, "0.07194690802575107"), (2, "0.6104935286544796"), (3, "0.29276009479512033")],
    )
    def test_floor_needs_no_log_z(self, seed, stored, off_chain_twin, monkeypatch):
        """A model with a normal squared modulus decides the evidence floor on
        p(evidence) = ratio * modulus**2: no log-Z elimination. The values are
        those of the route that eliminated log Z for the floor."""
        from menet import elimination

        twin = off_chain_twin(mn.random_chain_model(20, seed))  # n > 12: loaded without an audit
        assert not twin.graph.is_path()
        calls = []
        original = elimination.log_partition

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(elimination, "log_partition", counting)
        got = mn.conditional_probability(twin, Assignment({1: 0, 5: 1}), Assignment({3: 1, 20: 0}))
        assert repr(got) == stored
        assert not calls

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
    """Sums refuse what they cannot enumerate, and sum what they can represent.

    The brute-force oracle is bounded by the number of free qubits and the
    double range of its sum; variable elimination by the factors its order
    builds, not by n. Conditionals on chains take the sweeps, so the
    elimination route is exercised on the same states over the chain plus
    edge (1, 3).
    """

    def test_too_many_free_qubits(self, wide_elimination_model):
        # 40 qubits of degree <= 3, but a factor over 21 of them: the model
        # cannot work out its own log Z, so it is refused as it is built
        with pytest.raises(mn.EnumerationBoundExceeded, match="variable elimination"):
            wide_elimination_model(20, 0)
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.marginal_ratio(mn.random_chain_model(30, 0), Assignment())

    @pytest.mark.parametrize("n", [64, 70])
    def test_indices_past_int64(self, n, off_chain_twin):
        # dense products address qubits as tensor axes, so n past the width
        # of an int64 basis index is exact as long as few qubits are free
        model = mn.random_chain_model(n, 1)
        twin = off_chain_twin(model)
        query = Assignment({1: 0})
        evidence = Assignment({q: 0 for q in range(2, n - 4)})
        expected = (
            mn.chain_marginal_ratio(model, query.merge(evidence)).value
            / mn.chain_marginal_ratio(model, evidence).value
        )
        got = mn.conditional_probability(twin, query, evidence)
        assert got == pytest.approx(expected, rel=1e-9)
        x_m = Assignment({1: 1}).merge(evidence)
        expected = mn.chain_marginal_ratio(model, x_m).value
        assert mn.marginal_ratio(twin, x_m).value == pytest.approx(expected, rel=1e-9)

    def test_widest_indexable_chain_is_exact(self, off_chain_twin):
        # n = 63 uses bits 62..0 of an int64 index: still exact
        n = 63
        model = mn.random_chain_model(n, 1)
        query = Assignment({1: 1})
        evidence = Assignment({q: q % 2 for q in range(2, n - 4)})
        expected = (
            mn.chain_marginal_ratio(model, query.merge(evidence)).value
            / mn.chain_marginal_ratio(model, evidence).value
        )
        got = mn.conditional_probability(off_chain_twin(model), query, evidence)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_sum_past_the_double_range_is_an_error(self, off_chain_twin, tmp_path, capsys):
        # n = 500 with all-ones evidence: the oracle's evidence sum overflows
        # to inf (no RuntimeWarning either); elimination divides each factor
        # by its peak, so the conditional is the chain's
        n = 500
        model = mn.random_chain_model(n, 1)
        twin = off_chain_twin(model)
        query, evidence = Assignment({1: 0}), Assignment({q: 1 for q in range(2, n - 4)})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(mn.EnumerationBoundExceeded, match="double range"):
                mn.marginal_ratio(twin, evidence)
            got = mn.conditional_probability(twin, query, evidence)
        expected = mn.conditional_probability(model, query, evidence)
        assert expected == pytest.approx(0.0482016908458, rel=1e-11)
        assert got == pytest.approx(expected, rel=1e-9)
        path = tmp_path / "twin500.model"
        mn.save_model(twin, path)
        evidence_text = ",".join(f"{q}={b}" for q, b in evidence.items())
        rc = main(["conditional", str(path), "--query", "1=0", "--evidence", evidence_text])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out == f"probability: {expected:.12g}\n"


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

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_contract_on_pairwise_factor_states(self, n):
        """New edges are a subset of g minus the measured qubit's edges, for every
        qubit and outcome; g itself is not read, so any graph gives the same."""
        from test_separability import _pairwise_factor_state

        rng = np.random.default_rng([n, 5])
        for seed in range(3):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            psi = _pairwise_factor_state(n, [p for p in pairs if rng.random() < 0.4], [seed, n, 5])
            g = mn.build_graph(psi)
            for qubit in range(1, n + 1):
                for outcome in (0, 1):
                    p, collapsed, new_graph = mn.measure_and_update(psi, g, qubit, outcome)
                    assert new_graph.edges <= {e for e in g.edges if qubit not in e}
                    again = mn.measure_and_update(psi, MenGraph.empty(n), qubit, outcome)
                    assert again[0] == p and again[2] == new_graph
                    assert np.array_equal(again[1].amplitudes, collapsed.amplitudes)

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

    @pytest.mark.parametrize(
        "seed, n, stored",
        [
            (0, 1, "0.29347403458758714"),
            (0, 355, "1.3534761676047205e-158"),
            (0, 744, "0.0"),
            (0, 746, "0.0"),
            (0, 2000, "0.0"),
            (11, 744, "4.743e-321"),
            (11, 746, "2.3e-322"),
            (11, 2000, "0.0"),
        ],
    )
    def test_stored_modulus_pinned(self, seed, n, stored):
        # exp(-log Z / 2) with log Z >= 0, underflowing to 0 past n ~ 745
        assert repr(mn.random_chain_model(n, seed).reference_modulus) == stored

    def test_moduli_range(self):
        model = mn.random_chain_model(8, 5)
        for table in model.potentials:
            half = len(table.entries) // 2
            for ctx in itertools.product((0, 1), repeat=len(table.neighbors)):
                assert table.q(0, ctx) == 1.0
                assert 0.2 <= abs(table.q(1, ctx)) <= 5.0
            assert table.entries[:half] == (1 + 0j,) * half


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


def log_weights(model):
    """Independent oracle input: log |q|^2 transfer weights [i, x_{i-1}, x_i] in numpy."""
    n = model.num_qubits
    ref = model.reference_bits()
    logw = np.empty((n, 2, 2))
    for i, table in enumerate(model.potentials, start=1):
        q = table.array[..., ref[i]] if i < n else table.array
        logw[i - 1] = np.log(np.abs(q) ** 2).T  # node 1: a (2,) row, broadcast
    return logw


def log_sum(logw, x_m):
    """log of the sum of squared q-products over completions of x_m (transfer matrices)."""
    alpha = logw[0][0].copy()
    for i in range(1, len(logw) + 1):
        if i > 1:
            alpha = np.logaddexp.reduce(alpha[:, None] + logw[i - 1], axis=0)
        if i in x_m:
            alpha[1 - x_m[i]] = -np.inf
    return float(np.logaddexp.reduce(alpha))


def viterbi(logw):
    """Most likely assignment and its log squared q-product."""
    delta = logw[0][0].copy()
    back = []
    for level in logw[1:]:
        scores = delta[:, None] + level
        back.append(np.argmax(scores, axis=0))
        delta = scores.max(axis=0)
    bits = [int(np.argmax(delta))]
    for pointers in reversed(back):
        bits.append(int(pointers[bits[-1]]))
    return tuple(reversed(bits)), float(delta.max())


class TestLongChainsAgainstLogDomain:
    """Past n ~ 355 the stored reference modulus squared is subnormal or 0."""

    SIZES = [356, 500, 1000, 2000]

    @pytest.mark.parametrize("n", SIZES)
    def test_mle(self, n):
        model = mn.random_chain_model(n, [n, 11])
        logw = log_weights(model)
        bits, log_best = viterbi(logw)
        result = mn.mle_chain(model)
        assert result.assignment.bits(n) == bits
        expected = math.exp(log_best - log_sum(logw, {}))
        assert result.probability == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_marginal_probability(self, n):
        from menet.inference import _marginal

        model = mn.random_chain_model(n, [n, 12])
        rng = np.random.default_rng(n)
        logw = log_weights(model)
        for size in (1, 2, 10):
            qubits = rng.choice(np.arange(1, n + 1), size=size, replace=False)
            x_m = Assignment({int(q): int(rng.integers(0, 2)) for q in qubits})
            expected = math.exp(log_sum(logw, x_m) - log_sum(logw, {}))
            assert _marginal(model, x_m, False)[0] == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_conditional(self, n):
        model = mn.random_chain_model(n, [n, 13])
        logw = log_weights(model)
        query = Assignment({5: 1, n - 3: 0})
        evidence = Assignment({1: 0, 2: 1, n // 2: 1, n: 0})
        expected = math.exp(log_sum(logw, query.merge(evidence)) - log_sum(logw, evidence))
        got = mn.conditional_probability(model, query, evidence)
        assert got == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_log_fields(self, n):
        """The logs of chain results, where their values may read inf or 0."""
        model = mn.random_chain_model(n, [n, 14])
        logw = log_weights(model)
        log_z = log_sum(logw, {})
        for x_m in (Assignment({1: 0, 2: 1, 3: 1}), Assignment({2: 1, n // 2: 0, n: 1})):
            assert mn.chain_marginal_ratio(model, x_m).log_value == pytest.approx(log_sum(logw, x_m), rel=1e-11)
        prefix = Assignment({1: 0, 2: 1, 3: 1})
        assert mn.chain_prefix_marginal_ratio(model, prefix).log_value == pytest.approx(log_sum(logw, prefix), rel=1e-11)
        result = mn.mle_chain(model)
        assert result.log_probability == pytest.approx(viterbi(logw)[1] - log_z, rel=1e-9)
        assert result.probability == pytest.approx(math.exp(result.log_probability), rel=1e-12)

    def test_mle_counts_the_log_z_sweep(self):
        # 13n - 6 for the max-product sweep and the product; when the modulus
        # squared underflows, one sum-product sweep (10n - 7) more
        assert mn.mle_chain(mn.random_chain_model(10, 0)).op_count == 13 * 10 - 6
        assert mn.mle_chain(mn.random_chain_model(1000, 0)).op_count == 23 * 1000 - 13


class TestChainConditional:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_on_the_twin(self, seed, off_chain_twin):
        model = mn.random_chain_model(9, seed + 30)
        twin = off_chain_twin(model)
        query, evidence = Assignment({2: 1, 7: 0}), Assignment({1: 0, 5: 1, 9: 1})
        chain = mn.conditional_probability(model, query, evidence)
        brute = mn.conditional_probability(twin, query, evidence)
        assert chain == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("n", [30, 64, 70])
    def test_past_the_brute_force_guards(self, n):
        model = mn.random_chain_model(n, 1)
        query = Assignment({1: 0})
        evidence = Assignment({q: 0 for q in range(2, n - 4)})
        expected = (
            mn.chain_marginal_ratio(model, query.merge(evidence)).value
            / mn.chain_marginal_ratio(model, evidence).value
        )
        assert mn.conditional_probability(model, query, evidence) == pytest.approx(expected, rel=1e-12)

    def test_zero_evidence_floor_in_log_domain(self):
        # p(evidence) ~ e^-1100 while the stored modulus is 0
        model = mn.random_chain_model(1000, 0)
        assert model.reference_modulus == 0.0
        evidence = Assignment({q: 0 for q in range(1, 1001)})
        with pytest.raises(mn.ZeroEvidenceProbability):
            mn.conditional_probability(model, Assignment(), evidence)


def loop_relative_amplitude(model, bits):
    """prod_i q(x_i | lower neighbors at x, higher ones at the reference), one q call each."""
    ref = model.reference_bits()
    value = complex(1.0)
    for table in model.potentials:
        i = table.node
        ctx = tuple(bits[j - 1] if j < i else ref[j - 1] for j in table.neighbors)
        value *= table.q(bits[i - 1], ctx)
    return value


def loop_marginal_ratio(model, x_m):
    n = model.num_qubits
    free = [q for q in range(1, n + 1) if q not in x_m]
    total = 0.0
    for completion in itertools.product((0, 1), repeat=len(free)):
        bound = {**x_m, **dict(zip(free, completion))}
        bits = [bound[q] for q in range(1, n + 1)]
        total += abs(loop_relative_amplitude(model, bits)) ** 2
    return total


class TestDenseProductsAgainstLoopOracle:
    """The dense evaluator against plain loops of telescoping q-products."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_and_bindings(self, n, seed):
        rng = np.random.default_rng([n, seed, 77])
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        model = mn.random_model(MenGraph.from_edges(n, edges), [n, seed])
        psi = mn.reconstruct_state(model)
        for index, bits in enumerate(itertools.product((0, 1), repeat=n)):
            expected = model.reference_modulus * loop_relative_amplitude(model, bits)
            assert abs(psi.amplitudes[index] - expected) <= 1e-12 * abs(expected)
        for _ in range(5):
            qubits = rng.choice(n, size=rng.integers(0, n + 1), replace=False) + 1
            x_m = Assignment({int(q): int(rng.integers(0, 2)) for q in qubits})
            expected = loop_marginal_ratio(model, x_m)
            assert mn.marginal_ratio(model, x_m).value == pytest.approx(expected, rel=1e-12)
