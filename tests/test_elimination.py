"""Variable elimination against the dense oracles it replaced on the query routes.

Every model query that is not on a chain, and every model's log Z (its
derived modulus and the n <= 12 audit), run through menet.elimination.
These tests compare it with marginal_ratio, dense conditionals,
mle_brute_force of the reconstructed state and normalization_modulus on
random graphs, on exactly tied models and on the golden model files.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph, MenModel, QFunctionTable
from menet import elimination as el
from menet.inference import _marginal, _mle

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-12


def random_graph_model(n, seed, density=0.5):
    rng = np.random.default_rng([n, seed, 23])
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
    return mn.random_model(MenGraph.from_edges(n, edges), [n, seed, 23])


def random_binding(rng, n, count):
    qubits = rng.choice(np.arange(1, n + 1), size=count, replace=False)
    return Assignment({int(q): int(rng.integers(0, 2)) for q in qubits})


def engine_ratio(model, x_m):
    value, log_scale, _ = el.sum_product(model.potentials, model.reference_bits(), dict(x_m))
    return value * math.exp(log_scale)


def engine_mle(model):
    """Bits and probability by max-product elimination, whatever the graph."""
    bits, moduli, _ = el.max_product(model.potentials, model.reference_bits())
    return tuple(bits), model.reference_modulus**2 * math.prod(moduli) ** 2


def assert_matches_oracles(model, rng, queries=6):
    n = model.num_qubits
    bits = model.reference_bits()
    psi = mn.reconstruct_state(model)
    formula = mn.normalization_modulus(model.potentials, bits, n)
    assert math.exp(-0.5 * el._model_log_z(model)[0]) == pytest.approx(formula, rel=REL)
    brute = mn.mle_brute_force(psi)
    got_bits, got_probability = engine_mle(model)
    assert got_bits == brute.assignment.bits(n)
    assert got_probability == pytest.approx(brute.probability, rel=REL)
    for _ in range(queries):
        x_m = random_binding(rng, n, int(rng.integers(0, n + 1)))
        assert engine_ratio(model, x_m) == pytest.approx(mn.marginal_ratio(model, x_m).value, rel=REL)
        if not model.graph.is_path():  # the routes a model query takes
            assert _marginal(model, x_m, False)[0] == pytest.approx(
                mn.marginal_probability(psi, x_m), rel=REL
            )
    if model.graph.is_path() or n < 2:
        return
    result = _mle(model)
    assert result.assignment == brute.assignment
    assert result.probability == pytest.approx(brute.probability, rel=REL)
    for _ in range(queries):
        order = rng.permutation(np.arange(1, n + 1))
        split = int(rng.integers(1, n))
        stop = split + int(rng.integers(0, n - split + 1))
        query = Assignment({int(q): int(rng.integers(0, 2)) for q in order[:split]})
        evidence = Assignment({int(q): int(rng.integers(0, 2)) for q in order[split:stop]})
        want = mn.marginal_probability(psi, query.merge(evidence)) / mn.marginal_probability(psi, evidence)
        assert mn.conditional_probability(model, query, evidence) == pytest.approx(want, rel=REL)


class TestAgainstDenseOracles:
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_and_bindings(self, n, seed):
        density = 0.5 if n <= 9 else 0.3
        assert_matches_oracles(random_graph_model(n, seed, density), np.random.default_rng([n, seed]))

    @pytest.mark.parametrize("name", ["model_k4", "model_extract4", "model_chain6"])
    def test_golden_model_files(self, name):
        # model_chain6 is a path: its queries take the chain sweeps, so the
        # engine is compared there directly, and with those sweeps too
        model = mn.load_model(GOLDEN / f"{name}.model")
        assert_matches_oracles(model, np.random.default_rng(len(name)), queries=10)
        if model.graph.is_path():
            x_m = Assignment({2: 1, 5: 0})
            assert engine_ratio(model, x_m) == pytest.approx(mn.chain_marginal_ratio(model, x_m).value, rel=REL)
            assert engine_mle(model)[0] == mn.mle_chain(model).assignment.bits(model.num_qubits)

    def test_audit_keeps_its_error_text(self):
        model = mn.random_model(MenGraph.from_edges(4, [(1, 2), (1, 3), (2, 4)]), 5)
        wrong = model.reference_modulus * 1.01
        with pytest.raises(ValueError, match=rf"^reference_modulus {wrong!r} disagrees with the normalization formula value "):
            MenModel(model.graph, model.potentials, model.reference, wrong)

    def test_entry_that_is_not_finite_is_refused(self):
        """No log Z to derive or audit a modulus with: the model is refused, modulus given or not."""
        graph = MenGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        tables = [mn.random_model(graph, 1).potentials[i] for i in (0, 2)]
        tables.insert(1, QFunctionTable(2, (1, 3), 0, [1] * 4 + [math.inf, 2, 2, 2]))
        for modulus in (None, 0.0, 0.5):
            with pytest.raises(mn.EnumerationBoundExceeded, match="not a finite number"):
                MenModel(graph, tuple(tables), Assignment.zeros(3), modulus)


def tied_model(graph, moduli, seed):
    """Tables whose off-reference moduli are drawn from `moduli` (powers of two)
    with phases in {1, -1, i, -i}: every product is exact, so ties are exact."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(1, graph.num_nodes + 1):
        nb = graph.neighbors(i)
        half = 1 << len(nb)
        drawn = rng.choice(moduli, size=half) * rng.choice([1, -1, 1j, -1j], size=half)
        tables.append(QFunctionTable(i, nb, 0, [1] * half + drawn.tolist()))
    n = graph.num_nodes
    modulus = mn.normalization_modulus(tuple(tables), (0,) * n, n)
    return MenModel(graph, tuple(tables), Assignment.zeros(n), modulus)


class TestExactTies:
    """Max-product decodes ascending and takes 0 on an exact tie, as the dense argmax does."""

    def test_plusplus(self, fixture_dir):
        model = mn.load_model(fixture_dir / "plusplus.model")
        assert not model.graph.is_path()
        result = _mle(model)
        assert result.assignment == Assignment.zeros(2)
        assert result.probability == 0.25

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_product_tables_tie_everywhere(self, n):
        graph = MenGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))
        model = tied_model(graph, [1.0], n)
        assert _mle(model).assignment == Assignment.zeros(n)
        assert _mle(model).probability == pytest.approx(2.0**-n, rel=REL)

    @pytest.mark.parametrize("seed", range(12))
    def test_partial_ties_match_the_dense_argmax(self, seed):
        rng = np.random.default_rng([seed, 31])
        n = int(rng.integers(3, 9))
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        graph = MenGraph.from_edges(n, edges + [(1, n)])  # never the chain
        model = tied_model(graph, [1.0, 2.0], [seed, 32])
        psi = mn.reconstruct_state(model)
        brute = mn.mle_brute_force(psi)
        assert np.count_nonzero(np.abs(psi.amplitudes) ** 2 == brute.probability) > 1
        result = _mle(model)
        assert result.assignment == brute.assignment
        assert result.probability == pytest.approx(brute.probability, rel=REL)


class TestRange:
    @pytest.mark.parametrize("factor", [1e-5, 1e60])
    def test_rescaled_twin_keeps_the_chain_logs(self, factor, off_chain_twin):
        """Ratios past the double range (qubits 5..40 at 1): each factor is divided by its peak."""
        from test_chain_sweeps import rescaled

        model = rescaled(mn.random_chain_model(40, seed=[2, 40]), factor)
        twin = off_chain_twin(model)
        rng = np.random.default_rng(40)
        ones = Assignment({q: 1 for q in range(5, 41)})
        assert _marginal(model, ones, True)[0] in (0.0, math.inf)
        for x_m in [ones, ones.merge(Assignment({2: 0}))] + [random_binding(rng, 40, 6) for _ in range(5)]:
            assert _marginal(twin, x_m, True)[1] == pytest.approx(_marginal(model, x_m, True)[1], rel=1e-12)
        query, evidence = Assignment({3: 1, 30: 0}), Assignment({1: 0, 20: 1})
        want = mn.conditional_probability(model, query, evidence)
        assert mn.conditional_probability(twin, query, evidence) == pytest.approx(want, rel=1e-9)
        assert _mle(twin).assignment == mn.mle_chain(model).assignment

    def test_refused_before_any_arithmetic(self, wide_elimination_tables, wide_elimination_model, monkeypatch):
        """The model is refused as it is built, when it plans its log Z; sums and maxima on its tables too."""
        made = []
        monkeypatch.setattr(el, "_node_factor", lambda *args: made.append(1))
        with pytest.raises(mn.EnumerationBoundExceeded, match="variable elimination needs more than"):
            wide_elimination_model(20, seed=1)
        _, tables = wide_elimination_tables(20, seed=1)
        with pytest.raises(mn.EnumerationBoundExceeded, match="variable elimination needs more than"):
            el.sum_product(tables, (0,) * 40, {1: 0})
        with pytest.raises(mn.EnumerationBoundExceeded):
            el.max_product(tables, (0,) * 40)
        assert made == []

    def test_the_bound_counts_every_factor(self, wide_elimination_tables, wide_elimination_model):
        """A factor over m + 1 qubits, and about 2^(m + 2) entries in all: m = 16 runs, m = 17 does not."""
        for m, runs in ((16, True), (17, False)):
            _, tables = wide_elimination_tables(m, seed=m)
            scopes = el._scopes(tables, {})
            if runs:
                el._plan(scopes, 2 * m)
                wide_elimination_model(m, seed=m)
            else:
                with pytest.raises(mn.EnumerationBoundExceeded):
                    el._plan(scopes, 2 * m)
                with pytest.raises(mn.EnumerationBoundExceeded):
                    wide_elimination_model(m, seed=m)

    @pytest.mark.parametrize("seed", range(12))
    def test_every_model_built_answers_its_queries(self, seed):
        """Binding qubits only shrinks the plan, so a model that could work out its log Z answers every query.

        Random graphs of 10-30 qubits, each pair an edge with probability
        0.2: seeds 5, 6 and 8 are too wide to build, and seeds 3 and 4 plan
        about 370,000 and 400,000 of the 524,288 factor entries allowed.
        """
        rng = np.random.default_rng([seed, 27])
        n = int(rng.integers(10, 31))
        graph = MenGraph.from_edges(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.2])
        if seed in (5, 6, 8):
            with pytest.raises(mn.EnumerationBoundExceeded, match="variable elimination needs more than"):
                mn.random_model(graph, [seed, 27])
            return
        model = mn.random_model(graph, [seed, 27])
        bindings = [Assignment({q: 1}) for q in range(1, n + 1)]
        bindings += [random_binding(rng, n, int(rng.integers(2, n + 1))) for _ in range(3)]
        for x_m in bindings:
            assert 0.0 < _marginal(model, x_m, False)[0] < 1.0
        for _ in range(3):
            query, *evidence = rng.choice(np.arange(1, n + 1), size=int(rng.integers(2, 6)), replace=False).tolist()
            p = mn.conditional_probability(model, Assignment({query: 0}), Assignment({q: 1 for q in evidence}))
            assert 0.0 < p < 1.0
        assert 0.0 < _mle(model).probability < 1.0
