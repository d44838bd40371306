import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph, MenModel, QFunctionTable
from menet import elimination, network
from menet.network import _audit_well_defined


def quiet_graph(psi, tol=mn.DEFAULT_TOL):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
        return mn.build_graph(psi, tol)


def all_ones_table(node, neighbors=()):
    return QFunctionTable(node, tuple(neighbors), 0, [1.0] * (2 << len(neighbors)))


class TestMenGraph:
    def test_neighbors_sorted(self):
        g = MenGraph.from_edges(4, [(3, 1), (1, 2)])
        assert g.neighbors(1) == (2, 3)
        assert g.neighbors(4) == ()
        assert g.has_edge(1, 3) and g.has_edge(3, 1)

    def test_path(self):
        assert MenGraph.path(3).sorted_edges() == [(1, 2), (2, 3)]
        assert MenGraph.path(1).sorted_edges() == []
        assert MenGraph.path(4).is_path()
        assert not MenGraph.from_edges(4, [(1, 2)]).is_path()

    def test_validation(self):
        with pytest.raises(ValueError):
            MenGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            MenGraph.from_edges(3, [(1, 4)])


class TestQFunctionTable:
    def test_requires_every_entry(self):
        with pytest.raises(ValueError, match="flat sequence of 2 numbers"):
            QFunctionTable(1, (), 0, [1.0])

    def test_reference_entries_must_be_one(self):
        with pytest.raises(ValueError, match="reference"):
            QFunctionTable(1, (), 0, [2.0, 1.0])

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError, match="~0"):
            QFunctionTable(1, (), 0, [1.0, 1e-9])

    def test_lookup(self):
        table = all_ones_table(2, (1, 3))
        assert table.q(1, (0, 1)) == 1.0


class TestQValue:
    def test_uniform_state(self, plusplus):
        value = mn.q_value(
            plusplus, {1}, Assignment({1: 1}), Assignment({2: 0}), Assignment.zeros(2)
        )
        assert value == pytest.approx(1.0)

    def test_reference_returns_exactly_one(self):
        psi = mn.random_nonzero_state(3, 1)
        value = mn.q_value(
            psi, {1, 2}, Assignment({1: 0, 2: 0}), Assignment({3: 1}), Assignment.zeros(3)
        )
        assert value == 1.0 + 0.0j

    def test_zero_reference_denominator(self, bell):
        with pytest.raises(mn.ZeroReferenceAmplitude):
            mn.q_value(bell, {1}, Assignment({1: 1}), Assignment({2: 1}), Assignment.zeros(2))

    def test_matches_amplitude_ratio(self):
        psi = mn.random_nonzero_state(3, 5)
        got = mn.q_value(
            psi, {2}, Assignment({2: 1}), Assignment({1: 1, 3: 0}), Assignment.zeros(3)
        )
        expected = psi.amplitude(Assignment.from_bits((1, 1, 0))) / psi.amplitude(
            Assignment.from_bits((1, 0, 0))
        )
        assert got == pytest.approx(expected)

    def test_domain_validation(self, bell):
        with pytest.raises(mn.InvalidPartition):
            mn.q_value(bell, {1}, Assignment({2: 1}), Assignment({2: 0}), Assignment.zeros(2))


class TestBuildGraph:
    def test_product_of_plus_states(self):
        psi = mn.random_product_state(({1}, {2}, {3}), 0).state
        assert quiet_graph(psi).sorted_edges() == []

    def test_w_triangle(self, w_state):
        with pytest.warns(mn.ZeroAmplitudeWarning):
            g = mn.build_graph(w_state)
        assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_bell_times_plus(self, bell, plus):
        psi = mn.tensor_product(bell, plus)
        assert quiet_graph(psi).sorted_edges() == [(1, 2)]

    def test_require_nonzero(self, w_state):
        with pytest.raises(mn.ZeroReferenceAmplitude):
            mn.build_graph(w_state, require_nonzero=True)

    def test_single_qubit(self):
        assert quiet_graph(mn.random_state(1, 0)).sorted_edges() == []


@pytest.fixture
def log_z_calls(monkeypatch):
    """Counts the log-Z computations: chain sweeps and eliminations."""
    calls = []
    for name in ("_chain_log_z", "log_partition"):
        original = getattr(elimination, name)

        def counting(*args, original=original):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(elimination, name, counting)
    return calls


class TestExtractMen:
    def test_uniform_two_qubits(self, plusplus):
        model = mn.extract_men(plusplus)
        assert model.graph.sorted_edges() == []
        for table in model.potentials:
            assert table.q(1, ()) == pytest.approx(1.0)
        assert model.reference_modulus == pytest.approx(0.5)

    def test_single_qubit_ratio(self):
        psi = mn.PureState([math.sqrt(1 / 3), math.sqrt(2 / 3)])
        model = mn.extract_men(psi)
        assert model.potentials[0].q(1, ()) == pytest.approx(math.sqrt(2))
        assert model.reference_modulus == pytest.approx(1 / math.sqrt(3))

    def test_rejects_zero_amplitudes(self, w_state):
        with pytest.raises(mn.ZeroReferenceAmplitude):
            mn.extract_men(w_state)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        n = 2 + seed % 5
        psi = mn.random_nonzero_state(n, seed)
        model = mn.extract_men(psi)
        back = mn.reconstruct_state(model)
        assert mn.fidelity_up_to_phase(psi, back) >= 1 - 1e-9

    def test_model_invariants(self):
        model = mn.extract_men(mn.random_nonzero_state(4, 3))
        for i in range(1, 5):
            assert model.potentials[i - 1].neighbors == model.graph.neighbors(i)
        formula = mn.normalization_modulus(model.potentials, (0,) * 4, 4)
        assert abs(model.reference_modulus - formula) <= 1e-9

    def test_normalization_summed_once(self, log_z_calls):
        """extract_men's model derives log Z once; within the audit bound, the audit reads it back."""
        model = mn.extract_men(mn.random_nonzero_state(5, 1))
        assert len(log_z_calls) == 1
        assert model.reference_modulus == math.exp(-0.5 * elimination._model_log_z(model)[0])
        assert len(log_z_calls) == 1

    def test_random_model_sums_once(self, log_z_calls):
        model = mn.random_model(MenGraph.path(10), seed=3)
        assert len(log_z_calls) == 1
        assert model.reference_modulus == math.exp(-0.5 * elimination._model_log_z(model)[0])
        assert len(log_z_calls) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_moduli_agree_with_the_dense_sum(self, n):
        """extract_men and random_model against normalization_modulus, the oracle."""
        rng = np.random.default_rng([n, 24])
        extracted = mn.extract_men(mn.random_nonzero_state(n, [n, 24]))
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
        drawn = mn.random_model(MenGraph.from_edges(n, edges), [n, 24])
        for model in (extracted, drawn):
            formula = mn.normalization_modulus(model.potentials, model.reference_bits(), n)
            assert model.reference_modulus == pytest.approx(formula, rel=1e-12)

    def test_caller_built_model_keeps_the_audit(self):
        import dataclasses

        model = mn.extract_men(mn.random_nonzero_state(4, 3))
        wrong = model.reference_modulus * 1.01
        with pytest.raises(ValueError, match="normalization formula"):
            MenModel(model.graph, model.potentials, model.reference, wrong)
        with pytest.raises(ValueError, match="normalization formula"):
            dataclasses.replace(model, reference_modulus=wrong)
        again = MenModel(model.graph, model.potentials, model.reference, model.reference_modulus)
        assert again == model

    def test_audit_catches_wrong_graph(self):
        # potentials sampled as if the graph were empty do not explain an
        # entangled state
        psi = mn.random_nonzero_state(3, 2)
        graph = MenGraph.empty(3)
        tables = []
        for i in (1, 2, 3):
            num = psi.amplitude(Assignment({i: 1}).merge(Assignment({j: 0 for j in (1, 2, 3) if j != i})))
            den = psi.amplitude(Assignment.zeros(3))
            tables.append(QFunctionTable(i, (), 0, [1.0, num / den]))
        with pytest.raises(mn.InconsistentGraph):
            _audit_well_defined(psi, graph, tuple(tables), mn.DEFAULT_TOL)


class TestExhaustiveAudit:
    @staticmethod
    def path_state(n, seed):
        rng = np.random.default_rng(seed)
        index = np.arange(2**n)
        bits = [(index >> (n - q)) & 1 for q in range(1, n + 1)]
        amps = np.ones(2**n, dtype=np.complex128)
        for i in range(1, n):
            amps *= rng.uniform(0.5, 2.0, size=(2, 2))[bits[i - 1], bits[i]]
        return mn.PureState.normalized(amps)

    def test_single_bad_context_is_found_beyond_n_10(self):
        # one amplitude off by 1e-3 breaks one context per node; a sampled
        # audit of 64 contexts per node would miss it most of the time
        n = 12
        psi = self.path_state(n, 4)
        model = mn.extract_men(psi)
        bad = 0b101101011011  # qubit 1 set, non-neighbors away from the reference
        amps = np.array(psi.amplitudes)
        amps[bad] *= 1.001
        broken = mn.PureState.normalized(amps)
        with pytest.raises(mn.InconsistentGraph) as info:
            _audit_well_defined(broken, model.graph, model.potentials, mn.DEFAULT_TOL)
        # node 1 is audited first; its context is the other qubits' bits of `bad`
        ctx = tuple((bad >> (n - q)) & 1 for q in range(2, n + 1))
        assert "x_1=1" in str(info.value)
        assert f"context {ctx}" in str(info.value)

    def test_first_violation_in_loop_order(self):
        # reference: the per-context loop over nodes, then contexts in
        # product order over the other qubits
        n = 5
        psi = mn.random_nonzero_state(n, 8)
        graph = MenGraph.path(n)
        model_tables = []
        for i in range(1, n + 1):
            nb = graph.neighbors(i)
            ratios = []
            for ctx in itertools.product((0, 1), repeat=len(nb)):
                base = sum(b << (n - j) for b, j in zip(ctx, nb))
                ratios.append(psi.amplitudes[base | (1 << (n - i))] / psi.amplitudes[base])
            model_tables.append(QFunctionTable(i, nb, 0, [1.0] * len(ratios) + ratios))
        expected = None
        for table in model_tables:
            i = table.node
            others = [j for j in range(1, n + 1) if j != i]
            for ctx in itertools.product((0, 1), repeat=n - 1):
                base = sum(b << (n - j) for b, j in zip(ctx, others))
                lhs = psi.amplitudes[base | (1 << (n - i))]
                rhs = table.q(1, tuple(ctx[others.index(j)] for j in table.neighbors)) * psi.amplitudes[base]
                if abs(lhs - rhs) > 1e-12 + 1e-9 * max(abs(lhs), abs(rhs)):
                    expected = (i, ctx)
                    break
            if expected:
                break
        assert expected is not None
        with pytest.raises(mn.InconsistentGraph) as info:
            _audit_well_defined(psi, graph, tuple(model_tables), mn.DEFAULT_TOL)
        assert f"x_{expected[0]}=1" in str(info.value)
        assert f"context {expected[1]}" in str(info.value)


class TestBuildGraphKernel:
    def test_no_general_scan_per_pair(self, monkeypatch):
        import importlib

        calls = []
        network = importlib.import_module("menet.network")
        original = mn.conditionally_separable

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # network no longer imports the scan; the patch still catches a call through its globals
        monkeypatch.setattr(network, "conditionally_separable", counting, raising=False)
        monkeypatch.setattr(importlib.import_module("menet.separability"), "conditionally_separable", counting)
        g = mn.build_graph(mn.random_nonzero_state(6, 2))
        assert len(g.edges) == 15
        assert calls == []

    def test_zero_amplitude_warning_kept(self, ghz):
        with pytest.warns(mn.ZeroAmplitudeWarning):
            g = mn.build_graph(ghz)
        assert g.edges == frozenset()
        with pytest.raises(mn.ZeroReferenceAmplitude):
            mn.build_graph(ghz, require_nonzero=True)


LADDER6 = MenGraph.from_edges(6, [(1, 2), (3, 4), (5, 6), (1, 3), (3, 5), (2, 4), (4, 6)])
K4 = MenGraph.from_edges(4, itertools.combinations(range(1, 5), 2))
RECONSTRUCT_MODELS = {
    **{f"chain{n}-{seed}": mn.random_chain_model(n, seed) for n in (1, 2, 5, 9, 14) for seed in range(2)},
    **{f"k4-{seed}": mn.random_model(K4, seed) for seed in range(2)},
    **{f"ladder6-{seed}": mn.random_model(LADDER6, seed) for seed in range(2)},
    **{f"extract6-{seed}": mn.extract_men(mn.random_nonzero_state(6, seed)) for seed in range(2)},
}


class TestReconstruct:
    def test_empty_graph_all_ones_is_uniform(self):
        model = MenModel(
            MenGraph.empty(2),
            (all_ones_table(1), all_ones_table(2)),
            Assignment.zeros(2),
            0.5,
        )
        psi = mn.reconstruct_state(model)
        np.testing.assert_allclose(psi.amplitudes, [0.5] * 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_model_unit_norm(self, seed):
        psi = mn.reconstruct_state(mn.random_chain_model(6, seed))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_chain_graph_subset(self, seed):
        model = mn.random_chain_model(4, seed)
        built = quiet_graph(mn.reconstruct_state(model))
        assert built.edges <= MenGraph.path(4).edges

    def test_reference_phase_positive_real(self):
        model = mn.random_chain_model(3, 9)
        psi = mn.reconstruct_state(model)
        ref = psi.amplitude(Assignment.zeros(3))
        assert ref.imag == pytest.approx(0.0, abs=1e-15)
        assert ref.real > 0

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_products_round_as_the_out_of_place_product(self, n):
        """In place, within relative 1e-14 of the product `out = out * factor`, either side of numpy's 256 KiB temporaries.

        numpy works a temporary factor that large into `out * factor` as
        factor * out, and complex products round differently in the two
        orders, so the two routes may differ by a few ulps.
        """
        from menet.state import _broadcast_over

        model = mn.random_chain_model(n, seed=n)
        ref = model.reference_bits()
        for bound in ({}, {2: 1}):
            free = [q for q in range(1, n + 1) if q not in bound]
            want = np.ones((2,) * len(free), dtype=np.complex128)
            for table in model.potentials:
                i = table.node
                lower = [j for j in table.neighbors if j < i]
                at = [bound.get(j, slice(None)) for j in (i, *lower)] + [ref[j - 1] for j in table.neighbors if j > i]
                values = table.array[tuple(at)]
                if i not in bound:
                    values = np.moveaxis(values, 0, -1)
                want = want * _broadcast_over(values, [j for j in (*lower, i) if j not in bound], free)
            got = network._relative_amplitude_products(model.potentials, ref, n, bound)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("name", RECONSTRUCT_MODELS)
    def test_amplitudes_are_the_modulus_times_the_products_bit_for_bit(self, name):
        """Models whose products stay in the double range are never divided: the modulus times the products, bit for bit."""
        model = RECONSTRUCT_MODELS[name]
        want = model.reference_modulus * network._relative_amplitude_products(
            model.potentials, model.reference_bits(), model.num_qubits
        )
        assert mn.reconstruct_state(model).amplitudes.tobytes() == want.reshape(-1).tobytes()

    def test_peak_memory_is_two_states(self):
        """The products are made in place and the state takes them over; the copying route peaked at 4.0 states."""
        import tracemalloc

        model = mn.random_chain_model(16, seed=3)
        mn.reconstruct_state(mn.random_chain_model(3, seed=0))  # the lazy imports, outside the trace
        tracemalloc.start()
        try:
            psi = mn.reconstruct_state(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * psi.amplitudes.nbytes
        assert not psi.amplitudes.flags.writeable and not psi.amplitudes.base.flags.writeable

    def test_model_validation(self):
        with pytest.raises(ValueError, match="neighbors"):
            MenModel(
                MenGraph.path(2),
                (all_ones_table(1), all_ones_table(2)),
                Assignment.zeros(2),
                0.5,
            )
        with pytest.raises(ValueError, match="normalization"):
            MenModel(
                MenGraph.empty(2),
                (all_ones_table(1), all_ones_table(2)),
                Assignment.zeros(2),
                0.75,
            )


class TestNodeSeparation:
    def test_triangle_direct_edge(self):
        g = MenGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert not mn.node_separation(g, {1}, {2}, {3})

    def test_chain_through_middle(self):
        assert mn.node_separation(MenGraph.path(3), {1}, {3}, {2})
        assert not mn.node_separation(MenGraph.path(3), {1}, {3}, set())

    def test_empty_graph(self):
        assert mn.node_separation(MenGraph.empty(4), {1}, {2, 3}, {4})

    def test_overlap_rejected(self):
        with pytest.raises(mn.InvalidPartition):
            mn.node_separation(MenGraph.empty(3), {1}, {1}, {2})

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complement_rule_equals_node_separation(self, n, split_masks):
        """With C the exact complement, verify's edge rule equals the search."""
        from menet.network import _complement_separated

        rng = np.random.default_rng([n, 5])
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        splits = [(x, y, c) for a, b, c in _all_splits(n) for x, y in ((a, b), (b, a))]
        masks = split_masks(n, [(x, y) for x, y, _ in splits])
        for density in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(3):
                g = MenGraph.from_edges(n, [p for p in pairs if rng.random() < density])
                want = [mn.node_separation(g, x, y, c) for x, y, c in splits]
                assert _complement_separated(g, *masks).tolist() == want


def _all_splits(n):
    """(A, B, C) with A, B nonempty, C the rest, lowest qubit of A | B in A."""
    out = []
    for colors in itertools.product((0, 1, 2), repeat=n):
        groups = tuple(tuple(q for q in range(1, n + 1) if colors[q - 1] == role) for role in range(3))
        if groups[0] and groups[1] and min(groups[0] + groups[1]) in groups[0]:
            out.append(groups)
    return out


class TestPerfectMap:
    @pytest.mark.parametrize("seed", range(4))
    def test_chain_states_pass(self, seed):
        psi = mn.reconstruct_state(mn.random_chain_model(4, seed))
        report = mn.verify_perfect_map(psi, quiet_graph(psi))
        assert report.passed
        assert report.partitions_checked == 25  # (3^4 - 2*2^4 + 1) / 2

    def test_w_with_triangle_passes(self, w_state):
        report = mn.verify_perfect_map(w_state, quiet_graph(w_state))
        assert report.passed
        assert report.zero_amplitudes

    def test_ghz_with_empty_graph_fails(self, ghz):
        report = mn.verify_perfect_map(ghz, MenGraph.empty(3))
        assert not report.passed
        assert report.zero_amplitudes
        # the failures are the three bipartite splits: entangled yet separated
        assert len(report.disagreements) == 3
        for _a, _b, c, sep, graph_sep in report.disagreements:
            assert c == () and not sep and graph_sep

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_verdicts_equal_the_scan(self, n):
        """Every split's verdict is conditionally_separable's, so a wrong graph
        disagrees exactly where the scan and graph separation differ."""
        rng = np.random.default_rng([n, 5])
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        psi = mn.reconstruct_state(
            mn.random_model(MenGraph.from_edges(n, [p for p in pairs if rng.random() < 0.5]), seed=n)
        )
        wrong = MenGraph.path(n)
        report = mn.verify_perfect_map(psi, wrong)
        want = []
        for a, b, c in _all_splits(n):
            sep = mn.conditionally_separable(psi, a, b, c).separable
            if sep != mn.node_separation(wrong, a, b, c):
                want.append((a, b, c, sep, not sep))
        assert report.partitions_checked == (3**n - 2 ** (n + 1) + 1) // 2
        assert list(report.disagreements) == want
        assert want or n == 2

    def test_no_general_scan_per_split(self, monkeypatch):
        import importlib

        calls = []
        original = mn.conditionally_separable

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("menet.separability"), "conditionally_separable", counting)
        monkeypatch.setattr(importlib.import_module("menet.network"), "conditionally_separable", counting, raising=False)
        psi = mn.random_nonzero_state(4, 8)
        assert mn.verify_perfect_map(psi, mn.build_graph(psi)).passed
        assert mn.check_graphoid_axioms(psi).passed
        assert calls == []

    def test_enumeration_bound(self):
        from menet.network import _PERFECT_MAP_MAX

        n = _PERFECT_MAP_MAX + 1
        psi = mn.random_state(n, 0)
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.verify_perfect_map(psi, MenGraph.empty(n))

    def test_size_mismatch(self, ghz):
        with pytest.raises(ValueError):
            mn.verify_perfect_map(ghz, MenGraph.empty(2))


class TestGraphoidAxioms:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_nonzero_states_pass(self, seed):
        report = mn.check_graphoid_axioms(mn.random_nonzero_state(4, seed))
        assert report.passed
        assert {ax.name for ax in report.axioms} == {"symmetry", "weak_union", "intersection"}
        assert all(ax.instances > 0 for ax in report.axioms)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_instances_are_the_distinct_set_tuples(self, n):
        """Ordered pairs (A, B), ordered triples (A, B, D), unordered {B, D}."""
        report = mn.check_graphoid_axioms(mn.random_nonzero_state(n, 0))
        triples = 4**n - 3 * 3**n + 3 * 2**n - 1
        assert {ax.name: ax.instances for ax in report.axioms} == {
            "symmetry": 3**n - 2 ** (n + 1) + 1,
            "weak_union": triples,
            "intersection": triples // 2,
        }
        assert report.instances == {2: 2, 3: 21, 4: 140}[n]

    @pytest.mark.parametrize(
        "holds, axiom, violations",
        [
            # I(1, 2) without I(2, 1)
            (lambda a, b: (a, b) == ((1,), (2,)), "symmetry", ["A=(1,), B=(2,)"]),
            # I(1, 23) both ways, without I(1, 2) or I(1, 3)
            (
                lambda a, b: {a, b} == {(1,), (2, 3)},
                "weak_union",
                ["A=(1,), B=(2,), D=(3,)", "A=(1,), B=(3,), D=(2,)"],
            ),
            # every I but I(1, 23) and I(23, 1)
            (lambda a, b: {a, b} != {(1,), (2, 3)}, "intersection", ["A=(1,), B=(2,), D=(3,)"]),
        ],
        ids=["symmetry", "weak_union", "intersection"],
    )
    def test_each_planted_break_is_reported_by_its_axiom_only(
        self, monkeypatch, split_masks, holds, axiom, violations
    ):
        import importlib

        def qubits(mask):
            return tuple(q for q in (1, 2, 3) if mask >> (3 - q) & 1)

        def planted(amps, masks_a, masks_b, tol):
            return np.array([holds(qubits(a), qubits(b)) for a, b in zip(masks_a.tolist(), masks_b.tolist())])

        monkeypatch.setattr(importlib.import_module("menet.separability"), "_splits_separable", planted)
        report = mn.check_graphoid_axioms(mn.random_nonzero_state(3, 0))
        assert {ax.name: list(ax.violations) for ax in report.axioms if ax.violations} == {
            axiom: violations
        }
        assert report == _graphoid_oracle(mn.random_nonzero_state(3, 0), split_masks)

    def test_product_state_passes(self):
        psi = mn.random_product_state(({1}, {2}, {3}), 1).state
        assert mn.check_graphoid_axioms(psi).passed

    def test_bound_guard(self):
        from menet.network import _GRAPHOID_MAX

        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.check_graphoid_axioms(mn.random_state(_GRAPHOID_MAX + 1, 0))


def _colorings(n, parts):
    """Every assignment of qubits 1..n to `parts` roles, as per-role qubit tuples.

    In itertools.product order over the roles of qubits 1..n; each tuple is
    ascending. The tuple enumeration the exhaustive checks ran on before
    they took masks, kept as the oracle for their reports.
    """
    out = []
    for colors in itertools.product(range(parts), repeat=n):
        groups = tuple([] for _ in range(parts))
        for q, color in enumerate(colors, start=1):
            groups[color].append(q)
        out.append(tuple(map(tuple, groups)))
    return out


def _tuple_verdicts(psi, splits, split_masks, tol=mn.DEFAULT_TOL):
    from menet import separability

    return separability._splits_separable(psi.amplitudes, *split_masks(psi.num_qubits, splits), tol).tolist()


def _perfect_map_oracle(psi, g, split_masks, tol=mn.DEFAULT_TOL):
    """verify_perfect_map on tuple splits, with graph separation read edge by edge."""
    n = psi.num_qubits
    splits = [groups for groups in _colorings(n, 3) if groups[0] and groups[1] and groups[0][0] < groups[1][0]]
    separable = _tuple_verdicts(psi, [(a, b) for a, b, _ in splits], split_masks, tol)
    disagreements = []
    for (set_a, set_b, set_c), sep in zip(splits, separable):
        graph_sep = not any(g.has_edge(i, j) for i in set_a for j in set_b)
        if sep != graph_sep:
            disagreements.append((set_a, set_b, set_c, sep, graph_sep))
    zero = psi.min_modulus() <= tol.zero_amp_threshold
    return network.PerfectMapReport(n, len(splits), tuple(disagreements), zero)


def _graphoid_oracle(psi, split_masks, tol=mn.DEFAULT_TOL):
    """check_graphoid_axioms on a dict keyed by tuple pairs and a list of tuple triples."""
    n = psi.num_qubits
    pairs = [(a, b) for a, b, _ in _colorings(n, 3) if a and b]
    ind = dict(zip(pairs, _tuple_verdicts(psi, pairs, split_masks, tol)))
    triples = [(a, b, d, tuple(sorted(b + d))) for a, b, d, _ in _colorings(n, 4) if a and b and d]

    def fmt(**sets):
        return ", ".join(f"{k}={v}" for k, v in sets.items())

    symmetry = [fmt(A=a, B=b) for a, b in pairs if ind[a, b] and not ind[b, a]]
    weak_union = [fmt(A=a, B=b, D=d) for a, b, d, bd in triples if ind[a, bd] and not ind[a, b]]
    intersection = [
        fmt(A=a, B=b, D=d)
        for a, b, d, bd in triples
        if b[0] < d[0] and ind[a, b] and ind[a, d] and not ind[a, bd]
    ]
    return network.GraphoidReport((
        network.AxiomResult("symmetry", len(pairs), tuple(symmetry)),
        network.AxiomResult("weak_union", len(triples), tuple(weak_union)),
        network.AxiomResult("intersection", len(triples) // 2, tuple(intersection)),
    ))


class TestReportsEqualTheTupleOracle:
    """Both exhaustive checks, on masks, give the reports of the tuple
    enumeration, disagreements and violations in the same order."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_states_and_wrong_graphs(self, n, split_masks):
        states = [mn.random_state(n, [n, 21])]
        if n > 1:  # exact zeros: qubit 2 measured
            states.append(mn.measure_qubit(mn.random_state(n, [n, 22]), 2, 1)[1])
        complete = MenGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))
        wrong = 0
        for psi in states:
            for g in (quiet_graph(psi), MenGraph.path(n), MenGraph.empty(n), complete):
                report = mn.verify_perfect_map(psi, g)
                assert report == _perfect_map_oracle(psi, g, split_masks)
                wrong += len(report.disagreements)
            assert mn.check_graphoid_axioms(psi) == _graphoid_oracle(psi, split_masks)
        assert wrong or n == 1

    @pytest.mark.parametrize("n", range(4, 7))
    def test_planted_verdicts(self, n, split_masks, monkeypatch):
        """A planted kernel with pseudo-random verdicts breaks every axiom many
        times over, so the order of long violation lists is compared too."""
        import importlib

        def planted(amps, masks_a, masks_b, tol):
            return (masks_a * 40503 + masks_b * 2654435761) >> 9 & 1 == 1

        monkeypatch.setattr(importlib.import_module("menet.separability"), "_splits_separable", planted)
        psi = mn.random_nonzero_state(n, n)
        g = MenGraph.path(n)
        report = mn.verify_perfect_map(psi, g)
        assert report == _perfect_map_oracle(psi, g, split_masks)
        axioms = mn.check_graphoid_axioms(psi)
        assert axioms == _graphoid_oracle(psi, split_masks)
        assert len(report.disagreements) > 1
        assert all(len(ax.violations) > 1 for ax in axioms.axioms)


class TestExportDot:
    def test_empty_two_nodes(self):
        assert mn.export_dot(MenGraph.empty(2)) == "graph men {\n  q1;\n  q2;\n}\n"

    def test_triangle_sorted(self):
        g = MenGraph.from_edges(3, [(2, 3), (1, 3), (1, 2)])
        assert mn.export_dot(g) == (
            "graph men {\n  q1;\n  q2;\n  q3;\n"
            "  q1 -- q2;\n  q1 -- q3;\n  q2 -- q3;\n}\n"
        )

    def test_chain(self):
        text = mn.export_dot(MenGraph.path(3))
        assert "q1 -- q2;" in text and "q2 -- q3;" in text and "q1 -- q3;" not in text


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        model = mn.random_chain_model(4, 5)
        path = tmp_path / "m.model"
        mn.save_model(model, path)
        back = mn.load_model(path)
        assert back.graph == model.graph
        assert back.reference == model.reference
        assert back.reference_modulus == model.reference_modulus
        assert back.potentials == model.potentials

    def test_writer_deterministic(self, tmp_path):
        model = mn.random_chain_model(3, 1)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        mn.save_model(model, p1)
        mn.save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("reference"),
            lambda d: d.update(reference="0"),
            lambda d: d.update(n=0),
            lambda d: d["q"]["1"].pop("10"),
            lambda d: d["q"]["1"].update({"10": [0.0, 0.0]}),
            lambda d: d.update(reference_modulus=d["reference_modulus"] * 1.01),
            lambda d: d.update(reference_modulus=10**400),
            lambda d: d["q"]["2"].update({"100": [0.5, 10**400]}),
            lambda d: d["q"].update({"2": [[1.0, 0.0]] * 8}),
        ],
    )
    def test_rejects_malformed(self, tmp_path, mutate):
        import json

        model = mn.random_chain_model(3, 2)
        path = tmp_path / "m.model"
        mn.save_model(model, path)
        payload = json.loads(path.read_text())
        mutate(payload)
        bad = tmp_path / "bad.model"
        bad.write_text(json.dumps(payload))
        with pytest.raises(mn.FileFormatError):
            mn.load_model(bad)

    def test_integer_past_the_double_range_names_the_file(self, tmp_path):
        import json

        path = tmp_path / "m.model"
        mn.save_model(mn.random_chain_model(3, 2), path)
        payload = json.loads(path.read_text())
        payload["q"]["3"]["11"] = [10**400, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            mn.FileFormatError,
            match=r"^malformed model file .*m\.model: int too large to convert to float$",
        ):
            mn.load_model(path)


@pytest.fixture(scope="module")
def k10_model():
    """extract_men of a random all-nonzero 10-qubit state: the complete graph, 10,240 entries."""
    model = mn.extract_men(mn.random_nonzero_state(10, 3))
    assert len(model.graph.sorted_edges()) == 45
    return model


class TestModelWriter:
    def test_matches_the_one_call_writer(self, k10_model, tmp_path):
        def one_call_text(model):
            lines = ["{", f'  "n": {model.num_qubits},']
            edge_text = ", ".join(f"[{i}, {j}]" for i, j in model.graph.sorted_edges())
            lines.append(f'  "edges": [{edge_text}],')
            lines.append(f'  "reference": "{"".join(str(b) for b in model.reference_bits())}",')
            lines.append('  "reference_modulus": %.17e,' % model.reference_modulus)
            lines.append('  "q": {')
            node_blocks, parts = [], []
            for table in model.potentials:
                width = len(table.neighbors) + 1
                rows = ",\n".join(f'      "{flat:0{width}b}": [%.17e, %.17e]' for flat in range(1 << width))
                node_blocks.append(f'    "{table.node}": {{\n{rows}\n    }}')
                parts.extend(x for v in table.entries for x in (v.real, v.imag))
            lines.append(",\n".join(node_blocks) % tuple(parts))
            lines.extend(["  }", "}"])
            return "\n".join(lines) + "\n"

        for model in (k10_model, mn.random_chain_model(1, seed=1), mn.random_chain_model(50, seed=2)):
            path = tmp_path / "m.model"
            mn.save_model(model, path)
            assert path.read_bytes() == one_call_text(model).encode()

    def test_peak_memory_is_bounded(self, k10_model, tmp_path):
        """One table at a time; the one-call writer peaked at 3.3 MB on this model."""
        import tracemalloc

        tracemalloc.start()
        try:
            mn.save_model(k10_model, tmp_path / "m.model")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


GOLDEN = Path(__file__).parent / "golden"


def golden_models():
    """The models behind tests/golden/model_*.model (files written by an earlier release)."""
    star = mn.random_model(MenGraph.from_edges(4, [(1, 2), (2, 3), (2, 4)]), seed=7)
    return {
        "model_chain6": mn.random_chain_model(6, seed=2),
        "model_k4": mn.random_model(MenGraph.from_edges(4, itertools.combinations(range(1, 5), 2)), seed=4),
        "model_extract4": mn.extract_men(mn.reconstruct_state(star)),
    }


class TestGoldenModelFiles:
    @pytest.mark.parametrize("name", sorted(golden_models()))
    def test_written_byte_for_byte(self, name, tmp_path):
        path = tmp_path / f"{name}.model"
        mn.save_model(golden_models()[name], path)
        assert path.read_bytes() == (GOLDEN / f"{name}.model").read_bytes()

    @pytest.mark.parametrize("name", sorted(golden_models()))
    def test_loads_to_an_equal_model(self, name):
        model = golden_models()[name]
        back = mn.load_model(GOLDEN / f"{name}.model")
        assert back.graph == model.graph
        assert back.reference == model.reference
        assert back.reference_modulus == model.reference_modulus
        assert back.potentials == model.potentials


def model_fields(model):
    """A model's fields, its tables as arrays of bytes (bit for bit)."""
    tables = [(t.node, t.neighbors, t.reference_bit, t.array.shape, t.array.tobytes()) for t in model.potentials]
    return (model.graph, model.reference, model.reference_modulus, tables)


def load_outcome(path):
    """The loaded model's fields, or the error, its message and its cause."""
    try:
        return model_fields(mn.load_model(path))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc).__name__, str(exc), type(exc.__cause__).__name__)


def shuffled_keys(table):
    return dict(reversed(list(table.items())))


def edited_chain3(tmp_path, mutate):
    """random_chain_model(3, 2) written, its JSON edited by `mutate`; the model and the file."""
    import json

    model = mn.random_chain_model(3, 2)
    path = tmp_path / "m.model"
    mn.save_model(model, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    return model, path


TABLE_FAULTS = [
    # the inputs of TestModelFiles.test_rejects_malformed
    (lambda d: d.pop("reference"), "'reference'"),
    (lambda d: d.update(reference="0"), "'reference' must be an n-bit string, got '0'"),
    (lambda d: d.update(n=0), "'n' must be a positive integer, got 0"),
    (lambda d: d["q"]["1"].pop("10"), "table for node 1 must cover all 4 (bit, context) keys"),
    (lambda d: d["q"]["1"].update({"10": [0.0, 0.0]}), "node 1: potential value 0j at (1, (0,)) is ~0"),
    (lambda d: d.update(reference_modulus=d["reference_modulus"] * 1.01), "reference_modulus 0.0984895450042004 disagrees"),
    (lambda d: d.update(reference_modulus=10**400), "int too large to convert to float"),
    (lambda d: d["q"]["2"].update({"100": [0.5, 10**400]}), "int too large to convert to float"),
    # entries outside the entry rule, bad keys, missing tables
    (lambda d: d["q"]["3"].update({"11": [10**400, 0.0]}), "int too large to convert to float"),
    (lambda d: d["q"]["2"].update({"101": ["0.5", "2"]}), "node 2: entry '101' must be a [re, im] pair of reals"),
    (lambda d: d["q"]["2"].update({"101": [0.5, 2.0, 7.0]}), "node 2: entry '101' must be a [re, im] pair of reals"),
    (lambda d: d["q"]["2"].update({"101": [None, 2.0]}), "node 2: entry '101' must be a [re, im] pair of reals"),
    (lambda d: d["q"]["2"].update({"101": [True, False]}), "node 2: entry '101' must be a [re, im] pair of reals"),
    (lambda d: d["q"]["2"].update({"101": {"re": 1.0}}), "node 2: entry '101' must be a [re, im] pair of reals"),
    (lambda d: d["q"]["2"].update({"101": [0.5]}), "node 2: entry '101' must be a [re, im] pair of reals"),
    (lambda d: d["q"]["2"].update({"1x1": [0.5, 0.5]}), "node 2: bad table key '1x1'"),
    (lambda d: d["q"]["2"].update({"1 1": [0.5, 0.5]}), "node 2: bad table key '1 1'"),
    (lambda d: d["q"]["3"].update({"1": [0.5, 0.5]}), "node 3: bad table key '1'"),
    (lambda d: d["q"]["3"].update({"011": [0.5, 0.5]}), "node 3: bad table key '011'"),
    (lambda d: d["q"]["1"].update({"00": [2.0, 0.0]}),
     "node 1: value at the reference bit must be exactly 1, got (2+0j) at context (0,)"),
    (lambda d: d["q"]["2"].update({"101": [-0.0, 1e-300]}), "node 2: potential value (-0+1e-300j) at (1, (0, 1)) is ~0"),
    (lambda d: d["q"].pop("3"), "'3'"),
    (lambda d: d["q"].update({"2": [[1.0, 0.0]] * 8}), "node 2: table must be a JSON object, got list"),
    (lambda d: d.update(q=[]), "list indices must be integers or slices, not str"),
    # two faults: the first node's wins, and within a node the first in file order
    (lambda d: (d["q"]["1"].update({"00": [2.0, 0.0]}), d["q"]["3"].update({"1x": [0.5, 0.5]})),
     "node 1: value at the reference bit must be exactly 1"),
    (lambda d: (d["q"]["2"].update({"110": ["x", 0.0]}), d["q"]["2"].update({"011": [0.5, 0.5]})),
     "node 2: entry '110' must be a [re, im] pair of reals"),
]

# Edits of the text save_model writes for random_chain_model(3, 2), and the
# message each file is refused with (None: it loads as the model), read off
# the reader that parsed the whole file before it read any table. ROW_101 is
# node 2's row for key "101".
ROW_101 = r'      "101": \[[^\]]*\]'
SEED_FAULTS = [
    ("repeated-key", lambda t: re.sub(ROW_101, lambda m: '      "101": [0.0, 0.0],\n' + m[0], t, count=1), None),
    ("repeated-key-last-zero", lambda t: re.sub(ROW_101, lambda m: m[0] + ',\n      "101": [0.0, 0.0]', t, count=1),
     "node 2: potential value 0j at (1, (0, 1)) is ~0"),
    ("q-of-entries", lambda t: t[: t.index('  "q": {')] + '  "q": {"1": [1.0, 0.0], "2": [0.5, 0.5], "3": [0.25, 0.0]}\n}\n',
     "node 1: table must be a JSON object, got list"),
    ("entries-and-an-object", lambda t: re.sub(ROW_101, '      "101": {"re": [1.0, 0.0]}', t, count=1),
     "node 2: entry '101' must be a [re, im] pair of reals"),
    ("true-entry", lambda t: re.sub(ROW_101, '      "101": true', t, count=1),
     "node 2: entry '101' must be a [re, im] pair of reals"),
    ("integer-past-double", lambda t: re.sub(ROW_101, '      "101": [1%s, 0.0]' % ("0" * 400), t, count=1),
     "int too large to convert to float"),
    ("unread-object-of-entries", lambda t: t.replace('{\n  "n"', '{\n  "x": {"0": [1.0, 0.0]},\n  "n"', 1), None),
    ("reference-object", lambda t: t.replace('"reference": "000"', '"reference": {"0": [1.0, 0.0]}'),
     "'reference' must be an n-bit string, got {'0': [1.0, 0.0]}"),
    ("edges-object", lambda t: t.replace('"edges": [[1, 2], [2, 3]]', '"edges": {"12": [1.0, 2.0]}'),
     "each edge must be a pair of integer node numbers, got '12'"),
    ("edge-object", lambda t: t.replace('"edges": [[1, 2], [2, 3]]', '"edges": [[1, 2], {"a": [1.0, 2.0]}]'),
     "each edge must be a pair of integer node numbers, got {'a': [1.0, 2.0]}"),
    ("modulus-object", lambda t: re.sub(r'"reference_modulus": [^,]*', '"reference_modulus": {"x": [0.5, -0.0]}', t),
     "'reference_modulus' must be a number, got {'x': [0.5, -0.0]}"),
]


class TestModelReader:
    """The model reader takes every table entry by entry: bit for bit, and the first fault named."""

    @pytest.mark.parametrize("name", sorted(golden_models()))
    def test_golden_files_load_bit_for_bit(self, name):
        assert load_outcome(GOLDEN / f"{name}.model") == model_fields(golden_models()[name])

    @pytest.mark.parametrize("n", [*range(1, 30), 300, 2000])
    def test_random_chains_round_trip_bit_for_bit(self, n, tmp_path):
        model = mn.random_chain_model(n, seed=n)
        path = tmp_path / "c.model"
        mn.save_model(model, path)
        assert load_outcome(path) == model_fields(model)

    @pytest.mark.parametrize("mutate, message", TABLE_FAULTS)
    def test_names_the_first_fault(self, mutate, message, tmp_path):
        _, path = edited_chain3(tmp_path, mutate)
        with pytest.raises(mn.FileFormatError, match="^" + re.escape(f"malformed model file {path}: {message}")):
            mn.load_model(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["q"].update({k: shuffled_keys(v) for k, v in d["q"].items()}),
            lambda d: d["q"].update({"9": {"0": [1.0, 0.0]}}),  # no node 9: not read
        ],
        ids=["shuffled-keys", "extra-table"],
    )
    def test_valid_files_the_writer_would_not_produce(self, mutate, tmp_path):
        model, path = edited_chain3(tmp_path, mutate)
        assert load_outcome(path) == model_fields(model)

    @pytest.mark.parametrize("edit, message", [case[1:] for case in SEED_FAULTS], ids=[case[0] for case in SEED_FAULTS])
    def test_objects_the_table_hook_leaves_or_converts(self, edit, message, tmp_path):
        model = mn.random_chain_model(3, 2)
        path = tmp_path / "m.model"
        mn.save_model(model, path)
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        if message is None:
            assert load_outcome(path) == model_fields(model)
        else:
            with pytest.raises(mn.FileFormatError, match="^" + re.escape(f"malformed model file {path}: {message}")):
                mn.load_model(path)

    @pytest.mark.parametrize("order", ["flat", "interleaved"])
    def test_load_peak_memory_is_bounded(self, order, tmp_path):
        """Past what the model keeps, the read holds under half a file, in the writer's key order and in "0"+ctx, "1"+ctx order.

        Tables are converted as they are parsed, and freed before the model
        normalizes. The reader that parsed the whole tree first held 2.77
        files there; the one that kept the parsed tables while the model
        normalized held 0.56 (flat) and 0.82 (interleaved).
        """
        import json
        import os
        import tracemalloc

        path = tmp_path / "c.model"
        mn.save_model(mn.random_chain_model(2000, seed=1), path)
        if order == "interleaved":  # the key order of the benchmark's chain files
            payload = json.loads(path.read_text())
            for node, table in payload["q"].items():
                payload["q"][node] = {key: table[key] for key in sorted(table, key=lambda key: (key[1:], key[0]))}
            path.write_text(json.dumps(payload, indent=1) + "\n")
        mn.load_model(GOLDEN / "model_chain6.model")  # the lazy imports, outside the trace
        tracemalloc.start()
        try:
            model = mn.load_model(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.num_qubits == 2000
        assert peak - kept <= 0.5 * os.path.getsize(path)

    def test_table_hook(self):
        """Objects of float [re, im] entries under distinct keys are converted; json builds every other one."""
        from menet.state import _as_json, _ParsedTable, _table_hook

        table = _table_hook([("0", [1.0, -0.0]), ("1", [float("nan"), 2.5])])
        assert type(table) is _ParsedTable and table.keys == ("0", "1")
        assert repr(table) == repr({"0": [1.0, -0.0], "1": [float("nan"), 2.5]}) == repr(_as_json(table))
        assert [math.copysign(1.0, v.imag) for v in table.entries] == [-1.0, 1.0]
        for pairs in (
            [],
            [("0", [1.0, 0.0]), ("0", [2.0, 0.0])],
            [("0", [1, 0.0])],
            [("0", [True, 0.0])],
            [("0", True)],
            [("0", [1.0, 0.0]), ("1", table)],
            [("0", [1.0, 0.0, 2.0])],
            [("n", 3)],
        ):
            left = _table_hook(pairs)
            assert type(left) is dict and left == dict(pairs)
        assert _as_json(3) == 3 and _as_json([1.0, 0.0]) == [1.0, 0.0]

    def test_integer_entries(self, tmp_path):
        model, path = edited_chain3(tmp_path, lambda d: d["q"]["2"].update({"101": [3, -2]}))
        back = mn.load_model(path)
        assert back.potentials[1].q(1, (0, 1)) == 3 - 2j
        assert back.potentials[0] == model.potentials[0] and back.potentials[2] == model.potentials[2]


BAD_ENTRIES = [
    ["0.5", 2.0], [0.5, 2.0, 7.0], [None, 1.0], {"re": 1.0}, [0.5], [10**400, 0.0], [True, 0], [0.5, False],
]
BAD_ENTRY_IDS = ["numeric-string", "three-numbers", "null", "object", "one-number", "past-double", "bool-re", "bool-im"]


class TestEntryRule:
    """State and model files hold [re, im] entries to one rule."""

    @pytest.mark.parametrize("entry", BAD_ENTRIES, ids=BAD_ENTRY_IDS)
    def test_state_file(self, entry, tmp_path):
        import json

        path = tmp_path / "bad.state"
        path.write_text(json.dumps({"n": 2, "amplitudes": [[0.5, 0.0], entry, [0.5, 0.0], [0.5, 0.0]]}))
        with pytest.raises(mn.FileFormatError, match=r"^amplitude 1 must be a \[re, im\] pair of reals$"):
            mn.load_state(path)

    @pytest.mark.parametrize("entry", [[0.5, 2.0], *BAD_ENTRIES], ids=["valid", *BAD_ENTRY_IDS])
    def test_model_file_past_the_audit(self, entry, tmp_path):
        """The edited entry is one no product reads, so the modulus audit cannot see it: only the entry rule can."""
        import json

        n = 20
        path = tmp_path / "c.model"
        mn.save_model(mn.random_chain_model(n, seed=1), path)
        payload = json.loads(path.read_text())
        payload["q"]["10"]["101"] = entry  # node 10, bit 1: off the reference bit, unaudited
        path.write_text(json.dumps(payload))
        if entry == [0.5, 2.0]:
            assert mn.load_model(path).potentials[9].q(1, (0, 1)) == 0.5 + 2j
            return
        with pytest.raises(
            mn.FileFormatError,
            match=r"^malformed model file .*c\.model: "
            r"(node 10: entry '101' must be a \[re, im\] pair of reals|int too large to convert to float)$",
        ):
            mn.load_model(path)


class TestFieldTypes:
    """Model and state fields hold JSON types: no string, float or bool passes as a number."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("reference_modulus", "4.43e-10", r"'reference_modulus' must be a number, got '4.43e-10'"),
            ("reference_modulus", True, r"'reference_modulus' must be a number, got True"),
            ("edges", ["1", 2], r"each edge must be a pair of integer node numbers, got \['1', 2\]"),
            ("edges", [1.0, 2], r"each edge must be a pair of integer node numbers, got \[1.0, 2\]"),
            ("edges", [1.5, 2], r"each edge must be a pair of integer node numbers, got \[1.5, 2\]"),
            ("edges", [True, 2], r"each edge must be a pair of integer node numbers, got \[True, 2\]"),
        ],
        ids=["modulus-string", "modulus-bool", "edge-string", "edge-float", "edge-fraction", "edge-bool"],
    )
    def test_model_file_past_the_audit(self, field, value, message, tmp_path):
        """The type rule catches these, before the modulus audit could."""
        import json

        n = 20
        path = tmp_path / "c.model"
        mn.save_model(mn.random_chain_model(n, seed=1), path)
        payload = json.loads(path.read_text())
        if field == "edges":
            assert payload["edges"][0] == [1, 2]
            payload["edges"][0] = value
        else:
            payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(mn.FileFormatError, match=r"^malformed model file .*c\.model: " + message + "$"):
            mn.load_model(path)

    def test_n_is_not_a_bool(self, tmp_path):
        import json

        model_path, state_path = tmp_path / "one.model", tmp_path / "one.state"
        mn.save_model(mn.random_chain_model(1, seed=1), model_path)
        mn.save_state(mn.PureState([0.6, 0.8]), state_path)
        for path, load in ((model_path, mn.load_model), (state_path, mn.load_state)):
            payload = json.loads(path.read_text())
            assert payload["n"] == 1
            load(path)
            path.write_text(json.dumps({**payload, "n": True}))
            with pytest.raises(mn.FileFormatError, match="'n' must be a positive integer, got True"):
                load(path)


class TestModulusAudit:
    """A given modulus is audited against the model's own log Z at every n: relative 1e-9, or one ulp."""

    def test_wrong_modulus_past_twelve_qubits_is_refused_at_load(self, tmp_path):
        """Three times the modulus of random_chain_model(13, 1), once read unaudited: mle then read 0.657."""
        import json

        model = mn.random_chain_model(13, seed=1)
        assert mn.mle_chain(model).probability == pytest.approx(0.0730, abs=5e-5)
        path = tmp_path / "c13.model"
        mn.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["reference_modulus"] *= 3
        path.write_text(json.dumps(payload))
        with pytest.raises(
            mn.FileFormatError,
            match=r"^malformed model file .*c13\.model: reference_modulus \S+ disagrees with the normalization formula value ",
        ):
            mn.load_model(path)

    @pytest.mark.parametrize("n", [13, 100, 500])
    def test_one_ulp_passes_and_relative_1e_8_does_not(self, n):
        model = mn.random_chain_model(n, seed=n)
        derived = model.reference_modulus
        assert derived > 0.0
        for given in (math.nextafter(derived, 0.0), math.nextafter(derived, 1.0)):
            assert MenModel(model.graph, model.potentials, model.reference, given).reference_modulus == given
        for given in (derived * (1 + 1e-8), derived * (1 - 1e-8)):
            with pytest.raises(ValueError, match=rf"^reference_modulus {given!r} disagrees with the normalization formula value "):
                MenModel(model.graph, model.potentials, model.reference, given)

    @pytest.mark.parametrize("n", [*range(700, 746, 5), 1000, 2000])
    def test_saved_chains_load_where_the_modulus_is_subnormal_or_zero(self, n, tmp_path):
        """The files save_model writes load back as the model, from subnormal moduli to 0.0."""
        model = mn.random_chain_model(n, seed=1)
        path = tmp_path / "c.model"
        mn.save_model(model, path)
        back = mn.load_model(path)
        assert back == model and repr(back.reference_modulus) == repr(model.reference_modulus)
        if n >= 1000:
            assert back.reference_modulus == 0.0


class TestTableStorage:
    @staticmethod
    def generated_models():
        yield mn.random_chain_model(4, 6)
        yield mn.random_model(MenGraph.from_edges(4, [(1, 2), (2, 3), (2, 4)]), 3)
        yield mn.extract_men(mn.random_nonzero_state(4, 5))

    def test_constructor_file_and_generators_give_the_same_table(self, tmp_path):
        """Rebuilt from its entries or read back from a file: equal entries, array bytes, q and ==."""
        for k, model in enumerate(self.generated_models()):
            path = tmp_path / f"{k}.model"
            mn.save_model(model, path)
            for table, from_file in zip(model.potentials, mn.load_model(path).potentials):
                assert type(table.entries) is tuple and {type(v) for v in table.entries} == {complex}
                built = QFunctionTable(table.node, table.neighbors, table.reference_bit, table.entries)
                for other in (built, from_file):
                    assert other == table and other.entries == table.entries
                    assert other.array.tobytes() == table.array.tobytes()
                    assert other.array.shape == (2,) * (len(table.neighbors) + 1)
                    for bit, *ctx in itertools.product((0, 1), repeat=len(table.neighbors) + 1):
                        assert other.q(bit, tuple(ctx)) == table.q(bit, tuple(ctx))

    def test_array_is_read_only_and_built_once(self):
        for model in self.generated_models():
            for table in model.potentials:
                assert table.array is table.array
                assert table.array.reshape(-1).tolist() == list(table.entries)
                with pytest.raises(ValueError, match="read-only"):
                    table.array[(1,) * table.array.ndim] = 2.0

    def test_flat_index_is_bit_then_context(self):
        table = mn.random_chain_model(3, 1).potentials[1]  # node 2: context (x_1, x_3)
        for bit, x1, x3 in itertools.product((0, 1), repeat=3):
            val = table.entries[bit << 2 | x1 << 1 | x3]
            assert table.array[bit, x1, x3] == val
            assert table.q(bit, (x1, x3)) == val

    @pytest.mark.parametrize("bit, ctx", [(-1, (0, 0)), (2, (0, 0)), (1, (0,)), (1, (0, 0, 0)), (0, (0, -1))])
    def test_lookup_outside_the_table_is_a_key_error(self, bit, ctx):
        with pytest.raises(KeyError):
            all_ones_table(2, (1, 3)).q(bit, ctx)

    def test_writes_refused(self):
        table = all_ones_table(2, (1, 3))
        with pytest.raises(ValueError, match="read-only"):
            table.array[1, 0, 0] = 2.0
        with pytest.raises(TypeError):
            table.entries[4] = 2.0
        with pytest.raises(AttributeError):
            table.entries = (1.0,) * 8

    def test_entries_are_copied(self):
        source = [1.0, 1.0, 2.0, 3.0]
        table = QFunctionTable(1, (2,), 0, source)
        source[3] = 5.0
        assert table.entries == (1, 1, 2, 3) and table.q(1, (1,)) == 3.0

    @pytest.mark.parametrize(
        "entries",
        [
            [1.0, 1.0, 2.0],  # too short
            [1.0, 1.0, 2.0, 2.0, 2.0],  # too long
            np.ones((2, 2)),  # the (2,)*(k+1) array, unflattened
            {(0, (0,)): 1.0, (0, (1,)): 1.0, (1, (0,)): 2.0, (1, (1,)): 2.0},  # keyed by (bit, ctx)
            {0: 1.0, 1: 1.0, 2: 2.0, 3: 2.0},  # keyed by flat index
            "1122",  # complex() would read each character
        ],
        ids=["short", "long", "array", "mapping", "index-mapping", "text"],
    )
    def test_only_a_flat_sequence_is_taken(self, entries):
        with pytest.raises(ValueError) as info:
            QFunctionTable(7, (2,), 0, entries)
        assert str(info.value) == "table for node 7 must be a flat sequence of 4 numbers"

    def test_entries_validated(self):
        with pytest.raises(ValueError, match=r"node 1: potential value \(1e-09\+0j\) at \(1, \(0,\)\) is ~0"):
            QFunctionTable(1, (2,), 0, [1.0, 1.0, 1e-9, 2.0])
        with pytest.raises(ValueError, match="node 1: value at the reference bit must be exactly 1"):
            QFunctionTable(1, (2,), 1, [2.0] * 4)


class TestRandomModel:
    def test_reproducible(self):
        g = MenGraph.from_edges(4, [(1, 2), (3, 4)])
        a = mn.random_model(g, 7)
        b = mn.random_model(g, 7)
        assert a.potentials == b.potentials
        assert a.reference_modulus == b.reference_modulus

    def test_reconstructs_to_unit_norm(self):
        g = MenGraph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
        psi = mn.reconstruct_state(mn.random_model(g, 3))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9

    def test_past_the_dense_sum(self):
        """A 40-qubit ladder and a 60-qubit path: sizes no dense sum reaches.

        Each modulus is exp(-log Z / 2) with the log Z the model keeps, and
        that is the log Z its route gives afresh: elimination on the ladder,
        the chain sweep on the path.
        """
        ladder = MenGraph.from_edges(
            40, [(i, i + 2) for i in range(1, 39)] + [(i, i + 1) for i in range(1, 40, 2)]
        )
        model = mn.random_model(ladder, 5)
        fresh = elimination.log_partition(model.potentials, model.reference_bits())
        assert model.reference_modulus == math.exp(-0.5 * elimination._model_log_z(model)[0])
        assert elimination._model_log_z(model) == fresh
        chain = mn.random_model(MenGraph.path(60), 5)
        fresh = elimination._chain_log_z(elimination._chain_levels(chain.potentials, chain.reference_bits()))
        assert chain.reference_modulus == math.exp(-0.5 * elimination._model_log_z(chain)[0])
        assert elimination._model_log_z(chain) == fresh
        assert 0.0 < chain.reference_modulus < 1.0 and 0.0 < model.reference_modulus < 1.0

    @pytest.mark.parametrize("n", range(1, 31))
    def test_path_is_random_chain_model(self, n):
        for seed in (0, [n, 7]):
            model = mn.random_model(MenGraph.path(n), seed)
            chain = mn.random_chain_model(n, seed)
            assert model == chain
            assert repr(model.reference_modulus) == repr(chain.reference_modulus)

    def test_too_wide_for_the_engine(self, wide_elimination_tables):
        """A graph whose elimination needs more than 2^19 factor entries is refused."""
        graph, _ = wide_elimination_tables(20, seed=0)
        with pytest.raises(mn.EnumerationBoundExceeded, match="variable elimination needs more than"):
            mn.random_model(graph, 0)
