import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph, MenModel, QFunctionTable
from menet.network import _audit_well_defined


def quiet_graph(psi, tol=mn.DEFAULT_TOL):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
        return mn.build_graph(psi, tol)


def all_ones_table(node, neighbors=()):
    values = {
        (bit, ctx): complex(1.0)
        for bit in (0, 1)
        for ctx in itertools.product((0, 1), repeat=len(neighbors))
    }
    return QFunctionTable(node, tuple(neighbors), 0, values)


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
    def test_requires_complete_keys(self):
        with pytest.raises(ValueError, match="cover"):
            QFunctionTable(1, (), 0, {(0, ()): 1.0})

    def test_reference_entries_must_be_one(self):
        with pytest.raises(ValueError, match="reference"):
            QFunctionTable(1, (), 0, {(0, ()): 2.0, (1, ()): 1.0})

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError, match="~0"):
            QFunctionTable(1, (), 0, {(0, ()): 1.0, (1, ()): 1e-9})

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

    def test_normalization_summed_once(self, monkeypatch):
        import importlib

        network = importlib.import_module("menet.network")
        original = network.normalization_modulus
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(network, "normalization_modulus", counting)
        model = mn.extract_men(mn.random_nonzero_state(5, 1))
        assert len(calls) == 1
        assert model.reference_modulus == original(model.potentials, (0,) * 5, 5)

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
            tables.append(QFunctionTable(i, (), 0, {(0, ()): 1.0, (1, ()): num / den}))
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
            values = {}
            for ctx in itertools.product((0, 1), repeat=len(nb)):
                base = sum(b << (n - j) for b, j in zip(ctx, nb))
                values[(0, ctx)] = 1.0
                values[(1, ctx)] = psi.amplitudes[base | (1 << (n - i))] / psi.amplitudes[base]
            model_tables.append(QFunctionTable(i, nb, 0, values))
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
    def test_complement_rule_equals_node_separation(self, n):
        """With C the exact complement, verify's edge rule equals the search."""
        from menet.network import _complement_separated

        rng = np.random.default_rng([n, 5])
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for density in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(3):
                g = MenGraph.from_edges(n, [p for p in pairs if rng.random() < density])
                for a, b, c in _all_splits(n):
                    for x, y in ((a, b), (b, a)):
                        assert _complement_separated(g, x, y) == mn.node_separation(g, x, y, c)


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
        psi = mn.random_state(7, 0)
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.verify_perfect_map(psi, MenGraph.empty(7))

    def test_size_mismatch(self, ghz):
        with pytest.raises(ValueError):
            mn.verify_perfect_map(ghz, MenGraph.empty(2))


class TestGraphoidAxioms:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_nonzero_states_pass(self, seed):
        report = mn.check_graphoid_axioms(mn.random_nonzero_state(4, seed))
        assert report.passed
        assert {ax.name for ax in report.axioms} == {
            "symmetry",
            "decomposition",
            "intersection",
            "strong_union",
            "transitivity",
        }
        assert all(ax.instances > 0 for ax in report.axioms)

    def test_product_state_passes(self):
        psi = mn.random_product_state(({1}, {2}, {3}), 1).state
        assert mn.check_graphoid_axioms(psi).passed

    def test_bound_guard(self):
        with pytest.raises(mn.EnumerationBoundExceeded):
            mn.check_graphoid_axioms(mn.random_state(5, 0))


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


class TestTableStorage:
    def test_mapping_and_array_build_equal_tables(self):
        for table in mn.random_model(MenGraph.from_edges(4, [(1, 2), (2, 3), (2, 4)]), 3).potentials:
            from_map = QFunctionTable(table.node, table.neighbors, 0, dict(table.values))
            from_array = QFunctionTable(table.node, table.neighbors, 0, table.array)
            assert from_map == table and from_array == table
            assert from_map.array.shape == (2,) * (len(table.neighbors) + 1)

    def test_flat_index_is_bit_then_context(self):
        table = mn.random_chain_model(3, 1).potentials[1]  # node 2: context (x_1, x_3)
        for (bit, ctx), val in table.values.items():
            assert table.array.reshape(-1)[bit << 2 | ctx[0] << 1 | ctx[1]] == val
            assert table.q(bit, ctx) == val

    @pytest.mark.parametrize("bit, ctx", [(-1, (0, 0)), (2, (0, 0)), (1, (0,)), (1, (0, 0, 0)), (0, (0, -1))])
    def test_lookup_outside_the_table_is_a_key_error(self, bit, ctx):
        with pytest.raises(KeyError):
            all_ones_table(2, (1, 3)).q(bit, ctx)

    def test_writes_refused(self):
        table = all_ones_table(2, (1, 3))
        with pytest.raises(ValueError, match="read-only"):
            table.array[1, 0, 0] = 2.0
        with pytest.raises(TypeError):
            table.values[(1, (0, 0))] = 2.0

    def test_array_is_copied(self):
        source = np.ones((2, 2), dtype=np.complex128)
        table = QFunctionTable(1, (2,), 0, source)
        source[1, 1] = 5.0
        assert table.q(1, (1,)) == 1.0

    def test_array_shape_checked(self):
        with pytest.raises(ValueError, match="cover"):
            QFunctionTable(1, (2,), 0, np.ones(4))

    def test_array_input_validated_like_a_mapping(self):
        bad = np.ones((2, 2), dtype=np.complex128)
        bad[1, 0] = 1e-9
        with pytest.raises(ValueError, match="~0"):
            QFunctionTable(1, (2,), 0, bad)
        with pytest.raises(ValueError, match="reference"):
            QFunctionTable(1, (2,), 1, np.full((2, 2), 2.0))


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

    def test_size_guard(self):
        with pytest.raises(ValueError):
            mn.random_model(MenGraph.path(17), 0)
