import json
import math

import numpy as np
import pytest

import menet as mn
from menet import Assignment, PureState


class TestAssignment:
    def test_mapping_protocol(self):
        x = Assignment({3: 1, 1: 0})
        assert len(x) == 2
        assert x[3] == 1 and x[1] == 0
        assert list(x) == [1, 3]  # ascending qubit order
        assert 1 in x and 2 not in x

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Assignment([(1, 0), (1, 1)])

    @pytest.mark.parametrize("bad", [{0: 0}, {-2: 1}, {1: 2}, {1: -1}])
    def test_invalid_bindings(self, bad):
        with pytest.raises(ValueError):
            Assignment(bad)

    def test_from_bits_and_bits(self):
        x = Assignment.from_bits((1, 0, 1))
        assert x.bits(3) == (1, 0, 1)
        with pytest.raises(mn.MissingBinding):
            x.bits(4)

    def test_zeros(self):
        assert Assignment.zeros(3) == {1: 0, 2: 0, 3: 0}

    def test_restrict_and_merge(self):
        x = Assignment({1: 0, 2: 1, 3: 0})
        assert x.restrict([3, 1]) == {1: 0, 3: 0}
        with pytest.raises(mn.MissingBinding):
            x.restrict([4])
        merged = Assignment({1: 0}).merge(Assignment({2: 1}))
        assert merged == {1: 0, 2: 1}
        with pytest.raises(ValueError, match="conflicting"):
            Assignment({1: 0}).merge(Assignment({1: 1}))

    def test_hash_and_eq(self):
        assert Assignment({1: 0, 2: 1}) == Assignment([(2, 1), (1, 0)])
        assert hash(Assignment({1: 0})) == hash(Assignment({1: 0}))

    def test_immutable(self):
        x = Assignment({1: 0})
        with pytest.raises(AttributeError):
            x.anything = 1


class TestIndexing:
    @pytest.mark.parametrize(
        "n,bits,expected",
        [(3, (0, 0, 0), 0), (3, (1, 0, 1), 5), (2, (0, 1), 1)],
    )
    def test_index_of(self, n, bits, expected):
        assert mn.index_of(Assignment.from_bits(bits), n) == expected

    def test_partial_assignment_raises(self):
        with pytest.raises(mn.MissingBinding):
            mn.index_of(Assignment({1: 0}), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_round_trip(self, n):
        for index in range(2**n):
            assert mn.index_of(mn.assignment_of(index, n), n) == index

    def test_assignment_of_range(self):
        with pytest.raises(ValueError):
            mn.assignment_of(8, 3)


class TestPureState:
    def test_basic_invariants(self):
        psi = PureState([1.0, 0.0])
        assert psi.num_qubits == 1
        assert psi.dim == 2

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            PureState([1.0, 0.0, 0.0])

    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PureState([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PureState([np.nan, 0.0])

    def test_normalized(self):
        psi = PureState.normalized([3.0, 4.0])
        np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])
        with pytest.raises(ValueError):
            PureState.normalized([0.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_amplitude_lookup(self, bell):
        assert bell.amplitude(Assignment.from_bits((1, 1))) == pytest.approx(
            1 / math.sqrt(2)
        )

    def test_basis_state(self):
        psi = mn.basis_state(3, 5)
        assert psi.amplitude(Assignment.from_bits((1, 0, 1))) == 1.0


class TestTensorProduct:
    def test_basis_case(self):
        out = mn.tensor_product(mn.basis_state(1, 0), mn.basis_state(1, 0))
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_plus_times_one(self, plus):
        out = mn.tensor_product(plus, mn.basis_state(1, 1))
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, [0, s, 0, s], atol=1e-15)

    def test_bell_times_zero(self, bell):
        # direct expansion: nonzero only at |000> and |110>
        out = mn.tensor_product(bell, mn.basis_state(1, 0))
        expected = np.zeros(8)
        expected[0] = expected[6] = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_interleaved_qubits(self, bell):
        # bell pair on qubits {1,3}, |0> on qubit 2: nonzero at 000 and 101
        out = mn.tensor_product(bell, mn.basis_state(1, 0), m={1, 3})
        expected = np.zeros(8)
        expected[0] = expected[5] = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_norm_multiplicative(self, seed):
        phi = mn.random_state(2, seed)
        chi = mn.random_state(2, seed + 100)
        out = mn.tensor_product(phi, chi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_bad_m(self, plus):
        with pytest.raises(ValueError):
            mn.tensor_product(plus, plus, m={1, 2})


class TestLocalBasisChange:
    def test_identity(self, bell):
        out = mn.apply_local_basis_change(bell, mn.LocalBasisChange.identity(2))
        np.testing.assert_allclose(out.amplitudes, bell.amplitudes)

    def test_hadamard_on_zero(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = mn.apply_local_basis_change(mn.basis_state(1, 0), mn.LocalBasisChange((h,)))
        np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_rotated_ghz_all_nonzero(self, ghz):
        change = mn.LocalBasisChange.uniform(mn.rotation(math.pi / 5), 3)
        out = mn.apply_local_basis_change(ghz, change)
        assert out.min_modulus() > 0.01

    def test_rejects_non_unitary(self):
        with pytest.raises(mn.InvalidUnitary):
            mn.LocalBasisChange((np.array([[1.0, 0.0], [0.0, 2.0]]),))

    def test_rejects_wrong_arity(self, bell):
        with pytest.raises(mn.InvalidUnitary):
            mn.apply_local_basis_change(bell, mn.LocalBasisChange.identity(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved_random(self, seed):
        psi = mn.random_state(3, seed)
        change = mn.LocalBasisChange.random(3, seed)
        out = mn.apply_local_basis_change(psi, change)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = mn.haar_qubit_unitary(rng)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestMeasurement:
    def test_ghz_qubit1_zero(self, ghz):
        p, collapsed = mn.measure_qubit(ghz, 1, 0)
        assert p == pytest.approx(0.5)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(collapsed.amplitudes, expected, atol=1e-12)

    def test_certain_outcome_keeps_state(self, plus):
        psi = mn.tensor_product(plus, mn.basis_state(1, 0))
        p, collapsed = mn.measure_qubit(psi, 2, 0)
        assert p == pytest.approx(1.0)
        assert mn.fidelity_up_to_phase(psi, collapsed) == pytest.approx(1.0)

    def test_impossible_outcome(self):
        with pytest.raises(mn.ZeroProbabilityOutcome):
            mn.measure_qubit(mn.basis_state(1, 1), 1, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_outcome_probabilities_sum_to_one(self, seed):
        psi = mn.random_state(3, seed)
        total = 0.0
        for outcome in (0, 1):
            try:
                p, _ = mn.measure_qubit(psi, 2, outcome)
            except mn.ZeroProbabilityOutcome:
                p = 0.0
            total += p
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_collapsed_qubit_pinned(self):
        psi = mn.random_state(3, 9)
        _, collapsed = mn.measure_qubit(psi, 2, 1)
        assert mn.marginal_probability(collapsed, Assignment({2: 0})) < 1e-24

    def test_bad_arguments(self, bell):
        with pytest.raises(ValueError):
            mn.measure_qubit(bell, 3, 0)
        with pytest.raises(ValueError):
            mn.measure_qubit(bell, 1, 2)


class TestRandomStates:
    @pytest.mark.parametrize("seed", range(5))
    def test_unit_norm(self, seed):
        psi = mn.random_state(1, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9

    def test_nonzero_floor(self):
        psi = mn.random_nonzero_state(3, 0, 1e-6)
        assert psi.min_modulus() > 1e-6

    def test_reproducible(self):
        a = mn.random_state(3, 42)
        b = mn.random_state(3, 42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_product_state_records_partition(self):
        sample = mn.random_product_state(({2}, {1, 3}), 5)
        assert sample.blocks == ((2,), (1, 3))
        assert sample.state.num_qubits == 3
        assert mn.is_separable(sample.state, {2}).separable

    def test_product_state_bad_blocks(self):
        with pytest.raises(ValueError):
            mn.random_product_state(({1}, {1, 2}), 0)
        with pytest.raises(ValueError):
            mn.random_product_state(({1}, {3}), 0)


class TestFidelity:
    def test_identity(self, plus):
        assert mn.fidelity_up_to_phase(plus, plus) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert mn.fidelity_up_to_phase(mn.basis_state(1, 0), mn.basis_state(1, 1)) == 0.0

    def test_global_phase(self, plus):
        rotated = PureState(np.exp(1j * math.pi / 3) * plus.amplitudes)
        assert mn.fidelity_up_to_phase(plus, rotated) == pytest.approx(1.0)

    def test_size_mismatch(self, plus, bell):
        with pytest.raises(ValueError):
            mn.fidelity_up_to_phase(plus, bell)


class TestStateFiles:
    def test_round_trip_exact(self, tmp_path):
        psi = mn.random_state(3, 17)
        path = tmp_path / "a.state"
        mn.save_state(psi, path)
        back = mn.load_state(path)
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_writer_deterministic(self, tmp_path):
        psi = mn.random_state(2, 3)
        p1, p2 = tmp_path / "x1", tmp_path / "x2"
        mn.save_state(psi, p1)
        mn.save_state(psi, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reader_renormalizes_small_deviation(self, tmp_path):
        scale = 1.0 + 5e-7
        path = tmp_path / "near.state"
        path.write_text(
            '{"n": 1, "amplitudes": [[%r, 0.0], [0.0, 0.0]]}' % scale
        )
        psi = mn.load_state(path)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_reader_rejects_large_deviation(self, tmp_path):
        path = tmp_path / "far.state"
        path.write_text('{"n": 1, "amplitudes": [[1.01, 0.0], [0.0, 0.0]]}')
        with pytest.raises(mn.FileFormatError, match="norm"):
            mn.load_state(path)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"n": 2, "amplitudes": [[1.0, 0.0]]}',
            '{"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
            '{"n": 1, "amplitudes": [[1.0, 0.0], ["x", 0.0]]}',
            '{"n": 1, "amplitudes": [[1.0], [0.0, 0.0]]}',
        ],
    )
    def test_reader_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.state"
        path.write_text(text)
        with pytest.raises(mn.FileFormatError):
            mn.load_state(path)

    def test_writer_matches_per_amplitude_format(self, tmp_path):
        """Byte-identical to rendering each part with _fmt_real, signed zeros,
        subnormals and exact binary fractions included."""
        from menet.state import _fmt_real

        special = np.zeros(8, dtype=np.complex128)
        special[0] = complex(0.5, -0.0)
        special[1] = complex(-0.5, 5e-324)
        special[2] = complex(-0.0, 1e-300)
        special[3] = complex(0.125, -0.375)
        special[4] = complex(-2.2250738585072014e-308, 0.0)
        special[5] = complex(0.25, 1 / 3)
        special[6] = complex(math.sqrt(1 - sum(abs(special) ** 2)), 0.0)
        for psi in (mn.random_state(6, 4), mn.PureState(special)):
            path = tmp_path / "a.state"
            mn.save_state(psi, path)
            rows = ",\n".join(
                f"    [{_fmt_real(a.real)}, {_fmt_real(a.imag)}]" for a in psi.amplitudes
            )
            want = f'{{\n  "n": {psi.num_qubits},\n  "amplitudes": [\n{rows}\n  ]\n}}\n'
            assert path.read_text() == want

    def test_reader_matches_the_pair_loop(self, tmp_path):
        """Integers, booleans and signed zeros read as complex(float(re), float(im))."""
        for raw in (
            [[0.6, 0], [-0.0, -0.0], [0, 0.8], [False, 1e-300]],
            [[0, 0], [True, -0.0], [-0.0, 0], [0, -1e-300]],
        ):
            path = tmp_path / "mixed.state"
            path.write_text(json.dumps({"n": 2, "amplitudes": raw}))
            amps = np.array([complex(float(re), float(im)) for re, im in raw])
            want = amps / float(np.linalg.norm(amps))
            got = mn.load_state(path).amplitudes
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "bad",
        [
            "[null, 0.0]", '["0.5", 0.0]', "[0.5, [0.0]]", "[0.5]", "[0.5, 0.0, 0.0]",
            "[[0.5], [0.0]]", "0.5", '{"re": 0.5}', "null",
            "[1%s, 0.0]" % ("0" * 400), "[0.5, -1%s]" % ("0" * 400),
        ],
    )
    def test_reader_names_the_first_bad_pair(self, tmp_path, bad):
        """A null or a numeric string is not read as nan or a number."""
        path = tmp_path / "bad.state"
        path.write_text('{"n": 2, "amplitudes": [[0.5, 0.0], %s, [0.5, 0.0], [0.5, 0.0]]}' % bad)
        with pytest.raises(mn.FileFormatError, match=r"^amplitude 1 must be a \[re, im\] pair of reals$"):
            mn.load_state(path)

    @pytest.mark.parametrize(
        "rows, index",
        [
            ("[0.5, 0.0], [null, 0.0], [1%s, 0.0], [0.5, 0.0]", 1),
            ("[0.5, 0.0], [1%s, 0.0], [null, 0.0], [0.5, 0.0]", 1),
            ("[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 1%s]", 3),
        ],
    )
    def test_reader_names_an_integer_past_the_double_range(self, tmp_path, rows, index):
        """An int no float holds is a bad entry like any other, not an OverflowError."""
        path = tmp_path / "big.state"
        path.write_text('{"n": 2, "amplitudes": [%s]}' % (rows % ("0" * 400)))
        with pytest.raises(
            mn.FileFormatError, match=rf"^amplitude {index} must be a \[re, im\] pair of reals$"
        ):
            mn.load_state(path)

    def test_writer_emits_17_significant_digits(self, tmp_path):
        path = tmp_path / "digits.state"
        mn.save_state(mn.PureState([1 / math.sqrt(2), 1 / math.sqrt(2)]), path)
        assert "7.07106781186547462e-01" in path.read_text()
