"""Hand-worked cases for the reference computations.

Run from the repository root: python3 -m pytest bench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import oracles  # noqa: E402

S2 = 1.0 / math.sqrt(2.0)
BELL = np.array([S2, 0, 0, S2], dtype=complex)
GHZ = np.array([S2, 0, 0, 0, 0, 0, 0, S2], dtype=complex)
W = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / math.sqrt(3.0)
PLUS2 = np.full(4, 0.5, dtype=complex)


def test_marginal_of_bell_pair():
    assert oracles.marginal(BELL, {1: 0}) == pytest.approx(0.5)
    assert oracles.marginal(BELL, {1: 0, 2: 1}) == 0.0
    assert oracles.marginal(BELL, {}) == pytest.approx(1.0)


def test_marginal_of_w_state_counts_qubit_order():
    # qubit 1 is the most significant bit: only |100> has x_1 = 1
    assert oracles.marginal(W, {1: 1}) == pytest.approx(1.0 / 3.0)
    assert oracles.marginal(W, {3: 0}) == pytest.approx(2.0 / 3.0)


def test_argmax_picks_largest_modulus():
    amps = np.array([0.1, 0.2, 0.9, 0.3], dtype=complex)
    bits, p = oracles.argmax_assignment(amps)
    assert bits == "10"
    assert p == pytest.approx(0.81 / 0.95)


def test_fidelity_ignores_global_phase_and_scale():
    assert oracles.fidelity(BELL, 3.0 * np.exp(0.7j) * BELL) == pytest.approx(1.0)
    assert oracles.fidelity(BELL, np.array([0, S2, S2, 0])) == pytest.approx(0.0)
    assert oracles.fidelity(BELL, PLUS2) == pytest.approx(S2)


def test_collapse_of_bell_pair():
    p, after = oracles.collapse(BELL, 1, 1)
    assert p == pytest.approx(0.5)
    assert np.allclose(after, [0, 0, 0, 1])


def test_pairwise_edges_on_known_states():
    assert oracles.pairwise_edges(PLUS2) == set()
    assert oracles.pairwise_edges(BELL) == {(1, 2)}
    assert oracles.pairwise_edges(W) == {(1, 2), (1, 3), (2, 3)}
    # zero amplitudes: every slice of GHZ given the third qubit has rank 1
    assert oracles.pairwise_edges(GHZ) == set()


def test_pairwise_edges_recover_the_graph_of_a_pairwise_state():
    rng = np.random.default_rng(0)
    edges = {(1, 2), (2, 3), (3, 4), (1, 4)}
    amps = inputs.pairwise_state(rng, 5, edges, 0.8, 1.25)
    assert oracles.pairwise_edges(amps) == edges


def test_three_tangle_of_canonical_states():
    assert oracles.three_tangle(GHZ) == pytest.approx(1.0)
    assert oracles.three_tangle(W) == pytest.approx(0.0, abs=1e-15)
    assert oracles.three_tangle(np.kron(BELL, [1, 0])) == pytest.approx(0.0, abs=1e-15)
    t = 0.3
    gen = np.zeros(8, dtype=complex)
    gen[0], gen[7] = math.cos(t), math.sin(t)
    assert oracles.three_tangle(gen) == pytest.approx(math.sin(2 * t) ** 2)


def test_three_tangle_is_local_unitary_invariant():
    rng = np.random.default_rng(1)
    assert oracles.three_tangle(inputs.local_image(rng, GHZ)) == pytest.approx(1.0)
    assert oracles.three_tangle(inputs.local_image(rng, W)) == pytest.approx(0.0, abs=1e-12)


def test_purities():
    assert oracles.purities(GHZ) == pytest.approx([0.5, 0.5, 0.5])
    # each qubit of W is diag(2/3, 1/3)
    assert oracles.purities(W) == pytest.approx([5 / 9] * 3)
    assert oracles.purities(np.kron(BELL, [0.6, 0.8])) == pytest.approx([0.5, 0.5, 1.0])


def _table(pairs):
    return {key: [v.real, v.imag] for key, v in pairs.items()}


# Two-node chain, reference 00. Node 1 keys are (x1, x2), node 2 keys (x2, x1).
# |q1(1|x2=0)|^2 = 4, |q2(1|x1=0)|^2 = 9, |q2(1|x1=1)|^2 = 0.25, so the
# squared products are 00: 1, 01: 9, 10: 4, 11: 1 and Z = 15.
CHAIN2 = {
    "n": 2,
    "edges": [[1, 2]],
    "reference": "00",
    "reference_modulus": 1 / math.sqrt(15),
    "q": {
        "1": _table({"00": 1, "01": 1, "10": 2j, "11": 7}),
        "2": _table({"00": 1, "01": 1, "10": -3, "11": 0.5}),
    },
}


def test_chain_weights_read_the_reference_context():
    w = oracles.chain_weights(CHAIN2)
    assert w[0, 0].tolist() == [1.0, 4.0]  # node 1 ignores p; x2 pinned at 0
    assert w[1].tolist() == [[1.0, 9.0], [1.0, 0.25]]


def test_chain_sums_and_viterbi_on_two_nodes():
    w = oracles.chain_weights(CHAIN2)
    assert oracles.chain_log_sum(w) == pytest.approx(math.log(15))
    assert math.exp(oracles.chain_log_sum(w, {1: 1})) == pytest.approx(5.0)
    assert math.exp(oracles.chain_log_sum(w, {2: 0})) == pytest.approx(5.0)
    bits, log_max = oracles.chain_viterbi(w)
    assert bits == "01"
    assert log_max == pytest.approx(math.log(9))


def test_chain_sums_match_enumeration_on_a_random_chain():
    rng = np.random.default_rng(2)
    model = inputs.chain_model(rng, 7)
    w = oracles.chain_weights(model)
    weights = {}
    for index in range(2**7):
        bits = format(index, "07b")
        prod, prev = 1.0, 0
        for i, b in enumerate(bits):
            prod *= w[i, prev, int(b)]
            prev = int(b)
        weights[bits] = prod
    z = sum(weights.values())
    assert oracles.chain_log_sum(w) == pytest.approx(math.log(z))
    assert model["reference_modulus"] == pytest.approx(1 / math.sqrt(z))
    part = sum(v for k, v in weights.items() if k[2] == "1" and k[5] == "0")
    assert math.exp(oracles.chain_log_sum(w, {3: 1, 6: 0})) == pytest.approx(part)
    best = max(weights, key=weights.get)
    assert oracles.chain_viterbi(w) == (best, pytest.approx(math.log(weights[best])))
