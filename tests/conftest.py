import math

import numpy as np
import pytest

import menet as mn


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Deterministic state/model files used by CLI and golden tests."""
    root = tmp_path_factory.mktemp("fixtures")
    mn.save_state(mn.canonical_state("w"), root / "w.state")
    mn.save_state(mn.canonical_state("ghz"), root / "ghz.state")
    mn.save_state(mn.PureState([0.5] * 4), root / "plusplus.state")
    rot = mn.LocalBasisChange.uniform(mn.rotation(math.pi / 5), 3)
    mn.save_state(
        mn.apply_local_basis_change(mn.canonical_state("ghz"), rot),
        root / "rotghz.state",
    )
    mn.save_state(mn.basis_state(2, 0), root / "zerozero.state")
    mn.save_model(mn.extract_men(mn.PureState([0.5] * 4)), root / "plusplus.model")
    mn.save_model(mn.random_chain_model(4, seed=5), root / "chain4.model")
    return root


def off_chain_twin(model):
    """A chain model's state on the path plus edge (1, 3), so not a chain.

    Node 1's table ignores x_3 and node 3's ignores x_1, so the telescoping
    products, and hence every amplitude, equal the chain's.
    """
    n = model.num_qubits
    graph = mn.MenGraph.from_edges(n, sorted(model.graph.edges) + [(1, 3)])
    ref = model.reference_bits()
    tables = list(model.potentials)
    tables[0] = mn.QFunctionTable(
        1, graph.neighbors(1), ref[0], np.repeat(tables[0].array[:, :, None], 2, axis=2).reshape(-1).tolist()
    )
    tables[2] = mn.QFunctionTable(
        3, graph.neighbors(3), ref[2], np.repeat(tables[2].array[:, None], 2, axis=1).reshape(-1).tolist()
    )
    return mn.MenModel(graph, tuple(tables), model.reference, model.reference_modulus)


@pytest.fixture(name="off_chain_twin")
def off_chain_twin_fixture():
    return off_chain_twin


def wide_elimination_model(m, seed):
    """A sparse model whose descending elimination is wide: n = 2m qubits.

    Each node j > m is joined to j - 1 and to the low node j - m, so every
    node has at most three neighbours, yet eliminating from qubit n down
    keeps the low ends of all those edges in one factor, over m + 1 qubits.
    The tables are random and the modulus is not normalized: past n = 12 no
    audit reads it.
    """
    from menet.network import _random_q_tables

    n = 2 * m
    graph = mn.MenGraph.from_edges(n, [(j - 1, j) for j in range(m + 1, n + 1)] + [(j - m, j) for j in range(m + 1, n + 1)])
    tables = _random_q_tables(graph, np.random.default_rng(seed))
    return mn.MenModel(graph, tables, mn.Assignment.zeros(n), 0.0)


@pytest.fixture(name="wide_elimination_model")
def wide_elimination_model_fixture():
    return wide_elimination_model


def split_masks(n, splits):
    """Splits (A, B) of qubits 1..n, given as qubit collections, as the two
    mask arrays the split kernel takes (qubit q is bit n - q)."""
    masks = [[sum(1 << (n - q) for q in group) for group in split] for split in splits]
    return np.array(masks, dtype=np.intp).reshape(-1, 2).T


@pytest.fixture(name="split_masks")
def split_masks_fixture():
    return split_masks


@pytest.fixture
def bell():
    amp = 1.0 / math.sqrt(2.0)
    return mn.PureState([amp, 0.0, 0.0, amp])


@pytest.fixture
def plus():
    amp = 1.0 / math.sqrt(2.0)
    return mn.PureState([amp, amp])


@pytest.fixture
def plusplus():
    return mn.PureState([0.5] * 4)


@pytest.fixture
def ghz():
    return mn.canonical_state("ghz")


@pytest.fixture
def w_state():
    return mn.canonical_state("w")
