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


def wide_elimination_tables(m, seed):
    """A sparse graph whose descending elimination is wide, n = 2m qubits, and random tables on it.

    Each node j > m is joined to j - 1 and to the low node j - m, so every
    node has at most three neighbours, yet eliminating from qubit n down
    keeps the low ends of all those edges in one factor, over m + 1 qubits.
    A model on them normalizes itself by that elimination, so past m = 16
    none can be built.
    """
    from menet.network import _random_q_tables

    n = 2 * m
    graph = mn.MenGraph.from_edges(n, [(j - 1, j) for j in range(m + 1, n + 1)] + [(j - m, j) for j in range(m + 1, n + 1)])
    return graph, _random_q_tables(graph, np.random.default_rng(seed))


def wide_elimination_model(m, seed):
    """The model on wide_elimination_tables(m, seed), all-zeros reference; it derives its modulus."""
    graph, tables = wide_elimination_tables(m, seed)
    return mn.MenModel(graph, tables, mn.Assignment.zeros(2 * m))


def write_model_text(path, graph, tables, modulus=1.0):
    """A model file of `graph` and `tables` (all-zeros reference), written as JSON text.

    No MenModel is built, so the file may hold a model that none can be:
    one too wide for its elimination, say.
    """
    import json

    q = {
        str(table.node): {format(flat, f"0{len(table.neighbors) + 1}b"): [v.real, v.imag] for flat, v in enumerate(table.entries)}
        for table in tables
    }
    payload = {
        "n": graph.num_nodes,
        "edges": [list(edge) for edge in graph.sorted_edges()],
        "reference": "0" * graph.num_nodes,
        "reference_modulus": modulus,
        "q": q,
    }
    path.write_text(json.dumps(payload))


@pytest.fixture(name="wide_elimination_tables")
def wide_elimination_tables_fixture():
    return wide_elimination_tables


@pytest.fixture(name="wide_elimination_model")
def wide_elimination_model_fixture():
    return wide_elimination_model


@pytest.fixture(name="write_model_text")
def write_model_text_fixture():
    return write_model_text


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
