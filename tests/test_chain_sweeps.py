"""The chain sweeps against a reference copy of the earlier dict-based sweeps.

The reference below keeps the dict form the flat-weight sweeps replaced: a
nested [p][b] list of Python abs(v) ** 2 per node, messages as bit -> weight
dicts over the allowed bits, generator sums. Every value, log scale and op
count of the library must equal it bit for bit.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph, MenModel, QFunctionTable
from menet import inference as inf

# --- reference copy of the dict sweeps ----------------------------------------


def ref_levels(potentials, ref_bits):
    n = len(ref_bits)
    levels = []
    for i, table in enumerate(potentials, start=1):
        v = table.array.ravel().tolist()
        right = ref_bits[i] if i < n else 0
        left = 0 if i == 1 else (2 if i < n else 1)
        half = len(v) // 2
        levels.append([[abs(v[c]) ** 2, abs(v[half + c]) ** 2] for c in (right, left + right)])
    return levels


def ref_sum_product(levels, allowed, normalize=False):
    message = None
    log_scale = 0.0
    ops = 0
    for t, level in enumerate(levels):
        terms = len(allowed[t])
        if message is None:
            new = {b: sum(level[p][b] for p in allowed[t]) for b in allowed[t + 1]}
            ops += len(new) * (2 * terms - 1)
        else:
            new = {b: sum(level[p][b] * message[p] for p in allowed[t]) for b in allowed[t + 1]}
            ops += len(new) * (3 * terms - 1)
        peak = max(new.values())
        if normalize or peak > 1e100 or (0.0 < peak < 1e-100):
            new = {b: v / peak for b, v in new.items()}
            log_scale += math.log(peak)
        message = new
    return message, log_scale, ops


def ref_max_product(levels):
    best = [(1.0, 1.0)] * len(levels)
    for i in range(len(levels) - 1, 0, -1):
        level, after = levels[i], best[i]
        cur = [max(level[b][0] * after[0], level[b][1] * after[1]) for b in (0, 1)]
        peak = max(cur)
        best[i - 1] = [v / peak for v in cur] if peak > 0.0 else cur
    bits, chosen = [], []
    for level, after in zip(levels, best):
        row = level[bits[-1] if bits else 0]
        pick = 1 if row[1] * after[1] > row[0] * after[0] else 0
        bits.append(pick)
        chosen.append(row[pick])
    return bits, chosen, 8 * (len(levels) - 1) + 4 * len(levels)


def ref_log_z(levels):
    message, log_scale, ops = ref_sum_product(levels, [(0,)] + [(0, 1)] * len(levels), True)
    return log_scale + math.log(sum(message.values())), ops + 1


def ref_marginal(levels, x_m):
    allowed = [(0,)] + [(x_m[i],) if i in x_m else (0, 1) for i in range(1, len(levels) + 1)]
    message, log_scale, ops = ref_sum_product(levels, allowed)
    return sum(message.values()), log_scale, ops + len(message) - 1


def ref_probability(model, levels, ratio, log_ratio):
    ref = model.reference_modulus
    probability = ref * ref * ratio
    if math.isfinite(probability) and min(ref * ref, probability) >= sys.float_info.min:
        return probability, 2
    log_z, ops = ref_log_z(levels)
    return math.exp(log_ratio - log_z), 2 + ops


def ref_prefix(levels, x_m):
    n, m = len(levels), len(x_m)
    reversed_levels = [tuple(zip(*level)) for level in reversed(levels[m:])]
    allowed = [(0, 1)] * (n - m) + [(0, 1) if m else (0,)]
    suffix, log_scale, ops = ref_sum_product(reversed_levels, allowed)
    if m == 0:
        value = suffix[0]
    else:
        value = levels[0][0][x_m[1]]
        ops += 1
        for i in range(2, m + 1):
            value *= levels[i - 1][x_m[i - 1]][x_m[i]]
            ops += 2
        if m < n:
            value *= suffix[x_m[m]]
            ops += 1
    return inf._scale_back(value, log_scale), ops


def ref_mle(model, levels):
    bits, chosen, ops = ref_max_product(levels)
    ratio = 1.0
    for f in chosen:
        ratio *= f
        ops += 1
    log_ratio = sum(inf._log_of(f, 0.0) for f in chosen)
    probability, p_ops = ref_probability(model, levels, ratio, log_ratio)
    return bits, probability, ops + p_ops


def ref_model_marginal(model, levels, x_m):
    value, log_scale, _ = ref_marginal(levels, x_m)
    ratio = inf._scale_back(value, log_scale)
    return ref_probability(model, levels, ratio, inf._log_of(value, log_scale))[0]


def ref_conditional(levels, query, evidence):
    joint = query.merge(evidence)
    (value_e, scale_e, _), (value_j, scale_j, _) = (
        ref_marginal(levels, x_m) for x_m in (evidence, joint)
    )
    log_z = ref_log_z(levels)[0]
    if inf._log_of(value_e, scale_e) - log_z < math.log(1e-300):
        raise mn.ZeroEvidenceProbability("below the floor")
    return min(max(inf._scale_back(value_j / value_e, scale_j - scale_e), 0.0), 1.0)


# --- helpers --------------------------------------------------------------------


def outcome(fn, *args):
    """repr of a result (exact for floats, signed zeros included) or the error type."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return type(exc).__name__


def rescaled(model, factor):
    """The model with every off-reference entry multiplied by `factor`."""
    tables = []
    for table in model.potentials:
        array = np.array(table.array)
        array[1 - table.reference_bit] *= factor
        tables.append(
            QFunctionTable(table.node, table.neighbors, table.reference_bit, array, zero_threshold=0.0)
        )
    n = model.num_qubits
    modulus = mn.normalization_modulus(tuple(tables), model.reference_bits(), n) if n <= 12 else 0.0
    return MenModel(model.graph, tuple(tables), model.reference, modulus)


def tied_chain(n, seed):
    """Chain whose weights are all exactly 1: every assignment ties."""
    rng = np.random.default_rng(seed)
    graph = MenGraph.path(n)
    tables = []
    for i in range(1, n + 1):
        k = len(graph.neighbors(i))
        array = np.ones((2,) * (k + 1), dtype=complex)
        array[1] = rng.choice([1, -1, 1j, -1j], size=(2,) * k)
        tables.append(QFunctionTable(i, graph.neighbors(i), 0, array))
    modulus = mn.normalization_modulus(tuple(tables), (0,) * n, n) if n <= 12 else 0.0
    return MenModel(graph, tuple(tables), Assignment.zeros(n), modulus)


def random_binding(rng, n, count):
    qubits = rng.choice(np.arange(1, n + 1), size=count, replace=False)
    return Assignment({int(q): int(rng.integers(0, 2)) for q in qubits})


def assert_queries_match(model, rng, prefixes, bindings, conditionals):
    n = model.num_qubits
    levels = ref_levels(model.potentials, model.reference_bits())
    new_levels = inf._chain_weights(model)
    assert repr(new_levels) == repr([level[0] + level[1] for level in levels])
    for m in prefixes:
        x = Assignment({i: int(rng.integers(0, 2)) for i in range(1, m + 1)})
        got = inf.chain_prefix_marginal_ratio(model, x)
        assert repr((got.value, got.op_count)) == repr(ref_prefix(levels, x))
    queries = [Assignment(), Assignment.zeros(n), random_binding(rng, n, n)]
    queries += [random_binding(rng, n, int(rng.integers(1, min(n, 6) + 1))) for _ in range(bindings)]
    for x in queries:
        assert repr(inf._chain_marginal(new_levels, x)) == repr(ref_marginal(levels, x))
        got = inf.chain_marginal_ratio(model, x)
        value, log_scale, ops = ref_marginal(levels, x)
        assert repr((got.value, got.op_count)) == repr((inf._scale_back(value, log_scale), ops))
        assert outcome(inf._model_marginal_probability, model, x) == outcome(
            ref_model_marginal, model, levels, x
        )
    assert repr(inf._chain_log_z(new_levels)) == repr(ref_log_z(levels))
    for _ in range(conditionals if n > 1 else 0):
        order = rng.permutation(np.arange(1, n + 1))
        split = int(rng.integers(1, min(n - 1, 3) + 1))
        stop = split + int(rng.integers(0, min(n - split, 5) + 1))
        query = Assignment({int(q): int(rng.integers(0, 2)) for q in order[:split]})
        evidence = Assignment({int(q): int(rng.integers(0, 2)) for q in order[split:stop]})
        assert outcome(mn.conditional_probability, model, query, evidence) == outcome(
            ref_conditional, levels, query, evidence
        )
    got = mn.mle_chain(model)
    want_bits, want_probability, want_ops = ref_mle(model, levels)
    assert list(got.assignment.values()) == want_bits
    assert repr((got.probability, got.op_count)) == repr((want_probability, want_ops))


# --- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 30))
def test_small_chains_match_the_dict_sweeps(n):
    for seed in range(2):
        rng = np.random.default_rng([seed, n, 7])
        model = mn.random_chain_model(n, seed=[seed, n])
        assert_queries_match(model, rng, range(n + 1), bindings=6, conditionals=4)


@pytest.mark.parametrize("n", [60, 150, 300, 356, 500, 745, 1000, 2000])
def test_long_chains_match_the_dict_sweeps(n):
    rng = np.random.default_rng([n, 7])
    model = mn.random_chain_model(n, seed=[0, n])
    prefixes = sorted({0, 1, 2, n // 2, n - 1, n})
    assert_queries_match(model, rng, prefixes, bindings=3, conditionals=2)


@pytest.mark.parametrize("factor", [1e-60, 1e60])
def test_rescaled_chains_match_the_dict_sweeps(factor):
    """Peaks leave [1e-100, 1e100] within a few levels, in both directions."""
    for n in (13, 40):
        rng = np.random.default_rng([n, 9])
        model = rescaled(mn.random_chain_model(n, seed=[1, n]), factor)
        assert_queries_match(model, rng, range(n + 1), bindings=6, conditionals=4)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_exact_ties_match_the_dict_sweeps(n):
    model = tied_chain(n, seed=n)
    assert mn.mle_chain(model).assignment == Assignment.zeros(n)
    assert_queries_match(model, np.random.default_rng(n), range(n + 1), bindings=4, conditionals=3)


def test_weights_past_the_double_range_raise_overflow_as_before():
    model = rescaled(mn.random_chain_model(20, seed=3), 1e160)
    with pytest.raises(OverflowError):
        ref_levels(model.potentials, model.reference_bits())
    with pytest.raises(OverflowError):
        inf._chain_weights(model)
    assert outcome(mn.mle_chain, model) == "OverflowError"


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_level_gather_equals_python_abs_squared(scale):
    """hypot then float_power, bit for bit equal to abs(v) ** 2 on 1e5 entries."""
    n = 25_001
    rng = np.random.default_rng(int(-math.log10(scale)) + 200)
    sizes = [4] + [8] * (n - 2) + [4]
    total = sum(sizes)
    values = scale * rng.uniform(0.2, 5.0, total) * np.exp(1j * rng.uniform(0, 2 * math.pi, total))
    cuts = np.cumsum(sizes)[:-1]
    tables = [
        SimpleNamespace(array=chunk.reshape((2,) * int(math.log2(chunk.size))))
        for chunk in np.split(values, cuts)
    ]
    ref_bits = tuple(rng.integers(0, 2, n).tolist())
    got = np.array(inf._chain_levels(tables, ref_bits))
    want = np.array([level[0] + level[1] for level in ref_levels(tables, ref_bits)])
    assert got.size >= 100_000
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestPerQueryShortcuts:
    def test_assignment_membership_keeps_mapping_semantics(self):
        x = Assignment({1: 0, 3: 1})
        assert 1 in x and 3 in x and 1.0 in x and True in x
        assert 2 not in x and "1" not in x and None not in x
        with pytest.raises(TypeError):
            [1] in x  # noqa: B015 - unhashable, as for any mapping

    def test_cached_path_check_keeps_equality_and_hash(self):
        used, fresh = MenGraph.path(5), MenGraph.path(5)
        assert used.is_path() and used.is_path()
        assert used == fresh and hash(used) == hash(fresh)
        assert not MenGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)]).is_path()
        assert MenGraph.path(1).is_path()

    def test_from_bits_checks_what_it_does_not_take_as_is(self):
        assert Assignment.from_bits(np.array([0, 1])) == Assignment({1: 0, 2: 1})
        assert Assignment.from_bits([True, 0]) == Assignment({1: 1, 2: 0})
        with pytest.raises(ValueError, match="bit for qubit 2 must be 0 or 1, got 2"):
            Assignment.from_bits([0, 2, 3])
        assert Assignment.from_bits([]) == Assignment() and Assignment().is_full(0)
        full = Assignment.from_bits([1, 0, 1])
        assert full.bits(3) == (1, 0, 1) and not full.is_full(2) and not full.is_full(4)
        assert not Assignment({2: 0, 3: 1}).is_full(2)
