"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line once its assertions have held (pytest -s
shows them); tolerances are pinned here, not configurable.
"""

import itertools
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import menet as mn
from menet import Assignment, MenGraph

GOLDEN = Path(__file__).parent / "golden"


def _pass(number: int, title: str) -> None:
    print(f"ACCEPTANCE {number} {title}: PASS", flush=True)


def bipartitions(n):
    for r in range(1, n):
        for m in itertools.combinations(range(1, n + 1), r):
            yield set(m)


def random_bipartition_blocks(n, rng):
    size = int(rng.integers(1, n))
    first = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
    second = sorted(set(range(1, n + 1)) - set(first))
    return (tuple(first), tuple(second))


def partitions_three(n):
    """Canonical partitions of 1..n into nonempty A, B, C."""
    for colors in itertools.product((0, 1, 2), repeat=n):
        groups = ([], [], [])
        for q, color in zip(range(1, n + 1), colors):
            groups[color].append(q)
        set_a, set_b, set_c = groups
        if not (set_a and set_b and set_c):
            continue
        if min(set_a + set_b) in set_b:
            continue
        yield set_a, set_b, set_c


def test_criterion_1_a_independence_equivalence():
    """a-independence at the max-modulus reference == rank-based separability
    on 200 mixed random states over all bipartitions; tolerance as configured;
    runtime < 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    bell = mn.PureState([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)])
    assert not mn.is_separable(bell, {1}).separable
    assert not mn.a_independent(bell, {1}, Assignment.zeros(2))

    states = 0
    while states < 200:
        n = 2 + states % 4
        if states % 2 == 0:
            blocks = random_bipartition_blocks(n, rng)
            sample = mn.random_product_state(blocks, rng)
            psi = sample.state
            product_split = set(blocks[0])
        else:
            psi = mn.random_state(n, rng)
            product_split = None
        x0 = mn.assignment_of(int(np.argmax(np.abs(psi.amplitudes))), n)
        for m in bipartitions(n):
            verdict = mn.is_separable(psi, m)
            assert mn.a_independent(psi, m, x0) == verdict.separable, (states, m)
            if product_split is not None and (m == product_split or m == set(range(1, n + 1)) - product_split):
                assert verdict.separable, (states, m)
        states += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _pass(1, "a-independence/separability equivalence on 200 states")


def test_criterion_2_factor_extraction_round_trip():
    """extract_factors on 100 random product states round-trips with
    fidelity >= 1 - 1e-9."""
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = 2 + trial % 4
        blocks = random_bipartition_blocks(n, rng)
        sample = mn.random_product_state(blocks, rng)
        fidelity = mn.factor_round_trip_fidelity(sample.state, set(blocks[0]))
        assert fidelity >= 1 - 1e-9, (trial, blocks, fidelity)
    _pass(2, "factor extraction round trip on 100 product states")


def test_criterion_3_conditional_independence():
    """On 100 n=4 states from random models with a surviving missing edge,
    every detected conditional separability gives conditional-probability
    equality within 1e-8 under the brute-force oracle."""
    rng = np.random.default_rng(303)
    all_edges = list(itertools.combinations(range(1, 5), 2))
    collected = 0
    detected_separabilities = 0
    seed = 0
    while collected < 100:
        seed += 1
        keep = rng.uniform(size=len(all_edges)) < 0.55
        graph = MenGraph.from_edges(4, [e for e, k in zip(all_edges, keep) if k])
        if len(graph.edges) == len(all_edges):
            continue
        model = mn.random_model(graph, seed=seed)
        psi = mn.reconstruct_state(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
            built = mn.build_graph(psi)
        if len(built.edges) == len(all_edges):
            continue  # every missing edge was induced away; not a useful case
        collected += 1
        for set_a, set_b, set_c in partitions_three(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
                if not mn.conditionally_separable(psi, set_a, set_b, set_c).separable:
                    continue
            detected_separabilities += 1
            for bits_b in itertools.product((0, 1), repeat=len(set_b)):
                for bits_c in itertools.product((0, 1), repeat=len(set_c)):
                    cond = Assignment(dict(zip(set_b, bits_b))).merge(
                        Assignment(dict(zip(set_c, bits_c)))
                    )
                    cond0 = Assignment({q: 0 for q in set_b}).merge(
                        Assignment(dict(zip(set_c, bits_c)))
                    )
                    p_cond = mn.marginal_probability(psi, cond)
                    p_cond0 = mn.marginal_probability(psi, cond0)
                    for bits_a in itertools.product((0, 1), repeat=len(set_a)):
                        qa = Assignment(dict(zip(set_a, bits_a)))
                        lhs = mn.marginal_probability(psi, qa.merge(cond)) / p_cond
                        rhs = mn.marginal_probability(psi, qa.merge(cond0)) / p_cond0
                        assert abs(lhs - rhs) <= 1e-8, (seed, set_a, set_b, set_c)
    assert detected_separabilities > 0  # the check must not be vacuous
    _pass(3, "conditional separability implies probabilistic independence")


def test_criterion_4_perfect_map_and_graphoids():
    """verify_perfect_map passes for 50 states from random graphs with random
    nonzero potentials (n = 4, 5), and so do the graphoid axioms that the
    complement-held predicate can state (symmetry, weak union, intersection);
    those also pass exhaustively for 20 random all-nonzero states at n = 4."""
    from menet.network import _GRAPHOID_MAX

    rng = np.random.default_rng(404)
    for trial in range(50):
        n = 4 + trial % 2
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        keep = rng.uniform(size=len(all_edges)) < 0.5
        graph = MenGraph.from_edges(n, [e for e, k in zip(all_edges, keep) if k])
        model = mn.random_model(graph, seed=trial)
        psi = mn.reconstruct_state(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mn.ZeroAmplitudeWarning)
            built = mn.build_graph(psi)
        report = mn.verify_perfect_map(psi, built)
        assert report.passed, (trial, report.disagreements[:3])
        if n <= _GRAPHOID_MAX:
            axioms = mn.check_graphoid_axioms(psi)
            assert axioms.passed, (trial, [ax for ax in axioms.axioms if ax.violations])

    for trial in range(20):
        report = mn.check_graphoid_axioms(mn.random_nonzero_state(4, trial + 4000))
        assert report.passed, (trial, [ax for ax in report.axioms if ax.violations])
    _pass(4, "perfect map (50 states) and graphoid axioms (70 states)")


def test_criterion_5_round_trip_and_normalization():
    """extract -> reconstruct fidelity >= 1 - 1e-9 on 100 random all-nonzero
    states (n <= 6); stored reference modulus matches the normalization
    formula recomputed from the reconstruction within 1e-9."""
    for trial in range(100):
        n = 2 + trial % 5
        psi = mn.random_nonzero_state(n, trial + 5000)
        model = mn.extract_men(psi)
        back = mn.reconstruct_state(model)
        assert mn.fidelity_up_to_phase(psi, back) >= 1 - 1e-9, (trial, n)
        assert abs(np.linalg.norm(back.amplitudes) - 1.0) <= 1e-9
        recomputed = mn.extract_men(back)
        assert abs(model.reference_modulus - recomputed.reference_modulus) <= 1e-9
        assert abs(model.reference_modulus - abs(back.amplitude(Assignment.zeros(n)))) <= 1e-9
    _pass(5, "model round trip and normalization on 100 states")


def test_criterion_6_chain_inference():
    """Chain inference == brute force within 1e-10 relative (n <= 12, 100
    seeds); prefix op counts exactly affine over n = 8..16; wall ratio
    n=2000 / n=1000 within [1.5, 3.0]; mle_chain matches brute force on 100
    random chains at n = 10 (probability within 1e-12)."""
    rng = np.random.default_rng(606)
    for seed in range(100):
        n = 2 + seed % 11
        model = mn.random_chain_model(n, seed)
        bound = sorted(rng.choice(np.arange(1, n + 1), size=min(n, 3), replace=False).tolist())
        x_m = Assignment({int(q): int(rng.integers(0, 2)) for q in bound})
        brute = mn.marginal_ratio(model, x_m)
        chain = mn.chain_marginal_ratio(model, x_m)
        assert abs(chain.value - brute.value) / brute.value < 1e-10, (seed, n)
        prefix_m = Assignment({i: int(rng.integers(0, 2)) for i in range(1, min(n, 4) + 1)})
        prefix = mn.chain_prefix_marginal_ratio(model, prefix_m)
        brute_prefix = mn.marginal_ratio(model, prefix_m)
        assert abs(prefix.value - brute_prefix.value) / brute_prefix.value < 1e-10

    # exact affinity of the prefix sweep's op count
    m = 4
    x_prefix = Assignment({i: 0 for i in range(1, m + 1)})
    ops_n = [
        mn.chain_prefix_marginal_ratio(mn.random_chain_model(n, 1), x_prefix).op_count
        for n in range(8, 17)
    ]
    assert {ops_n[i + 2] - 2 * ops_n[i + 1] + ops_n[i] for i in range(len(ops_n) - 2)} == {0}
    model12 = mn.random_chain_model(12, 1)
    ops_m = [
        mn.chain_prefix_marginal_ratio(
            model12, Assignment({i: 0 for i in range(1, mm + 1)})
        ).op_count
        for mm in range(1, 12)
    ]
    assert {ops_m[i + 2] - 2 * ops_m[i + 1] + ops_m[i] for i in range(len(ops_m) - 2)} == {0}

    # wall-clock scaling of the linear algorithm
    big = mn.random_chain_model(2000, 7)
    mid = mn.random_chain_model(1000, 7)
    query = Assignment({1: 1})

    def call_ns(model):
        t0 = time.perf_counter_ns()
        mn.chain_marginal_ratio(model, query)
        return time.perf_counter_ns() - t0

    call_ns(big), call_ns(mid)  # warm-up
    # alternate the sizes so that load on a shared machine falls on both alike;
    # the fastest call of each is the one least disturbed by it
    samples = [(call_ns(big), call_ns(mid)) for _ in range(60)]
    ratio = min(s[0] for s in samples) / min(s[1] for s in samples)
    assert 1.5 <= ratio <= 3.0, f"wall ratio {ratio:.2f} outside [1.5, 3.0]"

    for seed in range(100):
        model = mn.random_chain_model(10, seed + 6000)
        chain = mn.mle_chain(model)
        brute = mn.mle_brute_force(mn.reconstruct_state(model))
        assert chain.assignment == brute.assignment, seed
        assert abs(chain.probability - brute.probability) <= 1e-12, seed
    _pass(6, "chain inference correctness and linearity")


def test_criterion_7_classification():
    """Canonical classes; with K = 256 and a fixed seed the GHZ census holds
    both chain and triangle shapes, the W census only triangles; 20 random
    local basis changes never alter any class; runtime < 60 s."""
    start = time.perf_counter()
    seed, samples = 7, 256
    expectations = {
        "ghz": mn.TripartiteClass(mn.ClassTag.GHZ_LIKE),
        "w": mn.TripartiteClass(mn.ClassTag.W_LIKE),
        "bell12_0": mn.TripartiteClass(mn.ClassTag.BISEPARABLE, 3),
        "bell13_0": mn.TripartiteClass(mn.ClassTag.BISEPARABLE, 2),
        "bell23_0": mn.TripartiteClass(mn.ClassTag.BISEPARABLE, 1),
        "product": mn.TripartiteClass(mn.ClassTag.FULLY_SEPARABLE),
    }
    for name, expected in expectations.items():
        got = mn.classify(mn.canonical_state(name))
        assert got == expected, (name, got)

    ghz_census = mn.topology_census(mn.canonical_state("ghz"), samples, seed)
    assert ghz_census.count("triangle") > 0
    assert any(ghz_census.count(f"chain({c})") > 0 for c in (1, 2, 3))
    w_census = mn.topology_census(mn.canonical_state("w"), samples, seed)
    assert w_census.accepted > 0
    assert w_census.count("triangle") == w_census.accepted

    for name in expectations:
        report = mn.class_invariance_check(mn.canonical_state(name), trials=20, seed=11)
        assert report.passed, (name, report.changes)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _pass(7, "3-qubit classification, censuses and invariance")


def test_criterion_8_measurement_edge_containment():
    """On 100 random all-nonzero states (n = 3, 4), post-measurement edges are
    a subset of the prior edges minus those incident to the measured qubit;
    zero violations over all qubits and outcomes."""
    violations = 0
    for trial in range(100):
        n = 3 + trial % 2
        psi = mn.random_nonzero_state(n, trial + 8000)
        graph = mn.build_graph(psi)
        for qubit in range(1, n + 1):
            for outcome in (0, 1):
                try:
                    _, _, new_graph = mn.measure_and_update(psi, graph, qubit, outcome)
                except mn.ZeroProbabilityOutcome:
                    continue
                allowed = {e for e in graph.edges if qubit not in e}
                if not new_graph.edges <= allowed:
                    violations += 1
    assert violations == 0
    _pass(8, "measurement edge containment on 100 states")


def test_criterion_9_cli_determinism(fixture_dir, tmp_path, capsys):
    """Every subcommand reproduces its committed golden output on the
    canonical fixtures, byte-identically, across repeated runs."""
    from menet.cli import main
    from test_cli import golden_cases

    cases = golden_cases(fixture_dir, tmp_path)
    for name, argv in cases.items():
        outputs = []
        for _ in range(2):
            rc = main(argv)
            assert rc == 0, (name, rc)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], name
        assert outputs[0] == (GOLDEN / f"{name}.txt").read_text(), name
    _pass(9, "CLI golden outputs byte-identical for every subcommand")
