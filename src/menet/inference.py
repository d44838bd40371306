"""Exact probabilistic queries on states and models.

Two routes are kept deliberately independent so they can check each other:

- brute force: marginal_probability sums squared moduli over completions of
  a partial assignment directly on the amplitude vector; marginal_ratio does
  the same on a model's telescoping q-products. Exponential, used as the
  oracle.
- chain specializations: on path-graph models, marginal ratios, conditionals
  and maximum likelihood instantiations come from one sum-product and one
  max-product sweep along the chain, linear in the number of qubits.

QueryResult.op_count counts complex multiplications, additions, and
modulus-square evaluations (one each); comparisons and rescaling divisions
are not part of the unit. For the prefix-marginal sweep the count is exactly
affine, 10*(n-m) + 2*m - 4 for 1 <= m < n (the rearranged sum's nominal
cost model is 6*(n-m) + 2*m - 1; only affinity is load-bearing).
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationBoundExceeded,
    InvalidQuery,
    NotAChain,
    NotAPrefix,
    ZeroAmplitudeWarning,
    ZeroEvidenceProbability,
)
from .network import (
    MenGraph,
    MenModel,
    QFunctionTable,
    _random_q_tables,
    _relative_amplitude_products,
    build_graph,
    reconstruct_state,
)
from .state import (
    DEFAULT_TOL,
    Assignment,
    PureState,
    ToleranceConfig,
    assignment_of,
    measure_qubit,
)

_EVIDENCE_FLOOR = 1e-300
_BRUTE_FREE_MAX = 26
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100


@dataclass(frozen=True)
class QueryResult:
    """A query value plus the operation count that produced it."""

    value: float
    op_count: int

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"query value must be >= 0, got {self.value!r}")
        if self.op_count <= 0:
            raise ValueError("op_count must be positive")


@dataclass(frozen=True)
class MleResult:
    """A maximum-likelihood basis assignment and its probability."""

    assignment: Assignment
    probability: float
    op_count: int


def _validate_bindings(x_m: Assignment, n: int) -> None:
    bad = [q for q in x_m if q < 1 or q > n]
    if bad:
        raise InvalidQuery(f"bindings for qubits {bad} outside 1..{n}")


def marginal_probability(psi: PureState, x_m: Assignment) -> float:
    """Brute-force oracle: sum of |a|^2 over all completions of x_m."""
    n = psi.num_qubits
    _validate_bindings(x_m, n)
    at = tuple(x_m.get(q, slice(None)) for q in range(1, n + 1))
    picked = psi.amplitudes.reshape((2,) * n)[at].reshape(-1)
    return float(np.sum(np.abs(picked) ** 2))


def probability_of(psi: PureState, x: Assignment) -> float:
    """|a(x)|^2 for a full assignment."""
    return float(abs(psi.amplitude(x)) ** 2)


def marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """p(x_M) / p(reference), summed over completions of the q-products.

    Reference (exponential) implementation; valid on any graph, bounded by
    the number of free qubits and by the double range of the sum.
    """
    n = model.num_qubits
    _validate_bindings(x_m, n)
    free = n - len(x_m)
    if free > _BRUTE_FREE_MAX:
        raise EnumerationBoundExceeded(
            f"brute-force enumeration over 2^{free} completions refused "
            f"(limit 2^{_BRUTE_FREE_MAX})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        rel = _relative_amplitude_products(model.potentials, model.reference_bits(), n, x_m)
        value = float(np.sum(np.abs(rel.reshape(-1)) ** 2))
    if not math.isfinite(value):
        raise EnumerationBoundExceeded(
            f"brute-force sum over 2^{free} completions is {value} (outside the double range)"
        )
    count = rel.size
    ops = count * (n - 1) + count + (count - 1)  # mults, mod-squares, adds
    return QueryResult(value, ops)


def conditional_probability(
    model: MenModel, query: Assignment, evidence: Assignment
) -> float:
    """p(query | evidence) as a ratio of marginal ratios; clamped to [0, 1].

    Chain models take sum-product sweeps (joint, evidence, and log Z for the
    evidence floor); other graphs sum by brute force.
    """
    n = model.num_qubits
    _validate_bindings(query, n)
    _validate_bindings(evidence, n)
    if set(query) & set(evidence):
        raise InvalidQuery("query and evidence domains must be disjoint")
    joint = query.merge(evidence)
    if model.graph.is_path():
        levels = _chain_weights(model)
        (value_e, scale_e, _), (value_j, scale_j, _) = (
            _chain_marginal(levels, x_m) for x_m in (evidence, joint)
        )
        log_z = _chain_log_z(levels)[0]
    else:
        value_e, value_j = (marginal_ratio(model, x_m).value for x_m in (evidence, joint))
        scale_e = scale_j = 0.0
        ref_squared = model.reference_modulus**2
        log_z = -math.log(ref_squared) if ref_squared > 0.0 else math.inf
    if _log_of(value_e, scale_e) - log_z < math.log(_EVIDENCE_FLOOR):  # the modulus may be 0
        raise ZeroEvidenceProbability(
            f"evidence {evidence!r} has probability below {_EVIDENCE_FLOOR}"
        )
    return min(max(_scale_back(value_j / value_e, scale_j - scale_e), 0.0), 1.0)


# --- chain specializations ---------------------------------------------------
#
# On the chain 1-2-...-n the squared telescoping product is
# prod_i w_i(x_{i-1}, x_i), with w_i(p, b) = |q(x_i = b | x_{i-1} = p,
# x_{i+1} at reference)|^2. Node 1 has no left neighbor: both rows of its
# level are equal, and x_0 is a dummy fixed at 0. Every chain query is a
# sum-product or a max-product sweep over these n levels.


def _require_chain(model: MenModel) -> None:
    if not model.graph.is_path():
        raise NotAChain("model graph is not the chain 1-2-...-n")


def _chain_weights(model: MenModel) -> list[list[float]]:
    _require_chain(model)
    return _chain_levels(model.potentials, model.reference_bits())


def _chain_levels(
    potentials: tuple[QFunctionTable, ...], ref_bits: tuple[int, ...]
) -> list[list[float]]:
    """levels[i - 1] = [w_i(0, 0), w_i(0, 1), w_i(1, 0), w_i(1, 1)], one gather.

    A table's flat index is bit << k | ctx, and on a chain the context is
    (x_{i-1}, x_{i+1}) with either end absent, so w_i(p, b) sits at offset
    b * half + right + p * left of table i. The chain results are pinned
    to Python's abs(v) ** 2, which is libm hypot(re, im) raised by libm
    pow(h, 2.0); np.hypot and np.float_power call those same functions and
    so agree bit for bit, where np.abs and h * h differ in the last bit.
    Where Python's power would raise OverflowError, so does this.
    """
    n = len(ref_bits)
    half = np.full(n, 4, dtype=np.intp)  # tables of 4, 8, ..., 8, 4 entries
    half[0] = half[-1] = 2 if n > 1 else 1
    right = np.zeros(n, dtype=np.intp)
    right[:-1] = ref_bits[1:]  # x_{i+1} at the reference
    left = np.full(n, 2, dtype=np.intp)  # place value of x_{i-1}
    left[-1] = 1
    left[0] = 0
    base = np.cumsum(2 * half) - 2 * half + right
    at = np.stack([base, base + half, base + left, base + half + left], axis=1)
    v = np.concatenate([table.array.ravel() for table in potentials])[at]
    with np.errstate(over="ignore"):
        w = np.float_power(np.hypot(v.real, v.imag), 2.0)
    if not np.isfinite(w).all():
        raise OverflowError("a chain weight |q|^2 is past the double range")
    return w.tolist()


def _scale_back(value: float, log_scale: float) -> float:
    if log_scale == 0.0:
        return value
    if value <= 0.0:
        return 0.0
    try:
        return math.exp(log_scale + math.log(value))
    except OverflowError:
        return math.inf


def _sweep_ops(num_levels: int, bound: dict[int, int]) -> int:
    """Op count of _sum_product: per level t, s(t+1) * (c * s(t) - 1).

    s(t) is the number of bits y_t may take (1 if bound, else 2) and c is 2
    at the first level, which has no message to multiply, and 3 after. All
    free, that is 6 and then 10 per level; only levels next to a bound
    position differ.
    """
    if not num_levels:
        return 0
    ops = 6 + 10 * (num_levels - 1)
    for t in {u for b in bound for u in (b - 1, b) if 0 <= u < num_levels}:
        s_t = 1 if t in bound else 2
        s_next = 1 if t + 1 in bound else 2
        ops += s_next * ((3 if t else 2) * s_t - 1) - (10 if t else 6)
    return ops


def _sum_product(
    levels, bound: dict[int, int], normalize: bool = False
) -> tuple[tuple[float, float], float, int]:
    """Sum out y_0, y_1, ... in order; levels[t][2p + b] weighs y_t = p -> y_{t+1} = b.

    `bound` maps positions t to the one bit y_t may take. Returns the last
    message (m0, m1), 0.0 at a bound-out bit, its log scale and the op
    count. A bound-out term adds w * 0.0 = 0.0 (weights are finite and
    >= 0), so every entry equals the sum over the allowed terms alone. The
    message is divided by its peak when that leaves [1e-100, 1e100], or at
    every level with `normalize`.
    """
    first = bound.get(0)
    m0 = 0.0 if first == 1 else 1.0
    m1 = 0.0 if first == 0 else 1.0
    keep = [None] * len(levels)  # keep[t]: the bit y_{t+1} is bound to
    for t, bit in bound.items():
        if 0 < t <= len(levels):
            keep[t - 1] = bit
    log_scale = 0.0
    for (w00, w01, w10, w11), k in zip(levels, keep):
        n0 = w00 * m0 + w10 * m1
        n1 = w01 * m0 + w11 * m1
        if k is not None:
            if k:
                n0 = 0.0
            else:
                n1 = 0.0
        peak = n1 if n1 > n0 else n0
        if normalize or peak > _RESCALE_HI or (0.0 < peak < _RESCALE_LO):
            n0 /= peak
            n1 /= peak
            log_scale += math.log(peak)
        m0, m1 = n0, n1
    return (m0, m1), log_scale, _sweep_ops(len(levels), bound)


def _max_product(levels) -> tuple[list[int], list[float], int]:
    """Lexicographically smallest argmax of prod_i w_i(x_{i-1}, x_i).

    A backward pass keeps, per bit, the best suffix product (divided by its
    peak at each level: argmax-invariant, so no overflow); the forward pass
    picks bits left to right, preferring 0 on exact ties. Returns the bits,
    the chosen factors and the op count.
    """
    a0 = a1 = 1.0
    best = [(a0, a1)]
    for w00, w01, w10, w11 in reversed(levels[1:]):
        x, y = w00 * a0, w01 * a1
        c0 = y if y > x else x
        x, y = w10 * a0, w11 * a1
        c1 = y if y > x else x
        peak = c1 if c1 > c0 else c0
        a0, a1 = (c0 / peak, c1 / peak) if peak > 0.0 else (c0, c1)
        best.append((a0, a1))
    best.reverse()
    bits: list[int] = []
    chosen: list[float] = []
    pick = 0
    for (w00, w01, w10, w11), (a0, a1) in zip(levels, best):
        r0, r1 = (w10, w11) if pick else (w00, w01)
        pick = 1 if r1 * a1 > r0 * a0 else 0
        bits.append(pick)
        chosen.append(r1 if pick else r0)
    return bits, chosen, 8 * (len(levels) - 1) + 4 * len(levels)


def _chain_log_z(levels) -> tuple[float, int]:
    """log of the sum over all assignments of the squared q-products."""
    (m0, m1), log_scale, ops = _sum_product(levels, {0: 0}, True)
    return log_scale + math.log(m0 + m1), ops + 1


def _chain_marginal(levels, x_m: Assignment) -> tuple[float, float, int]:
    """Marginal ratio of x_m as (value, log scale, op count), left to right."""
    bound = {0: 0, **x_m}  # y_0 is the dummy x_0
    (m0, m1), log_scale, ops = _sum_product(levels, bound)
    return m0 + m1, log_scale, ops + (0 if len(levels) in bound else 1)


def _log_of(value: float, log_scale: float) -> float:
    return log_scale + math.log(value) if value > 0.0 else -math.inf


def _chain_probability(model: MenModel, levels, ratio: float, log_ratio: float) -> tuple[float, int]:
    """p = ratio * reference_modulus**2 and its op count.

    When that product (or the squared modulus in it) is not a normal
    positive double, the modulus has under- or overflowed and
    p = exp(log ratio - log Z) instead, with log Z from one more sweep.
    """
    ref = model.reference_modulus
    probability = ref * ref * ratio
    if math.isfinite(probability) and min(ref * ref, probability) >= sys.float_info.min:
        return probability, 2
    log_z, ops = _chain_log_z(levels)
    return math.exp(log_ratio - log_z), 2 + ops


def chain_prefix_marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """Marginal ratio for a prefix assignment {1..m} on a chain model.

    Splits the sum into the bound-prefix product times a right-to-left sweep
    of suffix sums, so the cost is linear: op_count = 10*(n-m) + 2*m - 4 for
    1 <= m < n, affine in both n-m and m.
    """
    levels = _chain_weights(model)
    n = len(levels)
    _validate_bindings(x_m, n)
    m = len(x_m)
    if sorted(x_m) != list(range(1, m + 1)):
        raise NotAPrefix(f"bindings {sorted(x_m)} are not a prefix 1..m")
    # the suffix sweep runs over the reversed chain x_n, ..., x_m (x_0 if m == 0)
    reversed_levels = [(w00, w10, w01, w11) for w00, w01, w10, w11 in reversed(levels[m:])]
    suffix, log_scale, ops = _sum_product(reversed_levels, {} if m else {n: 0})
    if m == 0:
        value = suffix[0]
    else:
        bits = x_m.bits(m)
        value = levels[0][bits[0]]
        ops += 1
        for i in range(1, m):
            value *= levels[i][2 * bits[i - 1] + bits[i]]
            ops += 2
        if m < n:
            value *= suffix[bits[-1]]
            ops += 1
    return QueryResult(float(_scale_back(value, log_scale)), ops)


def chain_marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """Marginal ratio for any partial assignment on a chain model.

    Sequential elimination left to right with a 2-entry message; linear in n
    and equal to marginal_ratio up to rounding; inf past the double range
    (see _chain_log_ratio).
    """
    levels = _chain_weights(model)
    _validate_bindings(x_m, len(levels))
    value, log_scale, ops = _chain_marginal(levels, x_m)
    return QueryResult(float(_scale_back(value, log_scale)), ops)


def _chain_log_ratio(model: MenModel, x_m: Assignment) -> float:
    """Natural log of chain_marginal_ratio, finite past the double range too."""
    levels = _chain_weights(model)
    _validate_bindings(x_m, len(levels))
    return _log_of(*_chain_marginal(levels, x_m)[:2])


def _model_marginal_probability(model: MenModel, x_m: Assignment) -> float:
    """p(x_M) on a model: chain sweeps on chains, brute force elsewhere."""
    if not model.graph.is_path():
        return marginal_ratio(model, x_m).value * model.reference_modulus**2
    levels = _chain_weights(model)
    _validate_bindings(x_m, len(levels))
    value, log_scale, _ = _chain_marginal(levels, x_m)
    ratio = _scale_back(value, log_scale)
    return _chain_probability(model, levels, ratio, _log_of(value, log_scale))[0]


def mle_brute_force(psi: PureState) -> MleResult:
    """Exact argmax of |a(x)|^2; ties resolve to the smallest assignment.

    Basis indices are in lexicographic bit order, so the first maximum is
    the lexicographically smallest maximizer.
    """
    probs = np.abs(psi.amplitudes) ** 2
    best = int(np.argmax(probs))
    return MleResult(
        assignment_of(best, psi.num_qubits), float(probs[best]), int(probs.size)
    )


def mle_chain(model: MenModel) -> MleResult:
    """Exact maximum-likelihood assignment on a chain by one max-product sweep.

    Ties resolve to the lexicographically smallest global maximizer. Linear
    in n.
    """
    levels = _chain_weights(model)
    bits, chosen, ops = _max_product(levels)
    ratio = math.prod(chosen)
    ops += len(chosen)
    log_ratio = sum(map(math.log, chosen)) if min(chosen) > 0.0 else -math.inf
    probability, p_ops = _chain_probability(model, levels, ratio, log_ratio)
    return MleResult(Assignment.from_bits(bits), float(probability), ops + p_ops)


def measure_and_update(
    psi: PureState,
    g: MenGraph,
    qubit: int,
    outcome: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[float, PureState, MenGraph]:
    """Measure one qubit and rebuild the graph of the collapsed state.

    Contract (holds in the nonzero-amplitude regime): the new edge set is a
    subset of the old one minus all edges incident to the measured qubit;
    measurement never introduces edges. The collapsed state has structural
    zeros at the un-measured outcome, so the rebuild suppresses the
    zero-amplitude warning.
    """
    probability, collapsed = measure_qubit(psi, qubit, outcome, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroAmplitudeWarning)
        new_graph = build_graph(collapsed, tol)
    return probability, collapsed, new_graph


def random_chain_model(
    n: int, seed, zero_amp_threshold: float = DEFAULT_TOL.zero_amp_threshold
) -> MenModel:
    """Chain model with random potentials, moduli in [0.2, 5], uniform phases.

    The reference modulus comes from the normalization formula evaluated by
    message passing along the chain (linear, log-stabilized), so arbitrarily
    long chains are fine. Its square leaves the normal double range from
    roughly n = 355 and the modulus itself underflows to 0 from n ~ 745;
    chain probabilities then come from log Z instead (_chain_probability).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    graph = MenGraph.path(n)
    rng = np.random.default_rng(seed)
    potentials = _random_q_tables(graph, rng, (0.2, 5.0), (0,) * n, zero_amp_threshold)
    log_total, _ = _chain_log_z(_chain_levels(potentials, (0,) * n))
    modulus = math.exp(-0.5 * log_total)  # log Z >= 0: the reference weighs 1
    return MenModel(graph, potentials, Assignment.zeros(n), modulus)


# --- benchmark harness -------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    size: int
    task: str
    wall_ns_median: int | None
    op_count: int
    oracle_agreement: float | None


@dataclass(frozen=True)
class BenchReport:
    """Chain-inference scaling report; op counts are deterministic per seed."""

    rows: tuple[BenchRow, ...]
    seed: int
    repetitions: int

    HEADER = "size\ttask\twall_ns_median\top_count\toracle_agreement"

    def to_text(self) -> str:
        lines = [self.HEADER]
        for row in sorted(self.rows, key=lambda r: (r.size, r.task)):
            wall = "-" if row.wall_ns_median is None else str(row.wall_ns_median)
            agree = (
                "" if row.oracle_agreement is None else format(row.oracle_agreement, ".12g")
            )
            lines.append(f"{row.size}\t{row.task}\t{wall}\t{row.op_count}\t{agree}")
        return "\n".join(lines) + "\n"


def _median_wall_ns(fn, repetitions: int) -> int:
    samples = []
    fn()  # warm-up
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return int(statistics.median(samples))


def bench_chains(
    sizes, seed: int = 0, repetitions: int = 5, timing: bool = True
) -> BenchReport:
    """Time and count chain queries per size; brute-force columns for n <= 14.

    The marginal query binds qubits 1..min(4, n) to the fixed pattern
    0,1,0,1. oracle_agreement is the relative deviation from the brute-force
    value (marginals) or probability (MLE), reported for n <= 12 only.
    """
    rows: list[BenchRow] = []
    for n in sizes:
        n = int(n)
        model = random_chain_model(n, seed=[seed, n])
        x_m = Assignment({i: (0, 1, 0, 1)[i - 1] for i in range(1, min(4, n) + 1)})

        chain_marg = chain_marginal_ratio(model, x_m)
        chain_mle = mle_chain(model)
        dense = reconstruct_state(model) if n <= 14 else None
        brute_marg = marginal_ratio(model, x_m) if n <= 14 else None
        brute_mle = mle_brute_force(dense) if dense is not None else None

        marg_agree = mle_agree = None
        if n <= 12 and brute_marg is not None:
            marg_agree = abs(chain_marg.value - brute_marg.value) / brute_marg.value
            mle_agree = abs(chain_mle.probability - brute_mle.probability) / brute_mle.probability

        def walltime(fn) -> int | None:
            return _median_wall_ns(fn, repetitions) if timing else None

        rows.append(
            BenchRow(n, "chain_marginal", walltime(lambda: chain_marginal_ratio(model, x_m)), chain_marg.op_count, marg_agree)
        )
        rows.append(
            BenchRow(n, "chain_mle", walltime(lambda: mle_chain(model)), chain_mle.op_count, mle_agree)
        )
        if brute_marg is not None:
            rows.append(
                BenchRow(n, "brute_marginal", walltime(lambda: marginal_ratio(model, x_m)), brute_marg.op_count, None)
            )
        if brute_mle is not None:
            rows.append(
                BenchRow(n, "brute_mle", walltime(lambda: mle_brute_force(dense)), brute_mle.op_count, None)
            )
    return BenchReport(tuple(rows), int(seed), int(repetitions))
