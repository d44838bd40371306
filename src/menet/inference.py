"""Exact probabilistic queries on states and models.

Two routes are kept deliberately independent so they can check each other:

- brute force: marginal_probability sums squared moduli over completions of
  a partial assignment directly on the amplitude vector; marginal_ratio does
  the same on a model's telescoping q-products. Exponential, used as the
  oracle.
- chain specializations: for path-graph models, marginal ratios and maximum
  likelihood instantiations are computed by message passing along the chain
  in time linear in the number of qubits.

QueryResult.op_count counts complex multiplications, additions, and
modulus-square evaluations (one each); comparisons and rescaling divisions
are not part of the unit. For the prefix-marginal sweep the count is exactly
affine, 10*(n-m) + 2*m - 4 for 1 <= m < n (the rearranged sum's nominal
cost model is 6*(n-m) + 2*m - 1; only affinity is load-bearing).
"""

from __future__ import annotations

import math
import statistics
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
    _require_index_width,
    build_graph,
    reconstruct_state,
)
from .state import (
    DEFAULT_TOL,
    Assignment,
    PureState,
    ToleranceConfig,
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
    indices = np.arange(psi.dim)
    mask = np.ones(psi.dim, dtype=bool)
    for qubit, bit in x_m.items():
        mask &= ((indices >> (n - qubit)) & 1) == bit
    return float(np.sum(np.abs(psi.amplitudes[mask]) ** 2))


def probability_of(psi: PureState, x: Assignment) -> float:
    """|a(x)|^2 for a full assignment."""
    return float(abs(psi.amplitude(x)) ** 2)


def _completion_indices(x_m: Assignment, n: int) -> np.ndarray:
    free = sorted(set(range(1, n + 1)) - set(x_m))
    if len(free) > _BRUTE_FREE_MAX:
        raise EnumerationBoundExceeded(
            f"brute-force enumeration over 2^{len(free)} completions refused "
            f"(limit 2^{_BRUTE_FREE_MAX})"
        )
    _require_index_width(n)
    base = 0
    for qubit, bit in x_m.items():
        base |= bit << (n - qubit)
    patterns = np.arange(2 ** len(free))
    indices = np.full(patterns.shape, base)
    for pos, qubit in enumerate(free):
        indices |= ((patterns >> (len(free) - 1 - pos)) & 1) << (n - qubit)
    return indices


def marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """p(x_M) / p(reference), summed over completions of the q-products.

    Reference (exponential) implementation; valid on any graph.
    """
    n = model.num_qubits
    _validate_bindings(x_m, n)
    indices = _completion_indices(x_m, n)
    rel = _relative_amplitude_products(
        model.potentials, model.reference_bits(), n, indices
    )
    value = float(np.sum(np.abs(rel) ** 2))
    count = int(indices.size)
    ops = count * (n - 1) + count + (count - 1)  # mults, mod-squares, adds
    return QueryResult(value, ops)


def conditional_probability(
    model: MenModel, query: Assignment, evidence: Assignment
) -> float:
    """p(query | evidence) as a ratio of marginal ratios; clamped to [0, 1]."""
    n = model.num_qubits
    _validate_bindings(query, n)
    _validate_bindings(evidence, n)
    if set(query) & set(evidence):
        raise InvalidQuery("query and evidence domains must be disjoint")
    denominator = marginal_ratio(model, evidence)
    if denominator.value * model.reference_modulus**2 < _EVIDENCE_FLOOR:
        raise ZeroEvidenceProbability(
            f"evidence {evidence!r} has probability below {_EVIDENCE_FLOOR}"
        )
    numerator = marginal_ratio(model, query.merge(evidence))
    return min(max(numerator.value / denominator.value, 0.0), 1.0)


# --- chain specializations ---------------------------------------------------


def _require_chain(model: MenModel) -> None:
    if not model.graph.is_path():
        raise NotAChain("model graph is not the chain 1-2-...-n")


def _chain_factor(
    model: MenModel, i: int, prev_bit: int | None, bit: int, ref_bits: tuple[int, ...]
) -> float:
    """|q(x_i | x_{i-1}, x_{i+1} at reference)|^2 on a chain (one mod-square)."""
    n = model.num_qubits
    if i == 1:
        ctx: tuple[int, ...] = (ref_bits[1],) if n > 1 else ()
    elif i == n:
        ctx = (prev_bit,)
    else:
        ctx = (prev_bit, ref_bits[i])
    return abs(model.potentials[i - 1].values[(bit, ctx)]) ** 2


def _rescaled(message: dict, log_scale: float) -> tuple[dict, float]:
    peak = max(message.values())
    if peak > _RESCALE_HI or (0.0 < peak < _RESCALE_LO):
        return {k: v / peak for k, v in message.items()}, log_scale + math.log(peak)
    return message, log_scale


def _scale_back(value: float, log_scale: float) -> float:
    if log_scale == 0.0:
        return value
    if value <= 0.0:
        return 0.0
    try:
        return math.exp(log_scale + math.log(value))
    except OverflowError:
        return math.inf


def chain_prefix_marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """Marginal ratio for a prefix assignment {1..m} on a chain model.

    Splits the sum into the bound-prefix product times a right-to-left sweep
    of suffix sums, so the cost is linear: op_count = 10*(n-m) + 2*m - 4 for
    1 <= m < n, affine in both n-m and m.
    """
    n = model.num_qubits
    _require_chain(model)
    _validate_bindings(x_m, n)
    m = len(x_m)
    if sorted(x_m) != list(range(1, m + 1)):
        raise NotAPrefix(f"bindings {sorted(x_m)} are not a prefix 1..m")
    ref_bits = model.reference_bits()
    ops = 0
    log_scale = 0.0

    suffix: dict | None = None
    for j in range(n, m, -1):
        prev_bits: tuple = (0, 1) if j >= 2 else (None,)
        new = {}
        for p in prev_bits:
            total = 0.0
            for b in (0, 1):
                f = _chain_factor(model, j, p, b, ref_bits)
                ops += 1
                if suffix is None:
                    term = f
                else:
                    term = f * suffix[b]
                    ops += 1
                total += term
            ops += 1  # the one addition of the two terms
            new[p] = total
        suffix, log_scale = _rescaled(new, log_scale)

    if m == 0:
        value = suffix[None]  # the j == 1 level has no left neighbor
    else:
        prod = None
        for i in range(1, m + 1):
            f = _chain_factor(model, i, x_m[i - 1] if i > 1 else None, x_m[i], ref_bits)
            ops += 1
            if prod is None:
                prod = f
            else:
                prod *= f
                ops += 1
        if m < n:
            value = prod * suffix[x_m[m]]
            ops += 1
        else:
            value = prod
    return QueryResult(float(_scale_back(value, log_scale)), ops)


def chain_marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """Marginal ratio for any partial assignment on a chain model.

    Sequential elimination left to right with a 2-entry message; linear in n
    and equal to marginal_ratio up to rounding.
    """
    n = model.num_qubits
    _require_chain(model)
    _validate_bindings(x_m, n)
    ref_bits = model.reference_bits()
    ops = 0
    log_scale = 0.0

    def allowed(i: int) -> tuple[int, ...]:
        return (x_m[i],) if i in x_m else (0, 1)

    message: dict | None = None
    for i in range(1, n + 1):
        new = {}
        prev_bits = allowed(i - 1) if i > 1 else (None,)
        for b in allowed(i):
            total = 0.0
            terms = 0
            for p in prev_bits:
                f = _chain_factor(model, i, p, b, ref_bits)
                ops += 1
                if message is None:
                    term = f
                else:
                    term = f * message[p]
                    ops += 1
                total += term
                terms += 1
            ops += terms - 1
            new[b] = total
        message, log_scale = _rescaled(new, log_scale)
    value = sum(message.values())
    ops += len(message) - 1
    if ops <= 0:  # pragma: no cover - n >= 1 always does work
        ops = 1
    return QueryResult(float(_scale_back(value, log_scale)), ops)


def mle_brute_force(psi: PureState) -> MleResult:
    """Exact argmax of |a(x)|^2; ties resolve to the smallest assignment.

    Basis indices are in lexicographic bit order, so the first maximum is
    the lexicographically smallest maximizer.
    """
    probs = np.abs(psi.amplitudes) ** 2
    best = int(np.argmax(probs))
    from .state import assignment_of

    return MleResult(
        assignment_of(best, psi.num_qubits), float(probs[best]), int(probs.size)
    )


def mle_chain(model: MenModel) -> MleResult:
    """Exact maximum-likelihood assignment on a chain by max-product sweeps.

    A backward pass computes, per node value, the best achievable suffix
    product; the forward pass then picks bits left to right, preferring 0 on
    exact ties, which yields the lexicographically smallest global maximizer.
    Linear in n.
    """
    n = model.num_qubits
    _require_chain(model)
    ref_bits = model.reference_bits()
    ops = 0

    # best[i][b]: max over x_{i+1..n} of the product of factors i+1..n given
    # x_i = b; rescaled per level (argmax-invariant), so no overflow.
    best = [None] * (n + 1)
    best[n] = {0: 1.0, 1: 1.0}
    for i in range(n - 1, 0, -1):
        cur = {}
        for b in (0, 1):
            top = -math.inf
            for b2 in (0, 1):
                f = _chain_factor(model, i + 1, b, b2, ref_bits)
                ops += 1
                cand = f * best[i + 1][b2]
                ops += 1
                if cand > top:
                    top = cand
            cur[b] = top
        peak = max(cur.values())
        if peak > 0.0:
            cur = {b: v / peak for b, v in cur.items()}
        best[i] = cur

    bits: list[int] = []
    chosen: list[float] = []
    prev: int | None = None
    for i in range(1, n + 1):
        pick, pick_score, pick_f = None, -math.inf, None
        for b in (0, 1):
            f = _chain_factor(model, i, prev, b, ref_bits)
            ops += 1
            score = f * best[i][b]
            ops += 1
            if score > pick_score:
                pick, pick_score, pick_f = b, score, f
        bits.append(pick)
        chosen.append(pick_f)
        prev = pick

    prod = 1.0
    for f in chosen:
        prod *= f
        ops += 1
    ref = model.reference_modulus
    probability = ref * ref * prod
    ops += 2
    if not (math.isfinite(probability) and probability > 0.0):
        if ref > 0.0 and all(f > 0.0 for f in chosen):
            logp = 2.0 * math.log(ref) + sum(math.log(f) for f in chosen)
            probability = math.exp(logp) if logp < 0.0 else math.inf
        else:
            probability = 0.0
    return MleResult(Assignment.from_bits(bits), float(probability), ops)


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
    long chains are fine; below roughly n = 500 the stored modulus is exact,
    beyond that it may underflow to 0 while ratio-scale queries stay valid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    graph = MenGraph.path(n)
    rng = np.random.default_rng(seed)
    potentials = _random_q_tables(graph, rng, (0.2, 5.0), (0,) * n, zero_amp_threshold)
    log_total = _chain_log_total(potentials, (0,) * n, n)
    modulus = math.exp(-0.5 * log_total) if log_total > -1400.0 else math.inf
    if not math.isfinite(modulus):  # total weight underflowed below exp(-1400)
        modulus = 0.0
    return MenModel(graph, potentials, Assignment.zeros(n), modulus)


def _chain_log_total(
    potentials: tuple[QFunctionTable, ...], ref_bits: tuple[int, ...], n: int
) -> float:
    """log of sum over all assignments of the chain's squared q-products."""

    def factor(i: int, p: int | None, b: int) -> float:
        if i == 1:
            ctx: tuple[int, ...] = (ref_bits[1],) if n > 1 else ()
        elif i == n:
            ctx = (p,)
        else:
            ctx = (p, ref_bits[i])
        return abs(potentials[i - 1].values[(b, ctx)]) ** 2

    log_scale = 0.0
    message: dict | None = None
    for i in range(1, n + 1):
        prev_bits: tuple = tuple(message) if message is not None else (None,)
        new = {}
        for b in (0, 1):
            new[b] = sum(
                factor(i, p, b) * (message[p] if message is not None else 1.0)
                for p in prev_bits
            )
        peak = max(new.values())
        log_scale += math.log(peak)
        message = {b: v / peak for b, v in new.items()}
    return log_scale + math.log(sum(message.values()))


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
