"""Exact probabilistic queries on states and models.

Three routes; the dense one is kept independent of the other two so they
can check each other:

- brute force: marginal_probability sums squared moduli over completions of
  a partial assignment directly on the amplitude vector; marginal_ratio does
  the same on a model's telescoping q-products, and mle_brute_force takes
  the dense argmax. Exponential, used as the oracle, and on state files.
- chain specializations: on path-graph models, marginal ratios, conditionals
  and maximum likelihood instantiations come from one sum-product and one
  max-product sweep along the chain, linear in the number of qubits. They
  run in plain Python on the tables' flat entries. The per-model part, the
  |q|^2 levels and log Z, is worked out once, when the model is built, and
  kept on the instance (menet.elimination's _chain_weights and
  _model_log_z). Each query then runs only its own sweep.
- variable elimination (menet.elimination): every other model query, by
  sum-product or max-product bucket elimination in descending qubit order,
  also plain Python. Its cost is exponential in the largest factor that
  order builds, not in the number of free qubits. Model queries therefore
  never load numpy; only the brute-force routes import it.

The sweeps themselves, the level gather and log Z live in menet.elimination,
next to the buckets, because MenModel normalizes through them; this module
holds the query routes, their rules (bindings, evidence floor, the
fallback to log Z past the double range) and the public API.

QueryResult.op_count counts complex multiplications, additions, and
modulus-square evaluations (one each); comparisons and rescaling divisions
are not part of the unit. For the prefix-marginal sweep the count is exactly
affine, 10*(n-m) + 2*m - 4 for 1 <= m < n (the rearranged sum's nominal
cost model is 6*(n-m) + 2*m - 1; only affinity is load-bearing).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from .elimination import (
    _chain_weights,
    _max_product,
    _model_log_z,
    _sum_product,
    max_product,
    sum_product,
)
from .errors import (
    EnumerationBoundExceeded,
    InvalidQuery,
    NotAPrefix,
    ZeroEvidenceProbability,
)
from .network import (
    MenGraph,
    MenModel,
    _relative_amplitude_products,
    random_model,
    reconstruct_state,
)
from .state import Assignment, PureState, assignment_of

_EVIDENCE_FLOOR = 1e-300
_BRUTE_FREE_MAX = 26


@dataclass(frozen=True)
class QueryResult:
    """A query value, the operation count that produced it, and the value's natural log.

    Past the double range `value` reads inf or 0.0 while `log_value` stays
    finite: the chain sweeps and elimination fill it from the log scale
    they keep. Left out, it is math.log(value), -inf at 0, which is what
    brute force gives.
    """

    value: float
    op_count: int
    log_value: float | None = None

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"query value must be >= 0, got {self.value!r}")
        if self.op_count <= 0:
            raise ValueError("op_count must be positive")
        if self.log_value is None:
            object.__setattr__(self, "log_value", _log_of(self.value, 0.0))


@dataclass(frozen=True)
class MleResult:
    """A maximum-likelihood basis assignment, its probability and that probability's natural log.

    `log_probability` is finite where `probability` underflows to 0.0: on
    a model it is log ratio - log Z whenever the probability is worked out
    from log Z. Left out, it is math.log(probability), -inf at 0.
    """

    assignment: Assignment
    probability: float
    op_count: int
    log_probability: float | None = None

    def __post_init__(self) -> None:
        if self.log_probability is None:
            object.__setattr__(self, "log_probability", _log_of(self.probability, 0.0))


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
    return float((abs(picked) ** 2).sum())


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
    import numpy as np

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

    Joint and evidence are two sums, by sum-product sweeps on a chain model
    and by variable elimination on other graphs. The evidence floor is
    decided on p(evidence) (_probability), which reads log Z only when the
    squared reference modulus times the evidence ratio is not a normal
    double.
    """
    return _conditional(model, query, evidence)


def _conditional(source: PureState | MenModel, query: Assignment, evidence: Assignment) -> float:
    """conditional_probability on a model, or on a state by summing |a|^2."""
    n = source.num_qubits
    _validate_bindings(query, n)
    _validate_bindings(evidence, n)
    if set(query) & set(evidence):
        raise InvalidQuery("query and evidence domains must be disjoint")
    joint = query.merge(evidence)
    if isinstance(source, PureState):
        value_e, value_j = (marginal_probability(source, x_m) for x_m in (evidence, joint))
        scale_e = scale_j = 0.0
        p_evidence = value_e
    else:
        (value_e, scale_e, _), (value_j, scale_j, _) = (
            _model_sum(source, x_m) for x_m in (evidence, joint)
        )
        p_evidence = _probability(source, _scale_back(value_e, scale_e), _log_of(value_e, scale_e))[0]
    if p_evidence < _EVIDENCE_FLOOR:
        raise ZeroEvidenceProbability(
            f"evidence {evidence!r} has probability below {_EVIDENCE_FLOOR}"
        )
    return min(max(_scale_back(value_j / value_e, scale_j - scale_e), 0.0), 1.0)


# --- chain specializations ---------------------------------------------------
#
# The levels, the sweeps over them and log Z are in menet.elimination's
# chain section; these are the chain query routes built on them.


def _scale_back(value: float, log_scale: float) -> float:
    if log_scale == 0.0:
        return value
    if value <= 0.0:
        return 0.0
    try:
        return math.exp(log_scale + math.log(value))
    except OverflowError:
        return math.inf


def _model_sum(model: MenModel, x_m: Assignment) -> tuple[float, float, int]:
    """Marginal ratio of x_m on a model as (value, log scale, op count).

    One sum-product sweep on a chain, variable elimination on other graphs.
    """
    if model.graph.is_path():
        return _chain_sum(model, x_m)
    _validate_bindings(x_m, model.num_qubits)
    return sum_product(model.potentials, model.reference_bits(), x_m)


def _chain_sum(model: MenModel, x_m: Assignment) -> tuple[float, float, int]:
    """_chain_marginal on the model's levels, with their log offset in the log scale."""
    levels = _chain_weights(model)
    value, log_scale, ops = _chain_marginal(levels, x_m)
    return value, log_scale + levels.log_offset, ops


def _chain_marginal(levels, x_m: Assignment) -> tuple[float, float, int]:
    """Marginal ratio of x_m as (value, log scale, op count), left to right."""
    _validate_bindings(x_m, len(levels))
    bound = {0: 0, **x_m}  # y_0 is the dummy x_0
    (m0, m1), log_scale, ops = _sum_product(levels, bound)
    return m0 + m1, log_scale, ops + (0 if len(levels) in bound else 1)


def _log_of(value: float, log_scale: float) -> float:
    return log_scale + math.log(value) if value > 0.0 else -math.inf


def _probability(model: MenModel, ratio: float, log_ratio: float) -> tuple[float, float, int]:
    """p = ratio * reference_modulus**2, its natural log and its op count, on any model.

    When that product (or the squared modulus in it) is not a normal
    positive double, the modulus or the ratio has under- or overflowed and
    p = exp(log ratio - log Z) instead, with log p = log ratio - log Z. The
    count includes the log-Z sweep or elimination that the model made when
    it was built.
    """
    ref = model.reference_modulus
    probability = ref * ref * ratio
    if math.isfinite(probability) and min(ref * ref, probability) >= sys.float_info.min:
        return probability, math.log(probability), 2
    log_z, ops = _model_log_z(model)
    log_probability = log_ratio - log_z
    return math.exp(log_probability), log_probability, 2 + ops


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
    log_scale += levels.log_offset
    if m == 0:
        value = suffix[0]
        return QueryResult(float(_scale_back(value, log_scale)), ops, _log_of(value, log_scale))
    bits = x_m.bits(m)
    picked = [levels[0][bits[0]], *(levels[i][2 * bits[i - 1] + bits[i]] for i in range(1, m))]
    if m < n:
        picked.append(suffix[bits[-1]])
    value = picked[0]
    for w in picked[1:]:
        value *= w
    ops += 2 * m - 1 + (m < n)
    log_value = _log_of(value, log_scale)
    if not sys.float_info.min <= value < math.inf:  # the product left the double range: its log, term by term
        log_value = log_scale + sum(map(math.log, picked)) if min(picked) > 0.0 else -math.inf
    return QueryResult(float(_scale_back(value, log_scale)), ops, log_value)


def chain_marginal_ratio(model: MenModel, x_m: Assignment) -> QueryResult:
    """Marginal ratio for any partial assignment on a chain model.

    Sequential elimination left to right with a 2-entry message; linear in n
    and equal to marginal_ratio up to rounding; inf past the double range,
    where log_value stays finite (see _marginal).
    """
    value, log_scale, ops = _chain_sum(model, x_m)
    return QueryResult(float(_scale_back(value, log_scale)), ops, _log_of(value, log_scale))


def _marginal(source: PureState | MenModel, x_m: Assignment, ratio: bool) -> tuple[float, float]:
    """p(x_M), or with `ratio` p(x_M) / p(reference), and its natural log.

    A state's reference is 0...0, refused below _EVIDENCE_FLOOR; its sums
    are brute force. A model takes one sum (_model_sum); past the double
    range its ratio is 0 or inf while its log stays finite.
    """
    if isinstance(source, PureState):
        value = marginal_probability(source, x_m)
        if ratio:
            reference = probability_of(source, Assignment.zeros(source.num_qubits))
            if reference < _EVIDENCE_FLOOR:
                raise ZeroEvidenceProbability("reference probability p(0...0) is ~0")
            value /= reference
        return value, _log_of(value, 0.0)
    value, log_scale, _ = _model_sum(source, x_m)
    value, log_value = _scale_back(value, log_scale), _log_of(value, log_scale)
    if ratio:
        return value, log_value
    value = _probability(source, value, log_value)[0]
    return value, _log_of(value, 0.0)


def mle_brute_force(psi: PureState) -> MleResult:
    """Exact argmax of |a(x)|^2; ties resolve to the smallest assignment.

    Basis indices are in lexicographic bit order, so the first maximum is
    the lexicographically smallest maximizer.
    """
    probs = abs(psi.amplitudes) ** 2
    best = int(probs.argmax())
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
    log_offset = levels.log_offset  # one chosen weight per level
    ratio = _scale_back(math.prod(chosen), log_offset)
    ops += len(chosen)
    log_ratio = sum(map(math.log, chosen)) + log_offset if min(chosen) > 0.0 else -math.inf
    probability, log_probability, p_ops = _probability(model, ratio, log_ratio)
    return MleResult(Assignment.from_bits(bits), float(probability), ops + p_ops, log_probability)


def _mle(source: PureState | MenModel) -> MleResult:
    """Maximum likelihood on a state or a model.

    A state takes the dense argmax, a chain model one max-product sweep, and
    any other model max-product variable elimination. Ties resolve to the
    lexicographically smallest assignment on every route.
    """
    if isinstance(source, PureState):
        return mle_brute_force(source)
    if source.graph.is_path():
        return mle_chain(source)
    bits, moduli, ops = max_product(source.potentials, source.reference_bits())
    product = math.prod(moduli)
    log_ratio = 2.0 * sum(map(math.log, moduli))
    probability, log_probability, p_ops = _probability(source, product * product, log_ratio)
    return MleResult(Assignment.from_bits(bits), float(probability), ops + len(moduli) + p_ops, log_probability)


def random_chain_model(n: int, seed) -> MenModel:
    """random_model on the chain 1-2-...-n: moduli in [0.2, 5], uniform phases.

    The model normalizes itself by one sweep along the chain (linear,
    log-stabilized) and keeps the levels and log Z it swept, so arbitrarily
    long chains are fine. The modulus's square leaves the normal double
    range from roughly n = 355 and the modulus itself underflows to 0 from
    n ~ 745; chain probabilities then come from log Z instead (_probability).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return random_model(MenGraph.path(n), seed)


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
    import statistics  # with decimal and fractions behind it; only `menet bench` needs it

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

    Each wall median follows a warm-up call on the same model, so the chain
    rows time warm sweeps: the weights and log Z are already kept on the
    model, and a row times the query's own sweep.

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
