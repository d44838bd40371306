"""Sums and maxima over a model's squared telescoping product.

The squared product factorizes: node i contributes the factor |q_i|^2 over
{i} and its lower-indexed neighbours, with its higher neighbours at the
reference, read from its table's flat entries at bit << k | ctx. Bound
qubits are sliced out of every factor first; the free qubits are then
summed (or maximized) out one at a time in descending index order, each
from the bucket of factors whose highest qubit it is (Dechter, AIJ 113,
1999; Koller & Friedman 2009, ch. 9). The cost is exponential in the
largest factor that order builds, not in the number of free qubits. The
entries of all the factors it builds are counted before any arithmetic
(_plan), and an elimination past _FACTOR_ENTRIES_MAX of them is refused.

On the chain 1-2-...-n the factors are 2x2 levels, and one sweep along the
chain replaces the buckets (the chain section below). _normalize is a
model's one route to log Z, the sweep on a chain and bucket elimination
on any other graph: MenModel derives or audits its reference modulus
through it once, as it is built, and the queries of menet.inference read
it back.

Plain Python on lists of floats, so building or reading a model and
answering its queries load no numpy. A factor is a (scope, values) pair,
its qubits in descending order, the first the most significant bit of the
index into values. Every factor is divided by its peak as it is made, and
the logs of the peaks are kept, so nothing overflows and nothing
underflows that matters against its peak.

Op counts take one unit per modulus square, multiplication and addition,
as inference's do; comparisons and the divisions by a peak are not counted.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import add, gt, mul, truediv

from .errors import EnumerationBoundExceeded, NotAChain

# The most entries the bucket products of one elimination may hold in all
# (see _plan), measured by verify's rule for a command: under 1 s and
# 100 MB in a fresh `menet` process.
_FACTOR_ENTRIES_MAX = 1 << 19
# A chain sweep divides its message by the peak when the peak leaves this range.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100
# The largest ratio of one level's largest modulus to its smallest that
# _chain_levels scales: its scaled weights then lie within [1 / ratio,
# ratio], and their products with messages in [_RESCALE_LO, _RESCALE_HI]
# stay normal doubles.
_SCALED_WEIGHT_MAX = 1e200


def sum_product(potentials, ref_bits, bound) -> tuple[float, float, int]:
    """Sum of the squared q-products over the completions of `bound`.

    Returns (value, log scale, op count); the sum is value * e^(log scale),
    and value is 0.0 only when the sum is.
    """
    value, log_scale, ops, _ = _eliminate(potentials, ref_bits, bound, False)
    return value, log_scale, ops


def log_partition(potentials, ref_bits) -> tuple[float, int]:
    """(log Z, op count), Z the sum of the squared q-products over every assignment."""
    value, log_scale, ops = sum_product(potentials, ref_bits, {})
    return log_scale + math.log(value), ops + 1


def max_product(potentials, ref_bits) -> tuple[list[int], list[float], int]:
    """The lexicographically smallest assignment of largest squared q-product.

    Qubits are decoded in ascending order, each to its best bit given the
    ones before it, taking 0 on an exact tie: the tie-break of
    mle_brute_force and the chain max-product. Returns the bits, the
    modulus |q_i| each node's factor reads at them, and the op count.
    """
    _, _, ops, choices = _eliminate(potentials, ref_bits, {}, True)
    bits = [0] * len(ref_bits)
    for v, rest, choice in reversed(choices):
        index = 0
        for u in rest:
            index = index << 1 | bits[u - 1]
        bits[v - 1] = choice[index]
    moduli = [abs(table.entries[_flat_index(table, bits, ref_bits)]) for table in potentials]
    return bits, moduli, ops


def _flat_index(table, bits, ref_bits) -> int:
    """Entry of node i at `bits`, its higher neighbours at the reference."""
    i = table.node
    flat = bits[i - 1]
    for j in table.neighbors:
        flat = flat << 1 | (bits[j - 1] if j < i else ref_bits[j - 1])
    return flat


def _scopes(potentials, bound) -> list[tuple[int, ...]]:
    """Each node's free qubits among itself and its lower neighbours, descending."""
    return [
        tuple(j for j in (table.node, *reversed(table.neighbors)) if j <= table.node and j not in bound)
        for table in potentials
    ]


def _plan(scopes, n: int) -> dict[int, tuple[int, ...]]:
    """Each eliminated qubit's bucket scope, descending, in elimination order.

    Bucket v's product is over the union of its factors' scopes: 2^size
    entries. Their sum over the buckets bounds both the time and the largest
    factor held at once, and past _FACTOR_ENTRIES_MAX the elimination is
    refused here, before any arithmetic.
    """
    buckets: dict[int, set[int]] = {}
    for scope in scopes:
        if scope:
            buckets.setdefault(scope[0], set()).update(scope)
    targets = {}
    total = widest = 0
    for v in range(n, 0, -1):
        union = buckets.pop(v, None)
        if union is None:
            continue
        total += 1 << len(union)
        widest = max(widest, len(union))
        if total > _FACTOR_ENTRIES_MAX:
            raise EnumerationBoundExceeded(
                f"variable elimination needs more than {_FACTOR_ENTRIES_MAX} factor entries "
                f"(a factor over {widest} qubits so far)"
            )
        targets[v] = target = tuple(sorted(union, reverse=True))
        if len(target) > 1:
            buckets.setdefault(target[1], set()).update(target[1:])
    return targets


def _node_factor(table, scope, ref_bits, bound) -> tuple[list[float], float]:
    """|q_i|^2 over `scope`, divided by its peak, and the log of that peak."""
    i, k = table.node, len(table.neighbors)
    weight = {i: 1 << k}
    base = bound.get(i, 0) << k
    for t, j in enumerate(table.neighbors):
        weight[j] = 1 << (k - 1 - t)
        base |= (bound.get(j, 0) if j < i else ref_bits[j - 1]) << (k - 1 - t)
    index = [base]
    for j in scope:
        w = weight[j]
        index = [x + b for x in index for b in (0, w)]
    entries = table.entries
    moduli = [abs(entries[x]) for x in index]
    peak = max(moduli)
    if not all(map(math.isfinite, moduli)):
        raise EnumerationBoundExceeded(f"node {i}: a weight |q|^2 is not a finite number")
    return [(m / peak) ** 2 for m in moduli], 2.0 * math.log(peak)


def _broadcast(scope, values, target) -> list[float]:
    """`values` over `scope` laid out over `target`, a descending superset of it.

    Each missing qubit is inserted by writing every block of entries below
    its place twice, as slice copies, so the result holds references to the
    same float objects.
    """
    current = list(scope)
    for var in target:
        if var in current:
            continue
        place = sum(1 for u in current if u > var)
        values = _repeat_blocks(values, 1 << (len(current) - place))
        current.insert(place, var)
    return values


def _repeat_blocks(values: list[float], block: int) -> list[float]:
    """Each run of `block` entries written twice, in as few slice copies as the shape allows."""
    size = len(values)
    doubled = values * 2
    if block == size:
        return doubled
    if block * block <= size:  # short blocks: one strided copy per offset in a block
        step = 2 * block
        for r in range(block):
            doubled[r::step] = doubled[block + r :: step] = values[r::block]
    else:  # long blocks: one copy per block
        for s in range(0, size, block):
            doubled[2 * s : 2 * s + block] = doubled[2 * s + block : 2 * s + 2 * block] = values[s : s + block]
    return doubled


def _eliminate(potentials, ref_bits, bound, maximize: bool):
    """Sum, or maximize, the free qubits out in descending order.

    Returns (value, log scale, op count, choices). When maximizing, each
    eliminated qubit v leaves (v, the rest of its bucket's scope, the best
    bit of v per assignment of that rest as bytes, 0 on ties).
    """
    n = len(ref_bits)
    bound = dict(bound)
    scopes = _scopes(potentials, bound)
    targets = _plan(scopes, n)
    buckets: dict[int, list] = {}
    log_scale = 0.0
    ops = 0
    for table, scope in zip(potentials, scopes):
        values, log_peak = _node_factor(table, scope, ref_bits, bound)
        log_scale += log_peak
        ops += len(values)
        if scope:
            buckets.setdefault(scope[0], []).append((scope, values))
    value = 1.0
    choices = []
    for v, target in targets.items():
        bucket = buckets.pop(v)
        product = None
        for scope, values in bucket:
            values = values if scope == target else _broadcast(scope, values, target)
            product = values if product is None else list(map(mul, product, values))
        ops += (len(bucket) - 1) * len(product)
        half = len(product) // 2
        low, high = product[:half], product[half:]
        if maximize:
            choices.append((v, target[1:], bytes(map(gt, high, low))))
            message = [b if b > a else a for a, b in zip(low, high)]
        else:
            message = list(map(add, low, high))
            ops += half
        peak = max(message)
        if peak > 0.0:
            message = list(map(truediv, message, repeat(peak, half)))
            log_scale += math.log(peak)
        if len(target) > 1:
            buckets.setdefault(target[1], []).append((target[1:], message))
        else:
            value *= message[0]
    return value, log_scale, ops, choices


# --- chains ------------------------------------------------------------------
#
# On the chain 1-2-...-n the squared telescoping product is
# prod_i w_i(x_{i-1}, x_i), with w_i(p, b) = |q(x_i = b | x_{i-1} = p,
# x_{i+1} at reference)|^2. Node 1 has no left neighbor: both rows of its
# level are equal, and x_0 is a dummy fixed at 0. Every chain query is a
# sum-product or a max-product sweep over these n levels.


def _normalize(model) -> float:
    """log Z of a model by its one route, kept on the model; MenModel calls it once, as it is built.

    A chain sweeps log Z from its levels, and the model keeps the levels
    (_chain_weights); any other graph eliminates it. The queries read back
    both, and log Z's op count (_model_log_z). They are stored as
    MenGraph.is_path stores its answer, outside the fields, so equality,
    repr and dataclasses.replace do not see them.
    """
    potentials, ref_bits = model.potentials, model.reference_bits()
    if model.graph.is_path():
        levels = _chain_levels(potentials, ref_bits)
        log_z, ops = _chain_log_z(levels)
        log_z += levels.log_offset
        object.__setattr__(model, "_chain_weights", levels)
    else:
        log_z, ops = log_partition(potentials, ref_bits)
    object.__setattr__(model, "_log_z", (log_z, ops))
    return log_z


def _model_log_z(model) -> tuple[float, int]:
    """(log Z, op count) of a model, as it was worked out when the model was built."""
    return model._log_z


def _chain_weights(model) -> _Levels:
    """The model's chain levels, as they were gathered when the model was built."""
    if not model.graph.is_path():
        raise NotAChain("model graph is not the chain 1-2-...-n")
    return model._chain_weights


def _level_offsets(n: int, ref_bits) -> list[tuple[int, int, int, int]]:
    """Where each level's [w(0, 0), w(0, 1), w(1, 0), w(1, 1)] sit in its node's flat entries.

    A table's flat index is bit << k | ctx, and on a chain the context is
    (x_{i-1}, x_{i+1}) with either end absent, so w_i(p, b) sits at offset
    4b + 2p + r inside the chain (r = x_{i+1} at the reference), 2b + r at
    node 1, 2b + p at node n, and b when n == 1.
    """
    if n == 1:
        return [(0, 1, 0, 1)]
    r = ref_bits[1]
    middle = [(r, 4 + r, 2 + r, 6 + r) for r in ref_bits[2:]]
    return [(r, 2 + r, r, 2 + r), *middle, (0, 2, 1, 3)]


class _Levels(list):
    """Chain levels, and the log of the factor divided out of them.

    Every chain product takes exactly one weight per level, so a sum or a
    maximum of such products over the levels, in logs, adds `log_offset`.
    It is 0.0 unless a weight is past the double range.
    """

    log_offset = 0.0


def _chain_levels(potentials, ref_bits) -> _Levels:
    """levels[i - 1] = [w_i(0, 0), w_i(0, 1), w_i(1, 0), w_i(1, 1)], gathered at _level_offsets.

    Each weight is Python's abs(v) ** 2, libm hypot(re, im) raised by libm
    pow(h, 2.0), to which the chain results are pinned. When a weight is
    past the double range, each level's moduli are instead divided by the
    geometric mean of its smallest and largest before they are squared, so
    its weights sit either side of 1 (a division by the peak alone would
    leave the reference-bit weights of 1 to underflow against a peak past
    1e154), and the summed logs of the squared scales are the levels'
    log_offset. An entry that is not finite, or a level whose moduli span
    more than _SCALED_WEIGHT_MAX, raises EnumerationBoundExceeded, as brute
    force does for sums past the double range.
    """
    at = _level_offsets(len(ref_bits), ref_bits)
    tables = [table.entries for table in potentials]
    try:
        levels = _Levels(
            [abs(v[a]) ** 2, abs(v[b]) ** 2, abs(v[c]) ** 2, abs(v[d]) ** 2] for v, (a, b, c, d) in zip(tables, at)
        )
    except OverflowError:  # a weight past the double range: each level divided by a scale of its own
        levels = _Levels()
        log_offset = 0.0
        for v, where in zip(tables, at):
            try:
                moduli = [abs(v[x]) for x in where]
            except OverflowError:  # hypot(re, im) past the double range
                moduli = [math.inf]
            low, high = min(moduli), max(moduli)
            if not (0.0 < low and high / low <= _SCALED_WEIGHT_MAX):
                raise EnumerationBoundExceeded("a chain weight |q|^2 is past the double range") from None
            scale = math.sqrt(low) * math.sqrt(high)
            levels.append([(m / scale) ** 2 for m in moduli])
            log_offset += 2.0 * math.log(scale)
        levels.log_offset = log_offset
    # weights are >= 0, so they are all finite when their sum is; only a sum
    # past the double range leaves each weight to be looked at (inf or nan entries)
    if not math.isfinite(sum(map(sum, levels))) and not all(map(math.isfinite, chain.from_iterable(levels))):
        raise EnumerationBoundExceeded("a chain weight |q|^2 is past the double range")
    return levels


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
