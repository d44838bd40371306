"""Bucket elimination over a model's squared telescoping product.

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

Plain Python on lists of floats: only model queries and the model
modulus audit load this module, and none of them loads numpy. A factor is
a (scope, values) pair, its qubits in descending order, the first the
most significant bit of the index into values. Every factor is divided by
its peak as it is made, and the logs of the peaks are kept, so nothing
overflows and nothing underflows that matters against its peak.

Op counts take one unit per modulus square, multiplication and addition,
as inference's do; comparisons and the divisions by a peak are not counted.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, gt, mul, truediv

from .errors import EnumerationBoundExceeded

# The most entries the bucket products of one elimination may hold in all
# (see _plan), measured by verify's rule for a command: under 1 s and
# 100 MB in a fresh `menet` process.
_FACTOR_ENTRIES_MAX = 1 << 19


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
