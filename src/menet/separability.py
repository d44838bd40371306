"""Separability and conditional-separability tests on pure states.

A bipartition (M, complement) is separable exactly when the amplitude
vector, reshaped into a 2^|M| x 2^|Mbar| matrix, has rank <= 1; the tests
below check this through 2x2 minors with a scale-aware tolerance. Two
conditional modes are provided:

- "robust" (default): for every fixed realization of the held qubits, the
  varied-qubits slice must be rank <= 1 (all minors vanish). Reference-free
  and well behaved when amplitudes are zero.
- "strict": the fixed-reference cross-product identity, checked verbatim.
  It degenerates when reference amplitudes vanish, which is why robust mode
  drives graph construction.

On states with near-zero amplitudes a "separable" verdict may be spurious
(a fully entangled state can still be slice-wise rank 1), so such verdicts
carry a ZeroAmplitudeWarning.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateState,
    InvalidPartition,
    NotSeparable,
    ZeroAmplitudeWarning,
)
from .state import (
    DEFAULT_TOL,
    Assignment,
    PureState,
    ToleranceConfig,
    _bits,
    _disjoint_subsets,
    _validate_subset,
    assignment_of,
    tensor_product,
)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of a (conditional) separability test.

    `witness` holds the two full assignments at the diagonal corners of the
    first violating 2x2 minor (present iff not separable);
    `max_minor_magnitude` is the largest |minor| encountered in the scan.
    `zero_amplitudes` flags states with amplitudes at or below the zero
    threshold; `reference` records the reference point used (strict mode).
    """

    separable: bool
    witness: tuple[Assignment, Assignment] | None
    max_minor_magnitude: float
    zero_amplitudes: bool = False
    reference: Assignment | None = None

    def __post_init__(self) -> None:
        if self.separable == (self.witness is not None):
            raise ValueError("witness must be present iff the verdict is 'not separable'")


def _partition_matrix(psi: PureState, group_a: list[int], group_b: list[int]):
    """Amplitudes as an array (2^|A|, 2^|B|, 2^rest) with held qubits last."""
    n = psi.num_qubits
    rest = sorted(set(range(1, n + 1)) - set(group_a) - set(group_b))
    perm = [q - 1 for q in group_a + group_b + rest]
    arr = psi.amplitudes.reshape((2,) * n).transpose(perm)
    return arr.reshape(2 ** len(group_a), 2 ** len(group_b), 2 ** len(rest)), rest


def _assignment_at(groups: list[list[int]], indices: list[int]) -> Assignment:
    bound: dict[int, int] = {}
    for qubits, index in zip(groups, indices):
        for q, b in zip(qubits, _bits(index, len(qubits))):
            bound[q] = b
    return Assignment(bound)


def _minor_bound(m1, m2, m3, m4, tol: ToleranceConfig):
    """abs_eps + rel_eps * (product of the two largest entry moduli)."""
    hi_a, lo_a = np.maximum(m1, m2), np.minimum(m1, m2)
    hi_b, lo_b = np.maximum(m3, m4), np.minimum(m3, m4)
    top = np.maximum(hi_a, hi_b)
    second = np.maximum(np.minimum(hi_a, hi_b), np.maximum(lo_a, lo_b))
    return tol.abs_eps + tol.rel_eps * top * second


def _scan_all_minors(arr: np.ndarray, tol: ToleranceConfig):
    """All-2x2-minors scan of arr (R, C, K).

    Returns (max |minor|, first violation as (k, i, i2, j, j2) or None),
    where "first" is lexicographic in (k, i, i2, j, j2).
    """
    rows = arr.shape[0]
    mods = np.abs(arr)
    max_minor = 0.0
    first: tuple[int, int, int, int, int] | None = None
    # column pairs j < j2 in lexicographic order
    jj, jj2 = np.triu_indices(arr.shape[1], k=1)
    for i in range(rows - 1):
        u = arr[i]  # (C, K)
        v = arr[i + 1 :]  # (R-i-1, C, K)
        minors = u[jj][None] * v[:, jj2] - v[:, jj] * u[jj2][None]  # (R-i-1, P, K)
        mags = np.abs(minors)
        bounds = _minor_bound(
            mods[i][jj][None], mods[i][jj2][None], mods[i + 1 :][:, jj], mods[i + 1 :][:, jj2], tol
        )
        max_minor = max(max_minor, float(mags.max(initial=0.0)))
        viol = mags > bounds
        if viol.any():
            # violations indexed (i2off, pair, k); order key is (k, i, i2, j, j2)
            pos = np.argwhere(viol)
            best = pos[np.lexsort((pos[:, 1], pos[:, 0], pos[:, 2]))][0]
            pair = int(best[1])
            cand = (int(best[2]), i, i + 1 + int(best[0]), int(jj[pair]), int(jj2[pair]))
            if first is None or cand < first:
                first = cand
    return max_minor, first


def _bound_range(mods: np.ndarray, tol: ToleranceConfig):
    """Per-row (lo, hi) bracketing every `_minor_bound` among one row's moduli.

    `mods` has shape (R, ...), row r holding the entry moduli of one state.
    A bound is abs_eps + (rel_eps * top) * second with
    small <= second <= top <= big for the row's smallest and largest modulus;
    IEEE rounding is monotone, so the same expression at (small, small) and
    at (big, big) gives lo <= bound <= hi exactly, in every context.
    """
    axes = tuple(range(1, mods.ndim))
    big, small = mods.max(axis=axes), mods.min(axis=axes)
    return tol.abs_eps + tol.rel_eps * small * small, tol.abs_eps + tol.rel_eps * big * big


def _screened_violations(peaks: np.ndarray, lo, hi, exact) -> np.ndarray:
    """Whether each peak |minor| in `peaks` marks a `_minor_bound` violation.

    `lo` and `hi` come from `_bound_range` and broadcast against `peaks`,
    so they bracket every bound that a peak's minors are held to: a peak
    above hi is a violation, and one at or below lo is none. Only the
    others (a peak in between, or a NaN) are decided exactly, by
    `exact(undecided)`, which gets their mask and returns their verdicts
    in the order of `peaks[undecided]`.
    """
    found = peaks > hi
    undecided = ~(found | (peaks <= lo))
    if undecided.any():
        found[undecided] = exact(undecided)
    return found


_PAIR_SAMPLES = 4  # contexts per pair tried before any pair is scanned in full


@functools.lru_cache(maxsize=None)
def _sample_corners(n: int) -> np.ndarray:
    """Indices (4, S, P) of the corners 00, 11, 10, 01 of S contexts of every pair.

    Every pair (i, j) gets the same _PAIR_SAMPLES contexts of the other
    n - 2 qubits: multiples of an odd stride near 0.618 * 2^(n-2), so they
    differ in high and low bits alike. A corner inserts the bits of i and
    j (qubit q is bit n - q) into a context, as `_minor_passes` does.
    """
    size = 1 << (n - 2)
    s = np.arange(_PAIR_SAMPLES)[:, None] * ((size * 40503 >> 16) | 1) & (size - 1)  # 40503/2^16 ~ 0.618
    bit_i, bit_j = 1 << (n - np.array(list(itertools.combinations(range(1, n + 1), 2)))).T
    s = s + (s & -bit_j)  # a 0 bit inserted at j's place, then one at i's
    s += s & -bit_i
    corners = np.stack([s, s | bit_i | bit_j, s | bit_i, s | bit_j])
    corners.flags.writeable = False  # shared by every call through the cache
    return corners


def _quad_minors(quad: np.ndarray) -> np.ndarray:
    """The minors a00*a11 - a10*a01 of a pair view (A, 2, M, 2, R), as (A, M, R)."""
    products = quad[..., 0, :] * quad[:, ::-1, :, 1]  # a00*a11 and a10*a01 on axis 1
    return products[:, 0] - products[:, 1]


def _pairwise_entangled(amps: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Robust conditional test of every qubit pair, for a stack of states.

    `amps` has shape (B, 2**n); the result is a bool array (B, n(n-1)/2),
    True where qubits i and j are conditionally entangled given all the
    others, with pairs (i, j) in itertools.combinations order. For single
    qubits the all-minors scan reduces to one 2x2 minor per context,
    a00*a11 - a10*a01, held to the same tolerance law, so each entry equals
    `not conditionally_separable(psi, {i}, {j}, rest, tol).separable`.

    The minors are screened against each state's bound range (lo, hi),
    which brackets every `_minor_bound` of the state. When there are more
    than _PAIR_SAMPLES contexts, a few sampled ones come first: a sampled
    minor above hi is a violation, so its pair is decided there. Only the
    pairs left open by the samples are scanned in full, their peak minors
    written to one array and screened at once; only pairs the range then
    leaves undecided get their exact bounds, in one call per pair. The
    work runs on the states as columns (2**n, B), so that every step has
    a contiguous run of at least B entries.
    """
    batch, dim = amps.shape
    n = dim.bit_length() - 1
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = np.zeros((len(pairs), batch), dtype=bool)
    if not out.size:
        return out.T
    states = np.ascontiguousarray(amps.T)
    lo, hi = _bound_range(np.abs(states).T, tol)
    cols = np.arange(len(pairs))
    if 1 << (n - 2) > _PAIR_SAMPLES:
        c00, c11, c10, c01 = states[_sample_corners(n)]  # each (S, P, B)
        out = np.abs(c00 * c11 - c10 * c01).max(axis=0) > hi
        cols = np.flatnonzero(~out.all(axis=1))
    # per open pair (i, j), a view (A, 2, M, 2, C*B): bits of i and j on axes
    # 1 and 3; A, M and C the qubits before, between and after them
    quads = [states.reshape(1 << (i - 1), 2, -1, 2, batch << (n - j)) for i, j in (pairs[c] for c in cols)]
    peaks = np.empty((cols.size, batch))
    for k, quad in enumerate(quads):
        peaks[k] = np.abs(_quad_minors(quad)).reshape(-1, batch).max(axis=0)

    def exact(undecided):
        verdicts = []
        for k in np.flatnonzero(undecided.any(axis=1)):
            rows = np.flatnonzero(undecided[k])
            shape = quads[k].shape[:4]
            quad = quads[k].reshape(shape + (-1, batch))[..., rows].reshape(shape + (-1,))
            mods = np.abs(quad)
            bounds = _minor_bound(mods[:, 0, :, 0], mods[:, 1, :, 1], mods[:, 1, :, 0], mods[:, 0, :, 1], tol)
            verdicts.append((np.abs(_quad_minors(quad)) > bounds).reshape(-1, rows.size).any(axis=0))
        return np.concatenate(verdicts)

    out[cols] |= _screened_violations(peaks, lo, hi, exact)
    return out.T


def _pinned_reduction(amps: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Drop the qubits whose bit is the same on every nonzero amplitude.

    `amps` is one state's amplitude vector (2**n,), not all zero. Returns
    the kept qubits, ascending, and the amplitudes with each dropped qubit
    fixed at its bit, (2**len(kept),): after `measure_qubit`, the measured
    qubit goes. A pair with a dropped qubit has only exact-zero minors,
    and so has every context that puts a dropped qubit off its bit.
    """
    n = amps.size.bit_length() - 1
    support = np.flatnonzero(amps)
    ones, anywhere = (int(f.reduce(support)) for f in (np.bitwise_and, np.bitwise_or))
    varies = ones ^ anywhere
    kept = [q for q in range(1, n + 1) if varies >> (n - q) & 1]
    index = tuple(slice(None) if q in kept else ones >> (n - q) & 1 for q in range(1, n + 1))
    return kept, amps.reshape((2,) * n)[index].reshape(-1)


_SPLIT_PASS_MINORS = 1 << 16  # minors tested per pass; bounds one pass's temporaries


def _subset_or(table: np.ndarray, n: int, upward: bool) -> np.ndarray:
    """OR a (2^n, 2^n) table indexed by two qubit masks over subset pairs.

    Upward, entry (A, B) becomes the OR of all entries (D_A, D_B) with
    D_A <= A and D_B <= B: the subset-sum ("zeta") transform, one
    vectorized OR per bit of each axis. Downward, (D_A, D_B) becomes the
    OR over all supersets. Works in place on `table`'s rows, then on a
    transposed copy's, and returns the result.
    """
    dim = 1 << n
    into, src = (1, 0) if upward else (0, 1)
    for _axis in range(2):
        for bit in range(n):
            blocks = table.reshape(dim >> (bit + 1), 2, dim << bit)  # contiguous: fast ORs
            blocks[:, into] |= blocks[:, src]
        table = table.T.copy()
    return table


def _minor_classes(n: int, masks_a: np.ndarray, masks_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered class (D_A, D_B) of minors below some split (A, B).

    Masks address amplitude-index bits (qubit q is bit n - q). A class is a
    pair of nonempty D_A <= A and D_B <= B, as two flat mask arrays.
    """
    below = np.zeros((1 << n, 1 << n), dtype=bool)
    below[masks_a, masks_b] = True
    below = _subset_or(below, n, upward=False)
    below[0] = below[:, 0] = False
    return np.nonzero(below)


def _minor_passes(amps: np.ndarray, d_a: np.ndarray, d_b: np.ndarray):
    """The minors of classes (d_a[k], d_b[k]), at most _SPLIT_PASS_MINORS a pass.

    A minor is fixed by its class and a corner s, an index with 0 at the top
    bit (lowest-numbered qubit) of D_A and of D_B; it is
    a[s]*a[s^D_A^D_B] - a[s^D_A]*a[s^D_B], the top-left*bottom-right -
    bottom-left*top-right of every split view that holds it, in the operand
    order of `_scan_all_minors`. Yields (classes, |minors|, corners): a
    slice of the class arrays, the (classes, 2^(n-2)) magnitudes, and the
    index arrays of the top-left, top-right, bottom-left and bottom-right
    entries.
    """
    n = amps.size.bit_length() - 1
    free = np.arange(1 << (n - 2))
    step = max(1, _SPLIT_PASS_MINORS >> (n - 2))
    for start in range(0, d_a.size, step):
        rows = slice(start, start + step)
        a, b = d_a[rows, None], d_b[rows, None]
        top_a, top_b = 1 << (np.frexp(a)[1] - 1), 1 << (np.frexp(b)[1] - 1)  # highest set bits
        low, high = np.minimum(top_a, top_b), np.maximum(top_a, top_b)
        s = free + (free & -low)  # a 0 bit inserted at `low`, then one at `high`
        s += s & -high
        corners = s, s ^ b, s ^ a, s ^ a ^ b
        tl, tr, bl, br = (amps[c] for c in corners)
        yield rows, np.abs(tl * br - bl * tr), corners


def _role_masks(n: int, roles: int) -> np.ndarray:
    """Every assignment of qubits 1..n to `roles` roles that leaves no role
    but the last empty, as masks (roles, assignments).

    Assignments are in itertools.product order over the roles of qubits
    1..n; row r holds the mask of the qubits given role r.
    """
    masks = np.zeros((roles, 1), dtype=np.intp)
    for shift in range(n - 1, -1, -1):  # qubit 1 first: the slowest digit
        masks = (masks[:, :, None] + (np.eye(roles, dtype=np.intp) << shift)[:, None]).reshape(roles, -1)
    return masks[:, (masks[:-1] != 0).all(axis=0)]


def _mask_qubits(mask: int, n: int) -> tuple[int, ...]:
    """The qubits of a mask, ascending."""
    return tuple(q for q in range(1, n + 1) if mask >> (n - q) & 1)


def _splits_separable(amps: np.ndarray, masks_a: np.ndarray, masks_b: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Robust conditional test of many (A, B) splits of one state.

    `amps` is a state's amplitude vector (2**n,); split k is the pair
    (masks_a[k], masks_b[k]) of disjoint nonempty qubit masks, with every
    other qubit held. The result has one bool per split, True where A and B
    are conditionally separable, i.e. equal to
    `conditionally_separable(psi, A, B, rest, tol).separable`.

    A 2x2 minor of a split's (2^|A|, 2^|B|, 2^rest) view depends only on
    its corner and on the qubits D_A <= A and D_B <= B where its rows and
    its columns differ, so every split holding (D_A, D_B) shares it. Each
    class (D_A, D_B) below a requested split is tested once, both
    orientations separately, with the arithmetic and the tolerance law of
    `_scan_all_minors`, screened against the state's bound range as in
    `_pairwise_entangled`. A split is entangled iff some class below it
    has a violation: the upward `_subset_or` of the class verdicts.
    """
    n = amps.size.bit_length() - 1
    if not masks_a.size:  # no split; n may then be 1, with no 2x2 minor at all
        return np.empty(0, dtype=bool)
    d_a, d_b = _minor_classes(n, masks_a, masks_b)
    mods = np.abs(amps)
    lo, hi = _bound_range(mods[None], tol)
    violated = np.zeros((1 << n, 1 << n), dtype=bool)
    for rows, mags, corners in _minor_passes(amps, d_a, d_b):

        def exact(undecided, mags=mags, corners=corners):
            picked = np.flatnonzero(undecided)
            return (mags[picked] > _minor_bound(*(mods[c[picked]] for c in corners), tol)).any(axis=1)

        violated[d_a[rows], d_b[rows]] = _screened_violations(mags.max(axis=1), lo, hi, exact)
    return ~_subset_or(violated, n, upward=True)[masks_a, masks_b]


def _split_table(amps: np.ndarray, masks_a: np.ndarray, masks_b: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """`_splits_separable` as a (2^n, 2^n) bool table by the masks of A and B, False off the splits."""
    table = np.zeros((amps.size, amps.size), dtype=bool)
    table[masks_a, masks_b] = _splits_separable(amps, masks_a, masks_b, tol)
    return table


def _scan_reference_minors(arr: np.ndarray, row0: int, col0: int, tol: ToleranceConfig):
    """Minor scan against a fixed reference row/column, per held context.

    minors[k, i, j] = arr[i,j,k]*arr[r,c,k] - arr[r,j,k]*arr[i,c,k].
    Returns (max |minor|, first violation as (k, i, j) or None).
    """
    mods = np.abs(arr)
    ref = arr[row0, col0, :][None, None, :]
    minors = arr * ref - arr[row0, :, :][None, :, :] * arr[:, col0, :][:, None, :]
    bounds = _minor_bound(
        mods,
        np.abs(ref),
        mods[row0, :, :][None, :, :],
        mods[:, col0, :][:, None, :],
        tol,
    )
    mags = np.abs(minors)
    max_minor = float(mags.max(initial=0.0))
    viol = mags > bounds
    if not viol.any():
        return max_minor, None
    pos = np.argwhere(viol)  # rows (i, j, k)
    best = pos[np.lexsort((pos[:, 1], pos[:, 0], pos[:, 2]))][0]
    return max_minor, (int(best[2]), int(best[0]), int(best[1]))


def default_reference(psi: PureState, tol: ToleranceConfig = DEFAULT_TOL) -> Assignment:
    """All-zeros reference point, or the max-modulus assignment as fallback.

    Raises DegenerateState when no amplitude exceeds the zero threshold.
    """
    n = psi.num_qubits
    if abs(psi.amplitudes[0]) > tol.zero_amp_threshold:
        return Assignment.zeros(n)
    best = int(np.argmax(np.abs(psi.amplitudes)))
    if abs(psi.amplitudes[best]) <= tol.zero_amp_threshold:
        raise DegenerateState("no amplitude exceeds the zero threshold")
    return assignment_of(best, n)


def _verdict(
    psi: PureState, group_a: list[int], group_b: list[int], tol: ToleranceConfig, x0: Assignment | None
) -> SeparabilityVerdict:
    """The verdict on A against B, with every other qubit held.

    Without a reference point the all-minors scan runs; with one, the scan
    against x0's row and column, which the verdict records. The witness
    holds the full assignments at the diagonal corners of the first
    violating minor.
    """
    arr, held = _partition_matrix(psi, group_a, group_b)
    if x0 is None:
        max_minor, hit = _scan_all_minors(arr, tol)
        if hit is not None:
            k, i, i2, j, j2 = hit
            corners = (i, j, k), (i2, j2, k)
    else:
        bits = x0.bits(psi.num_qubits)
        row0, col0 = _pack_bits(bits, group_a), _pack_bits(bits, group_b)
        max_minor, hit = _scan_reference_minors(arr, row0, col0, tol)
        if hit is not None:
            k, i, j = hit
            corners = (i, j, k), (row0, col0, k)
    witness = None if hit is None else tuple(_assignment_at([group_a, group_b, held], c) for c in corners)
    zero = psi.min_modulus() <= tol.zero_amp_threshold
    return SeparabilityVerdict(hit is None, witness, max_minor, zero_amplitudes=zero, reference=x0)


def _bipartition(m, n: int) -> tuple[list[int], list[int]]:
    """M and its complement as sorted qubit lists; M must be a nonempty proper subset."""
    group = _validate_subset(m, n, "M")
    if not group or len(group) == n:
        raise InvalidPartition("M must be a nonempty proper subset of 1..n")
    return group, sorted(set(range(1, n + 1)) - set(group))


def a_independent(
    psi: PureState, m, x0: Assignment, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Cross-product amplitude identity relative to the reference point x0.

    True iff a(x_M, x_Mbar) * a(x0_M, x0_Mbar) equals
    a(x0_M, x_Mbar) * a(x_M, x0_Mbar) for all assignments, within the minor
    tolerance law.
    """
    return _verdict(psi, *_bipartition(m, psi.num_qubits), tol, x0).separable


def _pack_bits(bits: tuple[int, ...], qubits: list[int]) -> int:
    out = 0
    for q in qubits:
        out = (out << 1) | bits[q - 1]
    return out


def is_separable(psi: PureState, m, tol: ToleranceConfig = DEFAULT_TOL) -> SeparabilityVerdict:
    """Rank-<=1 test of the M / complement amplitude matrix (all 2x2 minors).

    Equivalent to a-independence at any valid reference, but robust to zero
    amplitudes because no reference point is singled out.
    """
    return _verdict(psi, *_bipartition(m, psi.num_qubits), tol, None)


def extract_factors(
    psi: PureState, m, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[PureState, PureState]:
    """Split a separable state into unit-norm factors over M and its complement.

    Uses the reference-row/column construction: with x0 the max-modulus
    assignment, alpha varies M against the reference context, beta varies
    the complement, and the scale is split so that c_alpha * c_beta equals
    1 / a(x0) with |c_alpha| ||alpha|| = |c_beta| ||beta||.
    """
    n = psi.num_qubits
    group, rest = _bipartition(m, n)
    verdict = is_separable(psi, group, tol)
    if not verdict.separable:
        raise NotSeparable(
            f"state is not separable across M={group} "
            f"(max minor {verdict.max_minor_magnitude:.3e})"
        )
    best = int(np.argmax(np.abs(psi.amplitudes)))
    if abs(psi.amplitudes[best]) <= tol.zero_amp_threshold:
        raise DegenerateState("no amplitude exceeds the zero threshold")
    arr, _ = _partition_matrix(psi, group, rest)
    mat = arr[:, :, 0]
    bits = _bits(best, n)
    row0 = _pack_bits(bits, group)
    col0 = _pack_bits(bits, rest)
    alpha = mat[:, col0]
    beta = mat[row0, :]
    ref = mat[row0, col0]
    k = 1.0 / ref
    norm_a = float(np.linalg.norm(alpha))
    norm_b = float(np.linalg.norm(beta))
    c_alpha = np.sqrt(abs(k) * norm_b / norm_a) * (k / abs(k))
    c_beta = np.sqrt(abs(k) * norm_a / norm_b)
    phi = PureState.normalized(c_alpha * alpha)
    chi = PureState.normalized(c_beta * beta)
    return phi, chi


def conditionally_separable(
    psi: PureState,
    a,
    b,
    c=(),
    tol: ToleranceConfig = DEFAULT_TOL,
    mode: str = "robust",
    x0: Assignment | None = None,
) -> SeparabilityVerdict:
    """Test whether A and B are conditionally separable given C.

    A, B, C must be disjoint (A, B nonempty); qubits outside A|B|C are held
    alongside C, so the predicate is the general form that reduces to
    conditional separability when A, B, C partition the system. See the
    module docstring for the two modes.
    """
    group_a, group_b, _ = _disjoint_subsets(psi.num_qubits, a, b, c)
    if not group_a or not group_b:
        raise InvalidPartition("A and B must be nonempty")
    if mode == "robust":
        x0 = None
    elif mode != "strict":
        raise ValueError(f"mode must be 'robust' or 'strict', got {mode!r}")
    elif x0 is None:
        x0 = default_reference(psi, tol)
    verdict = _verdict(psi, group_a, group_b, tol, x0)
    if verdict.separable and verdict.zero_amplitudes:
        warnings.warn(
            "conditional-separability verdict on a state with near-zero "
            "amplitudes; 'separable' may be spurious",
            ZeroAmplitudeWarning,
            stacklevel=2,
        )
    return verdict


def factor_round_trip_fidelity(psi: PureState, m, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Fidelity between psi and the recomposition of its extracted factors."""
    group = sorted(set(m))
    phi, chi = extract_factors(psi, group, tol)
    return float(
        np.abs(np.vdot(tensor_product(phi, chi, group).amplitudes, psi.amplitudes))
    )
