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


def _validate_subset(qubits, n: int, label: str) -> list[int]:
    out = sorted(set(int(q) for q in qubits))
    if any(q < 1 or q > n for q in out):
        raise InvalidPartition(f"{label} must lie within 1..{n}, got {out}")
    return out


def _partition_matrix(psi: PureState, group_a: list[int], group_b: list[int]):
    """Amplitudes as an array (2^|A|, 2^|B|, 2^rest) with held qubits last."""
    n = psi.num_qubits
    rest = sorted(set(range(1, n + 1)) - set(group_a) - set(group_b))
    perm = [q - 1 for q in group_a + group_b + rest]
    arr = psi.amplitudes.reshape((2,) * n).transpose(perm)
    return arr.reshape(2 ** len(group_a), 2 ** len(group_b), 2 ** len(rest)), rest


def _bits_of(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> (width - 1 - pos)) & 1 for pos in range(width))


def _assignment_at(groups: list[list[int]], indices: list[int]) -> Assignment:
    bound: dict[int, int] = {}
    for qubits, index in zip(groups, indices):
        for q, b in zip(qubits, _bits_of(index, len(qubits))):
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


def _pairwise_entangled(amps: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Robust conditional test of every qubit pair, for a stack of states.

    `amps` has shape (B, 2**n); the result is a bool array (B, n(n-1)/2),
    True where qubits i and j are conditionally entangled given all the
    others, with pairs (i, j) in itertools.combinations order. For single
    qubits the all-minors scan reduces to one 2x2 minor per context,
    a00*a11 - a10*a01, held to the same tolerance law, so each entry equals
    `not conditionally_separable(psi, {i}, {j}, rest, tol).separable`.
    """
    batch, dim = amps.shape
    n = dim.bit_length() - 1
    tensor = amps.reshape((batch,) + (2,) * n)
    mods = np.abs(tensor)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = np.empty((batch, len(pairs)), dtype=bool)
    context_axes = tuple(range(1, n - 1))

    def at(i: int, j: int, bit_i: int, bit_j: int) -> tuple:
        """Basic index (a view, no copy) fixing qubits i and j; axis 0 is the batch."""
        index = [slice(None)] * (n + 1)
        index[i], index[j] = bit_i, bit_j
        return tuple(index)

    for col, (i, j) in enumerate(pairs):
        c00, c11, c10, c01 = at(i, j, 0, 0), at(i, j, 1, 1), at(i, j, 1, 0), at(i, j, 0, 1)
        mags = np.abs(tensor[c00] * tensor[c11] - tensor[c10] * tensor[c01])
        bounds = _minor_bound(mods[c00], mods[c11], mods[c10], mods[c01], tol)
        out[:, col] = np.any(mags > bounds, axis=context_axes)
    return out


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
    from .state import assignment_of

    return assignment_of(best, n)


def a_independent(
    psi: PureState, m, x0: Assignment, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Cross-product amplitude identity relative to the reference point x0.

    True iff a(x_M, x_Mbar) * a(x0_M, x0_Mbar) equals
    a(x0_M, x_Mbar) * a(x_M, x0_Mbar) for all assignments, within the minor
    tolerance law.
    """
    n = psi.num_qubits
    group = _validate_subset(m, n, "M")
    if not group or len(group) == n:
        raise InvalidPartition("M must be a nonempty proper subset of 1..n")
    rest = sorted(set(range(1, n + 1)) - set(group))
    bits = x0.bits(n)
    row0 = _pack_bits(bits, group)
    col0 = _pack_bits(bits, rest)
    arr, _ = _partition_matrix(psi, group, rest)  # (R, C, 1)
    _, violation = _scan_reference_minors(arr, row0, col0, tol)
    return violation is None


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
    n = psi.num_qubits
    group = _validate_subset(m, n, "M")
    if not group or len(group) == n:
        raise InvalidPartition("M must be a nonempty proper subset of 1..n")
    rest = sorted(set(range(1, n + 1)) - set(group))
    arr, _ = _partition_matrix(psi, group, rest)
    max_minor, violation = _scan_all_minors(arr, tol)
    zero = psi.min_modulus() <= tol.zero_amp_threshold
    if violation is None:
        return SeparabilityVerdict(True, None, max_minor, zero_amplitudes=zero)
    _, i, i2, j, j2 = violation
    witness = (
        _assignment_at([group, rest], [i, j]),
        _assignment_at([group, rest], [i2, j2]),
    )
    return SeparabilityVerdict(False, witness, max_minor, zero_amplitudes=zero)


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
    group = _validate_subset(m, n, "M")
    verdict = is_separable(psi, group, tol)
    if not verdict.separable:
        raise NotSeparable(
            f"state is not separable across M={group} "
            f"(max minor {verdict.max_minor_magnitude:.3e})"
        )
    best = int(np.argmax(np.abs(psi.amplitudes)))
    if abs(psi.amplitudes[best]) <= tol.zero_amp_threshold:
        raise DegenerateState("no amplitude exceeds the zero threshold")
    rest = sorted(set(range(1, n + 1)) - set(group))
    arr, _ = _partition_matrix(psi, group, rest)
    mat = arr[:, :, 0]
    bits = _bits_of(best, n)
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
    n = psi.num_qubits
    group_a = _validate_subset(a, n, "A")
    group_b = _validate_subset(b, n, "B")
    group_c = _validate_subset(c, n, "C")
    if not group_a or not group_b:
        raise InvalidPartition("A and B must be nonempty")
    sets = [set(group_a), set(group_b), set(group_c)]
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        raise InvalidPartition("A, B, C must be pairwise disjoint")
    arr, held = _partition_matrix(psi, group_a, group_b)
    zero = psi.min_modulus() <= tol.zero_amp_threshold

    if mode == "robust":
        max_minor, violation = _scan_all_minors(arr, tol)
        reference = None
        if violation is not None:
            k, i, i2, j, j2 = violation
            witness = (
                _assignment_at([group_a, group_b, held], [i, j, k]),
                _assignment_at([group_a, group_b, held], [i2, j2, k]),
            )
    elif mode == "strict":
        if x0 is None:
            x0 = default_reference(psi, tol)
        bits = x0.bits(n)
        row0 = _pack_bits(bits, group_a)
        col0 = _pack_bits(bits, group_b)
        max_minor, hit = _scan_reference_minors(arr, row0, col0, tol)
        reference = x0
        violation = hit
        if hit is not None:
            k, i, j = hit
            witness = (
                _assignment_at([group_a, group_b, held], [i, j, k]),
                _assignment_at([group_a, group_b, held], [row0, col0, k]),
            )
    else:
        raise ValueError(f"mode must be 'robust' or 'strict', got {mode!r}")

    if violation is None:
        if zero:
            warnings.warn(
                "conditional-separability verdict on a state with near-zero "
                "amplitudes; 'separable' may be spurious",
                ZeroAmplitudeWarning,
                stacklevel=2,
            )
        return SeparabilityVerdict(
            True, None, max_minor, zero_amplitudes=zero, reference=reference
        )
    return SeparabilityVerdict(
        False, witness, max_minor, zero_amplitudes=zero, reference=reference
    )


def factor_round_trip_fidelity(psi: PureState, m, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Fidelity between psi and the recomposition of its extracted factors."""
    group = sorted(set(m))
    phi, chi = extract_factors(psi, group, tol)
    return float(
        np.abs(np.vdot(tensor_product(phi, chi, group).amplitudes, psi.amplitudes))
    )
