"""Classification of 3-qubit pure states by graph topology across bases.

The four local-unitary-invariant classes (fully separable, biseparable,
W-like, GHZ-like) are decided in two stages: unconditional single-qubit
separability handles the not-fully-entangled classes directly (it is basis
independent), and fully entangled states are discriminated by a census of
graph topologies over sampled local bases. W-like states show the complete
graph in every accepted basis; GHZ-like states also admit bases in which
the graph degenerates to a three-node chain, so one accepted non-complete
topology is a positive witness for GHZ-likeness.

Bases whose transformed state has a near-zero amplitude are rejected from
the census rather than classified, because graph construction is only
trustworthy in the nonzero-amplitude regime.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AllBasesRejected, InconsistentGraph, WrongArity
from .network import MenGraph
from .separability import _pairwise_entangled, _splits_separable
from .state import (
    DEFAULT_TOL,
    LocalBasisChange,
    PureState,
    ToleranceConfig,
    apply_local_basis_change,
    rotation,
)

STRUCTURED_ANGLES = (0.0, math.pi / 8, math.pi / 5, math.pi / 3)

SHAPE_ORDER = (
    "empty",
    "edge(1,2)",
    "edge(1,3)",
    "edge(2,3)",
    "chain(1)",
    "chain(2)",
    "chain(3)",
    "triangle",
)


class ClassTag(enum.Enum):
    FULLY_SEPARABLE = "fully-separable"
    BISEPARABLE = "biseparable"
    W_LIKE = "W-like"
    GHZ_LIKE = "GHZ-like"


@dataclass(frozen=True)
class TripartiteClass:
    """Class of a 3-qubit state; biseparable carries the separated qubit."""

    tag: ClassTag
    separated_qubit: int | None = None

    def __post_init__(self) -> None:
        if (self.tag is ClassTag.BISEPARABLE) != (self.separated_qubit is not None):
            raise ValueError("separated_qubit present iff the class is biseparable")
        if self.separated_qubit is not None and self.separated_qubit not in (1, 2, 3):
            raise ValueError(f"separated_qubit must be 1..3, got {self.separated_qubit}")

    def label(self) -> str:
        if self.tag is ClassTag.BISEPARABLE:
            return f"biseparable(qubit {self.separated_qubit})"
        return self.tag.value


@dataclass(frozen=True)
class TopologyCensus:
    """Shape counts over sampled bases, plus the rejection tally."""

    counts: Mapping[str, int]
    bases_sampled: int
    bases_rejected_for_zeros: int

    def __post_init__(self) -> None:
        if set(self.counts) - set(SHAPE_ORDER):
            raise ValueError(f"unknown shapes in census: {set(self.counts) - set(SHAPE_ORDER)}")
        accepted = self.bases_sampled - self.bases_rejected_for_zeros
        if sum(self.counts.values()) != accepted:
            raise ValueError("census counts must sum to sampled - rejected")

    def count(self, shape: str) -> int:
        return self.counts.get(shape, 0)

    @property
    def accepted(self) -> int:
        return self.bases_sampled - self.bases_rejected_for_zeros

    def non_complete(self) -> int:
        """Accepted bases whose graph is not the triangle."""
        return self.accepted - self.count("triangle")

    def to_lines(self) -> list[str]:
        lines = [
            f"bases_sampled: {self.bases_sampled}",
            f"bases_rejected: {self.bases_rejected_for_zeros}",
        ]
        lines.extend(f"{shape}: {self.count(shape)}" for shape in SHAPE_ORDER)
        return lines


def topology_shape(g: MenGraph) -> str:
    """Canonical shape name of a 3-node graph."""
    if g.num_nodes != 3:
        raise WrongArity(f"topology shapes are defined for 3 nodes, got {g.num_nodes}")
    edges = g.sorted_edges()
    if len(edges) == 0:
        return "empty"
    if len(edges) == 1:
        return f"edge({edges[0][0]},{edges[0][1]})"
    if len(edges) == 2:
        (center,) = set(edges[0]) & set(edges[1])
        return f"chain({center})"
    return "triangle"


# shape of each 3-node edge set, indexed by the bits of (1,2), (1,3), (2,3)
_SHAPE_BY_EDGE_CODE = tuple(
    topology_shape(
        MenGraph.from_edges(3, (e for e, bit in zip(((1, 2), (1, 3), (2, 3)), code) if bit))
    )
    for code in itertools.product((0, 1), repeat=3)
)


def canonical_state(name: str) -> PureState:
    """Named 3-qubit fixtures: ghz, w, bell12_0, bell13_0, bell23_0, product."""
    amps = np.zeros(8, dtype=np.complex128)
    s2 = 1.0 / math.sqrt(2.0)
    if name == "ghz":
        amps[0b000] = s2
        amps[0b111] = s2
    elif name == "w":
        s3 = 1.0 / math.sqrt(3.0)
        amps[0b001] = s3
        amps[0b010] = s3
        amps[0b100] = s3
    elif name in ("bell12_0", "bell13_0", "bell23_0"):
        pair = {"bell12_0": (1, 2), "bell13_0": (1, 3), "bell23_0": (2, 3)}[name]
        amps[0] = s2
        amps[(1 << (3 - pair[0])) | (1 << (3 - pair[1]))] = s2
    elif name == "product":
        amps[0] = 1.0
    else:
        raise ValueError(f"unknown canonical state {name!r}")
    return PureState(amps)


def structured_bases() -> tuple[LocalBasisChange, ...]:
    """Fixed census bases: every per-qubit combination of the standard angles.

    Combinations that leave one qubit in the computational basis are the
    ones that can witness chain topologies for GHZ-like states.
    """
    return tuple(
        LocalBasisChange.rotations(angles)
        for angles in itertools.product(STRUCTURED_ANGLES, repeat=3)
    )


@functools.lru_cache(maxsize=1)
def _structured_stack() -> np.ndarray:
    """structured_bases() as one read-only (64, 3, 2, 2) array, built once."""
    rotations = np.array([rotation(theta) for theta in STRUCTURED_ANGLES])
    choices = itertools.product(range(len(STRUCTURED_ANGLES)), repeat=3)
    stack = rotations[np.array(list(choices))]
    stack.setflags(write=False)
    return stack


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_uniforms(entropy: list[int], count: int) -> list[float]:
    """numpy.random.default_rng(entropy).random(count), on Python ints.

    numpy's SeedSequence hashes the 32-bit words of each entropy integer,
    least significant first, into a pool of four and draws PCG64's 128-bit
    state and increment from it (generate_state(4, uint64)). PCG64 steps
    its LCG and emits the XSL-RR output of each new state (O'Neill,
    HMC-CS-2014-0905); a uniform is the top 53 bits times 2**-53. numpy's
    unsigned arithmetic wraps; the masks keep each value to its width.
    """
    words = []
    for value in entropy:
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    halves, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    s_hi, s_lo, i_hi, i_lo = (halves[i] | halves[i + 1] << 32 for i in (0, 2, 4, 6))
    increment = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # seeding: one step from state 0, add the initial state, one more step
    state = ((increment + (s_hi << 64 | s_lo)) * _PCG64_MULTIPLIER + increment) & _MASK128
    out = []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        xored, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        out.append((((xored >> rot | xored << (64 - rot)) & _MASK64) >> 11) * 2.0**-53)
    return out


@functools.lru_cache(maxsize=8)
def _haar_stack(seed: int, samples: int) -> np.ndarray:
    """Read-only (samples, 3, 2, 2) array whose k-th entry is, bit for bit,
    the matrices of LocalBasisChange.random(3, seed=[seed, k]).

    Sample k takes haar_qubit_unitary's draws (alpha, beta, then the
    uniform behind theta, per qubit) as nine uniforms of its own generator,
    default_rng([seed, k]), which _pcg64_uniforms reproduces without
    loading numpy.random; tests/test_classify.py checks it against numpy's
    generator. uniform(0, 2*pi) is exactly 2*pi times the same uniform.
    theta goes through the scalar math functions, because numpy's
    vectorized arcsin, cos and sin may round differently.
    """
    uniforms = [u for k in range(samples) for u in _pcg64_uniforms([seed, k], 9)]
    draws = np.array(uniforms, dtype=np.float64).reshape(samples, 3, 3)
    alpha, beta = 2.0 * math.pi * draws[..., 0], 2.0 * math.pi * draws[..., 1]
    theta = [math.asin(math.sqrt(t)) for t in uniforms[2::3]]
    c = np.reshape([math.cos(t) for t in theta], (samples, 3))
    s = np.reshape([math.sin(t) for t in theta], (samples, 3))
    stack = np.empty((samples, 3, 2, 2), dtype=np.complex128)
    stack[..., 0, 0] = np.exp(1j * alpha) * c
    stack[..., 0, 1] = np.exp(1j * beta) * s
    stack[..., 1, 0] = -np.exp(-1j * beta) * s
    stack[..., 1, 1] = np.exp(-1j * alpha) * c
    stack.setflags(write=False)
    return stack


_ADAPTIVE_PAIR_ANGLES = (math.pi / 8, math.pi / 5, math.pi / 3)


def _singular_direction_basis(
    psi: PureState, qubit: int, tol: ToleranceConfig
) -> np.ndarray | None:
    """Unitary whose rows make both qubit-`qubit` slices of psi singular.

    The slices M_0, M_1 along the qubit span a pencil u*M_0 + v*M_1 whose
    determinant is a binary quadratic in (u, v); its two projective roots
    are the directions in which a transformed slice degenerates. Only when
    the roots are orthogonal can a single unitary realize both, erasing the
    edge between the other two qubits. Returns None when the quadratic is
    degenerate or the roots are not orthogonal.
    """
    arr = psi.amplitudes.reshape(2, 2, 2)
    m0 = np.take(arr, 0, axis=qubit - 1)
    m1 = np.take(arr, 1, axis=qubit - 1)
    d0 = m0[0, 0] * m0[1, 1] - m0[0, 1] * m0[1, 0]
    d1 = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    cross = (
        m0[0, 0] * m1[1, 1]
        + m0[1, 1] * m1[0, 0]
        - m0[0, 1] * m1[1, 0]
        - m0[1, 0] * m1[0, 1]
    )
    scale = float(max(np.max(np.abs(m0)), np.max(np.abs(m1)))) ** 2
    threshold = tol.abs_eps + tol.rel_eps * scale
    if abs(d0) <= threshold:
        if abs(cross) <= threshold:
            return None  # degenerate pencil: no isolated singular directions
        roots = [
            np.array([1.0, 0.0], dtype=np.complex128),
            np.array([-d1 / cross, 1.0], dtype=np.complex128),
        ]
    else:
        sq = np.sqrt(np.complex128(cross * cross - 4.0 * d0 * d1))
        roots = [
            np.array([(-cross + sq) / (2.0 * d0), 1.0], dtype=np.complex128),
            np.array([(-cross - sq) / (2.0 * d0), 1.0], dtype=np.complex128),
        ]
    r1 = roots[0] / np.linalg.norm(roots[0])
    r2 = roots[1] / np.linalg.norm(roots[1])
    if abs(np.vdot(r1, r2)) > 1e-8:
        return None
    r2 = r2 - r1 * np.vdot(r1, r2)
    r2 /= np.linalg.norm(r2)
    return np.stack([r1, r2])


def adaptive_bases(
    psi: PureState, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[LocalBasisChange, ...]:
    """State-derived census candidates that can expose chain topologies.

    Fixed or Haar-sampled bases almost surely miss the measure-zero bases in
    which a GHZ-like state's graph degenerates to a chain, so the census
    would not be invariant under local basis changes without these. Each
    candidate puts a slice-singularizing unitary on one qubit and standard
    rotations on the other two; candidates are deterministic functions of
    the state.
    """
    return tuple(LocalBasisChange(tuple(mats)) for mats in _adaptive_stack(psi, tol))


def _adaptive_stack(psi: PureState, tol: ToleranceConfig) -> np.ndarray:
    """adaptive_bases(psi, tol) as one (m, 3, 2, 2) array."""
    out = []
    for qubit in (1, 2, 3):
        u = _singular_direction_basis(psi, qubit, tol)
        if u is None:
            continue
        for t1, t2 in itertools.product(_ADAPTIVE_PAIR_ANGLES, repeat=2):
            mats: list[np.ndarray] = [rotation(t1), rotation(t2)]
            mats.insert(qubit - 1, u)
            out.append(mats)
    return np.array(out, dtype=np.complex128).reshape(-1, 3, 2, 2)


def topology_census(
    psi: PureState, samples: int, seed, tol: ToleranceConfig = DEFAULT_TOL
) -> TopologyCensus:
    """Graph-shape counts over structured, state-adaptive and Haar-drawn bases.

    `samples` Haar draws are added to the fixed structured set and the
    adaptive candidates. Per-sample generators are derived from
    (seed, sample index), so the census is deterministic and samples could
    be evaluated in any order. Bases whose transformed state has
    min |a| <= zero_amp_threshold are rejected. All bases are applied as
    one stack and all accepted graphs come from one pairwise-minor pass.
    The structured and Haar stacks do not depend on the state and are
    built once per process (the Haar one per seed and sample count).
    """
    if psi.num_qubits != 3:
        raise WrongArity(f"census requires a 3-qubit state, got n={psi.num_qubits}")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    bases = np.concatenate(
        [_structured_stack(), _adaptive_stack(psi, tol), _haar_stack(_seed_scalar(seed), samples)]
    )
    rotated = _rotate_stack(psi, bases)
    accepted = np.abs(rotated).min(axis=1) > tol.zero_amp_threshold
    edges = _pairwise_entangled(rotated[accepted], tol)  # pairs (1,2), (1,3), (2,3)
    codes = edges @ np.array([4, 2, 1])
    tally = np.bincount(codes, minlength=8)
    counts = {shape: 0 for shape in SHAPE_ORDER}
    for code, shape in enumerate(_SHAPE_BY_EDGE_CODE):
        counts[shape] += int(tally[code])
    return TopologyCensus(counts, len(bases), len(bases) - int(accepted.sum()))


def _rotate_stack(psi: PureState, unitaries: np.ndarray) -> np.ndarray:
    """Amplitudes of psi under each of a (B, 3, 2, 2) stack of local unitaries.

    Qubits 1, 2, 3 are rotated in that order, as apply_local_basis_change
    does; the result has shape (B, 8).
    """
    tensor = np.einsum("bxy,yjk->bxjk", unitaries[:, 0], psi.amplitudes.reshape(2, 2, 2))
    tensor = np.einsum("bxy,biyk->bixk", unitaries[:, 1], tensor)
    tensor = np.einsum("bxy,bijy->bijx", unitaries[:, 2], tensor)
    return tensor.reshape(len(unitaries), 8)


def _seed_scalar(seed) -> int:
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


_SINGLE_QUBIT_SPLITS = np.array([4, 2, 1]), np.array([3, 5, 6])  # {i} | rest for i = 1, 2, 3; qubit q is bit 3 - q


def classify(
    psi: PureState, samples: int = 256, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> TripartiteClass:
    """Assign one of the four classes to a 3-qubit state.

    Stage 1 (basis independent): single-qubit separability. All three
    separable -> fully separable; exactly one -> biseparable around it.
    Stage 2 (fully entangled): census over local bases; any accepted
    non-complete topology -> GHZ-like, otherwise W-like.
    """
    return _classify_with_census(psi, samples, seed, tol)[0]


def _classify_with_census(
    psi: PureState, samples: int, seed, tol: ToleranceConfig
) -> tuple[TripartiteClass, TopologyCensus | None]:
    """The class, and the census that decided it (None when stage 1 did)."""
    if psi.num_qubits != 3:
        raise WrongArity(f"classification requires a 3-qubit state, got n={psi.num_qubits}")
    # each {i} against the rest, with no qubit held: is_separable(psi, {i}, tol)
    separable = _splits_separable(psi.amplitudes, *_SINGLE_QUBIT_SPLITS, tol).tolist()
    count = sum(separable)
    if count == 3:
        return TripartiteClass(ClassTag.FULLY_SEPARABLE), None
    if count == 1:
        return TripartiteClass(ClassTag.BISEPARABLE, separable.index(True) + 1), None
    if count == 2:
        # mathematically impossible: two separable singletons force the third
        raise InconsistentGraph(
            "exactly two single-qubit splits test separable; tolerances are inconsistent"
        )
    census = topology_census(psi, samples, seed, tol)
    if census.accepted == 0:
        raise AllBasesRejected(
            f"all {census.bases_sampled} sampled bases had near-zero amplitudes"
        )
    if census.non_complete() > 0:
        return TripartiteClass(ClassTag.GHZ_LIKE), census
    return TripartiteClass(ClassTag.W_LIKE), census


@dataclass(frozen=True)
class InvarianceReport:
    """Re-classification outcomes under random local basis changes."""

    baseline: TripartiteClass
    outcomes: tuple[TripartiteClass, ...]

    @property
    def changes(self) -> tuple[tuple[int, TripartiteClass], ...]:
        return tuple(
            (trial, got)
            for trial, got in enumerate(self.outcomes)
            if got != self.baseline
        )

    @property
    def passed(self) -> bool:
        return not self.changes


def class_invariance_check(
    psi: PureState, trials: int, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> InvarianceReport:
    """Classify psi and its images under `trials` random local basis changes."""
    baseline = classify(psi, seed=seed, tol=tol)
    outcomes = []
    for trial in range(trials):
        change = LocalBasisChange.random(3, seed=[_seed_scalar(seed), trial, 1])
        rotated = apply_local_basis_change(psi, change)
        outcomes.append(classify(rotated, seed=seed, tol=tol))
    return InvarianceReport(baseline, tuple(outcomes))
