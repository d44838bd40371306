"""Classification of 3-qubit pure states by graph topology across bases.

The four local-unitary-invariant classes (fully separable, biseparable,
W-like, GHZ-like) are decided in two stages: unconditional single-qubit
separability handles the not-fully-entangled classes directly (it is basis
independent), and fully entangled states are discriminated by the graph
topologies they show across local bases. W-like states show the complete
graph in every accepted basis; GHZ-like states also admit bases in which
the graph degenerates to a three-node chain, so one accepted non-complete
topology is a positive witness for GHZ-likeness. Such bases have measure
zero, so the verdict reads only the fixed structured bases and the
state-adaptive candidates; the Haar-drawn bases of the census only add to
its printed counts.

Bases whose transformed state has a near-zero amplitude are rejected from
the census rather than classified, because graph construction is only
trustworthy in the nonzero-amplitude regime.

Stage 1, the census and the verdict run one plain-Python kernel on the 8
amplitudes as Python complex numbers, with the arithmetic and tolerance law
of the separability kernels, so `menet classify` never loads numpy. Only
the functions that return basis changes or states build arrays, through the
state module.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

from .errors import AllBasesRejected, InconsistentGraph, WrongArity
from .network import MenGraph
from .state import (
    DEFAULT_TOL,
    LocalBasisChange,
    PureState,
    ToleranceConfig,
    apply_local_basis_change,
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
_TRIANGLE = 0b111


def canonical_state(name: str) -> PureState:
    """Named 3-qubit fixtures: ghz, w, bell12_0, bell13_0, bell23_0, product."""
    amps = [0.0] * 8
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


# A basis of the kernel is three 2x2 unitaries, for qubits 1, 2, 3, each as
# rows ((u00, u01), (u10, u11)) of Python complex values.


def _rotation(theta: float) -> tuple:
    """state.rotation(theta) as a kernel matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return (complex(c), complex(-s)), (complex(s), complex(c))


@functools.lru_cache(maxsize=1)
def _structured_stack() -> tuple:
    """structured_bases() as kernel bases, built once."""
    return tuple(itertools.product([_rotation(theta) for theta in STRUCTURED_ANGLES], repeat=3))


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
def _haar_stack(seed: int, samples: int) -> tuple:
    """Kernel bases whose k-th entry is, bit for bit, the matrices of
    LocalBasisChange.random(3, seed=[seed, k]).

    Sample k takes haar_qubit_unitary's draws (alpha, beta, then the
    uniform behind theta, per qubit) as nine uniforms of its own generator,
    default_rng([seed, k]), which _pcg64_uniforms reproduces without
    loading numpy.random; tests/test_classify.py checks it against numpy's
    generator. uniform(0, 2*pi) is exactly 2*pi times the same uniform, and
    the scalar math and cmath functions round as numpy's scalar ones do.
    """
    stack = []
    for k in range(samples):
        uniforms = _pcg64_uniforms([seed, k], 9)
        mats = []
        for a, b, t in zip(uniforms[0::3], uniforms[1::3], uniforms[2::3]):
            alpha, beta = 2.0 * math.pi * a, 2.0 * math.pi * b
            theta = math.asin(math.sqrt(t))
            c, s = math.cos(theta), math.sin(theta)
            mats.append(
                (
                    (cmath.exp(1j * alpha) * c, cmath.exp(1j * beta) * s),
                    (-cmath.exp(-1j * beta) * s, cmath.exp(-1j * alpha) * c),
                )
            )
        stack.append(tuple(mats))
    return tuple(stack)


_ADAPTIVE_PAIR_ROTATIONS = tuple(_rotation(t) for t in (math.pi / 8, math.pi / 5, math.pi / 3))


def _unit(x: complex, y: complex) -> tuple[complex, complex]:
    """(x, y) divided by its Euclidean norm."""
    norm = math.sqrt((x.real * x.real + y.real * y.real) + (x.imag * x.imag + y.imag * y.imag))
    return x / norm, y / norm


def _singular_direction_basis(amps: list[complex], qubit: int, tol: ToleranceConfig):
    """Unitary whose rows make both qubit-`qubit` slices of the state singular.

    The slices M_0, M_1 along the qubit span a pencil u*M_0 + v*M_1 whose
    determinant is a binary quadratic in (u, v); its two projective roots
    are the directions in which a transformed slice degenerates. Only when
    the roots are orthogonal can a single unitary realize both, erasing the
    edge between the other two qubits. Returns the kernel matrix, or None
    when the quadratic is degenerate or the roots are not orthogonal.
    """
    bit = 4 >> (qubit - 1)
    rest = [i for i in range(8) if not i & bit]  # the other two qubits' entries, row-major
    m0 = [amps[i] for i in rest]
    m1 = [amps[i | bit] for i in rest]
    d0 = m0[0] * m0[3] - m0[1] * m0[2]
    d1 = m1[0] * m1[3] - m1[1] * m1[2]
    cross = m0[0] * m1[3] + m0[3] * m1[0] - m0[1] * m1[2] - m0[2] * m1[1]
    scale = max(map(abs, m0 + m1)) ** 2
    threshold = tol.abs_eps + tol.rel_eps * scale
    if abs(d0) <= threshold:
        if abs(cross) <= threshold:
            return None  # degenerate pencil: no isolated singular directions
        r1, r2 = (1 + 0j, 0j), (-d1 / cross, 1 + 0j)
    else:
        sq = cmath.sqrt(cross * cross - 4.0 * d0 * d1)
        r1, r2 = ((-cross + sq) / (2.0 * d0), 1 + 0j), ((-cross - sq) / (2.0 * d0), 1 + 0j)
    r1, r2 = _unit(*r1), _unit(*r2)
    overlap = r1[0].conjugate() * r2[0] + r1[1].conjugate() * r2[1]
    if abs(overlap) > 1e-8:
        return None
    return r1, _unit(r2[0] - r1[0] * overlap, r2[1] - r1[1] * overlap)


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
    amps = _amplitude_list(psi, "adaptive bases")
    return tuple(LocalBasisChange(mats) for mats in _adaptive_stack(amps, tol))


def _adaptive_stack(amps: list[complex], tol: ToleranceConfig) -> tuple:
    """adaptive_bases(psi, tol) as kernel bases, from psi's amplitudes."""
    out = []
    for qubit in (1, 2, 3):
        u = _singular_direction_basis(amps, qubit, tol)
        if u is None:
            continue
        for pair in itertools.product(_ADAPTIVE_PAIR_ROTATIONS, repeat=2):
            mats = list(pair)
            mats.insert(qubit - 1, u)
            out.append(tuple(mats))
    return tuple(out)


def _amplitude_list(psi, what: str) -> list[complex]:
    """The 8 amplitudes of a 3-qubit state as Python complex values.

    `psi` is a PureState, or the amplitude sequence of one: `menet
    classify` passes the list its reader parsed and builds no array.
    """
    amps = psi.amplitudes if isinstance(psi, PureState) else psi
    if len(amps) != 8:
        raise WrongArity(f"{what} requires a 3-qubit state, got n={len(amps).bit_length() - 1}")
    return amps.tolist() if isinstance(psi, PureState) else [complex(a) for a in amps]


def _non_negative(value, name: str) -> int:
    """`value` as an int; bools, non-integers and negative values are refused."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:  # a float, a string, numpy's bool
            number = -1
        if number >= 0:
            return number
    raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _minor_bound(m1: float, m2: float, m3: float, m4: float, tol: ToleranceConfig) -> float:
    """separability._minor_bound on four moduli, in its operation order."""
    hi_a, lo_a = max(m1, m2), min(m1, m2)
    hi_b, lo_b = max(m3, m4), min(m3, m4)
    top = max(hi_a, hi_b)
    second = max(min(hi_a, hi_b), max(lo_a, lo_b))
    return tol.abs_eps + tol.rel_eps * top * second


def _violations(amps, mods, minors, tol: ToleranceConfig):
    """Whether each group of minors holds one above its `_minor_bound`.

    `minors` lists groups of (tl, br, bl, tr) index quadruples; a minor is
    amps[tl]*amps[br] - amps[bl]*amps[tr]. As in the separability kernels,
    a |minor| above the largest bound the state's moduli allow is a
    violation and one at or below the smallest is none; only the others
    get their exact bound.
    """
    small, big = min(mods), max(mods)
    lo = tol.abs_eps + tol.rel_eps * small * small
    hi = tol.abs_eps + tol.rel_eps * big * big
    out = []
    for group in minors:
        found = False
        for tl, br, bl, tr in group:
            m = abs(amps[tl] * amps[br] - amps[bl] * amps[tr])
            if m > hi or (m > lo and m > _minor_bound(mods[tl], mods[tr], mods[bl], mods[br], tol)):
                found = True
                break
        out.append(found)
    return out


# Qubit q is index bit 3 - q. The six minors of each {i} | rest split: a
# pair of its row-0 columns c < d, with the row-1 entries c|i and d|i.
_SPLIT_MINORS = tuple(
    tuple((c, d | bit, c | bit, d) for c, d in itertools.combinations([i for i in range(8) if not i & bit], 2))
    for bit in (4, 2, 1)
)
# The two minors a00*a11 - a10*a01 of each pair (1,2), (1,3), (2,3), one
# per bit s of the third qubit.
_PAIR_MINORS = tuple(
    tuple((s, s | bi | bj, s | bi, s | bj) for s in (0, 7 ^ bi ^ bj))
    for bi, bj in ((4, 2), (4, 1), (2, 1))
)


def _single_qubit_separable(amps: list[complex], tol: ToleranceConfig) -> list[bool]:
    """Stage 1: is_separable(psi, {i}, tol).separable for i = 1, 2, 3."""
    return [not v for v in _violations(amps, list(map(abs, amps)), _SPLIT_MINORS, tol)]


def _edge_codes(amps: list[complex], bases, tol: ToleranceConfig):
    """The state's graph in each basis as an edge code, or None when the
    rotated state has an amplitude at or below zero_amp_threshold.

    Code bits 4, 2, 1 are the edges (1,2), (1,3), (2,3), each the robust
    conditional test of the pair given the third qubit, as
    `separability._pairwise_entangled` makes it. Qubits 1, 2, 3 are
    rotated in that order, each output entry u[x,0]*t0 + u[x,1]*t1, as
    apply_local_basis_change does.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = amps
    for u1, u2, u3 in bases:
        (p, q), (r, s) = u1  # qubit 1: index bit 4
        b0, b1, b2, b3 = p * a0 + q * a4, p * a1 + q * a5, p * a2 + q * a6, p * a3 + q * a7
        b4, b5, b6, b7 = r * a0 + s * a4, r * a1 + s * a5, r * a2 + s * a6, r * a3 + s * a7
        (p, q), (r, s) = u2  # qubit 2: index bit 2
        c0, c1, c4, c5 = p * b0 + q * b2, p * b1 + q * b3, p * b4 + q * b6, p * b5 + q * b7
        c2, c3, c6, c7 = r * b0 + s * b2, r * b1 + s * b3, r * b4 + s * b6, r * b5 + s * b7
        (p, q), (r, s) = u3  # qubit 3: index bit 1
        rotated = (
            p * c0 + q * c1, r * c0 + s * c1, p * c2 + q * c3, r * c2 + s * c3,
            p * c4 + q * c5, r * c4 + s * c5, p * c6 + q * c7, r * c6 + s * c7,
        )
        mods = list(map(abs, rotated))
        if min(mods) <= tol.zero_amp_threshold:
            yield None
            continue
        e12, e13, e23 = _violations(rotated, mods, _PAIR_MINORS, tol)
        yield 4 * e12 + 2 * e13 + e23


def topology_census(
    psi: PureState, samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> TopologyCensus:
    """Graph-shape counts over structured, state-adaptive and Haar-drawn bases.

    `psi` is a 3-qubit PureState or its amplitude sequence. `samples` Haar
    draws are added to the fixed structured set and the adaptive
    candidates. Per-sample generators are derived from (seed, sample
    index), so the census is deterministic and samples could be evaluated
    in any order. Bases whose transformed state has
    min |a| <= zero_amp_threshold are rejected. The structured and Haar
    bases do not depend on the state and are built once per process (the
    Haar ones per seed and sample count).
    """
    amps = _amplitude_list(psi, "census")
    samples = _non_negative(samples, "samples")
    seed = _non_negative(seed, "seed")
    bases = _structured_stack() + _adaptive_stack(amps, tol) + _haar_stack(seed, samples)
    tally = [0] * 8
    rejected = 0
    for code in _edge_codes(amps, bases, tol):
        if code is None:
            rejected += 1
        else:
            tally[code] += 1
    counts = {shape: 0 for shape in SHAPE_ORDER}
    for code, shape in enumerate(_SHAPE_BY_EDGE_CODE):
        counts[shape] += tally[code]
    return TopologyCensus(counts, len(bases), rejected)


def classify(psi: PureState, tol: ToleranceConfig = DEFAULT_TOL) -> TripartiteClass:
    """Assign one of the four classes to a 3-qubit state.

    `psi` is a PureState or its amplitude sequence.
    Stage 1 (basis independent): single-qubit separability. All three
    separable -> fully separable; exactly one -> biseparable around it.
    Stage 2 (fully entangled): the structured bases, then the adaptive
    candidates; the first accepted basis with a non-complete graph ->
    GHZ-like, none -> W-like. Haar-drawn bases would add nothing: a
    non-complete graph has measure zero among them.
    """
    amps = _amplitude_list(psi, "classification")
    separable = _single_qubit_separable(amps, tol)
    count = sum(separable)
    if count == 3:
        return TripartiteClass(ClassTag.FULLY_SEPARABLE)
    if count == 1:
        return TripartiteClass(ClassTag.BISEPARABLE, separable.index(True) + 1)
    if count == 2:
        # mathematically impossible: two separable singletons force the third
        raise InconsistentGraph(
            "exactly two single-qubit splits test separable; tolerances are inconsistent"
        )
    bases = _structured_stack() + _adaptive_stack(amps, tol)
    accepted = False
    for code in _edge_codes(amps, bases, tol):
        if code is None:
            continue
        if code != _TRIANGLE:
            return TripartiteClass(ClassTag.GHZ_LIKE)
        accepted = True
    if not accepted:
        raise AllBasesRejected(
            f"all {len(bases)} structured and adaptive bases had near-zero amplitudes"
        )
    return TripartiteClass(ClassTag.W_LIKE)


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
    trials = _non_negative(trials, "trials")
    seed = _non_negative(seed, "seed")
    baseline = classify(psi, tol)
    outcomes = []
    for trial in range(trials):
        change = LocalBasisChange.random(3, seed=[seed, trial, 1])
        outcomes.append(classify(apply_local_basis_change(psi, change), tol))
    return InvarianceReport(baseline, tuple(outcomes))
