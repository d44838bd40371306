"""Seeded input generators and writers for menet's state and model files.

Numpy only: the program under test receives the generated files (and, in
library passes, states built from the same amplitude vectors) and never
takes part in making them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from oracles import chain_log_sum, chain_weights


# --- graphs -------------------------------------------------------------------


def complete_graph(n: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def path_graph(n: int) -> set[tuple[int, int]]:
    return {(i, i + 1) for i in range(1, n)}


def ladder_graph(n: int) -> set[tuple[int, int]]:
    """Rungs (2k-1, 2k) and rails (2k-1, 2k+1), (2k, 2k+2); n must be even."""
    if n % 2:
        raise ValueError("a ladder needs an even number of nodes")
    edges = {(2 * k - 1, 2 * k) for k in range(1, n // 2 + 1)}
    edges |= {(q, q + 2) for q in range(1, n - 1)}
    return edges


GRAPHS = {"complete": complete_graph, "path": path_graph, "ladder": ladder_graph}


# --- dense states -------------------------------------------------------------


def _phase(rng: np.random.Generator, size) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=size))


def pairwise_factor(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """2x2 complex factor with moduli in [lo, hi] and |det| >= 0.3 hi^2.

    The determinant bound makes the factor entangling, so the pair it joins
    is an edge of the state's graph with a wide margin over any tolerance.
    """
    while True:
        f = rng.uniform(lo, hi, size=(2, 2)) * _phase(rng, (2, 2))
        if abs(f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]) >= 0.3 * hi * hi:
            return f


def pairwise_state(
    rng: np.random.Generator, n: int, edges: set[tuple[int, int]], lo: float, hi: float
) -> np.ndarray:
    """Normalized product of one entangling factor per edge and one per qubit.

    Its conditional-separability graph is exactly `edges`, and every
    amplitude is a product of moduli in [lo, hi], so none is near zero.
    """
    idx = np.arange(2**n)
    bits = [(idx >> (n - q)) & 1 for q in range(0, n + 1)]  # bits[q] for qubit q
    amps = np.ones(2**n, dtype=np.complex128)
    for q in range(1, n + 1):
        amps *= (rng.uniform(lo, hi, size=2) * _phase(rng, 2))[bits[q]]
    for i, j in sorted(edges):
        amps *= pairwise_factor(rng, lo, hi)[bits[i], bits[j]]
    return amps / np.linalg.norm(amps)


# --- three qubits -------------------------------------------------------------


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar 2x2 unitary: QR of a complex Gaussian matrix with the phase fixed."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def local_image(rng: np.random.Generator, amps: np.ndarray) -> np.ndarray:
    """U_1 (x) U_2 (x) U_3 applied to a 3-qubit vector, each U Haar-drawn."""
    t = amps.reshape(2, 2, 2)
    u1, u2, u3 = (haar_unitary(rng) for _ in range(3))
    return np.einsum("ai,bj,ck,ijk->abc", u1, u2, u3, t).reshape(8)


def ghz_family(rng: np.random.Generator) -> np.ndarray:
    """cos t |000> + sin t |111> with t in [pi/8, pi/4], so tau = sin^2 2t >= 1/2."""
    t = rng.uniform(math.pi / 8, math.pi / 4)
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000], amps[0b111] = math.cos(t), math.sin(t)
    return amps


def w_family(rng: np.random.Generator) -> np.ndarray:
    """a|001> + b|010> + c|100> with moduli in [0.4, 1] and random phases."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[[0b001, 0b010, 0b100]] = rng.uniform(0.4, 1.0, size=3) * _phase(rng, 3)
    return amps / np.linalg.norm(amps)


def bell_qubit_family(rng: np.random.Generator, separated: int) -> np.ndarray:
    """cos t |00> + sin t |11> on two qubits times a random state of `separated`."""
    t = rng.uniform(math.pi / 8, math.pi / 4)
    pair = np.array([[math.cos(t), 0.0], [0.0, math.sin(t)]], dtype=np.complex128)
    single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    single /= np.linalg.norm(single)
    t3 = np.einsum("ab,c->abc", pair, single)  # separated qubit last
    order = {1: (2, 0, 1), 2: (0, 2, 1), 3: (0, 1, 2)}[separated]
    return np.transpose(t3, order).reshape(8)


def product_family() -> np.ndarray:
    """|000>; its local images are the random product states."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = 1.0
    return amps


# --- chain models -------------------------------------------------------------


def chain_model(rng: np.random.Generator, n: int) -> dict:
    """Chain model in menet's file layout: moduli in [0.2, 5], uniform phases.

    The reference is all zeros and every table holds exactly 1 at the
    reference bit. reference_modulus is 1/sqrt(Z) rounded to a double, with
    log Z from the log-domain oracle, so it is 0.0 once 1/sqrt(Z) is below
    the double range.
    """
    q = {}
    for i in range(1, n + 1):
        k = (i > 1) + (i < n)
        table = {}
        for ctx in range(2**k):
            ctx_bits = format(ctx, f"0{k}b") if k else ""
            mod = rng.uniform(0.2, 5.0)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            table["0" + ctx_bits] = [1.0, 0.0]
            table["1" + ctx_bits] = [mod * math.cos(ph), mod * math.sin(ph)]
        q[str(i)] = table
    model = {
        "n": n,
        "edges": [[i, i + 1] for i in range(1, n)],
        "reference": "0" * n,
        "reference_modulus": 0.0,
        "q": q,
    }
    log_z = chain_log_sum(chain_weights(model))
    model["reference_modulus"] = math.exp(-0.5 * log_z)
    return model


# --- writers --------------------------------------------------------------------


def write_state(path: Path, amps: np.ndarray) -> None:
    n = int(amps.size).bit_length() - 1
    rows = ",\n".join(f"    [{a.real:.17e}, {a.imag:.17e}]" for a in amps)
    path.write_text(f'{{\n  "n": {n},\n  "amplitudes": [\n{rows}\n  ]\n}}\n', encoding="utf-8")


def write_model(path: Path, model: dict) -> None:
    path.write_text(json.dumps(model, indent=1) + "\n", encoding="utf-8")
