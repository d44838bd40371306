"""Reference computations kept apart from menet.

Everything here works on raw amplitude vectors or on the parsed JSON of a
model file, with numpy only; nothing imports menet. The benchmark checks
the program's answers against these, never against a stored copy of an
earlier output.

Conventions match menet's file formats: qubits are numbered 1..n and
qubit 1 is the most significant bit of the basis index.
"""

from __future__ import annotations

import math

import numpy as np


def bit_table(n: int) -> np.ndarray:
    """(2**n, n) array; column q-1 holds the bit of qubit q at each index."""
    idx = np.arange(2**n)
    return (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1


def num_qubits(amps: np.ndarray) -> int:
    n = int(amps.size).bit_length() - 1
    if 2**n != amps.size:
        raise ValueError(f"amplitude count {amps.size} is not a power of two")
    return n


# --- dense states -------------------------------------------------------------


def marginal(amps: np.ndarray, bindings: dict[int, int]) -> float:
    """p(x_M): sum of |a|^2 over the indices that agree with the bindings."""
    n = num_qubits(amps)
    bits = bit_table(n)
    mask = np.ones(amps.size, dtype=bool)
    for qubit, bit in bindings.items():
        mask &= bits[:, qubit - 1] == bit
    probs = np.abs(amps) ** 2
    return float(probs[mask].sum() / probs.sum())


def argmax_assignment(amps: np.ndarray) -> tuple[str, float]:
    """Most likely basis assignment as a bit-string, with its probability."""
    n = num_qubits(amps)
    probs = np.abs(amps) ** 2
    best = int(np.argmax(probs))
    return format(best, f"0{n}b"), float(probs[best] / probs.sum())


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| / (|a| |b|): 1 exactly when a and b agree up to phase and scale."""
    return float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def collapse(amps: np.ndarray, qubit: int, outcome: int) -> tuple[float, np.ndarray]:
    """Probability of the outcome and the renormalized post-measurement vector."""
    n = num_qubits(amps)
    keep = bit_table(n)[:, qubit - 1] == outcome
    probs = np.abs(amps) ** 2
    p = float(probs[keep].sum() / probs.sum())
    out = np.where(keep, amps, 0.0)
    return p, out / np.linalg.norm(out)


def pairwise_edges(amps: np.ndarray, rel: float = 1e-6) -> set[tuple[int, int]]:
    """Edge {i, j} iff some 2x2 minor over (x_i, x_j) is not negligible.

    For each pair the state is viewed as a stack of 2x2 matrices indexed by
    the other qubits; the pair is conditionally separable exactly when every
    matrix in the stack has rank <= 1. A minor counts as nonzero when it
    exceeds `rel` times the product of the two largest moduli in its matrix.
    """
    n = num_qubits(amps)
    tensor = amps.reshape((2,) * n)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            t = np.moveaxis(tensor, (i, j), (0, 1)).reshape(2, 2, -1)
            minor = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
            mods = np.sort(np.abs(t).reshape(4, -1), axis=0)
            scale = mods[-1] * mods[-2]
            if np.any(np.abs(minor) > rel * scale):
                edges.add((i + 1, j + 1))
    return edges


# --- three qubits -------------------------------------------------------------


def three_tangle(amps: np.ndarray) -> float:
    """tau = 4 |Det| with Cayley's hyperdeterminant (Coffman, Kundu, Wootters 2000)."""
    a = np.asarray(amps, dtype=np.complex128).reshape(2, 2, 2)
    a = a / np.linalg.norm(a)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def purities(amps: np.ndarray) -> list[float]:
    """Tr(rho_q^2) of each single-qubit reduced state, qubit 1 first."""
    n = num_qubits(amps)
    tensor = np.asarray(amps, dtype=np.complex128).reshape((2,) * n)
    tensor = tensor / np.linalg.norm(tensor)
    out = []
    for q in range(n):
        m = np.moveaxis(tensor, q, 0).reshape(2, -1)
        rho = m @ m.conj().T
        out.append(float(np.real(np.trace(rho @ rho))))
    return out


# --- chain model files --------------------------------------------------------


def chain_weights(model: dict) -> np.ndarray:
    """(n, 2, 2) array w[i-1, p, b] = |q_i(b | x_{i-1}=p, x_{i+1} at reference)|^2.

    Read straight from a parsed model file whose graph is the path 1-2-...-n.
    Node 1 has no left neighbor, so its weights do not depend on p.
    """
    n = model["n"]
    if sorted(tuple(e) for e in model["edges"]) != [(i, i + 1) for i in range(1, n)]:
        raise ValueError("model graph is not the chain 1-2-...-n")
    ref = model["reference"]
    w = np.empty((n, 2, 2))
    for i in range(1, n + 1):
        table = model["q"][str(i)]
        for p in (0, 1):
            for b in (0, 1):
                key = str(b)
                if i > 1:
                    key += str(p)
                if i < n:
                    key += ref[i]  # right neighbor pinned at its reference bit
                re, im = table[key]
                w[i - 1, p, b] = re * re + im * im
    return w


def _logsumexp(v: np.ndarray) -> float:
    top = float(np.max(v))
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.sum(np.exp(v - top))))


def chain_log_sum(w: np.ndarray, bindings: dict[int, int] | None = None) -> float:
    """log of the sum over assignments consistent with the bindings of prod_i w_i.

    A forward transfer-matrix pass in the log domain; with no bindings this
    is log Z. The product at the reference point is 1, so the result is also
    log p(x_M) / p(reference).
    """
    bindings = bindings or {}
    n = w.shape[0]
    logw = np.log(w)
    msg = logw[0, 0].copy()  # node 1: weights do not depend on p
    if 1 in bindings:
        msg[1 - bindings[1]] = -math.inf
    for i in range(2, n + 1):
        new = np.array([_logsumexp(msg + logw[i - 1, :, b]) for b in (0, 1)])
        if i in bindings:
            new[1 - bindings[i]] = -math.inf
        msg = new
    return _logsumexp(msg)


def chain_viterbi(w: np.ndarray) -> tuple[str, float]:
    """Most likely assignment of a chain and log of its unnormalized weight."""
    n = w.shape[0]
    logw = np.log(w)
    score = logw[0, 0].copy()
    back = np.zeros((n, 2), dtype=int)
    for i in range(2, n + 1):
        cand = score[:, None] + logw[i - 1]  # (p, b)
        back[i - 1] = np.argmax(cand, axis=0)
        score = np.max(cand, axis=0)
    bits = [int(np.argmax(score))]
    for i in range(n, 1, -1):
        bits.append(int(back[i - 1, bits[-1]]))
    return "".join(str(b) for b in reversed(bits)), float(np.max(score))
