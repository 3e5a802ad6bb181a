"""Pauli strings as permutation-plus-phase maps.

An n-qubit Pauli word sigma_1 (x) ... (x) sigma_n has a single nonzero entry
per row: it permutes computational basis states (flipping the bits under X/Y
factors) and multiplies by a phase in {+1, -1, +i, -i}.  Expectation values
go through that O(d) representation, and the traces against all 4^n words
at once through one Walsh-Hadamard transform (`pauli_traces`); dense
matrices are rebuilt only on request.

Canonical ordering is base 4, big-endian over qubits, with digit map I=0,
X=1, Y=2, Z=3.  The identity word is index 0; "XZ" on two qubits is index
4*1 + 3 = 7.  Qubit 0 carries the most significant bit of a basis-state
index, matching the usual kron order sigma_1 (x) ... (x) sigma_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CODE_LETTERS = "IXYZ"
_LETTER_CODES = {letter: code for code, letter in enumerate(CODE_LETTERS)}

#: expectation values with an imaginary part above this signal a non-Hermitian input
IMAG_TOL = 1e-9

SINGLE_QUBIT_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class PauliString:
    """A length-n word over {I, X, Y, Z}, canonically a base-4 index in [0, 4^n)."""

    n: int
    codes: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        codes = tuple(int(c) for c in self.codes)
        if len(codes) != self.n:
            raise ValueError(f"expected {self.n} codes, got {len(codes)}")
        if any(c not in (0, 1, 2, 3) for c in codes):
            raise ValueError("Pauli codes must lie in {0, 1, 2, 3}")
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_index(cls, n: int, index: int) -> "PauliString":
        if not 0 <= index < 4**n:
            raise ValueError(f"index {index} out of range for {n} qubits")
        codes = tuple((index >> (2 * (n - 1 - q))) & 3 for q in range(n))
        return cls(n, codes)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        label = label.upper()
        try:
            codes = tuple(_LETTER_CODES[ch] for ch in label)
        except KeyError as exc:
            raise ValueError(f"invalid Pauli letter in {label!r}") from exc
        return cls(len(label), codes)

    @property
    def index(self) -> int:
        idx = 0
        for c in self.codes:
            idx = (idx << 2) | c
        return idx

    @property
    def label(self) -> str:
        return "".join(CODE_LETTERS[c] for c in self.codes)

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.codes)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class PauliAction:
    """Permutation-plus-phase form of a Pauli word.

    The dense matrix has entry (k, permutation[k]) equal to phases[k] and is
    zero elsewhere; the permutation is an involution.
    """

    permutation: np.ndarray
    phases: np.ndarray


#: (-i)^k for k mod 4, exact
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


@lru_cache(maxsize=None)
def _bit_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-qubit digit shifts and bit weights, and the n x d matrix of basis-state bits.

    Cached per qubit count: `pauli_action` builds one word's table per call.
    """
    position = np.arange(n - 1, -1, -1)
    basis_bits = ((np.arange(1 << n)[:, None] >> position) & 1).T.copy()
    layout = (2 * position, 1 << position, basis_bits)
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _word_bits(n: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit X/Y bits x and Y/Z bits z of canonical word indices, each (len, n)."""
    codes = (indices[:, None] >> _bit_layout(n)[0]) & 3
    z = codes >> 1
    return (codes ^ z) & 1, z


def pauli_tables(n: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Permutation and phase rows of many words at once, each of shape (len(indices), d).

    Bitmask form: x marks the X/Y factors and z the Y/Z factors, qubit 0 on
    the most significant bit.  Row k of a word has its nonzero entry in
    column k ^ x with phase (-i)^{#Y} (-1)^{popcount(k & z)}, since
    Y = -i Z X.  The cost is a fixed number of array operations in n.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    _, weights, basis_bits = _bit_layout(n)
    x, z = _word_bits(n, indices)
    perms = np.arange(1 << n) ^ (x @ weights)[:, None]
    phases = _MINUS_I_POWERS[((x * z).sum(axis=1)[:, None] + 2 * (z @ basis_bits)) & 3]
    perms.setflags(write=False)
    phases.setflags(write=False)
    return perms, phases


@lru_cache(maxsize=None)
def _transform_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather slots, Sylvester-Hadamard matrix, and output slots and phases of `pauli_traces`.

    Cached per qubit count, about 40 bytes per word.  For canonical word i
    with bitmasks (x, z): its value sits at position z * d + x of the
    transformed matrix and takes the phase (-i)^{popcount(x & z)}.
    """
    d = 1 << n
    _, weights, basis_bits = _bit_layout(n)
    rows = np.arange(d)
    gather = ((rows[:, None] ^ rows) * d + rows[:, None]).ravel()
    hadamard = 1.0 - 2.0 * ((basis_bits.T @ basis_bits) & 1)
    x, z = _word_bits(n, np.arange(d * d))
    slots = (z @ weights) * d + x @ weights
    phases = _MINUS_I_POWERS[(x * z).sum(axis=1) & 3]
    layout = (gather, hadamard, slots, phases)
    for arr in layout:
        arr.setflags(write=False)
    return layout


def pauli_traces(mat) -> np.ndarray:
    """Tr(P_i M) for all 4^n words i in canonical order, for any complex d x d matrix M.

    Tr(P_{x,z} M) = (-i)^{popcount(x & z)} sum_k (-1)^{popcount(k & z)} M[k ^ x, k]:
    gathering G[k, x] = M[k ^ x, k] turns the sums over k into one real
    product with the Sylvester-Hadamard matrix: O(d^3) flops in BLAS and
    O(d^2) memory, where the permutation tables of all words hold d^3 entries.
    """
    mat = np.ascontiguousarray(mat, dtype=complex)
    d = mat.shape[0] if mat.ndim == 2 else 0
    if mat.shape != (d, d) or d < 2 or d & (d - 1):
        raise ValueError(f"expected a square matrix with power-of-two size, got shape {mat.shape}")
    gather, hadamard, slots, phases = _transform_layout(d.bit_length() - 1)
    g = mat.reshape(-1).take(gather).reshape(d, d)
    # rows of the float64 view interleave (Re, Im) per x: one real product does both
    transformed = (hadamard @ g.view(np.float64)).view(complex).reshape(-1)
    out = transformed.take(slots)
    out *= phases
    return out


def pauli_action(p: PauliString) -> PauliAction:
    """Compute the permutation and phase vector of `p` in O(d), no dense matrix."""
    perms, phases = pauli_tables(p.n, [p.index])
    return PauliAction(perms[0], phases[0])


def action_matrix(action: PauliAction) -> np.ndarray:
    """Rebuild the dense matrix of a PauliAction (O(d^2) memory)."""
    d = action.permutation.size
    mat = np.zeros((d, d), dtype=complex)
    mat[np.arange(d), action.permutation] = action.phases
    return mat


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of `p`, via its permutation-phase action."""
    return action_matrix(pauli_action(p))


def pauli_expectation(p: PauliString, rho) -> float:
    """Tr(P rho) for Hermitian rho, computed in O(d) from the sparse action."""
    mat = np.asarray(getattr(rho, "mat", rho))
    if mat.shape != (p.d, p.d):
        raise ValueError(f"dimension mismatch: Pauli acts on d={p.d}, state is {mat.shape}")
    action = pauli_action(p)
    value = np.sum(action.phases * mat[action.permutation, np.arange(p.d)])
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"Tr(P rho) has imaginary part {value.imag:.3g}; input not Hermitian")
    return float(value.real)


def sample_paulis(n, m, *, with_replacement=True, rng, include_identity=True):
    """Sample m Pauli strings uniformly from the 4^n-element set.

    Without replacement the strings are distinct; either way the result is
    deterministic given the generator state.  `include_identity=False` drops
    the identity word from the population before sampling.
    """
    if m < 1:
        raise ValueError("need at least one Pauli")
    total = 4**n if include_identity else 4**n - 1
    low = 0 if include_identity else 1
    if with_replacement:
        indices = rng.integers(low, 4**n, size=m)
    else:
        if m > total:
            raise ValueError(f"cannot draw {m} distinct Paulis from a set of {total}")
        indices = rng.choice(np.arange(low, 4**n), size=m, replace=False)
    return [PauliString.from_index(n, int(i)) for i in indices]


def all_paulis(n: int) -> list[PauliString]:
    """All 4^n Pauli strings in canonical index order."""
    return [PauliString.from_index(n, i) for i in range(4**n)]
