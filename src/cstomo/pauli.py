"""Pauli strings as permutation-plus-phase maps.

An n-qubit Pauli word sigma_1 (x) ... (x) sigma_n has a single nonzero entry
per row: it permutes computational basis states (flipping the bits under X/Y
factors) and multiplies by a phase in {+1, -1, +i, -i}; one word's
expectation goes through that form in O(d).  Many words go through one
Walsh-Hadamard transform, O(d^3) flops however many (`pauli_grid`,
`pauli_traces`), and back (`pauli_grid_adjoint`).  Dense matrices are
rebuilt only on request.  Draws and plans are index arrays (`sample_indices`);
`paulis_from_indices` decodes a whole array into `PauliString` words at once.

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


#: (-i)^k for k mod 4, exact
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


@lru_cache(maxsize=None)
def _bit_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-qubit digit shifts and bit weights, and the n x d matrix of basis-state bits."""
    position = np.arange(n - 1, -1, -1)
    basis_bits = ((np.arange(1 << n)[:, None] >> position) & 1).T.copy()
    layout = (2 * position, 1 << position, basis_bits)
    for arr in layout:
        arr.setflags(write=False)
    return layout


@lru_cache(maxsize=None)
def _transform_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather slots, Sylvester-Hadamard matrix, and grid slots and phases of all words.

    Cached per qubit count, about 40 bytes per word.  For canonical word i
    with bitmasks (x, z): its value sits at position z * d + x of the
    transformed matrix and takes the phase (-i)^{popcount(x & z)}.
    """
    d = 1 << n
    shifts, weights, basis_bits = _bit_layout(n)
    rows = np.arange(d)
    gather = ((rows[:, None] ^ rows) * d + rows[:, None]).ravel()
    hadamard = 1.0 - 2.0 * ((basis_bits.T @ basis_bits) & 1)
    codes = (np.arange(d * d)[:, None] >> shifts) & 3
    z = codes >> 1
    x = (codes ^ z) & 1
    slots = (z @ weights) * d + x @ weights
    phases = _MINUS_I_POWERS[(x * z).sum(axis=1) & 3]
    layout = (gather, hadamard, slots, phases)
    for arr in layout:
        arr.setflags(write=False)
    return layout


def pauli_grid(mat) -> np.ndarray:
    """The d x d grid T[z, x] = sum_k (-1)^{popcount(k & z)} M[k ^ x, k] of a complex d x d M.

    Tr(P_{x,z} M) = (-i)^{popcount(x & z)} T[z, x]: gathering G[k, x] =
    M[k ^ x, k] turns the sums over k into one real product with the
    Sylvester-Hadamard matrix, O(d^3) flops in BLAS and O(d^2) memory.  A
    stack (..., d, d) gives the stack of grids from one gather and one product.
    """
    mat = np.ascontiguousarray(mat, dtype=complex)
    d = mat.shape[-1] if mat.ndim >= 2 else 0
    if mat.shape[-2:] != (d, d) or d < 2 or d & (d - 1):
        raise ValueError(f"expected a square matrix with power-of-two size, got shape {mat.shape}")
    gather, hadamard, _, _ = _transform_layout(d.bit_length() - 1)
    g = mat.reshape(mat.shape[:-2] + (-1,)).take(gather, axis=-1).reshape(mat.shape)
    # rows of the float64 view interleave (Re, Im) per x: one real product does both
    return (hadamard @ g.view(np.float64)).view(complex)


def pauli_grid_adjoint(grid: np.ndarray) -> np.ndarray:
    """The adjoint of `pauli_grid`, sum_{z,x} C[z, x] (-i)^{popcount(x & z)} P_{x,z}: one real
    product with the Sylvester-Hadamard matrix, put back through the gather slots.  Takes a
    stack (..., d, d) of grids as `pauli_grid` does; pauli_grid(pauli_grid_adjoint(C)) = d C."""
    d = grid.shape[-1]
    gather, hadamard, _, _ = _transform_layout(d.bit_length() - 1)
    out = np.empty(grid.shape[:-2] + (d * d,), dtype=complex)
    out[..., gather] = (hadamard @ grid.view(np.float64)).view(complex).reshape(out.shape)
    return out.reshape(grid.shape)


def pauli_traces(mat) -> np.ndarray:
    """Tr(P_i M) for all 4^n words i in canonical order: one `pauli_grid`, with phases."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"expected a square matrix with power-of-two size, got shape {mat.shape}")
    grid = pauli_grid(mat)
    _, _, slots, phases = _transform_layout(grid.shape[0].bit_length() - 1)
    out = grid.reshape(-1).take(slots)
    out *= phases
    return out


def grid_slots(n: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Float64-view slots of `pauli_grid` and +-1 weights giving Re Tr(P_i M) per word.

    A phase is +-1 or +-i, so Re(phase T[z, x]) is a signed real or imaginary part.
    """
    _, _, slots, phases = _transform_layout(n)
    phases = phases[indices]
    imag = phases.imag != 0
    out = (2 * slots[indices] + imag, np.where(imag, -phases.imag, phases.real))
    for arr in out:
        arr.setflags(write=False)
    return out


def pauli_action(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """The permutation and phases of `p` in O(d): its entry (k, permutation[k]) is phases[k].

    Column k ^ x, phase (-i)^{#Y} (-1)^{popcount(k & z)} since Y = -i Z X, where
    x marks the X/Y factors and z the Y/Z factors; the permutation is an involution.
    """
    _, weights, basis_bits = _bit_layout(p.n)
    codes = np.array(p.codes)
    z = codes >> 1
    x = (codes ^ z) & 1
    permutation = np.arange(p.d) ^ int(x @ weights)
    return permutation, _MINUS_I_POWERS[(int(x @ z) + 2 * (z @ basis_bits)) & 3]


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of `p`, rebuilt from its permutation-phase action (O(d^2) memory)."""
    permutation, phases = pauli_action(p)
    mat = np.zeros((p.d, p.d), dtype=complex)
    mat[np.arange(p.d), permutation] = phases
    return mat


def pauli_expectation(p: PauliString, rho) -> float:
    """Tr(P rho) for Hermitian rho, computed in O(d) from the sparse action."""
    mat = np.asarray(getattr(rho, "mat", rho))
    if mat.shape != (p.d, p.d):
        raise ValueError(f"dimension mismatch: Pauli acts on d={p.d}, state is {mat.shape}")
    permutation, phases = pauli_action(p)
    value = np.sum(phases * mat[permutation, np.arange(p.d)])
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"Tr(P rho) has imaginary part {value.imag:.3g}; input not Hermitian")
    return float(value.real)


def word_indices(n: int, indices) -> np.ndarray:
    """Canonical n-qubit word indices as a fresh 1-D int64 array, checked once for all.

    Raises ValueError for n < 1, an array that is not 1-D, an entry that is not
    an integer, or an index outside [0, 4^n); the message names the index.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    arr = np.asarray(indices)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array of word indices, got shape {arr.shape}")
    is_array = isinstance(indices, np.ndarray)
    if not is_array or arr.dtype.kind not in "iu":
        # numpy reads [True, 2] as integers: a sequence's own entries are checked
        for value in arr.tolist() if is_array else indices:
            if type(value) is not int and not isinstance(value, np.integer):
                raise ValueError(f"index {value!r} is not an integer")
    if arr.size:
        for index in (int(arr.min()), int(arr.max())):
            if not 0 <= index < 4**n:
                raise ValueError(f"index {index} out of range for {n} qubits")
    return arr.astype(np.int64)


def paulis_from_indices(n: int, indices) -> list[PauliString]:
    """The n-qubit words with these canonical indices, in order.

    One shift-and-mask decodes every word's codes; codes from a checked index
    are valid, so each word is built without `PauliString`'s per-word checks.
    """
    indices = word_indices(n, indices)
    shifts = np.arange(2 * n - 2, -1, -2)
    new, set_field = object.__new__, object.__setattr__
    words = []
    for codes in ((indices[:, None] >> shifts) & 3).tolist():
        word = new(PauliString)
        set_field(word, "n", n)
        set_field(word, "codes", tuple(codes))
        words.append(word)
    return words


def sample_indices(n, m, *, with_replacement=True, rng) -> np.ndarray:
    """Canonical indices of m words drawn uniformly from the 4^n-element set.

    Without replacement the words are distinct; either way the result is
    deterministic given the generator state.
    """
    if m < 1:
        raise ValueError("need at least one Pauli")
    if with_replacement:
        return rng.integers(0, 4**n, size=m)
    if m > 4**n:
        raise ValueError(f"cannot draw {m} distinct Paulis from a set of {4**n}")
    return rng.choice(np.arange(4**n), size=m, replace=False)


def sample_paulis(n, m, *, with_replacement=True, rng) -> list[PauliString]:
    """The words of `sample_indices`, decoded."""
    return paulis_from_indices(n, sample_indices(n, m, with_replacement=with_replacement, rng=rng))


def all_paulis(n: int) -> list[PauliString]:
    """All 4^n Pauli strings in canonical index order."""
    return paulis_from_indices(n, np.arange(4**n))
