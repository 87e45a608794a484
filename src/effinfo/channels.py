"""Finite alphabets, probability vectors, and row-stochastic channels.

All values are immutable after construction: numpy buffers are copied in
and flagged read-only, so instances can be shared freely across threads.
Probability data is validated at construction (nonnegativity, normalization
within ``ATOL``) and never silently renormalized; a distribution derived from
validated ones, such as a channel's output distribution, is not validated
again.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Absolute tolerance for normalization / stochasticity checks.
ATOL = 1e-9


def _frozen_array(values, ndim=1) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except ValueError as exc:
        # Ragged rows, such as [[0.5, 0.5], [1.0]], have no array shape.
        raise ValidationError(f"expected a {ndim}-d probability array: {exc}") from None
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-d probability array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probabilities must be finite")
    arr.setflags(write=False)
    return arr


def _repeated(names) -> list[str]:
    """The names that occur more than once, sorted: one count per name."""
    return sorted(name for name, n in Counter(names).items() if n > 1)


@dataclass(frozen=True)
class Alphabet:
    """An ordered, indexable set of distinct symbol names."""

    labels: tuple[str, ...]

    def __init__(self, labels):
        labels = tuple(str(s) for s in labels)
        if not labels:
            raise ValidationError("alphabet must contain at least one symbol")
        index = {s: i for i, s in enumerate(labels)}
        if len(index) != len(labels):
            raise ValidationError(
                f"alphabet symbols must be distinct, repeated: {_repeated(labels)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            shown = ", ".join(map(repr, self.labels[:10])) + (", ..." if self.size > 10 else "")
            raise ValidationError(f"unknown symbol {symbol!r}, expected one of the "
                                  f"{self.size} symbols [{shown}]") from None

    def primed(self) -> "Alphabet":
        """An isomorphic copy with every label suffixed by an apostrophe."""
        return Alphabet(s + "'" for s in self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, symbol) -> bool:
        return symbol in self._index


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over an :class:`Alphabet`."""

    alphabet: Alphabet
    probs: np.ndarray = field(repr=False)

    def __init__(self, alphabet: Alphabet, probs):
        probs = _frozen_array(probs)
        if probs.shape[0] != alphabet.size:
            raise ValidationError(
                f"distribution has {probs.shape[0]} entries for {alphabet.size} symbols")
        if np.any(probs < 0.0):
            bad = alphabet.labels[int(np.argmin(probs))]
            raise ValidationError(f"negative probability at symbol {bad!r}")
        with np.errstate(over="ignore"):  # finite entries may sum to inf
            total = float(probs.sum())
        if abs(total - 1.0) > ATOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1 within {ATOL}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _derived(cls, alphabet: Alphabet, probs: np.ndarray) -> "Distribution":
        """A distribution computed from validated ones, such as a channel's outputs.

        Each input is normalized only within ATOL, so the sum here may be off
        by about twice that. It is frozen, but not validated again (no input
        holds this vector) and not renormalized. Takes ownership of `probs`.
        """
        probs.setflags(write=False)
        derived = object.__new__(cls)
        object.__setattr__(derived, "alphabet", alphabet)
        object.__setattr__(derived, "probs", probs)
        return derived

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Distribution":
        """The maximum-entropy (potential-repertoire) distribution."""
        n = alphabet.size
        return cls(alphabet, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, alphabet: Alphabet, symbol: str) -> "Distribution":
        probs = np.zeros(alphabet.size)
        probs[alphabet.index(symbol)] = 1.0
        return cls(alphabet, probs)

    def prob(self, symbol: str) -> float:
        return float(self.probs[self.alphabet.index(symbol)])

    def support(self) -> tuple[str, ...]:
        """Symbols with strictly positive probability, in alphabet order."""
        return tuple(s for s, p in zip(self.alphabet.labels, self.probs) if p > 0.0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Distribution)
                and self.alphabet == other.alphabet
                and np.array_equal(self.probs, other.probs))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Channel:
    """A memoryless system: a row-stochastic matrix p(y|x).

    Intervening to set the input to x (Pearl's do(x)) means reading row x;
    there is no further causal structure in a single input->output arrow.
    """

    input: Alphabet
    output: Alphabet
    matrix: np.ndarray = field(repr=False)

    def __init__(self, input: Alphabet, output: Alphabet, matrix):
        matrix = _frozen_array(matrix, ndim=2)
        if matrix.shape != (input.size, output.size):
            raise ValidationError(
                f"matrix shape {matrix.shape} does not match "
                f"{input.size} inputs x {output.size} outputs")
        if np.any(matrix < 0.0):
            x, y = np.unravel_index(int(np.argmin(matrix)), matrix.shape)
            raise ValidationError(
                f"negative entry at p({output.labels[y]!r} | {input.labels[x]!r})")
        with np.errstate(over="ignore"):  # finite entries may sum to inf
            row_sums = matrix.sum(axis=1)
        bad = np.nonzero(np.abs(row_sums - 1.0) > ATOL)[0]
        if bad.size:
            x = int(bad[0])
            raise ValidationError(
                f"row for input {input.labels[x]!r} sums to {float(row_sums[x])!r}, "
                f"expected 1 within {ATOL}")
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "matrix", matrix)

    def do(self, symbol: str) -> Distribution:
        """The output distribution after the intervention do(input = symbol)."""
        return Distribution(self.output, self.matrix[self.input.index(symbol)])

    def prob(self, y: str, given: str) -> float:
        return float(self.matrix[self.input.index(given), self.output.index(y)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Channel)
                and self.input == other.input
                and self.output == other.output
                and np.array_equal(self.matrix, other.matrix))

    __hash__ = None


def copy_channel(alphabet: Alphabet) -> Channel:
    """The deterministic system that copies its input, x_k -> x_k'."""
    return Channel(alphabet, alphabet.primed(), np.eye(alphabet.size))
