"""Finite discrete time and causal signals under the prefix order.

Time is a finite run of integer ticks 0..n.  A causal signal is a value
history closed at the present: one symbolic value per tick from 0 up to its
current tick, all drawn from one alphabet.  Causal signals over a shared
alphabet carry a natural partial order: one signal precedes another exactly
when the second extends the first without rewriting any past sample.

Everything here is immutable and deterministic.  Signals are ordered by
:meth:`CausalSignal.sort_key`: current tick first, then sample ranks in the
declaration order of alphabet values.  :func:`history_count` counts the
signals up to a horizon and :func:`prefix_pair_count` the prefix pairs
among them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Tick = int


@dataclass(frozen=True)
class Alphabet:
    """Finite, non-empty set of symbolic values with a significant order.

    Declaration order drives lexicographic tie-breaks in the classifier, so
    two alphabets holding the same values in a different order are distinct.
    """

    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"alphabet values must be distinct: {self.values!r}")

    @cached_property
    def _ranks(self) -> dict[str, int]:
        return {value: i for i, value in enumerate(self.values)}

    def rank(self, value: str) -> int:
        """Position of ``value`` in declaration order."""
        try:
            return self._ranks[value]
        except KeyError:
            raise ValueError(f"{value!r} is not in alphabet {self.values!r}") from None

    def __contains__(self, value: object) -> bool:
        return value in self._ranks

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def product(*components: Sequence[str]) -> "Alphabet":
        """Tuple alphabet with '/'-joined symbols, ordered like the product."""
        joined = tuple("/".join(parts) for parts in itertools.product(*components))
        return Alphabet(joined)


BINARY = Alphabet(("0", "1"))


def split_symbol(symbol: str) -> tuple[str, ...]:
    """Components of a '/'-joined product symbol."""
    return tuple(symbol.split("/"))


@dataclass(frozen=True)
class CausalSignal:
    """A value history closed at the present: one sample per tick 0..t, ``t`` the last."""

    alphabet: Alphabet
    samples: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a causal signal needs at least the tick-0 sample")
        ranks = self.alphabet._ranks
        for sample in self.samples:
            if sample not in ranks:
                raise ValueError(
                    f"sample {sample!r} not in alphabet {self.alphabet.values!r}"
                )

    @classmethod
    def from_samples(cls, alphabet: Alphabet, samples: Iterable[str]) -> "CausalSignal":
        return cls(alphabet, tuple(samples))

    @property
    def t(self) -> Tick:
        """The current tick: the last one sampled."""
        return len(self.samples) - 1

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """(t, sample ranks): the deterministic order used for tie-breaking."""
        rank = self.alphabet.rank
        return (self.t, tuple(rank(s) for s in self.samples))


def prefix_leq(a: CausalSignal, b: CausalSignal) -> bool:
    """True iff ``b`` extends ``a`` without changing any sample up to ``a.t``."""
    if a.alphabet != b.alphabet:
        raise ValueError("signals over different alphabets are not comparable")
    return a.t <= b.t and b.samples[: a.t + 1] == a.samples


def history_count(width: int, horizon: Tick) -> int:
    """Σ width^(t+1) over ticks 0..horizon: the signals over ``width`` symbols."""
    if width == 1:
        return horizon + 1
    return (width ** (horizon + 2) - width) // (width - 1)


def prefix_pair_count(width: int, horizon: Tick) -> int:
    """Σ (t+1)·width^(t+1) over ticks 0..horizon: the prefix pairs among those signals.

    A signal with current tick t has t + 1 prefixes, itself included.  The
    closed form of Σ k·w^k for k = 1..n costs a few big-int products, where
    the sum would cost O(n²) bits.
    """
    n = horizon + 1
    if width == 1:
        return n * (n + 1) // 2
    return (n * width ** (n + 1) - (n + 1) * width ** n + 1) * width // (width - 1) ** 2
