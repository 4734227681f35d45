"""Anhomomorphic logic over finite sample spaces, and the support co-event
that survives the Peres-Kochen-Specker preclusions.

Small sample spaces are explicit: histories are 0..n-1 and events are
bitmask integers.  A multiplicative co-event is identified with its
nonempty support; it answers 1 on exactly the events containing that
support, so its truth set is a principal filter.  Preclusivity means no
listed zero event contains the support, and primitivity means the support
is inclusion-minimal among preclusive ones.

The 2^33 colouring space is never enumerated: co-events over it keep an
explicit support (a few colourings) and are evaluated against events that
can decide which colourings they contain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .colourings import (
    Colouring,
    HomogeneousEvent,
    act_on_colouring,
    gamma_p,
    gamma_p_prime,
)
from .rays import N_RAYS, ray_permutations

# --- small explicit sample spaces ------------------------------------------------

MAX_EXPLICIT_N = 16


def _check_n(n: int, bound: int = MAX_EXPLICIT_N) -> None:
    if not 1 <= n <= bound:
        raise ValueError(f"explicit enumeration supports 1 <= n <= {bound}")


@dataclass(frozen=True)
class CoEvent:
    """A multiplicative co-event on {0..n-1}, identified with its support."""

    support: int
    n: int

    def __post_init__(self) -> None:
        if self.support == 0:
            raise ValueError("the zero/unit co-events are excluded; support is nonempty")
        if self.support >> self.n:
            raise ValueError("support out of range")

    def evaluate(self, event: int) -> int:
        """1 exactly when the support lies inside the event."""
        return 1 if self.support & ~event == 0 else 0

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.support >> i & 1)


def truth_set_is_filter(co: CoEvent) -> bool:
    """Explicitly confirm the truth set is the principal filter of the support.

    Upward closure is checked by single-element enlargements; closure under
    intersection follows from the minimum of the truth set being a member,
    which is also checked to equal the support.
    """
    _check_n(co.n)
    full = (1 << co.n) - 1
    truth = [e for e in range(1 << co.n) if co.evaluate(e)]
    if not truth:
        return False
    for e in truth:
        for i in range(co.n):
            if not co.evaluate(e | (1 << i)):
                return False
    meet = full
    for e in truth:
        meet &= e
    return co.evaluate(meet) == 1 and meet == co.support


def classical_coevents(n: int) -> tuple[CoEvent, ...]:
    """The n singleton-support co-events (the nonzero homomorphisms)."""
    _check_n(n)
    return tuple(CoEvent(1 << i, n) for i in range(n))


# Event pairs the singletons are tested on when n is too large for all of them.
_SAMPLED_PAIRS = 2000


def _is_homomorphism(co: CoEvent, pairs) -> bool:
    for a, b in pairs:
        if co.evaluate(a & b) != co.evaluate(a) * co.evaluate(b):
            return False
        if co.evaluate(a ^ b) != (co.evaluate(a) + co.evaluate(b)) % 2:
            return False
    return True


def verify_classical_coevents(n: int) -> bool:
    """Check that the singleton co-events are exactly the homomorphisms.

    Multiplicativity and additivity are tested on the singletons over every
    event pair for n <= 6, and over `_SAMPLED_PAIRS` pairs drawn from
    `default_rng(0)` beyond that; every non-singleton support is refuted by
    its canonical additivity witness (split the support: both halves
    evaluate 0 but the union evaluates 1).
    """
    _check_n(n)
    if n <= 6:
        pairs = list(itertools.product(range(1 << n), repeat=2))
    else:
        rng = np.random.default_rng(0)
        pairs = [
            (int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            for _ in range(_SAMPLED_PAIRS)
        ]
    if not all(_is_homomorphism(co, pairs) for co in classical_coevents(n)):
        return False
    for support in range(1, 1 << n):
        if support.bit_count() < 2:
            continue
        co = CoEvent(support, n)
        lowest = support & -support
        a, b = lowest, support ^ lowest
        if co.evaluate(a ^ b) == (co.evaluate(a) + co.evaluate(b)) % 2:
            return False  # found an additive non-singleton: contradicts the lemma
    return True


# --- measures ---------------------------------------------------------------------


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Doubling table over all 2^n events: entry e adds the rows of e's
    members in ascending index order, starting from zero."""
    table = np.zeros((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    for k, row in enumerate(rows):
        table[1 << k : 2 << k] = table[: 1 << k] + row
    return table


class ClassicalMeasure:
    """Nonnegative weights per history, summing to 1."""

    def __init__(self, weights):
        w = tuple(float(x) for x in weights)
        if not all(math.isfinite(x) for x in w):
            raise ValueError("weights must be finite")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        self.weights = w
        self.n = len(w)

    def value(self, event: int) -> float:
        return sum(w for i, w in enumerate(self.weights) if event >> i & 1)

    def zero_events(self, tol: float = 1e-10) -> tuple[int, ...]:
        _check_n(self.n)
        # the table adds in `value`'s order, so each entry equals `value`
        values = _subset_sums(np.array(self.weights))
        return tuple(int(e) for e in np.flatnonzero(values < tol))


class GramMeasure:
    """Quantal measure from one complex vector per history.

    The value of an event is the squared norm of the sum of its members'
    vectors; the induced functional D(A;B) is the inner product of those
    sums, which is Hermitian, additive, positive and (by the required
    normalisation of the total sum) unital.
    """

    def __init__(self, vectors):
        self.vectors = np.asarray(vectors, dtype=complex)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be an (n, d) array")
        if not np.isfinite(self.vectors).all():
            raise ValueError("vectors must be finite")
        self.n = self.vectors.shape[0]
        total = self.vectors.sum(axis=0)
        if abs(np.vdot(total, total).real - 1.0) > 1e-10:
            raise ValueError("the total sum must have squared norm 1")

    def event_vector(self, event: int) -> np.ndarray:
        idx = [i for i in range(self.n) if event >> i & 1]
        if not idx:
            return np.zeros(self.vectors.shape[1], dtype=complex)
        return self.vectors[idx].sum(axis=0)

    def decoherence(self, a: int, b: int) -> complex:
        return complex(np.vdot(self.event_vector(a), self.event_vector(b)))

    def value(self, event: int) -> float:
        v = self.event_vector(event)
        return float(np.vdot(v, v).real)

    def zero_events(self, tol: float = 1e-10) -> tuple[int, ...]:
        _check_n(self.n)
        sums = _subset_sums(self.vectors)
        values = np.einsum("ed,ed->e", sums.conj(), sums).real
        return tuple(int(e) for e in np.nonzero(values < tol)[0])

    def sum_rule_residual(self, a: int, b: int, c: int) -> float:
        """Three-set interference residual for pairwise disjoint events."""
        if a & b or b & c or a & c:
            raise ValueError("events must be pairwise disjoint")
        lhs = self.value(a | b | c)
        rhs = (
            self.value(a | b)
            + self.value(b | c)
            + self.value(a | c)
            - self.value(a)
            - self.value(b)
            - self.value(c)
        )
        return abs(lhs - rhs)


def is_preclusive(co: CoEvent, zero_events) -> bool:
    """True when the support sits inside none of the zero events."""
    return all(co.support & ~z for z in zero_events)


@lru_cache(maxsize=None)
def _bit_masks(n: int) -> tuple[int, ...]:
    """Per bit b < n, the 2^n-bit word whose bit e is set when e has bit b:
    (2^(2^n) - 1) / (2^h + 1) repeats h set bits every 2h bits, h = 2^b."""
    every = (1 << (1 << n)) - 1
    return tuple(every // ((1 << (1 << b)) + 1) << (1 << b) for b in range(n))


def primitive_preclusive_coevents(n: int, zero_events) -> tuple[CoEvent, ...]:
    """All support-minimal preclusive co-events, by support size, then value.

    Passes over the subset lattice of {0..n-1}, held as 2^n-bit words (bit e
    for support e), mark the zero events (masked to n bits, as `support & ~z`
    sees them) and close them downwards; the rest but the empty set are the
    preclusive supports, and a primitive one has no preclusive one-smaller one.
    """
    _check_n(n, bound=12)
    covered = sum(1 << e for e in {int(z & ((1 << n) - 1)) for z in zero_events})
    for b, m in enumerate(_bit_masks(n)):  # e with bit b covers e without it
        covered |= (covered & m) >> (1 << b)
    preclusive = primitive = ~covered & ((1 << (1 << n)) - 2)
    for b, m in enumerate(_bit_masks(n)):
        primitive &= ~((preclusive & ~m) << (1 << b))
    supports = []
    while primitive:
        low = primitive & -primitive
        supports.append(low.bit_length() - 1)
        primitive ^= low
    return tuple(CoEvent(s, n) for s in sorted(supports, key=int.bit_count))


# --- co-events over the colouring space -------------------------------------------


@dataclass(frozen=True)
class SupportCoevent:
    """A multiplicative co-event on the colouring space, held by support."""

    support: tuple[Colouring, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("support must be nonempty")

    def evaluate(self, event) -> int:
        """1 exactly when every support colouring lies in the event."""
        return 1 if all(event.contains(c) for c in self.support) else 0

    def evaluate_union(self, events) -> int:
        return (
            1
            if all(any(e.contains(c) for e in events) for c in self.support)
            else 0
        )

    def is_preclusive_for(self, zero_events) -> bool:
        return all(self.evaluate(z) == 0 for z in zero_events)


@lru_cache(maxsize=1)
def phi_m() -> SupportCoevent:
    """The minimal co-event surviving all the preclusion events: its support
    is the Peres colouring together with its x<->y mirror."""
    return SupportCoevent((gamma_p(), gamma_p_prime()))


def transported_coevent(k: int, green: bool) -> SupportCoevent:
    """A symmetry image of the surviving co-event that values the requested
    colour event at ray k as true.

    Among the rays the co-event greens (or reds) there is at least one of
    each type, so some cube symmetry carries one of them onto ray k; ties
    pick the earliest symmetry in the fixed group enumeration.
    """
    for source in range(N_RAYS):
        if not phi_m().evaluate(HomogeneousEvent.from_fixed({source: green})):
            continue
        for g, perm in ray_permutations().items():  # in `symmetry_group` order
            if perm[source] == k:
                return SupportCoevent(tuple(act_on_colouring(g, c) for c in phi_m().support))
    raise AssertionError(f"no transport found for ray {k}")
