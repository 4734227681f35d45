"""The quantum measure on particle paths through 33 beam-splitter stages.

A path is a colouring of the Peres rays read in a chosen order; its state
is the ordered product of spin-squared projectors applied to the initial
spin state.  Homogeneous events (fixed colours on a subset of rays, free
elsewhere) admit an exact shortcut: the free projectors sum to the
identity, so the event state is just the product of the fixed projectors
in position order.  The decoherence functional is the inner product of
event states (a convex combination of those terms for a mixed state).  A
context may carry a detector at one stage; its functional is then the sum
of the two functionals restricted to the detected ray's colour sectors.

`Context.decoherences` is the one evaluator of the functional: it takes
pairs of events in one numpy pass, building each distinct member once and
stepping all their chains together with the zero scan's step.  A side is a
sequence of events and unions, or an `EventBatch`, the same events held as
mask columns: the bulk callers, the axiom check and the preclusion check,
draw and build their events as columns and never make event objects.  A
single D(a, b), a measure, a norm or a zero test is a batch of one; callers
with several events make one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .colourings import Colouring, HomogeneousEvent, pks_events
from .rays import N_RAYS, PERES_RAYS, ray_index
from . import spin

DEFAULT_THRESHOLD = 1e-10
# Rows per numpy product in `Context.decoherences`: it bounds the temporaries,
# not the work, so results do not depend on it.
_PASS_ROWS = 256


@dataclass(frozen=True)
class Ordering:
    """Position p (0-based) -> ray index; the beam-splitter sequence."""

    ray_at: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ray_at) != list(range(N_RAYS)):
            raise ValueError("ordering must be a permutation of the 33 ray indices")

    @classmethod
    def default(cls) -> "Ordering":
        """The fixed listing order of the rays."""
        return cls(tuple(range(N_RAYS)))

    @classmethod
    def from_labels(cls, labels) -> "Ordering":
        return cls(tuple(ray_index(s) for s in labels))

    def position_of(self, ray: int) -> int:
        return self.ray_at.index(ray)

    def positions(self) -> np.ndarray:
        """Ray index -> position (0-based), as an array for batch lookups."""
        out = np.empty(N_RAYS, dtype=int)
        out[list(self.ray_at)] = np.arange(N_RAYS)
        return out

    def with_ray_last(self, ray: int) -> "Ordering":
        rest = [i for i in self.ray_at if i != ray]
        return Ordering(tuple(rest + [ray]))

    def labels(self) -> tuple[str, ...]:
        return tuple(PERES_RAYS[i].label for i in self.ray_at)


class InitialState:
    """A pure or mixed spin state; terms are (weight, unit vector) pairs."""

    def __init__(self, terms):
        cleaned = []
        total = 0.0
        for w, vec in terms:
            v = np.asarray(vec, dtype=complex).reshape(3)
            if not (np.isfinite(v).all() and math.isfinite(w)):
                raise ValueError("state vectors and weights must be finite")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("state vectors must be normalised to 1e-12")
            if w <= 0:
                raise ValueError("mixture weights must be positive")
            cleaned.append((float(w), v))
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        self.terms: tuple[tuple[float, np.ndarray], ...] = tuple(cleaned)

    @classmethod
    def pure(cls, vec) -> "InitialState":
        return cls([(1.0, vec)])

    @classmethod
    def default(cls) -> "InitialState":
        """Spin-zero along z: the middle z-basis vector."""
        return cls.pure([0.0, 1.0, 0.0])

    @property
    def is_pure(self) -> bool:
        return len(self.terms) == 1


def _overlapping_pair(members) -> tuple[HomogeneousEvent, HomogeneousEvent] | None:
    """The first two members that no ray separates, or None if the members
    are pairwise syntactically disjoint."""
    pairs = itertools.combinations(members, 2)
    return next(((a, b) for a, b in pairs if not a.is_disjoint_from(b)), None)


def _overlap_error(a: HomogeneousEvent, b: HomogeneousEvent) -> ValueError:
    return ValueError(f"members overlap (no ray separates {a.describe()} and {b.describe()})")


@dataclass(frozen=True)
class EventUnion:
    """A disjoint union of homogeneous events.

    Disjointness is certified syntactically (two members must fix some ray
    to different colours); unions that fail the certificate are rejected.
    """

    members: tuple[HomogeneousEvent, ...]

    def __post_init__(self) -> None:
        pair = _overlapping_pair(self.members)
        if pair is not None:
            raise _overlap_error(*pair)

    def contains(self, c: Colouring) -> bool:
        return any(e.contains(c) for e in self.members)


def _members(event) -> tuple[HomogeneousEvent, ...]:
    """The homogeneous members of an event or of a disjoint union."""
    if isinstance(event, EventUnion):
        return event.members
    if isinstance(event, HomogeneousEvent):
        return (event,)
    raise TypeError(f"cannot interpret {event!r} as an event")


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.flags.writeable = False
    return out


class EventBatch:
    """n events held as mask columns: row i is the disjoint union of its
    first `sizes[i]` members, (green[i, k], red[i, k]) in member order, and
    the rest of the row must be zero.  A homogeneous event is a row of one
    member, so the everything event is the member (0, 0) and the empty union
    a row of none.  The (n, m) masks are validated in bulk with the checks
    and messages of `HomogeneousEvent` and `EventUnion`."""

    __slots__ = ("green", "red", "sizes")

    def __init__(self, green, red, sizes):
        green, red, sizes = (np.asarray(x, dtype=np.int64) for x in (green, red, sizes))
        if green.ndim != 2 or green.shape != red.shape or sizes.shape != green.shape[:1]:
            raise ValueError("a batch takes (n, m) green and red masks and n member counts")
        if ((sizes < 0) | (sizes > green.shape[1])).any():
            raise ValueError("member counts must lie in 0..m")
        live = np.arange(green.shape[1]) < sizes[:, None]
        if (green | red)[~live].any():
            raise ValueError("slots past a row's member count must be zero")
        if (green & red).any():
            raise ValueError("a ray cannot be fixed both green and red")
        if ((green | red) >> N_RAYS).any():
            raise ValueError("fixed mask out of range")
        pairs = list(itertools.combinations(range(green.shape[1]), 2))
        overlap = np.zeros((len(sizes), len(pairs)), dtype=bool)  # per row and member pair
        for p, (i, j) in enumerate(pairs):
            separated = (green[:, i] & red[:, j]) | (red[:, i] & green[:, j])
            overlap[:, p] = live[:, j] & (separated == 0)
        if overlap.any():  # the first pair of the first row, as `EventUnion` finds it
            row, p = np.unravel_index(overlap.argmax(), overlap.shape)
            raise _overlap_error(*(HomogeneousEvent(int(green[row, k]), int(red[row, k])) for k in pairs[p]))
        self.green, self.red, self.sizes = _readonly(green), _readonly(red), _readonly(sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def _columns(events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The green and red mask columns and member counts of an `EventBatch`,
    or of a sequence of events and unions, each asked for its members once.
    The objects were validated when they were built, so the columns of a
    sequence are not checked again."""
    if isinstance(events, EventBatch):
        return events.green, events.red, events.sizes
    members = [_members(e) for e in events]
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    live = np.arange(sizes.max(initial=0)) < sizes[:, None]
    green, red = np.zeros((2, *live.shape), dtype=np.int64)
    green[live] = [e.green_mask for m in members for e in m]
    red[live] = [e.red_mask for m in members for e in m]
    return green, red, sizes


def _distinct_members(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (green, red) members of two sides (see `_columns`) as
    rows, in order of first appearance; then for each side, per member slot,
    the member row of each event, or -1 (the zero row) where an event has
    fewer members."""
    index: dict[tuple[int, int], int] = {}  # (green, red) mask -> member row
    slots = []
    for green, red, sizes in (a, b):
        live = np.arange(green.shape[1]) < sizes[:, None]
        rows = np.full(live.shape, -1)
        rows[live] = [index.setdefault(m, len(index)) for m in zip(green[live].tolist(), red[live].tolist())]
        slots.append(rows.T)
    return np.array(list(index), dtype=np.int64).reshape(-1, 2), *slots


class Context:
    """A decoherence functional: an ordering of the rays, an initial state
    and, optionally, a detector.

    A detector at stage `detector` (1-based) sits in both beams of that
    stage.  Coherence between the green and red sectors of the detected ray
    is destroyed: the functional becomes the sum of the two
    sector-restricted functionals, so events differing in that ray's colour
    decohere exactly.

    `decoherences` evaluates a batch of pairs in one pass; `decoherence`,
    `measure`, `norm`, `norms` and `is_zero` are views of it on one pair or
    one list of events.  A context holds no state beyond its configuration,
    which never changes, so evaluations may run concurrently.
    """

    def __init__(
        self,
        ordering: Ordering | None = None,
        state: InitialState | None = None,
        threshold: float = DEFAULT_THRESHOLD,
        detector: int | None = None,
    ):
        self.ordering = ordering or Ordering.default()
        self.state = state or InitialState.default()
        if not (math.isfinite(threshold) and threshold > 0):
            raise ValueError("threshold must be positive and finite")
        self.threshold = float(threshold)
        if detector is not None and not 1 <= detector <= N_RAYS:
            raise ValueError("detector position must be in 1..33")
        self.detector = detector
        self.detected_ray = None if detector is None else self.ordering.ray_at[detector - 1]

    # -- states ---------------------------------------------------------------

    def _member_states(self, masks: np.ndarray) -> np.ndarray:
        """States of distinct homogeneous events, given as rows of (green,
        red) masks, shape (len + 1, sectors, 2 terms, 3): each (member,
        sector) row's chain of fixed projectors in this context's ordering, stepped
        with `spin.project` from the terms' unweighted `spin.cartesian_slots`,
        all-zero slots kept so Re and Im stay paired.  The last row is zero, as is
        an emptied sector."""
        green, red = masks[:, 0], masks[:, 1]
        if self.detector is not None:
            # (member, sector) rows, red sector first: the detected bit is added
            # in that colour, and a member fixing the other colour empties it
            bit = np.int64(1) << self.detected_ray
            green = np.stack([green, green | bit], axis=1).ravel()
            red = np.stack([red | bit, red], axis=1).ravel()
        empty = (green & red) != 0
        rays = np.array(self.ordering.ray_at)  # ray at each position
        fixed = (np.where(empty, 0, green | red)[:, None] >> rays & 1) == 1  # per row and position
        length = fixed.sum(axis=1)
        order = np.argsort(-length, kind="stable")  # longest first: step j acts on a prefix
        # per row and step j, the position of its j-th fixed ray, that ray's direction and colour
        at = np.argsort(~fixed[order], axis=1, kind="stable")[:, : length.max(initial=0)]
        u_at = spin.ray_directions()[rays[at]]
        green_at = (green[order, None] >> rays[at] & 1) == 1
        slots = spin.cartesian_slots([psi for _, psi in self.state.terms])
        v = np.where(empty[order, None, None], 0.0, slots)
        for j, n in enumerate(len(order) - np.cumsum(np.bincount(length))[:-1]):
            along = spin.project(v[:n], u_at[:n, j, None])
            v[:n] -= along  # red, then green rows take `along` itself
            np.copyto(v[:n], along, where=green_at[:n, j, None, None])
        out = np.zeros((len(masks) + 1, 1 if self.detector is None else 2) + slots.shape)
        out[:-1].reshape(-1, *slots.shape)[order] = v
        return out

    # -- the functional ---------------------------------------------------------

    def decoherences(self, a_events, b_events) -> np.ndarray:
        """D(a, b) for each pair of two equal-length sides, as a complex
        array.  A side is an `EventBatch` or a sequence of events and unions,
        which is converted once.  Each distinct homogeneous member of either
        side is built once per call; a union's slots are the sum of its
        members' from zero, in member order.  Per sector, with R and I the Re
        and Im slots of a mixture term, (R_a.R_b + I_a.I_b) + i (R_a.I_b -
        I_a.R_b) is weighted and summed over the terms in order, from zero;
        under a detector the sectors are then added as 0j + red + green.
        Swapping a and b only negates the imaginary part: D(b, a) == conj
        D(a, b)."""
        if len(a_events) != len(b_events):
            raise ValueError("decoherences takes two sequences of equal length")
        masks, slots_a, slots_b = _distinct_members(_columns(a_events), _columns(b_events))
        states = self._member_states(masks)

        def union_states(slots: np.ndarray) -> np.ndarray:
            # a partial sum from +0 is never -0, so adding a zero row leaves
            # it unchanged to the bit
            out = np.zeros((slots.shape[1],) + states.shape[1:])
            for rows in slots:
                out += states[rows]
            return out

        n_terms = len(self.state.terms)
        dots = np.empty((len(a_events), states.shape[1], n_terms), dtype=complex)
        for lo in range(0, len(dots), _PASS_ROWS):
            cut = slice(lo, lo + _PASS_ROWS)
            sa = union_states(slots_a[:, cut])
            sb = union_states(slots_b[:, cut])
            same = np.einsum("...i,...i->...", sa, sb)  # R_a.R_b per term, then I_a.I_b
            cross = np.einsum("...i,...i->...", sa, np.roll(sb, n_terms, axis=-2))  # R.I, I.R
            dots.real[cut] = same[..., :n_terms] + same[..., n_terms:]
            dots.imag[cut] = cross[..., :n_terms] - cross[..., n_terms:]
        sums = np.zeros(dots.shape[:2], dtype=complex)  # per pair and sector
        for t, (w, _) in enumerate(self.state.terms):
            sums += w * dots[..., t]
        return sums[:, 0] if self.detector is None else 0j + sums[:, 0] + sums[:, 1]

    def decoherence(self, a, b) -> complex:
        """D(a, b) for one pair: `decoherences` on a batch of one."""
        return complex(self.decoherences([a], [b])[0])

    def measure(self, a) -> float:
        """mu(a) = D(a, a)."""
        return self.decoherence(a, a).real

    def norm(self, a) -> float:
        return _norm(self.measure(a))

    def norms(self, events) -> list[float]:
        """`norm` of each event, from one `decoherences` call."""
        return [_norm(d.real) for d in self.decoherences(events, events).tolist()]

    def is_zero(self, a) -> bool:
        return self.norm(a) < self.threshold


def _norm(measure: float) -> float:
    """An event's norm from its measure, sqrt(max(mu, 0)): the event-state
    norm for a pure state.  Rounding can leave a zero measure just below 0."""
    return math.sqrt(max(measure, 0.0))


# --- verification reports -----------------------------------------------------


@dataclass(frozen=True)
class PksZeroReport:
    entries: tuple[tuple[str, float, float], ...]  # (event name, norm, measure)
    union_entries: tuple[tuple[str, float, float], ...]
    threshold: float

    @property
    def max_norm(self) -> float:
        vals = [n for _, n, _ in self.entries + self.union_entries]
        return max(vals) if vals else 0.0

    @property
    def all_zero(self) -> bool:
        return self.max_norm < self.threshold


def verify_pks_zero(ctx: Context) -> PksZeroReport:
    """Measure every all-red basis event and all-green pair event, plus
    every disjoint union of them; all must vanish.  No three of the events
    are pairwise disjoint, so the unions are the 192 disjoint pairs, in
    `itertools.combinations` order.  All are measured in one
    `Context.decoherences` call of an `EventBatch`; each norm is `_norm` of
    the measure, as in `Context.norm`."""
    events = pks_events()
    names = [e.describe() for e in events]
    green = np.array([e.green_mask for e in events], dtype=np.int64)
    red = np.array([e.red_mask for e in events], dtype=np.int64)
    separates = (green[:, None] & red) != 0  # some ray green in the row's event, red in the column's
    i, j = np.nonzero(np.triu(separates | separates.T))  # row-major: `combinations` order
    none = np.zeros_like(green)
    items = EventBatch(
        np.concatenate([np.stack([green, none], axis=1), np.stack([green[i], green[j]], axis=1)]),
        np.concatenate([np.stack([red, none], axis=1), np.stack([red[i], red[j]], axis=1)]),
        [1] * len(events) + [2] * len(i),
    )
    names += [f"{names[a]} | {names[b]}" for a, b in zip(i.tolist(), j.tolist())]
    entries = tuple(
        (name, _norm(d.real), d.real)
        for name, d in zip(names, ctx.decoherences(items, items).tolist())
    )
    return PksZeroReport(entries[: len(events)], entries[len(events) :], ctx.threshold)


# --- sampling helpers shared by the check commands and the test suite ----------


def _draw(rng, kinds: str, max_fixed: int = 3) -> list[int]:
    """Masks drawn in the order of `kinds`, flat.  For each "e", a random
    homogeneous event's green and red masks: `integers(1, max_fixed + 1)`
    fixed rays, chosen by `choice(33, k, replace=False)`, then one
    `integers(2)` colour per ray in that order, 1 for green.  For each "t",
    the bits of the two rays of a disjoint triple, `choice(33, 2,
    replace=False)`."""
    out = []
    for kind in kinds:
        if kind == "t":
            out += [1 << int(i) for i in rng.choice(N_RAYS, size=2, replace=False)]
            continue
        green = red = 0
        k = int(rng.integers(1, max_fixed + 1))
        for i in rng.choice(N_RAYS, size=k, replace=False).tolist():
            if rng.integers(2):
                green |= 1 << i
            else:
                red |= 1 << i
        out += [green, red]
    return out


def random_homogeneous_event(rng, max_fixed: int = 3) -> HomogeneousEvent:
    return HomogeneousEvent(*_draw(rng, "e", max_fixed))


def _triple(i, j) -> tuple[tuple, tuple, tuple]:
    """The (green, red) masks of the disjoint triple on ray bits i and j,
    ints or columns: both green; i red and j green; i green and j red."""
    return (i | j, 0 * i), (j, i), (i, j)


def random_disjoint_triple(rng) -> tuple[HomogeneousEvent, ...]:
    """Three pairwise syntactically disjoint homogeneous events."""
    return tuple(HomogeneousEvent(g, r) for g, r in _triple(*_draw(rng, "t")))


@dataclass(frozen=True)
class AxiomReport:
    hermiticity: float
    additivity: float
    positivity: float  # most negative diagonal seen (>= -1e-12 required)
    normalisation: float
    sum_rule: float
    samples: int

    def passes(self, tol: float = 1e-10) -> bool:
        return (
            self.hermiticity < tol
            and self.additivity < tol
            and self.positivity > -1e-12
            and self.normalisation < 1e-12
            and self.sum_rule < tol
        )


def _axiom_terms(rng, samples: int, sum_rule_trials: int) -> tuple[EventBatch, EventBatch]:
    """The events of `check_axioms`, drawn in sampling order; D(lhs[t],
    rhs[t]) is term t.  Per sample: D(a, b), D(b, a), D(x | y, z), D(x, z),
    D(y, z) and mu(a), for events a, b and z and a disjoint pair x, y; then
    mu of everything; per trial, the seven measures of the sum rule on a
    disjoint triple p, q, r."""
    a_g, a_r, b_g, b_r, i, j, z_g, z_r = np.reshape(_draw(rng, "eete" * samples), (-1, 8)).T
    x, y, _ = _triple(i, j)
    drawn = {"a": (a_g, a_r), "b": (b_g, b_r), "x": x, "y": y, "z": (z_g, z_r)}
    triples = dict(zip("pqr", _triple(*np.reshape(_draw(rng, "t" * sum_rule_trials), (-1, 2)).T)))
    everything = {"o": (np.zeros(1, dtype=np.int64),) * 2}

    def unions(members: dict, n: int, rows: str):
        """The rows named by the members they union, for each of n draws in
        turn: green and red masks three slots wide, and member counts."""
        rows = rows.split()
        green, red = np.zeros((2, n, len(rows), 3), dtype=np.int64)
        for r, row in enumerate(rows):
            for k, name in enumerate(row):
                green[:, r, k], red[:, r, k] = members[name]
        return green.reshape(-1, 3), red.reshape(-1, 3), np.tile([len(row) for row in rows], n)

    def batch(*parts) -> EventBatch:
        return EventBatch(*(np.concatenate(columns) for columns in zip(*parts)))

    tail = (unions(everything, 1, "o"), unions(triples, sum_rule_trials, "pqr pq qr pr p q r"))
    return batch(unions(drawn, samples, "a b xy x y a"), *tail), batch(unions(drawn, samples, "b a z z z a"), *tail)


def check_axioms(ctx, rng, samples: int = 100, sum_rule_trials: int = 200) -> AxiomReport:
    """Residuals of the decoherence-functional axioms and of the three-set
    interference sum rule, over random homogeneous events, for any context,
    with or without a detector.  The events are drawn as mask columns, with
    the generator calls of `random_homogeneous_event` and
    `random_disjoint_triple` in sampling order, so a seed draws the same
    events.  The context needs one method, `decoherences(a_events,
    b_events)`, the functional on pairs of events and unions as a complex
    array (see `Context.decoherences`); it receives two `EventBatch`es, which
    support `len`.  Every term of every residual is one value of it, all
    drawn in one call.  Residuals are aggregated so that a NaN anywhere
    shows in the report (and fails `passes`) instead of vanishing.  At least
    one sample and one sum-rule trial are required: residuals over no events
    would pass with no evidence."""
    if samples < 1 or sum_rule_trials < 1:
        raise ValueError("samples and sum_rule_trials must be at least 1")
    lhs, rhs = _axiom_terms(rng, samples, sum_rule_trials)
    # as Python complex values: `np.abs` can differ from `abs` in the last bit
    values = iter(ctx.decoherences(lhs, rhs).tolist())
    herm, add, diag, sum_rule = [], [], [], []
    for _ in range(samples):
        ab, ba, xy_z, x_z, y_z, aa = itertools.islice(values, 6)
        herm.append(abs(ab - ba.conjugate()))
        add.append(abs(xy_z - x_z - y_z))
        diag.append(aa.real)
    norm_res = abs(next(values) - 1.0)
    for _ in range(sum_rule_trials):
        abc, ab, bc, ac, a, b, c = (v.real for v in itertools.islice(values, 7))
        sum_rule.append(abs(abc - (ab + bc + ac - a - b - c)))
    return AxiomReport(
        hermiticity=float(np.max(herm, initial=0.0)),
        additivity=float(np.max(add, initial=0.0)),
        positivity=float(np.min(diag, initial=0.0)),
        normalisation=norm_res,
        sum_rule=float(np.max(sum_rule, initial=0.0)),
        samples=samples,
    )
