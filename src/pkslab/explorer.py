"""Systematic search for measure-zero events and coverage of the co-event
support {gamma_P, gamma_P'}.

A "covered" verdict always carries an explicit witness: a zero event
containing both support colourings, or a disjoint pair of zero events
containing one each (for a two-element support no larger family is ever
needed).  Its events are verified numerically, except the ordering
search's gap pair, which is null exactly (see `_threat_pairs`).  A "not
covered" verdict is always qualified by the scan scope, since only
homogeneous events with a bounded number of fixed rays and a few
structural constructions are examined.
The constructions enter as plain zero events, so `_segment_coverage` is
the one place where events are paired: `coverage_check` is its
one-segment case, and the ordering search decides all its candidates in
one call.  Whether some ordering and state make the co-event preclusive
outright is an open question this module collects evidence on, not a
theorem it can decide.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .colourings import (
    FULL_MASK,
    Colouring,
    basis_chain,
    gamma_p,
    gamma_p_prime,
    pks_events,
)
from . import spin
from .measure import DEFAULT_THRESHOLD, Context, HomogeneousEvent, InitialState, Ordering
from .rays import N_RAYS, enumerate_orthogonal_pairs, ray_index

MAX_SCAN_FIXED = 5


class Provenance(Enum):
    PKS = "pks"
    ACCIDENTAL_ADJACENT = "accidental-adjacent"
    COARSE_GRAIN_COLLAPSE = "coarse-grain-collapse"
    SCAN = "scan"


@dataclass(frozen=True, slots=True)
class ZeroEventRecord:
    event: HomogeneousEvent
    norm: float
    provenance: Provenance

    def describe(self) -> str:
        return f"{self.event.describe()}  norm={self.norm:.3e}  [{self.provenance.value}]"


# provenance code -> provenance; the enum order is also the precedence
_PROVENANCES = tuple(Provenance)

# Iteration builds records and events this many rows at a time: converting
# whole columns to Python lists first would hold four list slots per row
# next to the objects.
_RECORD_CHUNK = 8192


def _column(values, dtype) -> np.ndarray:
    """A read-only view of a column (the caller's array stays writable)."""
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


class EventArray(Sequence):
    """Homogeneous events held as green and red mask columns.

    The masks are validated in bulk with the checks `HomogeneousEvent`
    makes; events are built only on access, and each still goes through
    the `HomogeneousEvent` constructor.
    """

    __slots__ = ("green", "red")

    def __init__(self, green, red):
        green, red = _column(green, np.int64), _column(red, np.int64)
        if green.shape != red.shape:
            raise ValueError("green and red mask columns differ in length")
        if (green & red).any():
            raise ValueError("a ray cannot be fixed both green and red")
        if ((green | red) >> N_RAYS).any():
            raise ValueError("fixed mask out of range")
        self.green, self.red = green, red

    @classmethod
    def of(cls, events) -> "EventArray":
        """The mask columns of an iterable of events; an `EventArray` passes
        straight through."""
        if isinstance(events, cls):
            return events
        events = list(events)
        return cls([e.green_mask for e in events], [e.red_mask for e in events])

    def holds(self, c: Colouring) -> np.ndarray:
        """Boolean column: which events contain the colouring."""
        return ((self.green & ~c.bits) | (self.red & c.bits)) == 0

    def __len__(self) -> int:
        return self.green.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EventArray(self.green[i], self.red[i])
        i = operator.index(i)
        return HomogeneousEvent(int(self.green[i]), int(self.red[i]))

    def __iter__(self):
        for lo in range(0, len(self), _RECORD_CHUNK):
            rows = slice(lo, lo + _RECORD_CHUNK)
            yield from map(HomogeneousEvent, self.green[rows].tolist(), self.red[rows].tolist())


class ZeroScan(Sequence):
    """The result of a zero scan: a read-only sequence of `ZeroEventRecord`s
    held as columns in record order (`events` masks, float64 `norm`, int8
    provenance `code` indexing `Provenance`), plus `min_rejected`, the
    smallest norm the scan found at or above the threshold (inf if none).
    Records are built on access."""

    __slots__ = ("events", "norm", "code", "min_rejected")

    def __init__(self, green, red, norm, code, min_rejected: float = math.inf):
        self.events = EventArray(green, red)
        self.min_rejected = float(min_rejected)
        self.norm, self.code = _column(norm, np.float64), _column(code, np.int8)
        if not self.norm.shape == self.code.shape == self.events.green.shape:
            raise ValueError("scan columns differ in length")
        if ((self.code < 0) | (self.code >= len(_PROVENANCES))).any():
            raise ValueError("provenance code out of range")

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i):
        if isinstance(i, slice):
            columns = (self.events.green, self.events.red, self.norm, self.code)
            return ZeroScan(*(c[i] for c in columns), self.min_rejected)
        i = operator.index(i)
        return ZeroEventRecord(self.events[i], float(self.norm[i]), _PROVENANCES[self.code[i]])

    def __iter__(self):
        for lo in range(0, len(self), _RECORD_CHUNK):
            rows = slice(lo, lo + _RECORD_CHUNK)
            for e, x, c in zip(self.events[rows], self.norm[rows].tolist(), self.code[rows].tolist()):
                yield ZeroEventRecord(e, x, _PROVENANCES[c])


@lru_cache(maxsize=1)
def _ray_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact orthogonality of every ray pair (33x33, from the orthogonal
    pairs `rays` enumerates), and the green masks of the 72 all-green and
    the red masks of the 16 all-red preclusion events."""
    orth = np.zeros((N_RAYS, N_RAYS), dtype=bool)
    i, j = np.array([p.indices for p in enumerate_orthogonal_pairs()]).T
    orth[i, j] = orth[j, i] = True
    pairs = np.array([e.green_mask for e in pks_events() if e.green_mask], dtype=np.int64)
    bases = np.array([e.red_mask for e in pks_events() if e.red_mask], dtype=np.int64)
    return orth, pairs, bases


class _Chains:
    """Projector chains of one context, stepped in the real Cartesian picture.

    A chain state is an array (rows, sectors, slots, 3): the initial state as
    the real slots of sqrt(w) psi per term (`spin.cartesian_slots`, zero
    slots dropped), an operator product as the three identity columns.  A
    ray's green projector is u u^T and its red one I - u u^T, so a step is
    `spin.project`, v -> u (u.v), or v - u (u.v).  A detector at stage d
    splits the slots into a red and a green sector by the same step when an
    extension jumps over d (an event fixing the detected ray never splits),
    and both sectors are measured."""

    def __init__(self, ctx):
        self.ray_at = np.array(ctx.ordering.ray_at)
        self.u = spin.ray_directions()[self.ray_at]  # by position
        self.cut = None if ctx.detector is None else ctx.detector - 1
        slots = spin.cartesian_slots([np.sqrt(w) * psi for w, psi in ctx.state.terms])
        self.state, self.op = (
            np.stack([x, 0 * x][: 1 if self.cut is None else 2])[None]
            for x in (slots[slots.any(axis=1)], np.eye(3))
        )

    def _split(self, v: np.ndarray, last, p) -> np.ndarray:
        """The slots of the chains that end before the detector (at `last`)
        and are extended past it (to `p`), split into its two sectors."""
        if self.cut is None:
            return v
        rows = (last < self.cut) & (p > self.cut)
        if not rows.any():
            return v
        v = v.copy()
        v[rows, 1] = spin.project(v[rows, 0], self.u[self.cut])
        v[rows, 0] -= v[rows, 1]
        return v

    def branch(self, v, last, p) -> np.ndarray:
        """The red children followed by the green children of chain states
        `v`, ending at positions `last`, extended by the projectors at
        positions `p`: each row is projected once, along = u (u.v), and
        its children are v - along (red) and along (green)."""
        v = self._split(v, last, p)
        out = np.empty((2, *v.shape))
        spin.project(v, np.take(self.u, p, axis=0)[:, None, None, :], out=out[1])
        np.subtract(v, out[1], out=out[0])
        return out.reshape(-1, *v.shape[1:])


def _norms(v) -> np.ndarray:
    """Norms of chain states or operator products, over both sectors.
    Raises `ValueError` if any is non-finite: no verdict rests on it."""
    norm = np.sqrt(np.einsum("nsij,nsij->n", v, v))
    if not np.isfinite(norm).all():
        raise ValueError("non-finite norm in the scan: no verdict can rest on it")
    return norm


def _classify(k: int, green, red, adjacent, collapse) -> np.ndarray:
    """Why is each of these events' state zero?  Codes index `_PROVENANCES`.

    The rows fix `k` rays each, `green` and `red` hold their masks,
    `adjacent` marks a green-green orthogonal pair at consecutive stages,
    and `collapse` marks operator norms below the threshold.  Preclusion
    events (`pks_events`) rank first; then adjacency; then a projector chain
    whose product vanishes once the free stages are summed out (for a
    detected context, in both sectors); the rest are zeros of this
    particular initial state.  A detector never sits between consecutive
    stages and its red sector adds no green pair, so adjacency on the
    event's own chain decides every sector of a detected context.
    """
    _, pairs, bases = _ray_tables()
    pks = np.zeros(green.size, dtype=bool)  # preclusion events fix two or three rays
    if k == 2:  # a pair's green mask or a basis's red one leaves the other colour empty
        pks = (green[:, None] == pairs).any(axis=1)
    elif k == 3:
        pks = (red[:, None] == bases).any(axis=1)
    # int8 codes: a scan keeps one per zero row until its records are built
    return np.select([pks, adjacent, collapse], [0, 1, 2], default=3).astype(np.int8)


# Children of one level are built about this many rows at a time.
_BLOCK = 32768


def _children(last: np.ndarray):
    """The (parent row, new later position) pairs of a level whose rows end
    at positions `last`, in blocks of about `_BLOCK` children.  Each pair
    has two children, red and green, which `_Chains.branch` builds from one
    projection: child i < n of a block of n pairs is pair i's red child,
    child n + i its green one."""
    width = N_RAYS - 1 - last  # later positions per parent
    start = np.cumsum(width) - width  # offset of each parent's first pair
    lo = 0
    while lo < len(last):
        hi = int(np.searchsorted(start, start[lo] + _BLOCK // 2, "right"))
        par = np.repeat(np.arange(lo, hi), width[lo:hi])
        if par.size:  # parents at the last stage have no pairs
            yield par, last[par] + 1 + np.arange(par.size) - (start[par] - start[lo])
        lo = hi


def _check_depth(max_fixed: int) -> None:
    if not 1 <= max_fixed <= MAX_SCAN_FIXED:
        raise ValueError(f"scan budget exceeded: max_fixed must be in 1..{MAX_SCAN_FIXED}")


def _zero_rows(ctx, max_fixed: int) -> tuple:
    """Record order (by number of fixed rays, green mask, red mask), green
    masks, red masks, norms and provenance codes of every zero event with
    1..max_fixed fixed rays, and the smallest rejected norm.

    The events with k fixed rays are the children of level k-1: a parent row
    extended by one later position in either colour, both colours from one
    projection of the parent's stored state.  A level keeps each row's last
    position (int8), colour masks, `adjacent` flag, state and operator
    product; the last level builds masks and flags only for its zero rows.
    Operator products are stepped once per pair: below the last level for
    every pair, since the level keeps them, and at the last level for the
    pairs with a zero child.  Their norms are taken for the zero rows only."""
    chains = _Chains(ctx)
    # per position, whether the next stage's ray is orthogonal (none after the last)
    step_orth = np.append(_ray_tables()[0][chains.ray_at[:-1], chains.ray_at[1:]], False)
    last, green, red = np.full(1, -1), np.zeros(1, np.int64), np.zeros(1, np.int64)
    adjacent, state, op = np.zeros(1, dtype=bool), chains.state, chains.op
    zeros, min_rejected = [], math.inf  # per block: n_fixed, green, red, norm, code of zero rows
    for k in range(1, max_fixed + 1):
        # a child is adjacent if its parent is, or if it is green right after a
        # parent whose last stage is green and orthogonal to the next (`extends`)
        extends = (green >> chains.ray_at[last] & 1).astype(bool) & step_orth[last]
        level = []
        for par, p in _children(last):
            n = par.size
            child = chains.branch(np.take(state, par, axis=0), last[par], p)
            norm = _norms(child)
            zm = norm < ctx.threshold
            min_rejected = min(min_rejected, norm[~zm].min(initial=math.inf))
            z = np.flatnonzero(zm)
            # the children whose masks and flags are built, and the zero rows among them
            rows, zr = (z, slice(None)) if k == max_fixed else (np.arange(2 * n), z)
            pair, g = rows % n, rows >= n
            c_par, c_p = par[pair], p[pair]
            bit = np.int64(1) << chains.ray_at[c_p]
            c_green, c_red = green[c_par] | np.where(g, bit, 0), red[c_par] | np.where(g, 0, bit)
            c_adj = adjacent[c_par] | g & extends[c_par] & (c_p == last[c_par] + 1)
            # the pairs whose operator products are stepped, and each one's rank among them
            has = zm[:n] | zm[n:] | (k < max_fixed)
            pairs = np.flatnonzero(has)
            c_op = chains.branch(np.take(op, par[pairs], axis=0), last[par[pairs]], p[pairs])
            z_op = (np.cumsum(has) - 1)[z % n] + pairs.size * (z >= n)  # the zero rows' products
            op_norm = _norms(np.take(c_op, z_op, axis=0))
            if k < max_fixed:
                level.append((c_p.astype(np.int8), c_green, c_red, c_adj, child, c_op))
            del c_op  # a last-level block's products go before the next block is built
            code = _classify(k, c_green[zr], c_red[zr], c_adj[zr], op_norm < ctx.threshold)
            zeros.append((np.full(z.size, k, np.int8), c_green[zr], c_red[zr], norm[z], code))
        if level:
            last, green, red, adjacent, state, op = (np.concatenate(c) for c in zip(*level))
    del last, green, red, adjacent, state, op  # the stored level, before the zero rows are joined
    n_fixed, green, red, norm, code = (np.concatenate(c) for c in zip(*zeros))
    del zeros  # the per-block pieces, before the sort's keys are built
    return _record_order(n_fixed, green, red), green, red, norm, code, float(min_rejected)


def _record_order(n_fixed, green, red) -> np.ndarray:
    """`np.lexsort((red, green, n_fixed))` of 33-bit masks and fixed-ray
    counts below 2**14, as one stable sort over five 16-bit digits of the
    key (n_fixed, green, red), least significant first, which numpy
    radix-sorts.  Each digit is cut to uint16 as it is built."""
    u16 = np.uint16
    return np.lexsort([red.astype(u16), (red >> 16).astype(u16),
                       (red >> 32 | green << 1).astype(u16), (green >> 15).astype(u16),
                       (green >> 31 | n_fixed.astype(np.int64) << 2).astype(u16)])


def scan_zero_events(ctx, max_fixed: int) -> ZeroScan:
    """All homogeneous events with at most `max_fixed` fixed rays whose norm
    falls below the context threshold, in a deterministic order, as a lazy
    sequence of records.  A context with a detector is scanned on its
    detected functional.  Raises `ValueError` if any scanned norm is
    non-finite: no verdict rests on it."""
    _check_depth(max_fixed)
    order, *columns, min_rejected = _zero_rows(ctx, max_fixed)
    for i in range(len(columns)):  # one unsorted column at a time stays alive
        columns[i] = columns[i][order]
    return ZeroScan(*columns, min_rejected)


def _support_chains(k: int, rays=range(N_RAYS)):
    """Blocks (gamma_P' flag, ray tuples (n, k) int8 in stage order, norms)
    of the gamma_P and gamma_P' chains under the maximally mixed state,
    without a detector, on every ordered k-tuple of distinct rays drawn from
    `rays`; a gamma_P' chain is listed only where it fixes a disagreement
    ray.

    Such a chain depends only on its fixed rays in stage order, so these
    serve every ordering.  They are stepped depth first, about `_BLOCK`
    children at a time, with `_Chains.branch` under `Ordering.default()`,
    where a position is a ray, and each norm is taken over both children of
    its branch as the scan takes it, so every norm is the scan's to the
    bit.  A gamma_P' chain fixing no disagreement ray is gamma_P's, so a
    gamma_P' row is stepped on its own only once it fixes one; at the first
    such ray it is the other child of gamma_P's branch."""
    chains = _Chains(Context(Ordering.default(), maximally_mixed_state()))
    gp, gpp = phi_m_support()
    disagree = gp.bits ^ gpp.bits

    def descend(pp, at, state):  # per row: gamma_P' flag, ray tuple, chain state
        j, n = at.shape[1], len(at)
        free = np.zeros((n, N_RAYS), dtype=bool)
        free[:, list(rays)] = True
        free[np.arange(n)[:, None], at] = False
        fixes = (disagree >> at.astype(np.int64) & 1).any(axis=1)
        step = max(1, _BLOCK // (2 * (N_RAYS - j)))  # parents per block
        for lo in range(0, n, step):
            par, ray = np.nonzero(free[lo:lo + step])
            par += lo
            m = par.size
            green = (np.where(pp[par], gpp.bits, gp.bits) >> ray & 1).astype(bool)
            fork = np.flatnonzero(~pp[par] & ~fixes[par] & (disagree >> ray & 1).astype(bool))
            pick = np.concatenate([np.arange(m) + m * green, fork + m * ~green[fork]])
            child, pair = chains.branch(np.take(state, par, axis=0), None, ray), pick % m  # no cut
            c_pp = np.concatenate([pp[par], np.ones(fork.size, dtype=bool)])
            c_at = np.column_stack([at[par[pair]], ray[pair]]).astype(np.int8)
            if j + 1 == k:
                yield c_pp, c_at, _norms(child)[pick]
            else:
                yield from descend(c_pp, c_at, np.take(child, pick, axis=0))

    yield from descend(np.zeros(1, dtype=bool), np.zeros((1, 0), np.int8), chains.state)


@lru_cache(maxsize=None)
def _null_rows(k: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The ray tuples (n, k) int8 in stage order of the `_support_chains(k)`
    of gamma_P, then of gamma_P', whose norms fall below `threshold`; built
    on first use per level and threshold."""
    null = ([], [])
    for pp, at, norm in _support_chains(k):
        z = norm < threshold
        for c in (0, 1):
            null[c].append(at[z & (pp == c)])
    return tuple(_column(np.concatenate(rows), np.int8) for rows in null)


def _held(pos, at):
    """The (row, list row) pairs where row i of `pos` (n, m), which maps
    each ray to its stage in ordering i, holds row t of the ray tuples `at`
    (l, k) in stage order: pos[r_1] < ... < pos[r_k], a position test made
    for every ordering at once, yielded about `_BLOCK` tests at a time."""
    step = max(1, _BLOCK // max(1, len(pos)))  # list rows per test block
    for lo in range(0, len(at), step):
        block = at[lo:lo + step]
        held, p = np.ones((len(pos), len(block)), dtype=bool), pos[:, block[:, 0]]
        for j in range(1, at.shape[1]):  # (orderings, list rows): pos[r_j] < pos[r_j+1]
            q = pos[:, block[:, j]]
            held &= p < q
            p = q
        row, t = np.nonzero(held)
        yield row, t + lo


def _holders(pos, threshold: float, max_fixed: int) -> tuple[np.ndarray, ...]:
    """The (row, green, red) columns of the events that hold gamma_P or
    gamma_P' in the `scan_zero_events` of each ordering, under the maximally
    mixed state, without a detector, where row i of `pos` (n, 33) maps each
    ray to its stage in ordering i: by row, and within a row in the scan's
    record order.

    A holder of a colouring fixes each of its rays at the colouring's colour,
    so its chain is one of the scan's chains with the colouring's child at
    every step, and it is null exactly when its fixed rays in stage order
    are a `_null_rows` tuple of that colouring.  So an ordering holds the
    tuple exactly when `_held` pairs them.  An event holding both colourings
    fixes no disagreement ray, so only its gamma_P tuple is listed.  An
    empty list, such as levels 1 and 2 at 1e-10, costs no test."""
    gp, gpp = phi_m_support()
    pos = np.asarray(pos, dtype=np.int8).reshape(-1, N_RAYS)
    none = np.zeros(0, np.int64)
    levels = [(none, none.astype(np.int8), none, none)]  # row, n_fixed, green, red of holders
    for k in range(1, max_fixed + 1):
        for bits, null in zip((gp.bits, gpp.bits), _null_rows(k, threshold)):
            for row, t in _held(pos, null):
                fixed = np.bitwise_or.reduce(np.int64(1) << null[t], axis=1)
                levels.append((row, np.full(row.size, k, np.int8), fixed & bits, fixed & ~bits))
    row, n_fixed, green, red = (np.concatenate(c) for c in zip(*levels))
    order = np.lexsort((red, green, n_fixed, row))
    return row[order], green[order], red[order]


def provenance_counts(scan: ZeroScan) -> dict[str, int]:
    """Records per provenance, keyed in order of first occurrence."""
    counts = np.bincount(scan.code, minlength=len(_PROVENANCES))
    present = sorted(np.flatnonzero(counts), key=lambda c: np.argmax(scan.code == c))
    return {_PROVENANCES[c].value: int(counts[c]) for c in present}


# --- coverage ------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageVerdict:
    status: str  # "covered" | "not-covered-within-scope"
    witness: tuple[HomogeneousEvent, ...] | None
    scope: str

    @property
    def covered(self) -> bool:
        return self.status == "covered"


def phi_m_support() -> tuple[Colouring, Colouring]:
    return gamma_p(), gamma_p_prime()


def coverage_check(
    support: tuple[Colouring, ...], zero_events, scope: str
) -> CoverageVerdict:
    """Can a disjoint union of the given zero events contain the support?

    Searches single events containing every support colouring, then
    disjoint pairs splitting it.  For the two-element supports used here a
    covering disjoint family can always be thinned to at most two events,
    so the pair search is complete within the supplied zero list.

    `zero_events` is an iterable of events or an `EventArray`, which is
    decided on its mask columns directly (a scan passes `scan.events`).
    A holder of one colouring agrees with it on every ray it fixes, so two
    holders of different colourings are disjoint exactly when both fix a
    ray where the colourings disagree (the disagreement mask D; four rays
    for {gamma_P, gamma_P'}).  Some holder of the second colouring is
    disjoint from a holder of the first exactly when the first's fixed
    rays in D meet the union of the second's: the witness is the first
    such holder, paired with the first holder of the second colouring it
    meets, as in a nested loop over both holder lists.  The decision is
    `_segment_coverage` with one segment.
    """
    events = EventArray.of(zero_events)
    return _segment_coverage(support, events, [0, len(events)], scope)[0]


def _segment_coverage(
    support: tuple[Colouring, ...], events: EventArray, bounds, scope: str
) -> list[CoverageVerdict]:
    """`coverage_check` of the support on each segment
    events[bounds[s]:bounds[s + 1]] (`bounds` rises from 0 to len(events)),
    decided on the mask columns of all segments at once.

    Each colouring's `holds` column is taken once.  A segment's witness is
    its first row holding every colouring; failing that, its first holder
    of the first colouring whose disagreement rays meet the union (one
    `bitwise_or.at` for all segments) of the segment's holders of the
    second, paired with the first of those it meets.  Each first is a
    `searchsorted` of the segment starts into the increasing rows that
    qualify, so every segment gets the witness `coverage_check` gives it
    alone."""
    if len(support) > 2:
        raise ValueError("coverage search implemented for supports of size <= 2")
    bounds = np.asarray(bounds)
    start, end = bounds[:-1], bounds[1:]

    def first(rows):
        """Per segment, the first of the increasing `rows` in it, or -1."""
        at = np.concatenate([rows, [len(events)]])[rows.searchsorted(start)]
        at[at >= end] = -1
        return at

    held = [events.holds(c) for c in support]
    one = first(np.flatnonzero(np.logical_and.reduce(held)))  # single-event witnesses
    two = np.full((2, start.size), -1)  # pair witnesses
    if len(support) == 2 and (one < 0).any():
        disagree = support[0].bits ^ support[1].bits
        rows = [np.flatnonzero(h) for h in held]
        fixed = [(events.green[r] | events.red[r]) & disagree for r in rows]
        segment = [np.searchsorted(end, r, "right") for r in rows]
        union = np.zeros(start.size, np.int64)
        np.bitwise_or.at(union, segment[1], fixed[1])
        two[0] = first(rows[0][(fixed[0] & union[segment[0]]) != 0])
        met, found = np.zeros(start.size, np.int64), two[0] >= 0
        met[found] = (events.green[two[0, found]] | events.red[two[0, found]]) & disagree
        two[1] = first(rows[1][(fixed[1] & met[segment[1]]) != 0])
    verdicts = []
    for i, j, k in zip(one.tolist(), *two.tolist()):
        witness = (events[i],) if i >= 0 else (events[j], events[k]) if j >= 0 else None
        status = "covered" if witness else "not-covered-within-scope"
        verdicts.append(CoverageVerdict(status, witness, scope))
    return verdicts


def pks_only_coverage(support: tuple[Colouring, ...]) -> CoverageVerdict:
    """Coverage of a support against the bare preclusion family.  Never
    covered for {gamma_P, gamma_P'}, which is exactly why that support was
    chosen: its co-event is preclusive on every preclusion event and every
    disjoint union of them."""
    return coverage_check(support, pks_events(), scope="preclusion family only")


# --- structural constructions ---------------------------------------------------


def _gap_masks(c: Colouring, basis_indices: tuple[int, int, int], pos) -> np.ndarray:
    """(green, red) mask rows of `basis_gap_event` for each row of `pos`
    (n, 33), which maps each ray to its stage."""
    pos = np.asarray(pos)
    stage = pos[:, list(basis_indices)]  # the basis stages of each row
    gap = (stage.min(axis=1, keepdims=True) < pos) & (pos < stage.max(axis=1, keepdims=True))
    basis = sum(1 << i for i in basis_indices)
    fixed = FULL_MASK & ~(np.where(gap, np.int64(1) << np.arange(N_RAYS), 0).sum(axis=1) & ~basis)
    return np.stack([fixed & c.bits, fixed & ~c.bits], axis=1)


def basis_gap_event(
    c: Colouring, basis_indices: tuple[int, int, int], ordering: Ordering
) -> HomogeneousEvent:
    """Fix a colouring everywhere except strictly between the basis stages.

    Freeing the rays between the first and last basis positions makes the
    three basis projectors adjacent once the free stages are summed out;
    if the colouring is red on the whole basis the product vanishes, so
    the event has measure zero while still containing the colouring.
    """
    green, red = _gap_masks(c, basis_indices, [ordering.positions()])[0].tolist()
    return HomogeneousEvent(green, red)


def _chain_basis(name_index: int) -> tuple[int, int, int]:
    return basis_chain()[name_index - 1].indices


def _gap_pair(
    gp: Colouring, gpp: Colouring, ordering: Ordering
) -> tuple[HomogeneousEvent, HomogeneousEvent]:
    """The B11 gap event around gamma_P and the B7 gap event around gamma_P'."""
    return (basis_gap_event(gp, _chain_basis(11), ordering),
            basis_gap_event(gpp, _chain_basis(7), ordering))


@dataclass(frozen=True)
class LastStageConstruction:
    e1: HomogeneousEvent
    e2: HomogeneousEvent
    norm1: float
    norm2: float
    separating_ray: int
    holds: bool  # both norms below the threshold


def last_ray_021_construction(ctx: Context) -> LastStageConstruction:
    """The two-event preclusivity breaker for orderings ending at ray 021.

    E1 frees the stages between the B11 rays around gamma_P; E2 does the
    same for B7 around gamma_P'.  They disagree on the final stage's colour
    (gamma_P reds 021, gamma_P' greens it) and together contain the whole
    support.  Without a detector both are measure zero, so the support
    co-event cannot be preclusive in such a context; a detector inside
    either gap can make one non-null, and then `holds` is false.
    """
    i021 = ray_index("021")
    if ctx.ordering.ray_at[-1] != i021:
        raise ValueError("construction requires ray 021 at position 33")
    gp, gpp = phi_m_support()
    e1, e2 = _gap_pair(gp, gpp, ctx.ordering)
    n1, n2 = ctx.norms([e1, e2])
    if not e1.is_disjoint_from(e2):
        raise AssertionError("gap events failed to be disjoint")
    if not (e1.contains(gp) and e2.contains(gpp)):
        raise AssertionError("gap events failed to contain the support")
    return LastStageConstruction(e1, e2, n1, n2, i021, holds=max(n1, n2) < ctx.threshold)


@lru_cache(maxsize=1)
def _ray_candidates() -> np.ndarray:
    """(green, red) mask rows of the structural candidates that no ordering
    changes: for each ray where the support colourings disagree (in ray
    order), gamma_P on B11 plus that ray and gamma_P' on B7 plus that ray."""
    gp, gpp = phi_m_support()
    b11, b7 = set(_chain_basis(11)), set(_chain_basis(7))
    events = [
        e
        for w in range(N_RAYS)
        if gp.is_green(w) != gpp.is_green(w)
        for e in (HomogeneousEvent.agreeing_with(gp, b11 | {w}),
                  HomogeneousEvent.agreeing_with(gpp, b7 | {w}))
    ]
    return _column([(e.green_mask, e.red_mask) for e in events], np.int64)


@lru_cache(maxsize=1)
def _candidate_chains() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support chains of the `_ray_candidates`, one row per candidate
    per relative stage order of its fixed rays (156 rows): the candidate,
    those rays (n, 4) int8 in stage order, and the norm; built on first use.

    A candidate's rows are the `_support_chains` drawn from its own rays, of
    its own colouring, so each norm depends on the order of those rays
    alone.  A candidate on three rays gets a fourth, N_RAYS, a stage after
    every other."""
    shared = _ray_candidates()
    own_pp = ~EventArray(*shared.T).holds(phi_m_support()[0])  # each candidate's colouring
    rows = []
    for c, (green, red) in enumerate(shared.tolist()):
        rays = [w for w in range(N_RAYS) if (green | red) >> w & 1]
        for pp, at, norm in _support_chains(len(rays), rays):
            own = pp == own_pp[c]
            at = np.pad(at[own], ((0, 0), (0, 4 - len(rays))), constant_values=N_RAYS)
            rows.append((np.full(len(at), c), at, norm[own]))
    cand, at, norm = (np.concatenate(c) for c in zip(*rows))
    return _column(cand, np.intp), _column(at, np.int8), _column(norm, np.float64)


def _threat_pairs(pos, threshold: float) -> tuple[np.ndarray, ...]:
    """The (row, green, red) columns of `structural_threat_pairs` under the
    maximally mixed state, without a detector, at `threshold`, for each row
    of `pos` (n, 33), which maps each ray to its stage: by row, and within
    a row in candidate order.

    A ray candidate is a support chain on its 3-4 fixed rays, so it is zero
    in an ordering exactly when `_held` pairs the ordering with one of its
    `_candidate_chains` rows whose norm falls below the threshold; no chain
    is stepped per call.  The gap pair is kept with no norm taken: the rays
    between the first and last basis stages are free and sum to I, so
    gamma_P's three red B11 projectors (gamma_P''s red B7 ones) become
    adjacent, and the product of the three red projectors of an orthonormal
    basis is exactly 0."""
    gp, gpp = phi_m_support()
    pos = np.asarray(pos).reshape(-1, N_RAYS)
    shared, (cand, at, norm) = _ray_candidates(), _candidate_chains()
    gaps = [_gap_masks(gp, _chain_basis(11), pos), _gap_masks(gpp, _chain_basis(7), pos)]
    masks = np.concatenate([np.broadcast_to(shared, (len(pos), *shared.shape)),
                            np.stack(gaps, axis=1)], axis=1)  # (rows, candidates, colour)
    zero = np.zeros(masks.shape[:2], dtype=bool)
    zero[:, len(shared):] = True  # the gap pair
    null = np.flatnonzero(norm < threshold)
    # each ray's stage, then N_RAYS for a three-ray candidate's fourth
    staged = np.append(pos, np.full((len(pos), 1), N_RAYS), axis=1)
    for row, t in _held(staged, at[null]):
        zero[row, cand[null[t]]] = True
    row, c = np.nonzero(zero)
    return row, masks[row, c, 0], masks[row, c, 1]


def structural_threat_pairs(ctx: Context) -> EventArray:
    """The structural candidates whose norm falls below the context
    threshold, in order: for each ray where the support colourings disagree
    (in ray order), gamma_P on B11 plus that ray and gamma_P' on B7 plus
    that ray; then the B11/B7 gap pair.  Each is tested once on its own, in
    one `Context.norms` call of all ten, for any state and detector: which
    of them pair into a cover is for `coverage_check` alone.  The ordering
    search reads its candidates' zeros from `_threat_pairs` instead."""
    candidates = [*EventArray(*_ray_candidates().T), *_gap_pair(*phi_m_support(), ctx.ordering)]
    norms = ctx.norms(candidates)
    return EventArray.of(e for e, x in zip(candidates, norms) if x < ctx.threshold)


def _scope(max_fixed: int) -> str:
    return f"homogeneous events with <= {max_fixed} fixed rays plus structural constructions"


def context_coverage(ctx: Context, max_fixed: int) -> tuple[CoverageVerdict, ZeroScan]:
    """The scan's zeros and the zero structural candidates, as plain zero
    events, then the coverage decision on them all, made on the only rows
    it reads: the scan's support holders, in record order, then the
    structural zeros, so the verdict and witness are the same."""
    scan, built = scan_zero_events(ctx, max_fixed), structural_threat_pairs(ctx)
    support = phi_m_support()
    held = np.logical_or.reduce([scan.events.holds(c) for c in support])
    events = EventArray(np.concatenate([scan.events.green[held], built.green]),
                        np.concatenate([scan.events.red[held], built.red]))
    return coverage_check(support, events, _scope(max_fixed)), scan


# --- the ordering search ---------------------------------------------------------


@dataclass(frozen=True)
class SearchCandidate:
    label: str
    ordering: Ordering
    threshold: float
    verdict: CoverageVerdict
    support_holders: int  # zero events containing either support colouring

    def context(self) -> Context:
        """Rebuild the examined context, e.g. to re-verify a witness."""
        return Context(self.ordering, maximally_mixed_state(), self.threshold)


@dataclass(frozen=True)
class SearchReport:
    seed: int
    budget: int
    scan_max_fixed: int
    candidates: tuple[SearchCandidate, ...]  # ranked, best (least covered) first


def maximally_mixed_state() -> InitialState:
    """The state whose zero events are exactly the structural ones.

    Its measure of an event is the squared Frobenius norm of the operator
    chain over 3, which vanishes only when the operator product itself
    does; such events are zero for every initial state, so verdicts under
    this state are intrinsic to the ordering.
    """
    return InitialState([(1 / 3, [1, 0, 0]), (1 / 3, [0, 1, 0]), (1 / 3, [0, 0, 1])])


@lru_cache(maxsize=1)
def _separating_template() -> tuple:
    """The rays `_separating_ordering` places, each group in ray order: B11
    less 021, B7, 021, and the rest."""
    i021 = ray_index("021")
    b11 = tuple(i for i in _chain_basis(11) if i != i021)  # 021 sits inside the B7 span
    b7 = _chain_basis(7)
    rest = tuple(i for i in range(N_RAYS) if i not in {*b11, *b7, i021})
    return b11, b7, i021, rest


def _separating_ordering(rng) -> Ordering:
    """Heuristic placement: spread the B11 stages across the whole chain and
    tuck the B7 stages just inside, so the rays where the support colourings
    disagree fall strictly between both basis spans."""
    b11, b7, i021, rest = _separating_template()
    rest = list(rest)
    rng.shuffle(rest)
    middle = rest[:-4]
    mid = len(middle) // 2
    return Ordering((b11[0], b7[0], *middle[:mid], i021, b7[1], *middle[mid:],
                     b7[2], b11[1], *rest[-4:]))


def ordering_search(
    budget: int,
    seed: int = 0,
    scan_max_fixed: int = 2,
    threshold: float = DEFAULT_THRESHOLD,
    strategy: str = "structural",
) -> SearchReport:
    """Heuristic exploration for orderings where no covering family is found.

    The first candidate is always the 021-last probe, which the gap pair
    covers; every third candidate after it is the separating heuristic and
    the rest are random orderings.  Every candidate is examined under the
    maximally mixed state.  Its zeros are exactly the operator zeros, which
    are zeros of every initial state, so an ordering covered there is
    covered for every state; and a random pure state has no other zeros
    with probability 1.  Within homogeneous events and without detectors,
    the state axis therefore decides nothing.  Verdicts never claim
    preclusivity, only that no cover was found within the scan scope.

    A candidate's verdict reads only zero events that hold gamma_P or
    gamma_P', so each candidate is scored, from the stage of every ray in
    its ordering (taken once), by its `_holders` (the scan's support
    holders, in its record order: position tests against one list of null
    support-chain tuples per level) and its structural zeros, which one
    `_threat_pairs` pass gives for every candidate: its ray candidates are
    `_candidate_chains` rows, support chains on their own rays scored by
    the same position test, and its gap pair is null exactly.  Both come
    as flat columns keyed by candidate, and one `_segment_coverage` call
    decides every candidate on its own segment (its holders, then its
    structural zeros), picking the witness `context_coverage` picks at
    every threshold of at least 1e-15; below that, float zero tests are
    rounding.  Candidates rank by (covered, support holders, label).

    `strategy` accepts only "structural", the one search; the keyword stays
    for the benchmark's callers and goes with the next benchmark change.
    """
    if strategy != "structural":
        raise ValueError("strategy must be 'structural'")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    _check_depth(scan_max_fixed)
    if not (math.isfinite(threshold) and threshold > 0):  # as `Context` checks it
        raise ValueError("threshold must be positive and finite")
    rng = np.random.default_rng(seed)
    drawn = []  # (label, ordering): every ordering is drawn before any is scored
    for i in range(budget):
        if i == 0:
            ordering = Ordering.default().with_ray_last(_separating_template()[2])
            label = "probe-021-last"
        elif i % 3 == 0:
            ordering = _separating_ordering(rng)
            label = f"separating-{i}"
        else:
            ordering = Ordering(tuple(rng.permutation(N_RAYS).tolist()))
            label = f"random-ord-{i}"
        drawn.append((label, ordering))
    rays = np.array([ordering.ray_at for _, ordering in drawn], dtype=np.intp).reshape(-1, N_RAYS)
    pos = np.empty(rays.shape, np.int8)  # each row's stage of each ray, taken once
    pos[np.arange(budget)[:, None], rays] = np.arange(N_RAYS)
    held_row, *held = _holders(pos, threshold, scan_max_fixed)
    built_row, *built = _threat_pairs(pos, threshold)
    # each candidate's segment: its holders, then its structural zeros
    row = np.concatenate([held_row, built_row])
    order = np.argsort(row, kind="stable")
    events = EventArray(*(np.concatenate(c)[order] for c in zip(held, built)))
    bounds = np.searchsorted(row[order], np.arange(budget + 1))
    verdicts = _segment_coverage(phi_m_support(), events, bounds, _scope(scan_max_fixed))
    holders = np.bincount(held_row, minlength=budget).tolist()
    candidates = [SearchCandidate(label, ordering, threshold, verdict, n)
                  for (label, ordering), verdict, n in zip(drawn, verdicts, holders)]

    ranked = sorted(candidates, key=lambda c: (c.verdict.covered, c.support_holders, c.label))
    return SearchReport(
        seed=seed,
        budget=budget,
        scan_max_fixed=scan_max_fixed,
        candidates=tuple(ranked),
    )
