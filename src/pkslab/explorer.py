"""Systematic search for measure-zero events and coverage of the co-event
support {gamma_P, gamma_P'}.

A "covered" verdict always carries an explicit, numerically verified
witness: a zero event containing both support colourings, or a disjoint
pair of zero events containing one each (for a two-element support no
larger family is ever needed).  A "not covered" verdict is always
qualified by the scan scope, since only homogeneous events with a bounded
number of fixed rays and a few structural constructions are examined.
The constructions enter as plain zero events, so `coverage_check` is the
one place where events are paired.  Whether some ordering and state make
the co-event preclusive outright is an open question this module collects
evidence on, not a theorem it can decide.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .colourings import (
    Colouring,
    basis_chain,
    gamma_p,
    gamma_p_prime,
    pks_events,
)
from . import spin
from .measure import Context, HomogeneousEvent, InitialState, Ordering
from .rays import N_RAYS, PERES_RAYS, are_orthogonal, enumerate_bases, ray_index

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
def _ray_tables() -> tuple[np.ndarray, np.ndarray]:
    """Exact orthogonality of every ray pair (33x33) and whether every ray
    triple (33x33x33) is a basis, both symmetric under permuting the axes."""
    orth = np.array(
        [[are_orthogonal(a, b) for b in PERES_RAYS] for a in PERES_RAYS], dtype=bool
    )
    basis = np.zeros((N_RAYS,) * 3, dtype=bool)
    for b in enumerate_bases():
        for triple in itertools.permutations(b.indices):
            basis[triple] = True
    return orth, basis


class _Chains:
    """Projector chains of one context, stepped in the real Cartesian picture.

    A chain state is an array (rows, sectors, slots, 3): the initial state as
    real slots sqrt(w) Re and sqrt(w) Im of T^dagger psi per term (T =
    `spin.CART_TO_Z`, zero parts dropped), an operator product as the three
    identity columns.  A ray's green projector is u u^T and its red one
    I - u u^T, so a step is v -> u (u.v) or v - u (u.v).  A detector at stage
    d splits the slots into a red and a green sector when an extension jumps
    over d; an event fixing the detected ray never splits."""

    def __init__(self, ctx):
        self.ray_at = np.array(ctx.ordering.ray_at)
        self.u = spin.ray_directions()[self.ray_at]  # by position
        self.cut = None if ctx.detector is None else ctx.detector - 1
        terms = np.array([np.sqrt(w) * psi @ spin.CART_TO_Z.conj() for w, psi in ctx.state.terms])
        slots = np.concatenate([terms.real, terms.imag])
        self.state, self.op = (
            np.stack([x, 0 * x][: 1 if self.cut is None else 2])[None]
            for x in (slots[slots.any(axis=1)], np.eye(3))
        )

    def _split(self, v: np.ndarray, last: np.ndarray, upto) -> np.ndarray:
        """Split into the two sectors the slots of the chains that end before
        the detector (at `last`) and are extended past it (to `upto`)."""
        rows = self.cut is not None and (last < self.cut) & (upto > self.cut)
        if not np.any(rows):
            return v
        v, d = v.copy(), self.u[self.cut]
        v[rows, 1] = (v[rows, 0] @ d)[..., None] * d
        v[rows, 0] -= v[rows, 1]
        return v

    def branch(self, v, last, p) -> np.ndarray:
        """The red children followed by the green children of chain states
        `v`, ending at positions `last`, extended by the projectors at
        positions `p`: each row is projected once, along = u (u.v), and
        its children are v - along (red) and along (green)."""
        v = self._split(v, last, p)
        u = self.u[p][:, None, None, :]
        out = np.empty((2, *v.shape))
        dot = np.einsum("nsij,nsij->nsi", v, np.broadcast_to(u, v.shape))
        np.multiply(dot[..., None], u, out=out[1])
        np.subtract(v, out[1], out=out[0])
        return out.reshape(-1, *v.shape[1:])

    def op_norms(self, op, last) -> np.ndarray:
        """The largest sector Frobenius norm of operator products: below the
        threshold only if every sector vanishes.  A chain ending before the
        detector splits after its last stage."""
        op = self._split(op, last, N_RAYS)
        return np.sqrt(np.einsum("nsij,nsij->ns", op, op).max(axis=1))


def _classify(chains: _Chains, pos, greens, collapse) -> np.ndarray:
    """Why is each of these events' state zero?  Codes index `_PROVENANCES`.

    `pos` and boolean `greens` have shape (n, k) in chain order (ascending
    position); boolean `collapse` marks operator norms below the threshold.
    Exact preclusion patterns rank first; then a green-green orthogonal
    pair at consecutive stages; then a projector chain whose product
    vanishes once the free stages are summed out (for a detected context,
    every sector must vanish); the rest are zeros of this particular
    initial state.  A detector never sits between consecutive stages and
    its red sector adds no green pair, so the adjacency test on the event's
    own chain decides every sector of a detected context.
    """
    orth, basis = _ray_tables()
    rays = chains.ray_at[pos]
    n, k = rays.shape
    if k == 3:
        pks = basis[rays[:, 0], rays[:, 1], rays[:, 2]] & ~greens.any(axis=1)
    elif k == 2:
        pks = orth[rays[:, 0], rays[:, 1]] & greens.all(axis=1)
    else:
        pks = np.zeros(n, dtype=bool)
    consecutive = (pos[:, 1:] == pos[:, :-1] + 1) & greens[:, 1:] & greens[:, :-1]
    adjacent = (consecutive & orth[rays[:, :-1], rays[:, 1:]]).any(axis=1)
    # int8 codes: a scan keeps one per zero row until its records are built
    return np.select([pks, adjacent, collapse], [0, 1, 2], default=3).astype(np.int8)


def classify_zero_event(ctx, event: HomogeneousEvent) -> Provenance:
    """Why is this event's state zero?  One event through the scan's
    classifier (see `_classify` for the precedence)."""
    chains = _Chains(ctx)
    pos = np.sort(ctx.ordering.positions()[list(event.fixed)]).reshape(1, -1)
    greens = (event.green_mask >> chains.ray_at[pos] & 1).astype(bool)
    op, last = chains.op, np.full(1, -1)
    for p, green in zip(pos.T, greens.T):
        op, last = chains.branch(op, last, p)[green.astype(np.intp)], p  # one row: 0 red, 1 green
    return _PROVENANCES[_classify(chains, pos, greens, chains.op_norms(op, last) < ctx.threshold)[0]]


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
        yield par, last[par] + 1 + np.arange(par.size) - (start[par] - start[lo])
        lo = hi


def _zero_rows(ctx, max_fixed: int) -> tuple:
    """Record order (by number of fixed rays, green mask, red mask), green
    masks, red masks, norms and provenance codes of every zero event with
    1..max_fixed fixed rays, and the smallest rejected norm.

    The events with k fixed rays are the children of level k-1: a parent row
    extended by one later position in either colour, both colours from one
    projection of the parent's stored state.  A level keeps int8 chain
    positions, colour masks, states and operator products; the last level
    builds positions and masks only for its zero rows.  Operator products
    are stepped once per pair: below the last level for every pair, since
    the level keeps them, and at the last level for the pairs with a zero
    child."""
    chains = _Chains(ctx)
    pos, green, red = np.zeros((1, 0), dtype=np.int8), np.zeros(1, np.int64), np.zeros(1, np.int64)
    state, op = chains.state, chains.op
    zeros, min_rejected = [], math.inf  # per block: n_fixed, green, red, norm, code of zero rows
    for k in range(1, max_fixed + 1):
        last = pos[:, -1].astype(int) if k > 1 else np.full(1, -1)
        level = []
        for par, p in _children(last):
            n = par.size
            child = chains.branch(state[par], last[par], p)
            norm = np.sqrt(np.einsum("nsij,nsij->n", child, child))
            if not np.isfinite(norm).all():
                raise ValueError("non-finite norm in the scan: no verdict can rest on it")
            zm = norm < ctx.threshold
            min_rejected = min(min_rejected, norm[~zm].min(initial=math.inf))
            z = np.flatnonzero(zm)
            # the children whose positions and masks are built, and the zero rows among them
            rows, zr = (z, slice(None)) if k == max_fixed else (np.arange(2 * n), z)
            pair, g = rows % n, rows >= n
            c_par, c_p = par[pair], p[pair]
            bit = np.int64(1) << chains.ray_at[c_p]
            c_pos = np.column_stack([pos[c_par], c_p]).astype(np.int8)
            c_green, c_red = green[c_par] | np.where(g, bit, 0), red[c_par] | np.where(g, 0, bit)
            pairs = np.arange(n) if k < max_fixed else np.flatnonzero(zm[:n] | zm[n:])
            c_op = chains.branch(op[par[pairs]], last[par[pairs]], p[pairs])
            op_norm = chains.op_norms(c_op, np.tile(p[pairs], 2))[
                np.searchsorted(pairs, z % n) + pairs.size * (z >= n)
            ]
            if k < max_fixed:
                level.append((c_pos, c_green, c_red, child, c_op))
            del c_op  # a last-level block's products go before the next block is built
            greens = (c_green[zr, None] >> chains.ray_at[c_pos[zr]] & 1).astype(bool)
            code = _classify(chains, c_pos[zr], greens, op_norm < ctx.threshold)
            zeros.append((np.full(z.size, k, np.int8), c_green[zr], c_red[zr], norm[z], code))
        if level:
            pos, green, red, state, op = (np.concatenate(c) for c in zip(*level))
    del pos, green, red, state, op  # the stored level, before the zero rows are joined
    n_fixed, green, red, norm, code = (np.concatenate(c) for c in zip(*zeros))
    return np.lexsort((red, green, n_fixed)), green, red, norm, code, float(min_rejected)


def scan_zero_events(ctx, max_fixed: int) -> ZeroScan:
    """All homogeneous events with at most `max_fixed` fixed rays whose norm
    falls below the context threshold, in a deterministic order, as a lazy
    sequence of records.  A context with a detector is scanned on its
    detected functional.  Raises `ValueError` if any scanned norm is
    non-finite: no verdict rests on it."""
    if not 1 <= max_fixed <= MAX_SCAN_FIXED:
        raise ValueError(f"scan budget exceeded: max_fixed must be in 1..{MAX_SCAN_FIXED}")
    order, *columns, min_rejected = _zero_rows(ctx, max_fixed)
    for i in range(len(columns)):  # one unsorted column at a time stays alive
        columns[i] = columns[i][order]
    return ZeroScan(*columns, min_rejected)


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
    meets, as in a nested loop over both holder lists.
    """
    if len(support) > 2:
        raise ValueError("coverage search implemented for supports of size <= 2")
    events = EventArray.of(zero_events)
    held = [events.holds(c) for c in support]
    both = np.flatnonzero(np.logical_and.reduce(held))
    if both.size:
        return CoverageVerdict("covered", (events[both[0]],), scope)
    if len(support) == 2:
        disagree = support[0].bits ^ support[1].bits
        fixed = (events.green | events.red) & disagree
        rows0, rows1 = np.flatnonzero(held[0]), np.flatnonzero(held[1])
        meets = np.flatnonzero(fixed[rows0] & np.bitwise_or.reduce(fixed[rows1]))
        if meets.size:
            i = rows0[meets[0]]
            j = rows1[np.flatnonzero(fixed[rows1] & fixed[i])[0]]
            return CoverageVerdict("covered", (events[i], events[j]), scope)
    return CoverageVerdict("not-covered-within-scope", None, scope)


def pks_only_coverage(support: tuple[Colouring, ...]) -> CoverageVerdict:
    """Coverage of a support against the bare preclusion family.  Never
    covered for {gamma_P, gamma_P'}, which is exactly why that support was
    chosen: its co-event is preclusive on every preclusion event and every
    disjoint union of them."""
    return coverage_check(support, pks_events(), scope="preclusion family only")


# --- structural constructions ---------------------------------------------------


def basis_gap_event(
    c: Colouring, basis_indices: tuple[int, int, int], ordering: Ordering
) -> HomogeneousEvent:
    """Fix a colouring everywhere except strictly between the basis stages.

    Freeing the rays between the first and last basis positions makes the
    three basis projectors adjacent once the free stages are summed out;
    if the colouring is red on the whole basis the product vanishes, so
    the event has measure zero while still containing the colouring.
    """
    ps = ordering.positions()[list(basis_indices)]
    lo, hi = int(ps.min()), int(ps.max())
    fixed = {}
    for p, r in enumerate(ordering.ray_at):
        if lo < p < hi and r not in basis_indices:
            continue
        fixed[r] = c.is_green(r)
    return HomogeneousEvent.from_fixed(fixed)


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


def last_ray_021_construction(ctx: Context) -> LastStageConstruction:
    """The two-event preclusivity breaker for orderings ending at ray 021.

    E1 frees the stages between the B11 rays around gamma_P; E2 does the
    same for B7 around gamma_P'.  Both are measure zero, they disagree on
    the final stage's colour (gamma_P reds 021, gamma_P' greens it), and
    together they contain the whole support, so the support co-event
    cannot be preclusive in such a context.
    """
    i021 = ray_index("021")
    if ctx.ordering.ray_at[-1] != i021:
        raise ValueError("construction requires ray 021 at position 33")
    gp, gpp = phi_m_support()
    e1, e2 = _gap_pair(gp, gpp, ctx.ordering)
    n1, n2 = ctx.norm(e1), ctx.norm(e2)
    if n1 >= ctx.threshold or n2 >= ctx.threshold:
        raise AssertionError("gap events failed to be measure zero")
    if not e1.is_disjoint_from(e2):
        raise AssertionError("gap events failed to be disjoint")
    if not (e1.contains(gp) and e2.contains(gpp)):
        raise AssertionError("gap events failed to contain the support")
    return LastStageConstruction(e1, e2, n1, n2, separating_ray=i021)


def structural_threat_pairs(ctx: Context) -> EventArray:
    """The structural candidates whose norm falls below the context
    threshold, in order: for each ray where the support colourings disagree
    (in ray order), gamma_P on B11 plus that ray and gamma_P' on B7 plus
    that ray; then the B11/B7 gap pair.  Each is tested once on its own:
    which of them pair into a cover is for `coverage_check` alone."""
    gp, gpp = phi_m_support()
    b11, b7 = set(_chain_basis(11)), set(_chain_basis(7))
    candidates = [
        e
        for w in range(N_RAYS)
        if gp.is_green(w) != gpp.is_green(w)
        for e in (HomogeneousEvent.agreeing_with(gp, b11 | {w}),
                  HomogeneousEvent.agreeing_with(gpp, b7 | {w}))
    ]
    candidates += _gap_pair(gp, gpp, ctx.ordering)
    return EventArray.of([e for e in candidates if ctx.is_zero(e)])


def context_coverage(ctx: Context, max_fixed: int) -> tuple[CoverageVerdict, ZeroScan]:
    """The scan's zeros and the zero structural candidates, as plain zero
    events, then the coverage decision on them all."""
    scan = scan_zero_events(ctx, max_fixed)
    built = structural_threat_pairs(ctx)
    events = EventArray(
        np.concatenate([scan.events.green, built.green]),
        np.concatenate([scan.events.red, built.red]),
    )
    scope = f"homogeneous events with <= {max_fixed} fixed rays plus structural constructions"
    return coverage_check(phi_m_support(), events, scope), scan


# --- the ordering search ---------------------------------------------------------


@dataclass(frozen=True)
class SearchCandidate:
    label: str
    ordering: Ordering
    threshold: float
    verdict: CoverageVerdict
    zero_count: int
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


def _separating_ordering(rng) -> Ordering:
    """Heuristic placement: spread the B11 stages across the whole chain and
    tuck the B7 stages just inside, so the rays where the support colourings
    disagree fall strictly between both basis spans."""
    b11 = list(_chain_basis(11))
    b7 = list(_chain_basis(7))
    i021 = ray_index("021")
    b11.remove(i021)  # 021 must sit inside the B7 span, not at an end
    rest = [i for i in range(N_RAYS) if i not in set(b11) | set(b7) | {i021}]
    rng.shuffle(rest)
    middle = rest[:-4]
    mid = len(middle) // 2
    chain = (
        [b11[0], b7[0]]
        + middle[:mid]
        + [i021, b7[1]]
        + middle[mid:]
        + [b7[2], b11[1]]
        + rest[-4:]
    )
    assert sorted(chain) == list(range(N_RAYS))
    return Ordering(tuple(chain))


def ordering_search(
    budget: int,
    seed: int = 0,
    scan_max_fixed: int = 2,
    threshold: float = 1e-10,
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

    `strategy` accepts only "structural", the one search; the keyword stays
    for the benchmark's callers and goes with the next benchmark change.
    """
    if strategy != "structural":
        raise ValueError("strategy must be 'structural'")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    rng = np.random.default_rng(seed)
    candidates: list[SearchCandidate] = []
    gp, gpp = phi_m_support()
    for i in range(budget):
        if i == 0:
            ordering = Ordering.default().with_ray_last(ray_index("021"))
            label = "probe-021-last"
        elif i % 3 == 0:
            ordering = _separating_ordering(rng)
            label = f"separating-{i}"
        else:
            ordering = Ordering(tuple(int(x) for x in rng.permutation(N_RAYS)))
            label = f"random-ord-{i}"
        ctx = Context(ordering, maximally_mixed_state(), threshold)
        verdict, scan = context_coverage(ctx, scan_max_fixed)
        holders = int(np.count_nonzero(scan.events.holds(gp) | scan.events.holds(gpp)))
        candidates.append(SearchCandidate(label, ordering, threshold, verdict, len(scan), holders))

    ranked = sorted(
        candidates,
        key=lambda c: (c.verdict.covered, c.support_holders, c.zero_count, c.label),
    )
    return SearchReport(
        seed=seed,
        budget=budget,
        scan_max_fixed=scan_max_fixed,
        candidates=tuple(ranked),
    )
