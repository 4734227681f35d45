"""Colourings of the Peres set, consistency, and the non-colourability proof.

A colouring assigns green (spin-squared 0) or red (spin-squared 1) to each
of the 33 rays; the sample space has 2^33 elements.  A colouring is stored
as a 33-bit word keyed to the fixed ray order, with bit i = 1 meaning ray i
is green.  A homogeneous event fixes the colours of some rays and leaves
the rest free; the 88 preclusion events (a basis all red, an orthogonal
pair all green) are homogeneous events too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .rays import (
    IDENTITY,
    N_RAYS,
    PERES_RAYS,
    SWAP_XY,
    Basis,
    Symmetry,
    enumerate_bases,
    enumerate_orthogonal_pairs,
    ray_index,
    ray_permutations,
    symmetry_group,
)

FULL_MASK = (1 << N_RAYS) - 1


def _mask(indices) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


@dataclass(frozen=True, order=True)
class Colouring:
    """A total green/red assignment; bit i set means ray i is green."""

    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= FULL_MASK:
            raise ValueError("colouring bits out of range")

    @classmethod
    def from_green_indices(cls, greens) -> "Colouring":
        return cls(_mask(greens))

    @classmethod
    def from_string(cls, s: str) -> "Colouring":
        """Parse a 33-character g/r string in the fixed ray order."""
        s = s.strip()
        if len(s) != N_RAYS or set(s) - {"g", "r"}:
            raise ValueError("expected 33 characters drawn from 'g'/'r'")
        return cls.from_green_indices(i for i, ch in enumerate(s) if ch == "g")

    @classmethod
    def all_red(cls) -> "Colouring":
        return cls(0)

    @classmethod
    def all_green(cls) -> "Colouring":
        return cls(FULL_MASK)

    def is_green(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def green_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(N_RAYS) if self.is_green(i))

    def to_string(self) -> str:
        return "".join("g" if self.is_green(i) else "r" for i in range(N_RAYS))

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True, slots=True)
class HomogeneousEvent:
    """Colourings agreeing with fixed colours on a ray subset, free elsewhere."""

    green_mask: int
    red_mask: int

    def __post_init__(self) -> None:
        if self.green_mask & self.red_mask:
            raise ValueError("a ray cannot be fixed both green and red")
        if (self.green_mask | self.red_mask) >> N_RAYS:
            raise ValueError("fixed mask out of range")

    @classmethod
    def from_fixed(cls, fixed: dict[int, bool]) -> "HomogeneousEvent":
        g = r = 0
        for i, green in fixed.items():
            if green:
                g |= 1 << i
            else:
                r |= 1 << i
        return cls(g, r)

    @classmethod
    def everything(cls) -> "HomogeneousEvent":
        return cls(0, 0)

    @classmethod
    def agreeing_with(cls, c: Colouring, rays) -> "HomogeneousEvent":
        """Fix the listed rays at the colours the given colouring assigns."""
        return cls.from_fixed({i: c.is_green(i) for i in rays})

    @property
    def fixed_mask(self) -> int:
        return self.green_mask | self.red_mask

    @property
    def fixed(self) -> dict[int, bool]:
        """Fixed ray -> colour (True is green), in ascending ray order."""
        out, mask = {}, self.green_mask | self.red_mask
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] = bool(self.green_mask & low)
            mask ^= low
        return out

    @property
    def n_fixed(self) -> int:
        return self.fixed_mask.bit_count()

    def contains(self, c: Colouring) -> bool:
        return (c.bits & self.green_mask) == self.green_mask and (
            ~c.bits & self.red_mask
        ) == self.red_mask

    def is_disjoint_from(self, other: "HomogeneousEvent") -> bool:
        """Syntactic disjointness: some ray fixed green here and red there."""
        return bool(
            self.green_mask & other.red_mask or self.red_mask & other.green_mask
        )

    def with_fixed(self, ray: int, green: bool) -> "HomogeneousEvent | None":
        """Intersect with a single-ray constraint; None if the result is empty."""
        bit = 1 << ray
        if (self.red_mask if green else self.green_mask) & bit:
            return None
        if green:
            return HomogeneousEvent(self.green_mask | bit, self.red_mask)
        return HomogeneousEvent(self.green_mask, self.red_mask | bit)

    def describe(self) -> str:
        parts = [
            f"{PERES_RAYS[i].label}={'g' if green else 'r'}"
            for i, green in sorted(self.fixed.items())
        ]
        return "{" + ", ".join(parts) + "}" if parts else "{all colourings}"


@lru_cache(maxsize=1)
def pks_events() -> tuple[HomogeneousEvent, ...]:
    """The 88 preclusion events: all red on each of the 16 bases, then all
    green on each of the 72 orthogonal pairs."""
    reds = [HomogeneousEvent(0, _mask(b.indices)) for b in enumerate_bases()]
    greens = [HomogeneousEvent(_mask(p.indices), 0) for p in enumerate_orthogonal_pairs()]
    return tuple(reds + greens)


def pks_sets_containing(c: Colouring) -> tuple[HomogeneousEvent, ...]:
    return tuple(e for e in pks_events() if e.contains(c))


def is_consistent(c: Colouring) -> bool:
    """Exactly one green per basis and no orthogonal pair green-green.  That
    is lying in no preclusion event: the rays of a basis are pairwise
    orthogonal, so with no green pair no basis has two greens."""
    return not pks_sets_containing(c)


# --- the eleven-basis contradiction chain -------------------------------------
#
# The published proof works down a fixed list of bases: the seed window is
# B1..B4 and the forced extension visits B5..B10, contradicting at B11.
# The list, the per-row ray order (first ray = the green choice for the
# fiducial seed) and the chain order are fixtures of that proof.

_CHAIN_ROWS = (
    ("001", "100", "010"),
    ("101", "m101", "010"),
    ("011", "0m11", "100"),
    ("1m12", "m112", "110"),
    ("102", "20m1", "010"),
    ("211", "0m11", "2m1m1"),
    ("201", "010", "m102"),
    ("112", "1m10", "m1m12"),
    ("012", "100", "02m1"),
    ("121", "m101", "m12m1"),
    ("100", "021", "0m12"),
)


@lru_cache(maxsize=1)
def basis_chain() -> tuple[Basis, ...]:
    """B1..B11 of the walkthrough, then the remaining five bases (B12..B16)."""
    named = [Basis.of(*row) for row in _CHAIN_ROWS]
    rest = sorted(b for b in enumerate_bases() if b not in set(named))
    return tuple(named + rest)


def basis_name(b: Basis) -> str:
    return f"B{basis_chain().index(b) + 1}"


@lru_cache(maxsize=1)
def seed_window() -> tuple[int, ...]:
    """The 10 ray indices covered by the first four chain bases."""
    return tuple(sorted({i for b in basis_chain()[:4] for i in b.indices}))


def consistent_assignments(rays, include_pairs: bool = True) -> tuple[dict[int, bool], ...]:
    """Brute-force list of the consistent assignments on a ray subset, in
    binary order over the sorted rays.

    Constraints are those wholly inside the subset: exactly one green per
    contained basis, and (optionally) no contained orthogonal pair both
    green.
    """
    rays = tuple(sorted(rays))
    if len(rays) > 20:
        raise ValueError("brute force is limited to 20 rays")
    bit = {r: k for k, r in enumerate(rays)}  # ray -> bit of the assignment word

    def inside(sets) -> list[int]:
        return [_mask(bit[i] for i in x.indices) for x in sets if bit.keys() >= set(x.indices)]

    bases = inside(enumerate_bases())
    pairs = inside(enumerate_orthogonal_pairs()) if include_pairs else []
    return tuple(
        {r: bool(bits >> k & 1) for k, r in enumerate(rays)}
        for bits in range(1 << len(rays))
        if all((bits & b).bit_count() == 1 for b in bases)
        and not any(bits & p == p for p in pairs)
    )


def enumerate_seed_colourings() -> tuple[dict[int, bool], ...]:
    """The 24 assignments on the seed window with exactly one green per
    basis B1..B4 (the only bases inside it), by brute force over all 2^10
    assignments.

    This matches the published count of 24; the lone orthogonal pair that
    crosses between the four bases (001, 110) is not imposed at the seed
    stage, so 4 of the 24 violate it and fail immediately when extended.
    """
    return consistent_assignments(seed_window(), include_pairs=False)


@lru_cache(maxsize=1)
def _seed_restrictions() -> frozenset[tuple[bool, ...]]:
    return frozenset(tuple(s[r] for r in seed_window()) for s in enumerate_seed_colourings())


def fiducial_seed() -> dict[int, bool]:
    """The seed colouring greening the first-listed ray of each of B1..B4."""
    greens = {ray_index(row[0]) for row in _CHAIN_ROWS[:4]}
    return {r: r in greens for r in seed_window()}


# --- propagation, walkthrough, and the exhaustive verifier --------------------

_GREEN, _RED, _UNSET = 1, 0, -1


@lru_cache(maxsize=1)
def _orthogonal_neighbours() -> tuple[tuple[int, ...], ...]:
    neigh = [[] for _ in range(N_RAYS)]
    for p in enumerate_orthogonal_pairs():
        i, j = p.indices
        neigh[i].append(j)
        neigh[j].append(i)
    return tuple(tuple(sorted(n)) for n in neigh)


@dataclass(frozen=True)
class Contradiction:
    kind: str  # "all-red-basis" | "green-green-pair"
    indices: tuple[int, ...]

    @property
    def description(self) -> str:
        labels = ", ".join(PERES_RAYS[i].label for i in self.indices)
        if self.kind == "all-red-basis":
            b = Basis(tuple(sorted(self.indices)))
            return f"all-red basis {basis_name(b)} = {{{labels}}}"
        return f"orthogonal pair both green: {labels}"


@dataclass(frozen=True)
class ForcedStep:
    basis: Basis
    already_red: tuple[int, ...]
    forced_green: int

    @property
    def description(self) -> str:
        reds = ", ".join(PERES_RAYS[i].label for i in self.already_red)
        return (
            f"{basis_name(self.basis)}: {reds} already red, "
            f"so {PERES_RAYS[self.forced_green].label} is forced green"
        )


class _Conflict(Exception):
    def __init__(self, contradiction: Contradiction):
        self.contradiction = contradiction


def _seeded(seed: dict[int, bool]) -> list[int]:
    col = [_UNSET] * N_RAYS
    for r, green in seed.items():
        col[r] = _GREEN if green else _RED
    return col


def _propagate(col: list[int], trace: list[ForcedStep] | None, order) -> None:
    """Forcing loop: a green ray reddens all orthogonal rays; a basis of
    `order` with two reds forces the third ray green.  Raises _Conflict when
    a basis goes all red or a green-green orthogonal pair appears.  With no
    bases this is the closure of the orthogonality rule alone."""
    neigh = _orthogonal_neighbours()
    while True:
        changed = False
        for i in range(N_RAYS):
            if col[i] == _GREEN:
                for j in neigh[i]:
                    if col[j] == _GREEN:
                        raise _Conflict(Contradiction("green-green-pair", (i, j)))
                    if col[j] == _UNSET:
                        col[j] = _RED
                        changed = True
        for b in order:
            vals = [col[i] for i in b.indices]
            if vals.count(_RED) == 3:
                raise _Conflict(Contradiction("all-red-basis", b.indices))
            if vals.count(_RED) == 2 and vals.count(_UNSET) == 1:
                forced = b.indices[vals.index(_UNSET)]
                reds = tuple(i for i in b.indices if i != forced)
                col[forced] = _GREEN
                if trace is not None:
                    trace.append(ForcedStep(b, reds, forced))
                changed = True
                break  # restart so green propagation runs before the next basis
        if not changed:
            return


def _branch(col: list[int], order) -> tuple[int, int, list[Contradiction]]:
    """Depth-first search over the completions of a partial colouring.

    Each node propagates, then splits the first unset ray, green before
    red.  Returns the number of consistent completions, the number of nodes
    visited and the contradictions that closed branches, in visit order.
    """
    consistent = nodes = 0
    found: list[Contradiction] = []
    stack = [list(col)]
    while stack:
        work = stack.pop()
        nodes += 1
        try:
            _propagate(work, None, order)
        except _Conflict as c:
            found.append(c.contradiction)
            continue
        if _UNSET not in work:
            consistent += 1
            continue
        i = work.index(_UNSET)
        for v in (_RED, _GREEN):  # pushed in reverse, so green is visited first
            child = list(work)
            child[i] = v
            stack.append(child)
    return consistent, nodes, found


@dataclass(frozen=True)
class ForcedExtensionTrace:
    seed_greens: tuple[int, ...]
    steps: tuple[ForcedStep, ...]
    contradiction: Contradiction
    forced_only: bool  # True when unit propagation alone closed the seed
    branch_nodes: int

    @property
    def contradiction_basis(self) -> Basis | None:
        if self.contradiction.kind == "all-red-basis":
            return Basis(tuple(sorted(self.contradiction.indices)))
        return None


@lru_cache(maxsize=1)
def _transport_table() -> dict[tuple[bool, ...], tuple[Basis, ...]]:
    """Window restriction of each symmetry image of the Peres colouring -> the
    proof chain moved with it; of symmetries sharing a restriction, the
    identity, then the earliest in the fixed group enumeration, wins.  Only
    14 seeds arise this way (the window is not symmetry-invariant)."""
    table: dict[tuple[bool, ...], tuple[Basis, ...]] = {}
    for g in [IDENTITY] + [g for g in symmetry_group() if not g.is_identity]:
        moved, perm = act_on_colouring(g, gamma_p()), ray_permutations()[g]
        table.setdefault(
            tuple(moved.is_green(r) for r in seed_window()),
            tuple(Basis(tuple(sorted(perm[i] for i in b.indices))) for b in basis_chain()[4:11]),
        )
    return table


def peres_walkthrough(seed: dict[int, bool]) -> ForcedExtensionTrace:
    """Extend a seed assignment on B1..B4 by forcing, to its contradiction.

    The forcing rules mirror the published hand proof: every ray orthogonal
    to a green ray goes red, and working down the proof table each basis in
    turn has two rays already red, forcing the third green, until the final
    basis comes up all red.  One forcing loop runs over the bases of the
    transported table when the seed is related to the fiducial one by a cube
    symmetry (so the mirrored seed contradicts at the mirrored basis), and
    then, afresh, over all bases; if both stall, branching finishes the
    proof.  Either way a contradiction is always reached, since no seed
    extends to a consistent colouring.
    """
    if set(seed) != set(seed_window()):
        raise ValueError("seed must colour exactly the ten window rays")
    restriction = tuple(seed[r] for r in seed_window())
    if restriction not in _seed_restrictions():
        raise ValueError("seed is not consistent on the four seed bases")

    seed_greens = tuple(sorted(r for r, g in seed.items() if g))
    fiducial = seed == fiducial_seed()  # gamma_p() walks this seed to fill the table
    transported = basis_chain()[4:11] if fiducial else _transport_table().get(restriction)
    for order in filter(None, (transported, basis_chain())):
        col = _seeded(seed)
        steps: list[ForcedStep] = []
        try:
            _propagate(col, steps, order)
        except _Conflict as c:
            return ForcedExtensionTrace(
                seed_greens=seed_greens,
                steps=tuple(steps),
                contradiction=c.contradiction,
                forced_only=True,
                branch_nodes=0,
            )

    # Forcing stalled: prove no consistent completion exists by branching.
    consistent, nodes, found = _branch(col, basis_chain())
    if consistent:
        raise AssertionError("seed admitted a consistent completion")
    return ForcedExtensionTrace(
        seed_greens=seed_greens,
        steps=tuple(steps),
        contradiction=found[0],
        forced_only=False,
        branch_nodes=nodes,
    )


@dataclass(frozen=True)
class NonColourabilityCertificate:
    consistent_count: int
    nodes: int
    contradiction_counts: tuple[tuple[str, int], ...]

    @property
    def unsat(self) -> bool:
        return self.consistent_count == 0


def verify_ks_theorem() -> NonColourabilityCertificate:
    """Exhaustive backtracking with forcing over all 33 rays.

    Counts consistent total colourings (the theorem says zero) and records
    every contradiction site closed along the way.
    """
    consistent, nodes, found = _branch([_UNSET] * N_RAYS, basis_chain())
    sites = Counter(c.description for c in found)
    return NonColourabilityCertificate(
        consistent_count=consistent,
        nodes=nodes,
        contradiction_counts=tuple(sorted(sites.items())),
    )


# --- the Peres colouring and the symmetry action ------------------------------


@lru_cache(maxsize=1)
def gamma_p() -> Colouring:
    """The Peres colouring: the fiducial seed plus its forced greens, red
    elsewhere.  Consistent everywhere except the all-red basis B11."""
    trace = peres_walkthrough(fiducial_seed())
    if not trace.forced_only:
        raise AssertionError("fiducial walkthrough should be fully forced")
    greens = set(trace.seed_greens) | {s.forced_green for s in trace.steps}
    return Colouring.from_green_indices(greens)


def act_on_colouring(g: Symmetry, c: Colouring) -> Colouring:
    """Transport a colouring: the image colours g(u) as c colours u.

    With this convention containment transports cleanly: c lies in an
    all-green event on P exactly when g.c lies in the all-green event on
    g(P), and likewise for all-red events.
    """
    perm = ray_permutations()[g]  # perm[i] = index of g(u_i)
    return Colouring(_mask(perm[i] for i in c.green_indices()))


@lru_cache(maxsize=1)
def gamma_p_prime() -> Colouring:
    """The x<->y mirror of the Peres colouring (red on all of B7)."""
    return act_on_colouring(SWAP_XY, gamma_p())


def act_on_event(g: Symmetry, e: HomogeneousEvent) -> HomogeneousEvent:
    """Transport an event the way `act_on_colouring` transports colourings."""
    perm = ray_permutations()[g]
    return HomogeneousEvent.from_fixed({perm[i]: green for i, green in e.fixed.items()})
