"""Zero-event scans, coverage verdicts, and the ordering search."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import zbasis
from conftest import random_mixed_state, random_ordering, random_pure_state
from pkslab.colourings import gamma_p, gamma_p_prime, pks_events
from pkslab import explorer
from pkslab.explorer import (
    EventArray,
    Provenance,
    ZeroEventRecord,
    ZeroScan,
    basis_gap_event,
    context_coverage,
    coverage_check,
    last_ray_021_construction,
    maximally_mixed_state,
    ordering_search,
    phi_m_support,
    pks_only_coverage,
    provenance_counts,
    scan_zero_events,
    structural_threat_pairs,
)
from pkslab.coevents import phi_m
from pkslab.measure import (
    DEFAULT_THRESHOLD,
    Context,
    HomogeneousEvent,
    InitialState,
    Ordering,
    random_homogeneous_event,
)
from pkslab.rays import (
    N_RAYS,
    PERES_RAYS,
    are_orthogonal,
    enumerate_bases,
    ray_index,
    ray_permutations,
    symmetry_group,
)
from zbasis import ray_projector

# Frozen scan fixtures for the default context (listing order, middle
# z-basis state, threshold 1e-10), from the independent brute-force scan.
DEFAULT_ZEROS_MAX2 = 505
DEFAULT_ZEROS_MAX3 = 13507


# --- the per-event classifier, kept as the batch classifier's reference --------


def reference_sector_chains(ctx, event):
    """The (position, ray, green) chains whose states sum to the event's
    measure: the event's own chain in a plain context; in a detected one, the
    event with the detected ray fixed in each colour it allows."""
    if ctx.detector is not None:
        plain = Context(ctx.ordering, ctx.state, ctx.threshold)
        cuts = (event.with_fixed(ctx.detected_ray, green) for green in (False, True))
        return [reference_sector_chains(plain, cut)[0] for cut in cuts if cut is not None]
    pos = ctx.ordering.position_of
    return [sorted((pos(i), i, g) for i, g in event.fixed.items())]


def has_adjacent_green_pair(chain) -> bool:
    return any(
        p2 == p1 + 1 and g1 and g2 and are_orthogonal(PERES_RAYS[i1], PERES_RAYS[i2])
        for (p1, i1, g1), (p2, i2, g2) in zip(chain, chain[1:])
    )


def reference_classify(ctx, event) -> Provenance:
    fixed = event.fixed
    rays = tuple(sorted(fixed))
    bases = {b.indices for b in enumerate_bases()}
    if len(rays) == 3 and rays in bases and not any(fixed.values()):
        return Provenance.PKS
    if len(rays) == 2 and all(fixed.values()) and are_orthogonal(*(PERES_RAYS[i] for i in rays)):
        return Provenance.PKS
    chains = reference_sector_chains(ctx, event)
    if all(has_adjacent_green_pair(chain) for chain in chains):
        return Provenance.ACCIDENTAL_ADJACENT

    def operator_vanishes(chain) -> bool:
        op = np.eye(3, dtype=complex)
        for _, i, g in chain:
            op = ray_projector(i, g) @ op
        return bool(np.linalg.norm(op) < ctx.threshold)

    if all(operator_vanishes(chain) for chain in chains):
        return Provenance.COARSE_GRAIN_COLLAPSE
    return Provenance.SCAN


def test_orthogonality_table_is_the_exact_relation():
    """The classifier's 33x33 table, filled from the enumerated pairs, is
    the exact Z[sqrt2] orthogonality matrix."""
    orth = explorer._ray_tables()[0]
    exact = np.array([[are_orthogonal(a, b) for b in PERES_RAYS] for a in PERES_RAYS])
    assert orth.dtype == bool and np.array_equal(orth, exact)
    assert np.array_equal(orth, orth.T) and not orth.diagonal().any()
    assert np.count_nonzero(orth) == 144


def test_scan_counts_default_context(default_ctx):
    records = scan_zero_events(default_ctx, 2)
    assert len(records) == DEFAULT_ZEROS_MAX2
    by_size = {}
    for rec in records:
        by_size[rec.event.n_fixed] = by_size.get(rec.event.n_fixed, 0) + 1
    assert by_size == {1: 9, 2: 496}


@pytest.mark.slow
def test_scan_counts_default_context_depth3(default_ctx):
    records = scan_zero_events(default_ctx, 3)
    assert len(records) == DEFAULT_ZEROS_MAX3


def test_single_ray_zeros_are_the_state_dependent_ones(default_ctx):
    records = [r for r in scan_zero_events(default_ctx, 1)]
    assert len(records) == 9
    greens = {
        next(iter(r.event.fixed)) for r in records if r.event.green_mask
    }
    # the eight rays orthogonal to z are green-zeros; red on 001 is the ninth
    assert len(greens) == 8
    assert all(rec.provenance is Provenance.SCAN for rec in records)


def test_every_pks_event_appears_in_scans(default_ctx):
    records = scan_zero_events(default_ctx, 3)
    n_pks = sum(1 for r in records if r.provenance is Provenance.PKS)
    assert n_pks == 88


def test_scan_budget_guard(default_ctx):
    with pytest.raises(ValueError):
        scan_zero_events(default_ctx, 9)
    with pytest.raises(ValueError):
        scan_zero_events(default_ctx, 0)


def _fixed_counts(scan) -> np.ndarray:
    """The number of fixed rays of each scan record."""
    fixed = (scan.events.green | scan.events.red).astype("<i8").view(np.uint8)
    return np.unpackbits(fixed.reshape(-1, 8), axis=1).sum(axis=1)


def test_classification_examples(default_ctx):
    """Three zeros, looked up in the depth-4 scan of the default context."""
    scan = scan_zero_events(default_ctx, 4)

    def provenance(event) -> Provenance:
        row = np.flatnonzero(
            (scan.events.green == event.green_mask) & (scan.events.red == event.red_mask)
        )
        assert row.size == 1, event.describe()
        return scan[int(row[0])].provenance

    adjacent = HomogeneousEvent.from_fixed(
        {ray_index("001"): True, ray_index("010"): True, ray_index("112"): False}
    )
    assert provenance(adjacent) is Provenance.ACCIDENTAL_ADJACENT
    # basis all red plus one faraway fixed ray: zero by summing out the middle
    collapse = HomogeneousEvent.from_fixed(
        {
            ray_index("100"): False,
            ray_index("021"): False,
            ray_index("0m12"): False,
            ray_index("2m1m1"): True,
        }
    )
    assert provenance(collapse) is Provenance.COARSE_GRAIN_COLLAPSE
    state_zero = HomogeneousEvent.from_fixed({ray_index("001"): False})
    assert provenance(state_zero) is Provenance.SCAN


@pytest.mark.parametrize(
    "detector, expected",
    [
        (None, {"scan": 10025, "pks": 88, "coarse-grain-collapse": 2653, "accidental-adjacent": 741}),
        ("021", {"scan": 7959, "pks": 64, "coarse-grain-collapse": 1915, "accidental-adjacent": 741}),
    ],
)
def test_depth3_provenance_split(default_ctx, detector, expected):
    stage = None if detector is None else default_ctx.ordering.position_of(ray_index(detector)) + 1
    ctx = Context(detector=stage)
    assert provenance_counts(scan_zero_events(ctx, 3)) == expected


@pytest.mark.slow
def test_depth4_provenance_split(default_ctx):
    """The depth-4 scan of the default context, pinned to the bit: its
    green, red, norm and code columns by sha256, and its margin."""
    records = scan_zero_events(default_ctx, 4)
    assert len(records) == 241801
    assert provenance_counts(records) == {
        "scan": 158249, "pks": 88, "coarse-grain-collapse": 60644, "accidental-adjacent": 22820,
    }
    digest = hashlib.sha256()
    for column in (records.events.green, records.events.red, records.norm, records.code):
        digest.update(column.tobytes())
    assert digest.hexdigest() == "0f26a76ea2bb7ad8a5375c662cc40f7cf1636a8d48840552bc8f3b6c9afd8830"
    assert records.min_rejected == 0.0011104345603980478


def _classification_contexts():
    rng = np.random.default_rng(20240901)
    base = Context()
    return {
        "plain": base,
        "detected-021": Context(detector=base.ordering.position_of(ray_index("021")) + 1),
        "random-mixed": Context(random_ordering(rng), random_mixed_state(rng)),
        "random-mixed-detected": Context(random_ordering(rng), random_mixed_state(rng), detector=20),
    }


@pytest.mark.parametrize("name", list(_classification_contexts()))
def test_scan_provenance_matches_single_event_and_reference(name):
    """Every depth-2 zero's provenance is the single-event reference's."""
    ctx = _classification_contexts()[name]
    records = scan_zero_events(ctx, 2)
    assert records
    for rec in records:
        assert reference_classify(ctx, rec.event) is rec.provenance, rec.describe()


def test_classify_random_events_matches_reference(rng):
    """A seeded sample of depth-4 zeros in each context, up to 25 from every
    (fixed-ray count, provenance) group that occurs, through the
    single-event reference."""
    sizes, provenances = set(), set()
    for ctx in _classification_contexts().values():
        scan = scan_zero_events(ctx, 4)
        group = _fixed_counts(scan) * len(Provenance) + scan.code
        for g in np.unique(group):
            rows = np.flatnonzero(group == g)
            for row in rng.choice(rows, size=min(25, rows.size), replace=False):
                rec = scan[int(row)]
                assert reference_classify(ctx, rec.event) is rec.provenance, rec.describe()
                sizes.add(rec.event.n_fixed)
                provenances.add(rec.provenance)
    assert sizes == {1, 2, 3, 4} and provenances == set(Provenance)


def test_detector_keeps_the_adjacency_test(rng):
    """Every sector chain of a detected context has a consecutive green
    orthogonal pair exactly when the event's own chain has one: a detector
    stage never sits between consecutive positions, and its red sector adds
    no green pair.  Checked for every detector stage on every event with at
    most two fixed rays, plus random larger events."""
    base = Context()
    events = [
        HomogeneousEvent.from_fixed(dict(zip(rays, colours)))
        for k in (1, 2)
        for rays in itertools.combinations(range(N_RAYS), k)
        for colours in itertools.product((False, True), repeat=k)
    ] + [random_homogeneous_event(rng, max_fixed=6) for _ in range(200)]
    own = [has_adjacent_green_pair(reference_sector_chains(base, e)[0]) for e in events]
    assert any(own) and not all(own)
    for position in range(1, N_RAYS + 1):
        det = Context(detector=position)
        for e, has_pair in zip(events, own):
            sectors = reference_sector_chains(det, e)
            assert all(has_adjacent_green_pair(c) for c in sectors) == has_pair


def test_coverage_default_context_found(default_ctx):
    verdict, records = context_coverage(default_ctx, 2)
    assert verdict.covered
    gp, gpp = phi_m_support()
    witness = verdict.witness
    assert len(witness) in (1, 2)
    if len(witness) == 2:
        assert witness[0].is_disjoint_from(witness[1])
        assert witness[0].contains(gp) or witness[1].contains(gp)
    for e in witness:
        assert default_ctx.norm(e) < default_ctx.threshold
    # a covered support means the co-event fails preclusivity here
    assert phi_m().evaluate_union(witness) == 1


def test_pks_only_never_covered():
    verdict = pks_only_coverage(phi_m_support())
    assert not verdict.covered


def test_coverage_with_empty_zero_list():
    verdict = coverage_check(phi_m_support(), [], scope="empty")
    assert not verdict.covered


def test_basis_gap_event_contains_and_vanishes(default_ctx):
    from pkslab.colourings import basis_chain

    b11 = basis_chain()[10].indices
    e = basis_gap_event(gamma_p(), b11, default_ctx.ordering)
    assert e.contains(gamma_p())
    assert default_ctx.norm(e) < 1e-12


def test_last_stage_construction():
    ordering = Ordering.default().with_ray_last(ray_index("021"))
    ctx = Context(ordering)
    built = last_ray_021_construction(ctx)
    assert built.norm1 < 1e-10 and built.norm2 < 1e-10 and built.holds
    assert built.e1.is_disjoint_from(built.e2)
    gp, gpp = phi_m_support()
    assert built.e1.contains(gp)
    assert built.e2.contains(gpp)
    # both fix the final ray, to opposite colours
    i021 = ray_index("021")
    assert built.e1.fixed[i021] is False
    assert built.e2.fixed[i021] is True
    # the disjoint union contains the whole support: preclusivity fails
    assert phi_m().evaluate_union((built.e1, built.e2)) == 1


def test_last_stage_construction_requires_021_last(default_ctx):
    with pytest.raises(ValueError):
        last_ray_021_construction(default_ctx)


def test_last_stage_construction_state_independent(rng):
    # the search's probe runs under the maximally mixed state
    ordering = Ordering.default().with_ray_last(ray_index("021"))
    for state in [maximally_mixed_state()] + [random_pure_state(rng) for _ in range(3)]:
        ctx = Context(ordering, state)
        built = last_ray_021_construction(ctx)
        assert built.norm1 < 1e-10 and built.norm2 < 1e-10


def test_scan_is_ordering_covariant_under_symmetry(rng):
    """Relabelling rays by a cube symmetry conjugates the zero-event list,
    checked with the maximally mixed state (which is rotation invariant)."""
    mixed = InitialState(
        [(1 / 3, [1, 0, 0]), (1 / 3, [0, 1, 0]), (1 / 3, [0, 0, 1])]
    )
    g = symmetry_group()[7]
    perm = ray_permutations()[g]
    base = Ordering(tuple(int(x) for x in rng.permutation(N_RAYS)))
    conj = Ordering(tuple(perm[r] for r in base.ray_at))
    zeros_base = scan_zero_events(Context(base, mixed), 2)
    zeros_conj = scan_zero_events(Context(conj, mixed), 2)

    def relabel(event: HomogeneousEvent) -> tuple[int, int]:
        green = red = 0
        for i, colour in event.fixed.items():
            if colour:
                green |= 1 << perm[i]
            else:
                red |= 1 << perm[i]
        return green, red

    mapped = {relabel(rec.event) for rec in zeros_base}
    found = {(rec.event.green_mask, rec.event.red_mask) for rec in zeros_conj}
    assert mapped == found


def test_ordering_search_budget_zero_is_empty():
    report = ordering_search(0, seed=5)
    assert report.candidates == ()
    with pytest.raises(ValueError, match="non-negative"):
        ordering_search(-5, seed=5)


def test_ordering_search_deterministic_and_probe_covered():
    r1 = ordering_search(6, seed=42, scan_max_fixed=1)
    r2 = ordering_search(6, seed=42, scan_max_fixed=1)
    assert r1 == r2
    assert r1.seed == 42
    probe = [c for c in r1.candidates if c.label == "probe-021-last"]
    assert len(probe) == 1
    assert probe[0].verdict.covered
    assert probe[0].verdict.witness is not None
    # ranked behind every candidate without a cover
    ranks = [c.verdict.covered for c in r1.candidates]
    assert ranks == sorted(ranks)


def test_search_candidates_rebuild_the_examined_threshold():
    # witnesses found under a coarse threshold are zero only under that
    # threshold: the rebuilt context must carry it
    report = ordering_search(6, seed=0, threshold=0.1)
    covered = [c for c in report.candidates if c.verdict.covered]
    assert {"probe-021-last", "random-ord-2"} <= {c.label for c in covered}
    for c in covered:
        ctx = c.context()
        assert ctx.threshold == 0.1
        assert np.array_equal([v for _, v in ctx.state.terms], np.eye(3))  # maximally mixed
        assert all(ctx.is_zero(e) for e in c.verdict.witness), c.label
    coarse = next(c for c in covered if c.label == "random-ord-2")
    fine = Context(coarse.ordering, maximally_mixed_state())
    assert not all(fine.is_zero(e) for e in coarse.verdict.witness)


def test_ordering_search_structural_strategy():
    report = ordering_search(8, seed=1, scan_max_fixed=2, strategy="structural")
    assert report == ordering_search(8, seed=1, scan_max_fixed=2)
    others = [c for c in report.candidates if c.label != "probe-021-last"]
    assert others
    # structural zeros are zeros of every state: an ordering covered here
    # is covered outright, so a cover witness must survive any pure state
    covered = [c for c in others if c.verdict.covered]
    for cand in covered[:2]:
        ctx = Context(cand.ordering, InitialState.pure([0.6, 0.8j, 0.0]))
        assert all(ctx.norm(e) < ctx.threshold for e in cand.verdict.witness)
    for strategy in ("mixed", "unknown"):
        with pytest.raises(ValueError):
            ordering_search(2, strategy=strategy)


def test_maximally_mixed_zeros_are_every_states_zeros(rng):
    """What the one-state search rests on, at depth 3: a random pure state's
    zeros are the maximally mixed state's, |0,z>'s contain them, and every
    structural candidate zero under the maximally mixed state is zero under
    the pure state."""

    def masks(ctx):
        scan = scan_zero_events(ctx, 3)
        return set(zip(scan.events.green.tolist(), scan.events.red.tolist()))

    for _ in range(5):
        ordering = random_ordering(rng)
        mixed = Context(ordering, maximally_mixed_state())
        pure = Context(ordering, random_pure_state(rng))
        zeros = masks(mixed)
        assert masks(pure) == zeros
        assert masks(Context(ordering)) > zeros
        built = structural_threat_pairs(mixed)
        assert len(built) >= 2  # at least the gap pair
        assert all(pure.is_zero(e) for e in built)


def test_provenance_counts_helper(default_ctx):
    records = scan_zero_events(default_ctx, 2)
    counts = provenance_counts(records)
    assert sum(counts.values()) == len(records)
    assert counts["pks"] == 72


def test_detected_scan_and_coverage(default_ctx):
    """Detectors at the 021 stage destroy some preclusion zeros (the basis
    events whose product straddles the detected stage) but the support of
    the surviving co-event stays covered for the default context."""
    i021 = ray_index("021")
    det = Context(detector=default_ctx.ordering.position_of(i021) + 1)
    records = scan_zero_events(det, 2)
    counts = provenance_counts(records)
    assert counts["pks"] == 57  # 15 of the 72 pair events gained measure
    for rec in records:
        assert det.norm(rec.event) < det.threshold
    verdict, _ = context_coverage(det, 2)
    assert verdict.covered
    for e in verdict.witness:
        assert det.norm(e) < det.threshold


def level_norms(ctx, events, max_fixed=4):
    """The scan's norms for the events: under a threshold above every norm
    the level-wise evaluator keeps every event it walks, zero or not."""
    wide = Context(ctx.ordering, ctx.state, threshold=10.0, detector=ctx.detector)
    scan = scan_zero_events(wide, max_fixed)
    assert len(scan) == sum(math.comb(N_RAYS, k) << k for k in range(1, max_fixed + 1))
    green, red = scan.events.green, scan.events.red
    rows = [np.flatnonzero((green == e.green_mask) & (red == e.red_mask)) for e in events]
    assert all(len(r) == 1 for r in rows)
    return scan.norm[np.concatenate(rows)]


def _norm_check_events(ctx, rng, n):
    """Random events with up to four fixed rays plus a sample of the
    context's zero events, so that both sides of the threshold occur."""
    zeros = scan_zero_events(ctx, 4)
    picks = rng.choice(len(zeros), size=n // 4, replace=False)
    return [random_homogeneous_event(rng, max_fixed=4) for _ in range(n)] + [
        zeros.events[int(i)] for i in picks
    ]


def _assert_level_norms_match_scalar(ctx, events):
    levels = level_norms(ctx, events)
    scalar = np.array([ctx.norm(e) for e in events])
    assert np.allclose(levels, scalar, rtol=0, atol=1e-12)
    zero = scalar < ctx.threshold
    assert zero.any() and not zero.all()


def test_level_norms_agree_with_scalar_route(rng):
    for state in (random_mixed_state(rng), random_pure_state(rng)):
        ctx = Context(random_ordering(rng), state)
        _assert_level_norms_match_scalar(ctx, _norm_check_events(ctx, rng, 50))


def test_detected_level_norms_agree_with_scalar(default_ctx, rng):
    contexts = [
        Context(detector=12),
        Context(random_ordering(rng), random_mixed_state(rng), detector=20),
    ]
    for det in contexts:
        _assert_level_norms_match_scalar(det, _norm_check_events(det, rng, 80))


def test_cartesian_table_and_state_slots_match_the_projectors(rng):
    """Green u u^T and red I - u u^T, carried to the z-basis by CART_TO_Z,
    are the oracle's eigenbasis projectors; the real slots of a state give
    every single-projector measure of the state."""
    from pkslab import spin

    t = spin.CART_TO_Z
    assert np.allclose(t @ t.conj().T, np.eye(3), atol=1e-15)
    projs = zbasis._ray_projectors()
    for i, u in enumerate(spin.ray_directions()):
        green = np.outer(u, u)
        assert np.allclose(t @ green @ t.conj().T, projs[i, 0], atol=1e-15)
        assert np.allclose(t @ (np.eye(3) - green) @ t.conj().T, projs[i, 1], atol=1e-15)
    assert np.array_equal(explorer._Chains(Context()).state, [[[[0.0, 0.0, 1.0]]]])
    for state in (random_mixed_state(rng), random_pure_state(rng), maximally_mixed_state()):
        ctx = Context(random_ordering(rng), state)
        slots = explorer._Chains(ctx).state[0, 0]
        assert slots.shape[0] <= 2 * len(state.terms)
        for i, u in enumerate(spin.ray_directions()):
            along = slots @ u
            for green, cart in ((True, along**2), (False, (slots**2).sum(axis=1) - along**2)):
                want = sum(w * np.linalg.norm(projs[i, 1 - green] @ psi) ** 2 for w, psi in state.terms)
                assert abs(cart.sum() - want) < 1e-14


def test_non_finite_norms_refuse_the_scan(monkeypatch):
    from pkslab import spin
    from pkslab.cli import main

    table = np.array(spin.ray_directions())
    table[5] = np.nan
    monkeypatch.setattr(spin, "ray_directions", lambda: table)
    with pytest.raises(ValueError, match="non-finite"):
        scan_zero_events(Context(), 1)
    assert main(["zero-scan", "--max-fixed", "2"]) == 2


def test_norm_margin_of_the_default_context():
    for depth, min_nonzero in ((3, 7.58e-3), (4, 1.11e-3)):
        scan = scan_zero_events(Context(), depth)
        assert scan.norm.max() < 1e-14
        assert scan.min_rejected == pytest.approx(min_nonzero, rel=1e-3)
        assert scan[:10].min_rejected == scan.min_rejected


def _reference_codes(ray_at, pos, green, red, collapse):
    """Provenance codes of zero rows from their full position matrix `pos`
    (n, k), in ascending position order: a preclusion event; else a green
    orthogonal pair at consecutive positions, from the exact relation; else
    an operator collapse; else a state zero."""
    orth = np.array([[are_orthogonal(a, b) for b in PERES_RAYS] for a in PERES_RAYS])
    pks_green, pks_red = np.array([(e.green_mask, e.red_mask) for e in pks_events()]).T
    pks = ((green[:, None] == pks_green) & (red[:, None] == pks_red)).any(axis=1)
    rays = ray_at[pos]
    greens = (green[:, None] >> rays & 1).astype(bool)
    consecutive = (pos[:, 1:] == pos[:, :-1] + 1) & greens[:, 1:] & greens[:, :-1]
    adjacent = (consecutive & orth[rays[:, :-1], rays[:, 1:]]).any(axis=1)
    return np.select([pks, adjacent, collapse], [0, 1, 2], default=3).astype(np.int8)


def _reference_zero_rows(ctx, max_fixed):
    """The level scan one child at a time: every (parent, later position)
    pair appears twice, red then green, and each copy is projected on its
    own and picks its colour through `np.where`.  Each row keeps its whole
    position list, and codes come from `_reference_codes`, not the scan's
    carried adjacency flag.  Sectors are split by this reference's own
    projection, and an operator product collapses only when every sector
    vanishes, a chain that ends before the detector being split after its
    last stage.  Returns the green, red, norm and code columns in record
    order and the smallest rejected norm."""
    chains = explorer._Chains(ctx)
    cut = None if ctx.detector is None else ctx.detector - 1

    def along(v, u):
        return np.einsum("...ij,...ij->...i", v, np.broadcast_to(u, v.shape))[..., None] * u

    def split(v, last, upto):
        """The slots of the chains that end before the detector (at `last`)
        and reach past it (to `upto`), split into its red and green sectors."""
        if cut is None or not (rows := (last < cut) & (upto > cut)).any():
            return v
        v = v.copy()
        v[rows, 1] = along(v[rows, 0], chains.u[cut])
        v[rows, 0] -= v[rows, 1]
        return v

    def step(v, last, p, green):
        v = split(v, last, p)
        a = along(v, chains.u[p][:, None, None, :])
        return np.where(green[:, None, None, None], a, v - a)

    def collapses(op, last):
        op = split(op, last, math.inf)
        return np.sqrt(np.einsum("nsij,nsij->ns", op, op)).max(axis=1) < ctx.threshold

    pos, green, red = np.zeros((1, 0), dtype=int), np.zeros(1, np.int64), np.zeros(1, np.int64)
    state, op = chains.state, chains.op
    zeros, min_rejected = [], math.inf
    for k in range(1, max_fixed + 1):
        last = pos[:, -1] if k > 1 else np.full(1, -1)
        width = N_RAYS - 1 - last
        par = np.repeat(np.arange(last.size), width)
        p = last[par] + 1 + np.arange(par.size) - np.repeat(np.cumsum(width) - width, width)
        par, p, g = np.tile(par, 2), np.tile(p, 2), np.arange(2 * par.size) >= par.size
        state, op = step(state[par], last[par], p, g), step(op[par], last[par], p, g)
        norm = np.sqrt(np.einsum("nsij,nsij->n", state, state))
        z = norm < ctx.threshold
        min_rejected = min(min_rejected, norm[~z].min(initial=math.inf))
        bit = np.int64(1) << chains.ray_at[p]
        pos = np.column_stack([pos[par], p])
        green, red = green[par] | np.where(g, bit, 0), red[par] | np.where(g, 0, bit)
        code = _reference_codes(chains.ray_at, pos[z], green[z], red[z], collapses(op[z], p[z]))
        zeros.append((np.full(z.sum(), k), green[z], red[z], norm[z], code))
    n_fixed, green, red, norm, code = (np.concatenate(c) for c in zip(*zeros))
    order = np.lexsort((red, green, n_fixed))
    return green[order], red[order], norm[order], code[order], min_rejected


def test_scan_equals_the_per_colour_reference(rng):
    """Bit for bit, on eight chosen contexts and then on 40 random (ordering,
    state, detector stage) contexts, where operator products measured over
    both sectors must give every zero the code the every-sector rule gives."""
    i021 = ray_index("021")
    contexts = [
        Context(),
        Context(detector=Ordering.default().position_of(i021) + 1),
        Context(random_ordering(rng), random_mixed_state(rng), detector=int(rng.integers(1, 34))),
        Context(random_ordering(rng), maximally_mixed_state()),
        Context(Ordering.default().with_ray_last(i021)),
        Context(detector=1),
        Context(random_ordering(rng), random_mixed_state(rng), detector=N_RAYS),
        Context(random_ordering(rng), random_pure_state(rng)),
    ]
    states = (InitialState.default, maximally_mixed_state,
              lambda: random_pure_state(rng), lambda: random_mixed_state(rng, 3))
    contexts += [Context(random_ordering(rng), states[i % 4](), detector=int(rng.integers(1, 34)))
                 for i in range(40)]
    for ctx in contexts:
        scan = scan_zero_events(ctx, 3)
        green, red, norm, code, min_rejected = _reference_zero_rows(ctx, 3)
        columns = (scan.events.green, scan.events.red, scan.norm, scan.code)
        for got, want in zip(columns, (green, red, norm, code)):
            assert got.shape == want.shape and (got == want).all()
        assert scan.min_rejected == min_rejected


def test_the_detector_split_is_the_oracle_projectors(rng):
    """`_Chains._split` leaves the red and green sector slots of P_red psi and
    P_green psi, from the z-basis projectors of the detected ray, for the
    chains that jump over the detector, and no other chain splits."""
    from pkslab import spin

    for state in (random_pure_state(rng), random_mixed_state(rng, 3), maximally_mixed_state()):
        ctx = Context(random_ordering(rng), state, detector=int(rng.integers(1, N_RAYS)))
        chains, cut = explorer._Chains(ctx), ctx.detector - 1
        v = np.repeat(chains.state, 3, axis=0)
        split = chains._split(v, np.array([-1, cut, -1]), np.array([N_RAYS - 1, N_RAYS - 1, cut]))
        terms = [np.sqrt(w) * psi for w, psi in state.terms]
        kept = spin.cartesian_slots(terms).any(axis=1)  # the chains drop zero slots
        for sector, green in enumerate((False, True)):
            want = spin.cartesian_slots([ray_projector(ctx.detected_ray, green) @ x for x in terms])
            assert np.abs(split[0, sector] - want[kept]).max() <= 1e-15
        assert np.array_equal(split[1:], v[1:])


def _level2_zero_pairs(scan):
    """First and last positions of the level-2 (parent, later position)
    pairs with a zero child in the listing order, where a ray's position is
    its index."""
    fixed = scan.events.green | scan.events.red
    level2 = np.array([int(x).bit_count() == 2 for x in fixed])
    green, red, fixed = scan.events.green[level2], scan.events.red[level2], fixed[level2]
    last = np.array([int(x).bit_length() - 1 for x in fixed])
    parent = fixed & ~(np.int64(1) << last)
    pairs = set(zip(green & parent, red & parent, last))
    assert len(pairs) < level2.sum()
    return np.array([(int(g | r).bit_length() - 1, b) for g, r, b in pairs]).T


def test_each_pair_is_projected_once(monkeypatch):
    rows = []  # (slots, rows) per kernel call: 1 state slot, 3 operator columns
    original = explorer._Chains.branch

    def counting(self, v, last, p):
        rows.append((v.shape[2], len(v)))
        return original(self, v, last, p)

    monkeypatch.setattr(explorer._Chains, "branch", counting)
    scan = scan_zero_events(Context(), 2)
    pairs = N_RAYS + 2 * sum(range(N_RAYS))  # level 1, then each level-1 row's later positions
    children = 2 * N_RAYS + 4 * sum(range(N_RAYS))
    assert sum(n for slots, n in rows if slots == 1) == pairs == children // 2
    # operator products: level 1's for level 2, then once per level-2 pair with a zero child
    zero_pairs = len(_level2_zero_pairs(scan)[0])
    assert sum(n for slots, n in rows if slots == 3) == N_RAYS + zero_pairs


def test_every_projection_of_a_detected_scan_is_one_step(monkeypatch):
    """`spin.project` projects each branched pair's chain once, and each
    chain that jumps over the detector once more, for its green sector."""
    from pkslab import spin

    rows = {(1, 4): 0, (3, 4): 0, (1, 3): 0, (3, 3): 0}  # (slots, dims) -> projected rows
    original = spin.project

    def counting(v, u, out=None):
        rows[v.shape[-2], v.ndim] += len(v)
        return original(v, u, out=out)

    monkeypatch.setattr(spin, "project", counting)
    stage, cut = 12, 11  # positions 0..10 lie before the detected one
    scan = scan_zero_events(Context(detector=stage), 2)
    first, last = _level2_zero_pairs(scan)
    jumps = N_RAYS - stage  # positions past the detector
    assert rows == {
        (1, 4): N_RAYS + 2 * sum(range(N_RAYS)),  # state pairs, as in a plain scan
        (3, 4): N_RAYS + len(first),  # operator pairs
        (1, 3): jumps + 2 * cut * jumps,  # from the root, then from both colours of each earlier row
        (3, 3): jumps + np.count_nonzero((first < cut) & (last > cut)),
    }


def test_operator_norms_are_taken_for_zero_rows_only(monkeypatch):
    """The shared norm sees one operator product per zero record, in a plain
    and a detected context."""
    seen = []  # operator products per call: three slots, where |0,z> has one
    original = explorer._norms

    def counting(v):
        seen.append(len(v) if v.shape[2] == 3 else 0)
        return original(v)

    monkeypatch.setattr(explorer, "_norms", counting)
    for ctx in (Context(), Context(detector=12)):
        seen.clear()
        scan = scan_zero_events(ctx, 3)
        assert sum(seen) == len(scan)


def test_record_order_is_the_three_key_lexsort(rng):
    """The radix sort's 16-bit digits split the masks after red rays 15 and
    31, red ray 32 shares a digit with green rays 0-14, and green rays 31-32
    one with the fixed-ray count: on columns that fix the rays at and next
    to those cuts in both colours, with 1-5 fixed rays and repeated rows,
    the order is the three-key lexsort's, ties included."""
    rays = np.array([0, 1, 14, 15, 16, 17, 30, 31, 32])
    for _ in range(20):
        colour = rng.integers(3, size=(3000, rays.size))  # per row and ray: free, green, red
        green = ((colour == 1) << rays).sum(axis=1)
        red = ((colour == 2) << rays).sum(axis=1)
        n_fixed = rng.integers(1, 6, size=green.size).astype(np.int8)
        rows = rng.integers(green.size, size=green.size)  # about a third of the rows repeat
        n_fixed, green, red = n_fixed[rows], green[rows], red[rows]
        want = np.lexsort((red, green, n_fixed))
        assert np.array_equal(explorer._record_order(n_fixed, green, red), want)


@pytest.mark.slow
def test_depth5_provenance_split(default_ctx):
    scan = scan_zero_events(default_ctx, 5)
    assert len(scan) == 3251065
    assert provenance_counts(scan) == {
        "scan": 1905786, "pks": 88, "coarse-grain-collapse": 899584, "accidental-adjacent": 445607,
    }


# --- the columnar scan result ---------------------------------------------------


def test_zero_scan_is_a_lazy_sequence(default_ctx):
    scan = scan_zero_events(default_ctx, 2)
    assert isinstance(scan, ZeroScan)
    assert len(scan) == DEFAULT_ZEROS_MAX2
    records = list(scan)
    assert len(records) == len(scan)
    assert records == [scan[i] for i in range(len(scan))]
    assert scan[-1] == records[-1] and scan[-len(scan)] == records[0]
    for bad in (len(scan), -len(scan) - 1):
        with pytest.raises(IndexError):
            scan[bad]
    part = scan[10:40:3]
    assert isinstance(part, ZeroScan)
    assert list(part) == records[10:40:3]
    assert tuple(scan[5:5]) == ()
    assert list(scan.events) == [rec.event for rec in records]
    assert scan.events[-2] == records[-2].event
    rec = records[7]
    assert isinstance(rec, ZeroEventRecord) and isinstance(rec.event, HomogeneousEvent)
    assert type(rec.norm) is float and rec.provenance in Provenance
    with pytest.raises(ValueError):
        scan.norm[0] = 1.0  # the columns are read-only


def test_zero_scan_iterates_across_record_chunks(default_ctx, monkeypatch):
    scan = scan_zero_events(default_ctx, 2)
    expected = [scan[i] for i in range(len(scan))]
    monkeypatch.setattr(explorer, "_RECORD_CHUNK", 64)
    assert list(scan) == expected
    assert list(scan.events) == [rec.event for rec in expected]


def test_bulk_mask_validation():
    ok = EventArray([0b01, 0b100], [0b10, 0])
    assert list(ok) == [HomogeneousEvent(0b01, 0b10), HomogeneousEvent(0b100, 0)]
    with pytest.raises(ValueError, match="both green and red"):
        EventArray([0b01, 0b110], [0b10, 0b100])
    for green, red in (([1 << N_RAYS], [0]), ([0], [1 << (N_RAYS + 5)]), ([-1], [0])):
        with pytest.raises(ValueError, match="out of range"):
            EventArray(green, red)
    with pytest.raises(ValueError, match="both green and red"):
        ZeroScan([0, 0b11], [0, 0b01], [0.0, 0.0], [3, 3])
    with pytest.raises(ValueError, match="out of range"):
        ZeroScan([1 << N_RAYS], [0], [0.0], [3])
    with pytest.raises(ValueError, match="provenance code"):
        ZeroScan([1], [0], [0.0], [len(Provenance)])
    with pytest.raises(ValueError, match="differ in length"):
        ZeroScan([1, 2], [0, 0], [0.0], [3, 3])
    # the caller's arrays are not frozen by the views the scan keeps
    green = np.array([1, 2], dtype=np.int64)
    EventArray(green, np.zeros(2, dtype=np.int64))
    green[0] = 4


def _provenance_contexts():
    rng = np.random.default_rng(20240902)
    base = Context()
    return {
        "default": base,
        "detected-021": Context(detector=base.ordering.position_of(ray_index("021")) + 1),
        "random-mixed": Context(random_ordering(rng), random_mixed_state(rng)),
    }


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name", list(_provenance_contexts()))
def test_provenance_counts_match_the_record_fold(name, depth):
    scan = scan_zero_events(_provenance_contexts()[name], depth)
    fold: dict[str, int] = {}
    for rec in scan:
        fold[rec.provenance.value] = fold.get(rec.provenance.value, 0) + 1
    counts = provenance_counts(scan)
    assert counts == fold
    assert list(counts) == list(fold)  # the CLI prints this dict: key order matters


def reference_coverage(support, events, scope):
    """The nested holder loop the mask-column decision replaced."""
    events = [e.event if isinstance(e, ZeroEventRecord) else e for e in events]
    holders = [[e for e in events if e.contains(c)] for c in support]
    for e in holders[0]:
        if all(e.contains(c) for c in support):
            return explorer.CoverageVerdict("covered", (e,), scope)
    if len(support) == 2:
        for e1 in holders[0]:
            for e2 in holders[1]:
                if e1.is_disjoint_from(e2):
                    return explorer.CoverageVerdict("covered", (e1, e2), scope)
    return explorer.CoverageVerdict("not-covered-within-scope", None, scope)


def _coverage_cases():
    rng = np.random.default_rng(20240901)
    cases = {
        "default": Context(),
        "probe-021-last": Context(Ordering.default().with_ray_last(ray_index("021"))),
    }
    for i in range(8):
        cases[f"mixed-random-{i}"] = Context(random_ordering(rng), maximally_mixed_state())
    return cases


def test_coverage_matches_the_pair_loop_reference():
    support = phi_m_support()
    statuses = set()
    for name, ctx in _coverage_cases().items():
        scan = scan_zero_events(ctx, 2)
        events = list(scan.events) + list(structural_threat_pairs(ctx))
        want = reference_coverage(support, events, "s")
        assert coverage_check(support, events, "s") == want, name
        verdict, _ = context_coverage(ctx, 2)
        assert (verdict.status, verdict.witness) == (want.status, want.witness), name
        # an event list and the scan's event columns decide alike
        on_scan = reference_coverage(support, scan, "s")
        assert coverage_check(support, list(scan.events), "s") == on_scan
        assert coverage_check(support, scan.events, "s") == on_scan
        for one in support:
            assert coverage_check((one,), scan.events, "s") == reference_coverage((one,), scan, "s")
        statuses.add(want.status)
    assert statuses == {"covered", "not-covered-within-scope"}


# An ordering and pure state under which gamma_P' on B7 + {1m12} is zero
# (norm 4.0e-16) while gamma_P on B11 + {1m12} is not (norm 0.38).
LONE_CANDIDATE_ORDERING = (
    "210 20m1 100 1m12 10m1 001 011 0m12 2m1m1 201 02m1 12m1 121 m120 21m1 101 012 "
    "2m10 1m10 m112 021 110 2m11 211 120 01m1 m12m1 102 m102 m1m12 112 m121 010"
).split()
LONE_CANDIDATE_STATE = (
    0.10493687952080007 - 0.48760916541810834j,
    0.2844855201755035 + 0.6203821331329867j,
    0.14199346952007372 - 0.5150314606217593j,
)


def test_a_zero_construction_needs_no_zero_partner():
    """A zero structural candidate reaches the coverage decision on its own:
    here it pairs with the depth-3 scan zero {012=g, 0m12=r, 1m12=g}."""
    from pkslab.colourings import basis_chain

    ctx = Context(Ordering.from_labels(LONE_CANDIDATE_ORDERING),
                  InitialState.pure(LONE_CANDIDATE_STATE))
    gp, gpp = phi_m_support()
    w = ray_index("1m12")
    lone = HomogeneousEvent.agreeing_with(gpp, set(basis_chain()[6].indices) | {w})
    partner = HomogeneousEvent.agreeing_with(gp, set(basis_chain()[10].indices) | {w})
    assert lone in list(structural_threat_pairs(ctx))
    assert not ctx.is_zero(partner)
    verdict, _ = context_coverage(ctx, 3)
    assert verdict.covered
    witness = verdict.witness
    assert all(ctx.norm(e) < ctx.threshold for e in witness)
    assert all(a.is_disjoint_from(b) for a, b in itertools.combinations(witness, 2))
    assert all(any(e.contains(c) for e in witness) for c in (gp, gpp))


def _support_holder_events(rng, n):
    """Events agreeing with one support colouring on a few rays, mostly
    including a ray where the two disagree, plus a few random events."""
    support = phi_m_support()
    disagree = [i for i in range(N_RAYS) if support[0].is_green(i) != support[1].is_green(i)]
    events = []
    for _ in range(n):
        rays = {int(x) for x in rng.choice(N_RAYS, size=int(rng.integers(1, 5)), replace=False)}
        if rng.random() < 0.9:
            rays.add(int(rng.choice(disagree)))
        events.append(HomogeneousEvent.agreeing_with(support[int(rng.integers(2))], rays))
    return events + [random_homogeneous_event(rng, max_fixed=5) for _ in range(n // 8)]


def test_coverage_witness_order_matches_reference(rng):
    """Many holders of each colouring, in many orders: single covers, pair
    covers and no cover all occur, and the first witness must match."""
    support = phi_m_support()
    kinds = set()
    for _ in range(60):
        events = _support_holder_events(rng, int(rng.integers(2, 12)))
        for sup in (support, support[::-1]):
            want = reference_coverage(sup, events, "r")
            assert coverage_check(sup, events, "r") == want
            kinds.add(len(want.witness) if want.covered else 0)
    assert kinds == {0, 1, 2}


def _coverage_segment(rng, kind):
    """A segment's events: none, events holding neither support colouring,
    events holding gamma_P' alone, or many holders of each colouring."""
    gp, gpp = phi_m_support()
    if kind == "empty":
        return []
    if kind == "no-holders":
        events = (random_homogeneous_event(rng, max_fixed=5) for _ in range(40))
        return [e for e in events if not (e.contains(gp) or e.contains(gpp))][:6]
    if kind == "gamma-P'-only":
        disagree = [i for i in range(N_RAYS) if gp.is_green(i) != gpp.is_green(i)]
        rays = ({int(rng.choice(disagree)), *rng.choice(N_RAYS, size=2)} for _ in range(4))
        return [HomogeneousEvent.agreeing_with(gpp, {int(x) for x in r}) for r in rays]
    return _support_holder_events(rng, int(rng.integers(1, 10)))


def test_segmented_coverage_is_coverage_check_per_segment(rng):
    """Over 240 random segmentations, each segment's verdict from one
    `_segment_coverage` call is `coverage_check` of that segment alone,
    witness included, and the pair-loop reference's: with empty segments,
    segments with no holders or only gamma_P' holders, single-event and
    pair witnesses and no cover all occurring."""
    support = phi_m_support()
    kinds = ("empty", "no-holders", "gamma-P'-only", "holders")
    seen = set()
    for _ in range(240):
        segments = [_coverage_segment(rng, kinds[k]) for k in rng.integers(4, size=rng.integers(7))]
        events = EventArray.of(e for seg in segments for e in seg)
        bounds = np.cumsum([0] + [len(seg) for seg in segments])
        verdicts = explorer._segment_coverage(support, events, bounds, "seg")
        assert len(verdicts) == len(segments)
        for seg, verdict in zip(segments, verdicts):
            assert verdict == coverage_check(support, seg, "seg")
            assert verdict == reference_coverage(support, seg, "seg")
            seen.add(("one", "pair")[len(verdict.witness) - 1] if verdict.covered
                     else "uncovered" if seg else "empty")
    assert seen == {"empty", "uncovered", "one", "pair"}


def test_coverage_empty_and_preclusion_family():
    support = phi_m_support()
    assert coverage_check(support, [], "e") == reference_coverage(support, [], "e")
    pks = list(pks_events())
    want = reference_coverage(support, pks, "preclusion family only")
    assert pks_only_coverage(phi_m_support()) == want
    assert not want.covered


def test_coverage_makes_no_records(monkeypatch):
    """The scan's records are never built on the way to a verdict."""
    built = []
    original = ZeroEventRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ZeroEventRecord, "__init__", counting_init)
    verdict, scan = context_coverage(Context(), 3)
    assert verdict.covered and len(scan) == DEFAULT_ZEROS_MAX3
    report = ordering_search(3, scan_max_fixed=2)
    assert len(report.candidates) == 3
    assert built == []
    scan[0]  # the counter does see a record built on access
    assert built == [1]


def _holder_coverage_contexts():
    """24 contexts: random orderings under the default, maximally mixed,
    random pure and 3-term mixed states, with and without a detector, at
    thresholds 1e-10, 0.1 and 0.3."""
    rng = np.random.default_rng(20261021)
    states = (InitialState.default, maximally_mixed_state,
              lambda: random_pure_state(rng), lambda: random_mixed_state(rng, 3))
    for i in range(24):
        detector = int(rng.integers(1, N_RAYS + 1)) if i // 4 % 2 else None
        yield Context(random_ordering(rng), states[i % 4](), (DEFAULT_THRESHOLD, 0.1, 0.3)[i % 3],
                      detector), 2 + i // 12


def test_coverage_on_the_holders_is_coverage_on_every_zero():
    """`context_coverage` decides on the scan's support holders and the
    structural zeros; its verdict, witness and scope are `coverage_check`'s
    on all the scan's zeros followed by the structural zeros."""
    seen = set()
    for ctx, depth in _holder_coverage_contexts():
        verdict, scan = context_coverage(ctx, depth)
        built = structural_threat_pairs(ctx)
        events = EventArray(np.concatenate([scan.events.green, built.green]),
                            np.concatenate([scan.events.red, built.red]))
        assert verdict == coverage_check(phi_m_support(), events, explorer._scope(depth))
        seen.add(len(verdict.witness) if verdict.covered else 0)
    assert seen == {0, 1, 2}


# --- the ordering search's holder pass ------------------------------------------


def _scan_holders(scan, rows=True):
    """The scan's events that hold gamma_P or gamma_P', in record order,
    among the records `rows` selects (all by default)."""
    gp, gpp = phi_m_support()
    held = (scan.events.holds(gp) | scan.events.holds(gpp)) & rows
    return scan.events.green[held], scan.events.red[held]


def _per_row(columns, n):
    """Flat (ray order row, green, red) columns, sorted by row, as each of
    the `n` rows' (green, red) columns."""
    row, green, red = columns
    assert (np.diff(row) >= 0).all()
    return [(green[row == i], red[row == i]) for i in range(n)]


def _holder_orderings(rng, n_random):
    """The probe ordering, two separating orderings and `n_random` random ones."""
    yield Ordering.default().with_ray_last(ray_index("021"))
    yield explorer._separating_ordering(rng)
    yield explorer._separating_ordering(rng)
    for _ in range(n_random):
        yield random_ordering(rng)


def _positions(orderings):
    """Each ordering's stage of every ray, as `ordering_search` passes them."""
    return [o.positions() for o in orderings]


def test_holders_are_the_scans_support_holders(rng):
    """Scored by position tests against the null lists, the holders of
    each ordering under the maximally mixed state are the scan's support
    holders mask for mask and in record order, events holding both
    colourings once, at depths 3 and 4 and thresholds 1e-10, 0.1 and 0.3
    (the first with such events at k <= 3).  One scan at 0.3 serves all
    three: the scan's norms do not depend on the threshold, so its zeros
    under a smaller one are its records with norms below it."""
    gp, gpp = phi_m_support()
    both = np.zeros((5, 3), dtype=int)  # holders of both colourings, by fixed rays and threshold
    for depth, n_random in ((3, 100), (4, 20)):
        orderings = list(_holder_orderings(rng, n_random))
        rays = _positions(orderings)
        held = {t: _per_row(explorer._holders(rays, t, depth), len(rays))
                for t in (DEFAULT_THRESHOLD, 0.1, 0.3)}
        for i, ordering in enumerate(orderings):
            scan = scan_zero_events(Context(ordering, maximally_mixed_state(), 0.3), depth)
            for j, (threshold, holders) in enumerate(held.items()):
                green, red = _scan_holders(scan, scan.norm < threshold)
                assert holders[i][0].tobytes() == green.tobytes(), (depth, i, threshold)
                assert holders[i][1].tobytes() == red.tobytes(), (depth, i, threshold)
                events = EventArray(*holders[i])
                fixed = (green | red)[events.holds(gp) & events.holds(gpp)]
                np.add.at(both[:, j], (fixed[:, None] >> np.arange(N_RAYS) & 1).sum(axis=1), 1)
    assert both[3, 2] and both[4, 2]  # at 0.3 some holders hold both, at k = 3 and at k = 4


@pytest.mark.slow
def test_depth5_holders_are_the_scans_support_holders(rng):
    """At depth 5 and 1e-10 the holders of the probe, two separating and
    two random orderings are the scan's support holders, mask for mask and
    in record order."""
    orderings = list(_holder_orderings(rng, 2))
    held = _per_row(explorer._holders(_positions(orderings), DEFAULT_THRESHOLD, 5), len(orderings))
    for i, ordering in enumerate(orderings):
        scan = scan_zero_events(Context(ordering, maximally_mixed_state()), 5)
        green, red = _scan_holders(scan)
        assert held[i][0].tobytes() == green.tobytes(), i
        assert held[i][1].tobytes() == red.tobytes(), i


def _support_chain_table(k):
    """The norms (2, 33**k) of `_support_chains(k)` for gamma_P and gamma_P',
    at row r_1 33**(k-1) + ... + r_k of the rays in stage order; a gamma_P'
    chain fixing no disagreement ray is gamma_P's, and rows that repeat a
    ray hold NaN."""
    table = np.full((2, N_RAYS**k), np.nan)
    for pp, at, norm in explorer._support_chains(k):
        table[pp.astype(int), _tuple_keys(at)] = norm
    table[1] = np.where(np.isnan(table[1]), table[0], table[1])
    return table


def _tuple_keys(at):
    """`_support_chain_table` rows of ray tuples `at` (..., k), in stage order."""
    return at.astype(np.intp) @ N_RAYS ** np.arange(at.shape[-1] - 1, -1, -1)


def test_holder_table_norms_are_the_scans():
    """Every holder's norm in the scan of an ordering, at a threshold above
    every norm, is the `_support_chains` norm of its fixed rays in stage
    order, to the bit, for gamma_P and gamma_P': at k <= 3 in the probe, two
    separating and eight random orderings, and at k = 4 in the probe and
    the last random one."""
    rng = np.random.default_rng(9)
    gp, gpp = phi_m_support()
    tables = {j: _support_chain_table(j) for j in (1, 2, 3, 4)}
    checked = 0
    for i, ordering in enumerate(_holder_orderings(rng, 8)):
        depth = 4 if i in (0, 10) else 3
        scan = scan_zero_events(Context(ordering, maximally_mixed_state(), 2.0), depth)
        fixed = scan.events.green | scan.events.red
        ray_at = np.array(ordering.ray_at)
        # each record's fixed rays in stage order
        rows, p = np.nonzero((fixed[:, None] >> ray_at & 1).astype(bool))
        k = np.bincount(rows, minlength=len(scan))
        assert len(scan) == sum(math.comb(N_RAYS, j) << j for j in range(1, depth + 1))
        for j in range(1, depth + 1):
            at = ray_at[p[np.repeat(k == j, k)]].reshape(-1, j)
            key, norm = _tuple_keys(at), scan.norm[k == j]
            for c, colouring in enumerate((gp, gpp)):
                held = scan.events.holds(colouring)[k == j]
                table = tables[j][c, key[held]]
                assert table.tobytes() == norm[held].tobytes(), (j, c)
                checked += held.sum()
    assert checked == (11 * 2 * sum(math.comb(N_RAYS, j) for j in (1, 2, 3))
                       + 2 * 2 * math.comb(N_RAYS, 4))


@pytest.mark.parametrize("k", [1, 2])
def test_the_holder_level_skip_is_exact_at_its_boundary(rng, k):
    """Level k's null list is empty at thresholds up to its smallest
    support-chain norm, so the level costs no position test there.  Just
    below and just above that norm, the holders of the probe and 24 random
    orderings are the scan's support holders: an empty list drops no zero
    of any ordering."""
    lowest = min(norm.min() for _, _, norm in explorer._support_chains(k))
    orderings = [Ordering.default().with_ray_last(ray_index("021"))]
    orderings += [random_ordering(rng) for _ in range(24)]
    rays = _positions(orderings)
    for threshold in (np.nextafter(lowest, -np.inf), np.nextafter(lowest, np.inf)):
        held = _per_row(explorer._holders(rays, threshold, 2), len(rays))
        for ordering, (green, red) in zip(orderings, held):
            scan = scan_zero_events(Context(ordering, maximally_mixed_state(), threshold), 2)
            want_green, want_red = _scan_holders(scan)
            assert green.tobytes() == want_green.tobytes(), (k, threshold)
            assert red.tobytes() == want_red.tobytes(), (k, threshold)


def test_ray_candidate_table_is_each_chain_stepped_alone():
    """Every ray candidate's norm in every relative stage order of its rays
    is, to the bit, its support chain stepped alone with `_Chains.branch`
    under `Ordering.default()`; the table keys nothing else."""
    fixed, table = explorer._ray_candidate_table()
    chains = explorer._Chains(Context(Ordering.default(), maximally_mixed_state()))
    checked = 0
    for c, (green, red) in enumerate(explorer._ray_candidates().tolist()):
        rays = [w for w in range(N_RAYS) if (green | red) >> w & 1]
        assert fixed[c].tolist() == rays + [N_RAYS] * (4 - len(rays))
        for order in itertools.permutations(range(len(rays))):
            state = chains.state
            for j in order:
                w = rays[j]
                state = chains.branch(state, None, np.array([w]))[[green >> w & 1]]
            key = sum(j * 4 ** (3 - i) for i, j in enumerate(order + (3,) * (4 - len(rays))))
            assert table[c, key].tobytes() == explorer._norms(state)[0].tobytes(), (c, order)
            checked += 1
    assert checked == np.count_nonzero(~np.isnan(table)) == 6 * 24 + 2 * 6


def test_ray_candidate_table_margin():
    """Every finite norm of the ray-candidate table is below 1e-15 or above
    0.15, so the search's default threshold sits far from both sides: at it
    92 of the 156 stage orders are null, and at 0.3 all of them are."""
    _, table = explorer._ray_candidate_table()
    finite = table[~np.isnan(table)]
    assert finite.size == 156
    assert np.all((finite < 1e-15) | (finite > 0.15))
    null = np.nan_to_num(table, nan=np.inf) < DEFAULT_THRESHOLD
    assert null.sum(axis=1).tolist() == [6, 12, 12, 6, 12, 16, 16, 12]
    assert np.count_nonzero(finite < DEFAULT_THRESHOLD) == 92
    assert np.count_nonzero(finite < 0.3) == 156


def test_a_depth2_search_builds_two_table_levels():
    """The null lists are built lazily, one level at a time: a depth-2
    search builds levels 1 and 2, a depth-3 search adds level 3, a depth-4
    search adds level 4, and a repeat search at the same threshold builds
    nothing.  The lists are counted at a threshold no other test searches
    at, so the cache keeps the lists other tests build."""
    threshold, before = DEFAULT_THRESHOLD / 3, explorer._null_rows.cache_info().currsize

    def built():
        return explorer._null_rows.cache_info().currsize - before

    ordering_search(4, seed=2, scan_max_fixed=2, threshold=threshold)
    assert built() == 2
    ordering_search(4, seed=2, scan_max_fixed=3, threshold=threshold)
    assert built() == 3
    ordering_search(1, seed=2, scan_max_fixed=4, threshold=threshold)
    assert built() == 4
    ordering_search(1, seed=2, scan_max_fixed=4, threshold=threshold)
    assert built() == 4


def test_the_depth4_survivor_has_no_cover():
    """An ordering that no homogeneous event with <= 4 fixed rays or
    structural candidate covers under the maximally mixed state: 218 of
    its 88,395 zeros hold a support colouring, and the holder pass finds
    the same 218."""
    labels = ("2m10 10m1 211 012 011 01m1 2m11 2m1m1 m12m1 m102 100 101 02m1 1m12 210 010 021 "
              "m121 12m1 112 21m1 201 120 m120 m1m12 1m10 102 001 m112 0m12 20m1 110 121").split()
    ctx = Context(Ordering.from_labels(labels), maximally_mixed_state())
    verdict, scan = context_coverage(ctx, 4)
    assert not verdict.covered and verdict.witness is None
    green, red = _scan_holders(scan)
    assert (len(scan), len(green)) == (88395, 218)
    row, held_green, held_red = explorer._holders([ctx.ordering.positions()], ctx.threshold, 4)
    assert not row.any()
    assert held_green.tobytes() == green.tobytes() and held_red.tobytes() == red.tobytes()


def _reference_gap_event(c, basis_indices, ordering):
    """`basis_gap_event` one ray at a time: every ray but the non-basis rays
    strictly between the basis stages, at the colouring's colour."""
    ps = ordering.positions()[list(basis_indices)]
    lo, hi = int(ps.min()), int(ps.max())
    return HomogeneousEvent.from_fixed({
        r: c.is_green(r)
        for p, r in enumerate(ordering.ray_at)
        if not (lo < p < hi and r not in basis_indices)
    })


def _reference_threats(ctx):
    """The structural candidates, built one event at a time, and those of
    them that `Context.norms` puts below the threshold."""
    gp, gpp = phi_m_support()
    b11, b7 = explorer._chain_basis(11), explorer._chain_basis(7)
    candidates = [
        e
        for w in range(N_RAYS)
        if gp.is_green(w) != gpp.is_green(w)
        for e in (HomogeneousEvent.agreeing_with(gp, set(b11) | {w}),
                  HomogeneousEvent.agreeing_with(gpp, set(b7) | {w}))
    ]
    candidates += [_reference_gap_event(gp, b11, ctx.ordering),
                   _reference_gap_event(gpp, b7, ctx.ordering)]
    norms = ctx.norms(candidates)
    return candidates, norms, [e for e, n in zip(candidates, norms) if n < ctx.threshold]


def test_structural_candidates_of_a_chunk_equal_the_per_context_norms(rng):
    """Gap events equal the ray-by-ray construction, and the zeros of each
    context are its candidates that `Context.norms` puts below the
    threshold, in order, for pure, mixed, detected and maximally mixed
    contexts.  The search's pass over many orderings at once keeps the same
    zeros under the maximally mixed state at thresholds 1e-10, 0.1 and 0.3."""
    gp, gpp = phi_m_support()
    orderings = [random_ordering(rng) for _ in range(4)]
    orderings.append(Ordering.default().with_ray_last(ray_index("021")))
    for state, detector in ((maximally_mixed_state(), None), (random_mixed_state(rng, 3), 12),
                            (random_pure_state(rng), 1)):
        for ordering in orderings:
            ctx = Context(ordering, state, 0.1, detector)
            candidates, _, zeros = _reference_threats(ctx)
            assert explorer._gap_pair(gp, gpp, ordering) == tuple(candidates[-2:])
            assert list(structural_threat_pairs(ctx)) == zeros
    rays = _positions(orderings)
    for threshold in (DEFAULT_THRESHOLD, 0.1, 0.3):
        built_rows = _per_row(explorer._threat_pairs(rays, threshold), len(rays))
        for ordering, built in zip(orderings, built_rows):
            _, _, zeros = _reference_threats(Context(ordering, maximally_mixed_state(), threshold))
            assert list(EventArray(*built)) == zeros, threshold


def test_the_gap_pair_is_null_by_the_basis_rule(rng):
    """The search keeps the gap pair without a norm, on exact premises: B11
    and B7 are orthogonal triples, gamma_P is red on all of B11 and gamma_P'
    on all of B7, and in the probe, two separating and 120 random orderings
    the gap events fix every basis ray and no other ray strictly between the
    basis stages, so three red projectors of one orthonormal basis are
    adjacent.  The float test agrees at every threshold of at least 1e-15:
    `structural_threat_pairs` keeps the pair there under the maximally
    mixed state."""
    gp, gpp = phi_m_support()
    orderings = list(_holder_orderings(rng, 120))
    rays = _positions(orderings)
    gaps = []
    for c, name in ((gp, 11), (gpp, 7)):
        basis = explorer._chain_basis(name)
        assert all(are_orthogonal(PERES_RAYS[a], PERES_RAYS[b])
                   for a, b in itertools.combinations(basis, 2))
        assert not any(c.is_green(i) for i in basis)
        gaps.append(explorer._gap_masks(c, basis, rays))
        for ordering, (green, red) in zip(orderings, gaps[-1]):
            stage = ordering.positions()[list(basis)]
            assert all(int(red) >> i & 1 for i in basis)
            assert not any(int(green | red) >> r & 1 for p, r in enumerate(ordering.ray_at)
                           if stage.min() < p < stage.max() and r not in basis)
    for i, (green, red) in enumerate(_per_row(explorer._threat_pairs(rays, 1e-300), len(rays))):
        assert green[-2:].tolist() == [gaps[0][i, 0], gaps[1][i, 0]]
        assert red[-2:].tolist() == [gaps[0][i, 1], gaps[1][i, 1]]
    for ordering in orderings:
        built = structural_threat_pairs(Context(ordering, maximally_mixed_state(), 1e-15))
        assert tuple(built[len(built) - 2:]) == explorer._gap_pair(gp, gpp, ordering)


def test_sub_noise_thresholds_keep_the_exact_gap_pair():
    """At 1e-17, below float rounding, the float norms of the 021-last
    probe's gap pair are not below the threshold, but the pair is null
    exactly: the search still reports the probe covered, and its witness
    starts with the B11 gap event."""
    gp, gpp = phi_m_support()
    probe = Ordering.default().with_ray_last(ray_index("021"))
    assert max(Context(probe, maximally_mixed_state()).norms(
        explorer._gap_pair(gp, gpp, probe))) >= 1e-17
    [candidate] = ordering_search(1, scan_max_fixed=1, threshold=1e-17).candidates
    assert candidate.label == "probe-021-last" and candidate.verdict.covered
    assert candidate.verdict.witness[0] == explorer._gap_pair(gp, gpp, probe)[0]


def _reference_search(budget, seed, scan_max_fixed, threshold):
    """The ordering search one candidate at a time: each ordering drawn and
    then scored alone by `context_coverage`, under its own maximally mixed
    state, with its support holders counted from its scan."""
    rng = np.random.default_rng(seed)
    candidates = []
    for i in range(budget):
        if i == 0:
            ordering = Ordering.default().with_ray_last(ray_index("021"))
            label = "probe-021-last"
        elif i % 3 == 0:
            ordering = explorer._separating_ordering(rng)
            label = f"separating-{i}"
        else:
            ordering = Ordering(tuple(int(x) for x in rng.permutation(N_RAYS)))
            label = f"random-ord-{i}"
        ctx = Context(ordering, maximally_mixed_state(), threshold)
        verdict, scan = context_coverage(ctx, scan_max_fixed)
        holders = len(_scan_holders(scan)[0])
        candidates.append(explorer.SearchCandidate(label, ordering, threshold, verdict, holders))
    ranked = sorted(candidates, key=lambda c: (c.verdict.covered, c.support_holders, c.label))
    return explorer.SearchReport(seed, budget, scan_max_fixed, tuple(ranked))


@pytest.mark.parametrize("scan_max_fixed", [1, 2, 3, 4, 5])
def test_chunked_search_equals_the_per_candidate_loop(scan_max_fixed):
    """Statuses, witnesses, support holders and candidate order equal the
    per-candidate reference, at thresholds 1e-10 and 0.1 (seed 1)."""
    budget = {1: 8, 2: 8, 3: 5, 4: 3, 5: 2}[scan_max_fixed]
    for seed in range({4: 2, 5: 1}.get(scan_max_fixed, 8)):
        threshold = 0.1 if seed % 4 == 1 else DEFAULT_THRESHOLD
        got = ordering_search(budget, seed, scan_max_fixed, threshold)
        assert got == _reference_search(budget, seed, scan_max_fixed, threshold), seed


def test_a_search_never_scans_and_makes_one_structural_pass(monkeypatch):
    """The search reads holders, never the full scan, and its structural
    candidates go through one `_threat_pairs` pass for every candidate,
    which takes no member states and no value of the functional.  One
    `_segment_coverage` call decides every candidate, never through
    `coverage_check`."""
    passes, decisions = [], []
    threat_pairs, segment_coverage = explorer._threat_pairs, explorer._segment_coverage

    def no_scan(*_):
        raise AssertionError("the search ran the full scan, the functional or coverage_check")

    def counting_threats(ray_at, threshold):
        passes.append(len(ray_at))
        return threat_pairs(ray_at, threshold)

    def counting_decisions(support, events, bounds, scope):
        decisions.append(len(bounds) - 1)
        return segment_coverage(support, events, bounds, scope)

    monkeypatch.setattr(explorer, "_zero_rows", no_scan)
    monkeypatch.setattr(explorer, "coverage_check", no_scan)
    monkeypatch.setattr(Context, "_member_states", no_scan)
    monkeypatch.setattr(Context, "decoherences", no_scan)
    monkeypatch.setattr(explorer, "_threat_pairs", counting_threats)
    monkeypatch.setattr(explorer, "_segment_coverage", counting_decisions)
    for depth, budget in ((1, 7), (2, 7), (3, 4), (4, 2), (2, 0)):
        passes.clear()
        decisions.clear()
        report = ordering_search(budget, seed=3, scan_max_fixed=depth)
        assert len(report.candidates) == budget and passes == decisions == [budget]


@pytest.mark.parametrize("kwargs", [
    {"scan_max_fixed": 9}, {"scan_max_fixed": 0}, {"threshold": -1.0}, {"threshold": 0.0},
    {"threshold": math.inf}, {"threshold": math.nan},
])
def test_search_checks_depth_and_threshold_before_drawing(monkeypatch, kwargs):
    def no_draw(*_):
        raise AssertionError("drew an ordering before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for budget in (0, 4):
        with pytest.raises(ValueError, match="max_fixed|threshold"):
            ordering_search(budget, **kwargs)
