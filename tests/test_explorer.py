"""Zero-event scans, coverage verdicts, and the ordering search."""

import itertools
import math

import numpy as np
import pytest

from conftest import random_mixed_state, random_ordering, random_pure_state
from pkslab.colourings import gamma_p, gamma_p_prime, pks_events
from pkslab import explorer
from pkslab.explorer import (
    EventArray,
    Provenance,
    ZeroEventRecord,
    ZeroScan,
    basis_gap_event,
    classify_zero_event,
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
from pkslab.spin import ray_projector

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


def test_classification_examples(default_ctx):
    adjacent = HomogeneousEvent.from_fixed(
        {ray_index("001"): True, ray_index("010"): True, ray_index("112"): False}
    )
    assert classify_zero_event(default_ctx, adjacent) is Provenance.ACCIDENTAL_ADJACENT
    # basis all red plus one faraway fixed ray: zero by summing out the middle
    collapse = HomogeneousEvent.from_fixed(
        {
            ray_index("100"): False,
            ray_index("021"): False,
            ray_index("0m12"): False,
            ray_index("2m1m1"): True,
        }
    )
    assert classify_zero_event(default_ctx, collapse) is Provenance.COARSE_GRAIN_COLLAPSE
    state_zero = HomogeneousEvent.from_fixed({ray_index("001"): False})
    assert classify_zero_event(default_ctx, state_zero) is Provenance.SCAN


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
    records = scan_zero_events(default_ctx, 4)
    assert len(records) == 241801
    assert provenance_counts(records) == {
        "scan": 158249, "pks": 88, "coarse-grain-collapse": 60644, "accidental-adjacent": 22820,
    }


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
    ctx = _classification_contexts()[name]
    records = scan_zero_events(ctx, 2)
    assert records
    for rec in records:
        assert classify_zero_event(ctx, rec.event) is rec.provenance
        assert reference_classify(ctx, rec.event) is rec.provenance, rec.describe()


def test_classify_random_events_matches_reference(rng):
    """Events that need not be zero, including the empty one, through both
    classifiers on plain and detected contexts."""
    events = [HomogeneousEvent.everything()] + [
        random_homogeneous_event(rng, max_fixed=5) for _ in range(150)
    ]
    for ctx in _classification_contexts().values():
        for e in events:
            assert classify_zero_event(ctx, e) is reference_classify(ctx, e), e.describe()


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
    assert built.norm1 < 1e-10 and built.norm2 < 1e-10
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
    are the package's projectors; the real slots of a state give every
    single-projector measure of the state."""
    from pkslab import spin

    t = spin.CART_TO_Z
    assert np.allclose(t @ t.conj().T, np.eye(3), atol=1e-15)
    projs = spin._ray_projectors()
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


def _reference_zero_rows(ctx, max_fixed):
    """The level scan one child at a time: every (parent, later position)
    pair appears twice, red then green, and each copy is projected on its
    own and picks its colour through `np.where`.  Returns the green, red,
    norm and code columns in record order and the smallest rejected norm."""
    chains = explorer._Chains(ctx)

    def step(v, last, p, green):
        v = chains._split(v, last, p)
        u = chains.u[p][:, None, None, :]
        along = np.einsum("nsij,nsij->nsi", v, np.broadcast_to(u, v.shape))[..., None] * u
        return np.where(green[:, None, None, None], along, v - along)

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
        greens = (green[z, None] >> chains.ray_at[pos[z]] & 1).astype(bool)
        collapse = chains.op_norms(op[z], p[z]) < ctx.threshold
        code = explorer._classify(chains, pos[z], greens, collapse)
        zeros.append((np.full(z.sum(), k), green[z], red[z], norm[z], code))
    n_fixed, green, red, norm, code = (np.concatenate(c) for c in zip(*zeros))
    order = np.lexsort((red, green, n_fixed))
    return green[order], red[order], norm[order], code[order], min_rejected


def test_scan_equals_the_per_colour_reference(rng):
    i021 = ray_index("021")
    contexts = [
        Context(),
        Context(detector=Ordering.default().position_of(i021) + 1),
        Context(random_ordering(rng), random_mixed_state(rng), detector=int(rng.integers(1, 34))),
        Context(random_ordering(rng), maximally_mixed_state()),
        Context(Ordering.default().with_ray_last(i021)),
    ]
    for ctx in contexts:
        scan = scan_zero_events(ctx, 3)
        green, red, norm, code, min_rejected = _reference_zero_rows(ctx, 3)
        columns = (scan.events.green, scan.events.red, scan.norm, scan.code)
        for got, want in zip(columns, (green, red, norm, code)):
            assert got.shape == want.shape and (got == want).all()
        assert scan.min_rejected == min_rejected


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
    # operator products: level 1's for level 2, then once per level-2 pair
    # with a zero child (in the listing order a ray's position is its index)
    fixed = scan.events.green | scan.events.red
    level2 = np.array([int(x).bit_count() == 2 for x in fixed])
    green, red, fixed = scan.events.green[level2], scan.events.red[level2], fixed[level2]
    last = np.array([int(x).bit_length() - 1 for x in fixed])
    parent = fixed & ~(np.int64(1) << last)
    zero_pairs = len(set(zip(green & parent, red & parent, last)))
    assert zero_pairs < level2.sum()
    assert sum(n for slots, n in rows if slots == 3) == N_RAYS + zero_pairs


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
