"""The path measure: event states, the functional, detectors, oracles."""

import numpy as np
import pytest

import zbasis
from conftest import random_mixed_state, random_ordering, random_pure_state
from pkslab import spin
from pkslab.colourings import Colouring, gamma_p, pks_events
from pkslab.measure import (
    AxiomReport,
    Context,
    EventUnion,
    HomogeneousEvent,
    InitialState,
    Ordering,
    check_axioms,
    random_disjoint_triple,
    random_homogeneous_event,
    verify_pks_zero,
)
from pkslab.rays import N_RAYS, ray_index


def test_ordering_validation_and_helpers():
    d = Ordering.default()
    assert d.position_of(5) == 5
    moved = d.with_ray_last(ray_index("021"))
    assert moved.ray_at[-1] == ray_index("021")
    assert sorted(moved.ray_at) == list(range(N_RAYS))
    assert Ordering.from_labels(d.labels()) == d
    with pytest.raises(ValueError):
        Ordering(tuple([0] * 33))


def test_state_validation():
    with pytest.raises(ValueError):
        InitialState.pure([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        InitialState([(0.5, [1, 0, 0]), (0.6, [0, 1, 0])])
    # non-finite input would otherwise pass the normalisation checks
    for terms in (
        [(1.0, [np.nan, 1.0, 0.0])],
        [(1.0, [np.inf, 0.0, 0.0])],
        [(np.nan, [1, 0, 0])],
        [(0.5, [1, 0, 0]), (0.5, [0, complex(0, np.nan), 0])],
    ):
        with pytest.raises(ValueError, match="finite"):
            InitialState(terms)
    mixed = InitialState([(0.5, [1, 0, 0]), (0.5, [0, 1, 0])])
    assert not mixed.is_pure


def test_all_green_path_state_vanishes(default_ctx):
    psi = default_ctx.state.terms[0][1]
    path = HomogeneousEvent.agreeing_with(Colouring.all_green(), range(N_RAYS))
    v = zbasis.event_state(default_ctx.ordering, path, psi)
    assert np.linalg.norm(v) < 1e-12


def test_event_state_of_everything_is_psi(default_ctx):
    psi = default_ctx.state.terms[0][1]
    v = zbasis.event_state(default_ctx.ordering, HomogeneousEvent.everything(), psi)
    assert np.allclose(v, psi)
    assert abs(default_ctx.measure(HomogeneousEvent.everything()) - 1.0) < 1e-12


def test_adjacent_orthogonal_greens_vanish(default_ctx):
    # rays 001 and 010 sit at consecutive positions in the default ordering
    e = HomogeneousEvent.from_fixed({ray_index("001"): True, ray_index("010"): True})
    assert default_ctx.norm(e) < 1e-12


def test_path_state_with_adjacent_orthogonal_greens_vanishes(default_ctx, rng):
    psi = default_ctx.state.terms[0][1]
    bits = int(rng.integers(1 << N_RAYS)) | 0b11  # greens at the adjacent axes
    path = HomogeneousEvent.agreeing_with(Colouring(bits), range(N_RAYS))
    v = zbasis.event_state(default_ctx.ordering, path, psi)
    assert np.linalg.norm(v) < 1e-12


def test_truncated_completeness(rng):
    ctx = Context(random_ordering(rng), random_pure_state(rng))
    psi = ctx.state.terms[0][1]
    for k in (4, 9):
        states = zbasis.truncated_path_states(ctx.ordering, psi, k)
        assert states.shape == (1 << k, 3)
        assert np.linalg.norm(states.sum(axis=0) - psi) < 1e-12


def test_event_state_matches_completion_oracle(rng):
    ctx = Context(random_ordering(rng), random_pure_state(rng))
    psi = ctx.state.terms[0][1]
    chain_len = 12
    chain_rays = ctx.ordering.ray_at[:chain_len]
    for _ in range(60):
        k = int(rng.integers(1, 5))
        rays = rng.choice(chain_rays, size=k, replace=False)
        e = HomogeneousEvent.from_fixed(
            {int(i): bool(rng.integers(2)) for i in rays}
        )
        brute = zbasis.event_state_by_completion(e, ctx.ordering, psi, chain_len)
        # the collapsed route must agree once the tail is also summed out,
        # which for a truncated comparison means simply cutting the chain
        collapsed = psi.copy()
        for ray, green in zbasis.chain(ctx.ordering, e):
            collapsed = zbasis.ray_projector(ray, green) @ collapsed
        assert np.linalg.norm(brute - collapsed) < 1e-10


def test_completion_oracle_rejects_out_of_chain_events(default_ctx):
    e = HomogeneousEvent.from_fixed({32: True})
    with pytest.raises(ValueError):
        zbasis.event_state_by_completion(e, default_ctx.ordering, np.array([0, 1, 0]), 4)


def test_union_requires_syntactic_disjointness():
    a = HomogeneousEvent.from_fixed({0: True})
    b = HomogeneousEvent.from_fixed({1: False})
    with pytest.raises(ValueError):
        EventUnion((a, b))
    c = HomogeneousEvent.from_fixed({0: False})
    EventUnion((a, c))  # fine


def test_axioms_on_random_contexts(rng):
    for state in (
        InitialState.default(),
        random_pure_state(rng),
        random_mixed_state(rng),
    ):
        ctx = Context(random_ordering(rng), state)
        report = check_axioms(ctx, rng, samples=40, sum_rule_trials=60)
        assert report.passes()


def test_axiom_residuals_propagate_nan(rng):
    class NanContext:
        def decoherences(self, a_events, b_events):
            return np.full(len(a_events), complex(np.nan, 0.0))

    report = check_axioms(NanContext(), rng, samples=5, sum_rule_trials=5)
    for residual in ("hermiticity", "additivity", "positivity", "normalisation", "sum_rule"):
        assert np.isnan(getattr(report, residual)), residual
    assert not report.passes()


def test_axioms_require_samples(default_ctx, rng):
    for samples, trials in ((0, 5), (5, 0), (-1, 5)):
        with pytest.raises(ValueError, match="at least 1"):
            check_axioms(default_ctx, rng, samples=samples, sum_rule_trials=trials)


@pytest.mark.parametrize("threshold", [0.0, -1e-10, float("inf"), float("nan")])
def test_context_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="positive and finite"):
        Context(threshold=threshold)


def test_mixed_state_is_convex_combination(rng):
    ordering = random_ordering(rng)
    s1, s2 = random_pure_state(rng), random_pure_state(rng)
    mixed = InitialState([(0.3, s1.terms[0][1]), (0.7, s2.terms[0][1])])
    ctx_mixed = Context(ordering, mixed)
    ctx1, ctx2 = Context(ordering, s1), Context(ordering, s2)
    for _ in range(20):
        a = random_homogeneous_event(rng)
        b = random_homogeneous_event(rng)
        expect = 0.3 * ctx1.decoherence(a, b) + 0.7 * ctx2.decoherence(a, b)
        assert abs(ctx_mixed.decoherence(a, b) - expect) < 1e-12


def test_pks_zero_for_default_and_random_contexts(rng):
    for ctx in (
        Context(),
        Context(random_ordering(rng), random_pure_state(rng)),
        Context(random_ordering(rng), random_mixed_state(rng)),
    ):
        report = verify_pks_zero(ctx)
        assert report.all_zero
        assert len(report.entries) == 88
        assert len(report.union_entries) == 192


def test_detector_decoheres_sectors(default_ctx):
    i021 = ray_index("021")
    det = Context(detector=default_ctx.ordering.position_of(i021) + 1)
    assert det.detected_ray == i021
    assert default_ctx.detector is None and default_ctx.detected_ray is None
    g = HomogeneousEvent.from_fixed({i021: True})
    r = HomogeneousEvent.from_fixed({i021: False})
    assert det.decoherence(g, r) == 0
    # events fixing the detected colour keep their measure exactly
    e = HomogeneousEvent.from_fixed({i021: True, 3: False})
    assert det.measure(e) == default_ctx.measure(e)


def test_detector_shifts_preclusion_zeros(default_ctx):
    # with coherence at ray 021 destroyed, the all-red event on the basis
    # {201, 010, m102} picks up measure 4/9 for the default state
    i021 = ray_index("021")
    det = Context(detector=default_ctx.ordering.position_of(i021) + 1)
    b7 = HomogeneousEvent.from_fixed(
        {ray_index("201"): False, ray_index("010"): False, ray_index("m102"): False}
    )
    assert abs(det.measure(b7) - 4.0 / 9.0) < 1e-12
    assert default_ctx.measure(b7) < 1e-20
    b11 = HomogeneousEvent.from_fixed(
        {ray_index("100"): False, ray_index("021"): False, ray_index("0m12"): False}
    )
    assert det.measure(b11) < 1e-20  # fixes the detected ray: unchanged


def test_detected_functional_still_satisfies_axioms(rng):
    det = Context(random_ordering(rng), random_pure_state(rng), detector=10)
    report = check_axioms(det, rng, samples=40, sum_rule_trials=60)
    assert report.passes()


def test_detected_functional_is_the_sector_sum(rng):
    """With a detector at stage 10 the functional is, bit for bit, the plain
    functional on the red restrictions plus that on the green ones, summed
    from 0j, for a mixed state, on homogeneous events and on a union."""
    ordering, state = random_ordering(rng), random_mixed_state(rng, terms=3)
    plain, det = Context(ordering, state), Context(ordering, state, detector=10)
    ray = ordering.ray_at[9]
    other = (ray + 1) % N_RAYS

    def restrict(event, green):
        members = event.members if isinstance(event, EventUnion) else (event,)
        cuts = (e.with_fixed(ray, green) for e in members)
        return EventUnion(tuple(e for e in cuts if e is not None))

    events = [random_homogeneous_event(rng, max_fixed=4) for _ in range(40)] + [
        HomogeneousEvent.from_fixed({ray: g, other: h}) for g in (False, True) for h in (False, True)
    ]
    union = EventUnion((
        HomogeneousEvent.from_fixed({ray: True}),
        HomogeneousEvent.from_fixed({ray: False, other: True}),
    ))
    pairs = list(zip(events, events[1:])) + [(union, e) for e in events] + [(union, union)]
    for a, b in pairs:
        expect = 0j + plain.decoherence(restrict(a, False), restrict(b, False))
        expect += plain.decoherence(restrict(a, True), restrict(b, True))
        assert det.decoherence(a, b) == expect
    assert any(det.decoherence(a, b) != plain.decoherence(a, b) for a, b in pairs)


def test_batch_builds_each_member_once(monkeypatch, rng):
    """One `decoherences` call builds the rows of each distinct homogeneous
    member once, in one `_member_states` call, however many events and
    unions of either list share it, equal members built apart included: one
    row per member in a plain context, a red and a green row under a
    detector, each with a Re and an Im slot per mixture term."""
    built = []
    original = Context._member_states

    def recording(self, masks):
        states = original(self, masks)
        built.append((sorted(map(tuple, masks.tolist())), states.shape))
        return states

    monkeypatch.setattr(Context, "_member_states", recording)
    ordering, state = random_ordering(rng), random_mixed_state(rng, terms=3)
    x, y, z = random_disjoint_triple(rng)
    single = HomogeneousEvent.from_fixed({2: True, 3: False})
    a_events = [EventUnion((x, y, z)), EventUnion((x, y)), single, x, EventUnion((y, z))]
    equal = HomogeneousEvent.from_fixed({2: True, 3: False})  # == single, built apart
    b_events = [single, EventUnion((z, x)), equal, y, z]
    distinct = sorted((e.green_mask, e.red_mask) for e in (x, y, z, single))
    for ctx, sectors in ((Context(ordering, state), 1),
                         (Context(ordering, state, detector=ordering.position_of(0) + 1), 2)):
        built.clear()
        ctx.decoherences(a_events, b_events)
        ctx.decoherences(a_events, a_events)
        assert built == [(distinct, (len(distinct) + 1, sectors, 2 * 3, 3))] * 2



def test_each_event_lists_its_members_once(monkeypatch, rng):
    """`decoherences` asks each event of either list for its members once,
    unions and repeated events included."""
    from pkslab import measure

    asked = []
    members = measure._members

    def counting(event):
        asked.append(event)
        return members(event)

    monkeypatch.setattr(measure, "_members", counting)
    x, y, z = random_disjoint_triple(rng)
    a_events = [EventUnion((x, y, z)), x, EventUnion((y, z)), x]
    b_events = [y, EventUnion((z, x)), z, random_homogeneous_event(rng)]
    for ctx in (Context(random_ordering(rng)), Context(detector=5)):
        asked.clear()
        ctx.decoherences(a_events, b_events)
        assert asked == a_events + b_events


def _dot(x, y):
    """x.y for two 3-vectors, the products summed as numpy's einsum sums
    three: the first and the third, then the second."""
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]


def _reference_decoherence(ctx, a, b) -> complex:
    """The functional one member, term and step at a time in the real
    Cartesian picture.  Each member of each sector restriction steps the Re
    and Im slots of T^dagger psi of each mixture term through its fixed rays
    in position order, green u (u.v) and red v - u (u.v); the member slots
    are summed from zero in member order; per term,
    w ((R_a.R_b + I_a.I_b) + i (R_a.I_b - I_a.R_b)) is summed in term order
    from zero; and the sectors (red, then green) are added to 0j.  The slots
    of `a` serve for `b` when `b is a`."""
    directions = spin.ray_directions()
    start = [psi @ spin.CART_TO_Z.conj() for _, psi in ctx.state.terms]

    def step(v, ray, green):
        u = directions[ray]
        along = _dot(v, u) * u
        return along if green else v - along

    def slots(event):
        """Per sector and mixture term, the member (Re, Im) slots summed from zero."""
        out = []
        for ms in zbasis.sectors(ctx, event):
            out.append([])
            for z in start:
                re, im = np.zeros(3), np.zeros(3)
                for e in ms:
                    er, ei = z.real, z.imag
                    for ray, green in zbasis.chain(ctx.ordering, e):
                        er, ei = step(er, ray, green), step(ei, ray, green)
                    re, im = re + er, im + ei
                out[-1].append((re, im))
        return out

    sa = slots(a)
    sb = sa if b is a else slots(b)
    sums = []
    for xa, xb in zip(sa, sb):
        out = 0j
        for (w, _), (ra, ia), (rb, ib) in zip(ctx.state.terms, xa, xb):
            out += w * complex(_dot(ra, rb) + _dot(ia, ib), _dot(ra, ib) - _dot(ia, rb))
        sums.append(out)
    return sums[0] if ctx.detector is None else sum(sums, 0j)


@pytest.mark.parametrize("detected", [False, True])
@pytest.mark.parametrize("terms", [1, 3])
def test_functional_equals_reference(rng, detected, terms):
    """Bit-identical `decoherences`, `decoherence`, `measure` and `norm`
    against the reference, on homogeneous events with up to 29 fixed rays,
    1-3 member unions, a union whose red sector is empty, and pairs where
    `a is b`."""
    ordering = random_ordering(rng)
    state = random_pure_state(rng) if terms == 1 else random_mixed_state(rng, terms=3)
    ray = ordering.ray_at[9]
    events = [random_homogeneous_event(rng, max_fixed=4) for _ in range(15)]
    events += [random_homogeneous_event(rng, max_fixed=29) for _ in range(10)]
    events.append(HomogeneousEvent.everything())
    for _ in range(8):
        triple = random_disjoint_triple(rng)
        events += [EventUnion(triple[:k]) for k in (1, 2, 3)]
    # every member fixes the detected ray green: the red sector is empty
    events.append(EventUnion((
        HomogeneousEvent.from_fixed({ray: True, (ray + 1) % N_RAYS: True}),
        HomogeneousEvent.from_fixed({ray: True, (ray + 1) % N_RAYS: False}),
    )))
    pairs = [(a, events[int(rng.integers(len(events)))]) for a in events] + [(e, e) for e in events]
    ctx = Context(ordering, state, detector=10 if detected else None)
    expect = [_reference_decoherence(ctx, a, b) for a, b in pairs]
    lhs, rhs = (list(x) for x in zip(*pairs))
    assert ctx.decoherences(lhs, rhs).tolist() == expect
    assert ctx.decoherences(events, events).tolist() == expect[len(events):]
    for (a, b), d in zip(pairs, expect):
        assert ctx.decoherence(a, b) == d
        m = float(_reference_decoherence(ctx, a, a).real)
        assert ctx.measure(a) == m
        assert ctx.norm(a) == float(np.sqrt(max(m, 0.0)))


@pytest.mark.parametrize("detected", [False, True])
@pytest.mark.parametrize("terms", [1, 3])
def test_functional_matches_the_z_basis_oracle(rng, detected, terms):
    """The real Cartesian functional against the complex z-basis one, whose
    projectors come from the spin-1 eigenbases: within 1e-15 on homogeneous
    events with up to 29 fixed rays and on 1-3 member unions."""
    ordering = random_ordering(rng)
    state = random_pure_state(rng) if terms == 1 else random_mixed_state(rng, terms=3)
    ctx = Context(ordering, state, detector=10 if detected else None)
    events = [random_homogeneous_event(rng, max_fixed=4) for _ in range(20)]
    events += [random_homogeneous_event(rng, max_fixed=29) for _ in range(20)]
    events.append(HomogeneousEvent.everything())
    for _ in range(8):
        triple = random_disjoint_triple(rng)
        events += [EventUnion(triple[:k]) for k in (1, 2, 3)]
    pairs = [(a, events[int(rng.integers(len(events)))]) for a in events] + [(e, e) for e in events]
    lhs, rhs = (list(x) for x in zip(*pairs))
    expect = np.array([zbasis.decoherence(ctx, a, b) for a, b in pairs])
    assert np.abs(ctx.decoherences(lhs, rhs) - expect).max() < 1e-15


def test_functional_is_hermitian_to_the_bit(rng):
    """D(b, a) is the conjugate of D(a, b) bit for bit: swapping the events
    swaps the factors of each product and negates the imaginary part."""
    ordering = random_ordering(rng)
    contexts = [
        Context(ordering, random_pure_state(rng)),
        Context(ordering, random_pure_state(rng), detector=10),
        Context(ordering, random_mixed_state(rng, terms=3)),
    ]
    a_events = [random_homogeneous_event(rng, max_fixed=6) for _ in range(60)]
    b_events = [random_homogeneous_event(rng, max_fixed=6) for _ in range(60)]
    a_events += [EventUnion(random_disjoint_triple(rng)) for _ in range(10)]
    b_events += [random_homogeneous_event(rng) for _ in range(10)]
    for ctx in contexts:
        ab = ctx.decoherences(a_events, b_events)
        assert np.any(ab.imag != 0)
        assert np.array_equal(ab, ctx.decoherences(b_events, a_events).conj())


def test_default_normalisation_is_exact():
    """D(Omega, Omega) is 1.0 exactly for the default state, whose only
    Cartesian slot is the unit z axis."""
    everything = HomogeneousEvent.everything()
    assert Context().decoherence(everything, everything) == 1.0


def test_scan_and_functional_take_one_step(monkeypatch, rng):
    """The zero scan and the functional step their chains with the one
    projection `spin.project`."""
    from pkslab.explorer import scan_zero_events

    callers = []
    original = spin.project

    def recording(v, u, out=None):
        callers.append(v.shape[-2])
        return original(v, u, out=out)

    monkeypatch.setattr(spin, "project", recording)
    ctx = Context(random_ordering(rng), random_mixed_state(rng))
    scan_zero_events(ctx, 1)
    assert 4 in callers  # the scan's state slots: Re and Im of both terms
    callers.clear()
    ctx.norm(HomogeneousEvent.from_fixed({0: True, 1: False}))
    assert callers == [4, 4]  # the functional's, one step per fixed ray


def test_batch_rejects_unequal_lengths(default_ctx):
    e = HomogeneousEvent.everything()
    with pytest.raises(ValueError, match="equal length"):
        default_ctx.decoherences([e, e], [e])
    assert default_ctx.decoherences([], []).shape == (0,)


def _reference_axioms(ctx, rng, samples: int = 100, sum_rule_trials: int = 200) -> AxiomReport:
    """`check_axioms` on the reference functional: the residuals computed in
    sampling order, one `_reference_decoherence` call per term."""

    def d(a, b):
        return _reference_decoherence(ctx, a, b)

    def mu(a):
        return d(a, a).real

    herm, add, diag, sum_rule = [], [], [], []
    for _ in range(samples):
        a = random_homogeneous_event(rng)
        b = random_homogeneous_event(rng)
        herm.append(abs(d(a, b) - d(b, a).conjugate()))
        x, y, _ = random_disjoint_triple(rng)
        z = random_homogeneous_event(rng)
        add.append(abs(d(EventUnion((x, y)), z) - d(x, z) - d(y, z)))
        diag.append(mu(a))
    everything = HomogeneousEvent.everything()
    norm_res = abs(d(everything, everything) - 1.0)
    for _ in range(sum_rule_trials):
        a, b, c = random_disjoint_triple(rng)
        pairs = mu(EventUnion((a, b))) + mu(EventUnion((b, c))) + mu(EventUnion((a, c)))
        sum_rule.append(abs(mu(EventUnion((a, b, c))) - (pairs - mu(a) - mu(b) - mu(c))))
    return AxiomReport(
        hermiticity=float(np.max(herm, initial=0.0)),
        additivity=float(np.max(add, initial=0.0)),
        positivity=float(np.min(diag, initial=0.0)),
        normalisation=norm_res,
        sum_rule=float(np.max(sum_rule, initial=0.0)),
        samples=samples,
    )


def test_axiom_report_equals_scalar_reference(rng):
    """The batched `check_axioms` draws the same events from the same seed
    and reports the reference functional's residuals to the last bit."""
    default = Ordering.default()
    stage = default.position_of(ray_index("021")) + 1
    contexts = [
        Context(),
        Context(detector=stage),
        Context(default, random_mixed_state(rng, terms=3), detector=stage),
        Context(random_ordering(rng)),
    ]
    for ctx in contexts:
        for seed in range(5):
            report = check_axioms(ctx, np.random.default_rng(seed))
            assert report == _reference_axioms(ctx, np.random.default_rng(seed))


def test_pks_zero_measures_every_disjoint_union(monkeypatch, rng):
    events = pks_events()
    green = np.array([e.green_mask for e in events])
    red = np.array([e.red_mask for e in events])
    disjoint = ((green[:, None] & red) | (red[:, None] & green)) != 0
    pairs = list(zip(*(x.tolist() for x in np.nonzero(np.triu(disjoint)))))
    assert len(pairs) == 192
    # no three pairwise disjoint: no disjoint pair has an event disjoint from both
    common = disjoint.astype(int) @ disjoint.astype(int)
    assert not (disjoint & (common > 0)).any()
    shared = []
    for i, j in pairs:  # a red basis and a green pair sharing one or two of its rays
        basis, pair = sorted((events[i], events[j]), key=lambda e: e.green_mask != 0)
        assert (basis.green_mask, pair.red_mask) == (0, 0)
        assert (len(basis.fixed), len(pair.fixed)) == (3, 2)
        shared.append(bin(basis.red_mask & pair.green_mask).count("1"))
    assert (shared.count(1), shared.count(2)) == (144, 48)
    ordering = random_ordering(rng)
    for ctx in (Context(), Context(ordering, random_mixed_state(rng, terms=3), detector=12)):
        report = verify_pks_zero(ctx)
        assert report.entries == tuple((e.describe(), ctx.norm(e), ctx.measure(e)) for e in events)
        unions = [EventUnion((events[i], events[j])) for i, j in pairs]
        assert report.union_entries == tuple(
            (" | ".join(e.describe() for e in u.members), ctx.norm(u), ctx.measure(u))
            for u in unions
        )
    built = []
    original = EventUnion.__post_init__

    def counting(self):
        built.append(len(self.members))
        original(self)

    monkeypatch.setattr(EventUnion, "__post_init__", counting)
    report = verify_pks_zero(Context())
    assert built == [2] * 192 and len(report.union_entries) == 192


def test_detector_position_validation():
    with pytest.raises(ValueError):
        Context(detector=0)
    with pytest.raises(ValueError):
        Context(detector=34)
    assert Context(detector=33).detected_ray == Ordering.default().ray_at[32]


def test_random_triple_is_pairwise_disjoint(rng):
    for _ in range(50):
        a, b, c = random_disjoint_triple(rng)
        assert a.is_disjoint_from(b)
        assert b.is_disjoint_from(c)
        assert a.is_disjoint_from(c)


def test_gamma_p_basis_red_events_vanish(default_ctx):
    # the support colourings themselves sit inside zero events for any order
    for e in pks_events():
        if e.contains(gamma_p()):
            assert default_ctx.norm(e) < 1e-12


def test_sum_rule_thousand_triples_default_context(default_ctx):
    """The three-set sum rule on 1000 random disjoint triples, all measured
    in one `decoherences` call."""
    rng = np.random.default_rng(99)
    events = []
    for _ in range(1000):
        a, b, c = random_disjoint_triple(rng)
        events += [EventUnion((a, b, c)), EventUnion((a, b)), EventUnion((b, c)), EventUnion((a, c)), a, b, c]
    mu = default_ctx.decoherences(events, events).real.reshape(-1, 7)
    rhs = mu[:, 1] + mu[:, 2] + mu[:, 3] - mu[:, 4] - mu[:, 5] - mu[:, 6]
    assert np.max(np.abs(mu[:, 0] - rhs)) < 1e-10


def test_one_evaluation_route(monkeypatch):
    """Every value of the functional comes from `_member_states`: the single
    views make one member build each through `decoherences`,
    `structural_threat_pairs` makes one `decoherences` call of its ten
    candidates and `last_ray_021_construction` one of its two events, in a
    plain, a detected and a maximally mixed context.  The structural zeros are the
    ten candidates whose reference norm falls below the threshold."""
    from pkslab.explorer import (
        last_ray_021_construction,
        maximally_mixed_state,
        structural_threat_pairs,
    )

    built, batches = [], []
    member_states, decoherences = Context._member_states, Context.decoherences

    def recording_members(self, masks):
        built.append(masks)
        return member_states(self, masks)

    def recording_batches(self, a_events, b_events):
        batches.append(list(a_events))
        return decoherences(self, a_events, b_events)

    monkeypatch.setattr(Context, "_member_states", recording_members)
    monkeypatch.setattr(Context, "decoherences", recording_batches)
    ordering = Ordering.default().with_ray_last(ray_index("021"))
    a = HomogeneousEvent.from_fixed({0: True, 5: False})
    b = EventUnion(random_disjoint_triple(np.random.default_rng(7)))
    for ctx in (
        Context(ordering),
        Context(ordering, detector=N_RAYS),
        Context(ordering, maximally_mixed_state()),
    ):
        for single in (
            lambda: ctx.decoherence(a, b),
            lambda: ctx.measure(b),
            lambda: ctx.norm(a),
            lambda: ctx.is_zero(b),
        ):
            del built[:], batches[:]
            single()
            assert len(batches) == 1 and len(built) == 1
        del built[:], batches[:]
        zeros = structural_threat_pairs(ctx)
        assert len(batches) == 1 and len(built) == 1
        candidates = [HomogeneousEvent(int(g), int(r)) for g, r in built[0]]
        assert len(candidates) == 10
        expect = [
            (e.green_mask, e.red_mask)
            for e in candidates
            if np.sqrt(max(_reference_decoherence(ctx, e, e).real, 0.0)) < ctx.threshold
        ]
        assert list(zip(zeros.green.tolist(), zeros.red.tolist())) == expect
        assert 0 < len(expect) < len(candidates)
        batches.clear()
        last_ray_021_construction(ctx)
        assert len(batches) == 1 and len(batches[0]) == 2
