"""The multiplicative co-event engine on small spaces and the colouring space."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pkslab.coevents import (
    ClassicalMeasure,
    CoEvent,
    GramMeasure,
    SupportCoevent,
    classical_coevents,
    is_preclusive,
    phi_m,
    primitive_preclusive_coevents,
    transported_coevent,
    truth_set_is_filter,
    verify_classical_coevents,
)
from pkslab.colourings import Colouring, gamma_p, gamma_p_prime, pks_events
from pkslab.explorer import pks_only_coverage
from pkslab.measure import HomogeneousEvent
from pkslab.rays import N_RAYS, PERES_RAYS, RayType, ray_index


def test_evaluate_basics():
    co = CoEvent(0b011, 4)
    full = 0b1111
    assert co.evaluate(full) == 1  # unitality
    assert co.evaluate(0b001) == 0
    assert co.evaluate(0b011) == 1
    with pytest.raises(ValueError):
        CoEvent(0, 4)


@given(st.integers(1, 255), st.integers(0, 255), st.integers(0, 255))
def test_multiplicativity(support, x, y):
    co = CoEvent(support, 8)
    assert co.evaluate(x & y) == co.evaluate(x) * co.evaluate(y)


@given(st.integers(1, 255), st.integers(0, 255))
def test_event_and_complement_never_both_true(support, x):
    co = CoEvent(support, 8)
    assert co.evaluate(x) * co.evaluate(~x & 0xFF) == 0


@given(st.integers(1, 2**6 - 1))
@settings(max_examples=63)
def test_truth_set_is_a_principal_filter(support):
    assert truth_set_is_filter(CoEvent(support, 6))


def test_full_support_truth_set():
    n = 5
    co = CoEvent((1 << n) - 1, n)
    assert truth_set_is_filter(co)
    truth = [e for e in range(1 << n) if co.evaluate(e)]
    assert truth == [(1 << n) - 1]


def test_classical_coevents_counts():
    assert len(classical_coevents(1)) == 1
    assert len(classical_coevents(3)) == 3
    assert verify_classical_coevents(3)
    assert verify_classical_coevents(6)
    assert verify_classical_coevents(8)  # witness + sampled route


def test_two_history_support_fails_additivity():
    co = CoEvent(0b11, 2)
    a, b = 0b01, 0b10
    assert co.evaluate(a ^ b) == 1
    assert (co.evaluate(a) + co.evaluate(b)) % 2 == 0


def test_preclusive_examples():
    assert is_preclusive(CoEvent(0b1, 3), [])
    assert is_preclusive(CoEvent(0b101, 3), [0b011])
    assert not is_preclusive(CoEvent(0b001, 3), [0b011])


def test_primitives_classical_all_positive():
    m = ClassicalMeasure((0.25, 0.25, 0.5))
    prims = primitive_preclusive_coevents(3, m.zero_events())
    assert [co.support for co in prims] == [1, 2, 4]


def test_primitives_classical_with_zero_weights():
    m = ClassicalMeasure((0.5, 0.0, 0.5, 0.0))
    prims = primitive_preclusive_coevents(4, m.zero_events())
    assert [co.support for co in prims] == [0b0001, 0b0100]


def test_gram_plus_minus_vector_example():
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    m = GramMeasure([v, -v, w])
    zeros = m.zero_events()
    assert 0b011 in zeros  # the cancelling pair
    assert m.value(0b011) < 1e-12 < m.value(0b001)  # non-monotone
    prims = primitive_preclusive_coevents(3, zeros)
    assert [co.support for co in prims] == [0b100]
    # independent exhaustion: a support is preclusive iff inside no zero event
    expected = []
    for s in sorted(range(1, 8), key=lambda x: (x.bit_count(), x)):
        if all(s & ~z for z in zeros) and not any(
            p & ~s == 0 for p in expected
        ):
            expected.append(s)
    assert [co.support for co in prims] == expected


def _maximal_events(events) -> list[int]:
    kept: list[int] = []
    for e in sorted(set(events), key=lambda x: -x.bit_count()):
        if not any(e & ~k == 0 for k in kept):
            kept.append(e)
    return kept


def reference_primitives(n: int, zero_events) -> tuple[CoEvent, ...]:
    """The per-support loop: supports in (size, value) order, skipping those
    above a recorded primitive, against the antichain of maximal zeros."""
    maximal = _maximal_events(zero_events)
    primitives: list[int] = []
    for support in sorted(range(1, 1 << n), key=lambda s: (s.bit_count(), s)):
        if any(p & ~support == 0 for p in primitives):
            continue
        if all(support & ~z for z in maximal):
            primitives.append(support)
    return tuple(CoEvent(s, n) for s in primitives)


def _random_zero_lists(rng, n):
    """Empty lists, raw ints with bits at or above n (negatives too), and the
    zero lists of classical and of non-monotone Gram measures."""
    yield []
    k = int(rng.integers(1, 12))
    yield [int(z) for z in rng.integers(-(1 << (n + 2)), 1 << (n + 2), size=k)]
    yield [int(z) for z in rng.integers(0, 1 << n, size=k)]
    w = rng.random(n)
    w[rng.random(n) < 0.4] = 0.0
    w[int(rng.integers(n))] += 0.5
    yield ClassicalMeasure(tuple(w / w.sum())).zero_events()
    if n >= 2:  # small integer vectors cancel over many events
        vecs = rng.integers(-1, 2, size=(n, 2)) + 1j * rng.integers(-1, 2, size=(n, 2))
        vecs[-1] = [1, 0] - vecs[:-1].sum(axis=0)
        yield GramMeasure(vecs).zero_events()


def test_primitives_equal_the_per_support_loop():
    rng = np.random.default_rng(17)
    cases = 0
    while cases < 2000:
        n = int(rng.integers(1, 13))
        for zeros in _random_zero_lists(rng, n):
            expected = reference_primitives(n, zeros)
            assert primitive_preclusive_coevents(n, zeros) == expected, (n, zeros)
            # numpy integers are masked before they are shifted
            assert primitive_preclusive_coevents(n, np.array(zeros, dtype=np.int64)) == expected
            cases += 1


@pytest.mark.parametrize("n", [0, 13])
def test_primitives_reject_n_out_of_range(n):
    with pytest.raises(ValueError):
        primitive_preclusive_coevents(n, [])


def test_gram_sum_rule_exhaustive_small():
    # all 4^5 assignments of each history to one of A, B, C or none
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    vecs /= np.linalg.norm(vecs.sum(axis=0))
    m = GramMeasure(vecs)
    worst = 0.0
    for assign in itertools.product(range(4), repeat=5):
        a = b = c = 0
        for i, slot in enumerate(assign):
            if slot == 1:
                a |= 1 << i
            elif slot == 2:
                b |= 1 << i
            elif slot == 3:
                c |= 1 << i
        worst = max(worst, m.sum_rule_residual(a, b, c))
    assert worst < 1e-10


def test_gram_requires_normalisation():
    with pytest.raises(ValueError):
        GramMeasure(np.eye(3))  # total sum has squared norm 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_measures_reject_non_finite_input(bad):
    # a NaN weight or vector would otherwise pass the sum checks, since
    # abs(nan - 1) > tol is False
    if not isinstance(bad, complex):
        with pytest.raises(ValueError, match="finite"):
            ClassicalMeasure((bad, 0.5))
    with pytest.raises(ValueError, match="finite"):
        GramMeasure([[bad, 0], [0, 1]])


def test_classical_zero_events_equal_the_per_event_sums():
    rng = np.random.default_rng(11)
    tol = 1e-10
    for n in range(1, 13):
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        w[-1] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        w /= w.sum()
        if n > 1:
            w[-1] = tol / 3  # positive, below tol; the sum stays within 1e-9 of 1
        m = ClassicalMeasure(tuple(w))
        expect = tuple(e for e in range(1 << n) if m.value(e) < tol)
        assert m.zero_events(tol) == expect
        assert all(type(e) is int for e in m.zero_events(tol))


def test_gram_zero_events_equal_the_per_event_values():
    """Integer vectors cancel exactly over many events, random ones over a
    +-v pair; the zero list is the events whose value is below tol."""
    rng = np.random.default_rng(13)
    tol = 1e-10
    for n in range(3, 11):
        ints = rng.integers(-1, 2, size=(n, 2)) + 1j * rng.integers(-1, 2, size=(n, 2))
        ints[-1] = [1, 0] - ints[:-1].sum(axis=0)  # the total is a unit vector
        floats = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        floats[1] = -floats[0]
        floats /= np.linalg.norm(floats.sum(axis=0))
        for vecs in (ints, floats):
            m = GramMeasure(vecs)
            assert m.zero_events(tol) == tuple(e for e in range(1 << n) if m.value(e) < tol)
        assert 0b11 in GramMeasure(floats).zero_events(tol)  # the +-v pair


def test_omega_coevent_always_preclusive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        vecs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        vecs /= np.linalg.norm(vecs.sum(axis=0))
        m = GramMeasure(vecs)
        omega = CoEvent((1 << n) - 1, n)
        assert is_preclusive(omega, m.zero_events())


def test_gram_functional_axioms():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    vecs /= np.linalg.norm(vecs.sum(axis=0))
    m = GramMeasure(vecs)
    full = (1 << 6) - 1
    assert abs(m.decoherence(full, full) - 1.0) < 1e-12
    for _ in range(200):
        a, b = int(rng.integers(1 << 6)), int(rng.integers(1 << 6))
        assert abs(m.decoherence(a, b) - m.decoherence(b, a).conjugate()) < 1e-12
        assert m.value(a) >= 0.0
        x = a & ~b
        if x and b:  # additivity over a disjoint split
            assert abs(
                m.decoherence(x | b, a) - m.decoherence(x, a) - m.decoherence(b, a)
            ) < 1e-10


def test_lemma_classical_primitives_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        w = rng.random(n)
        w[rng.random(n) < 0.4] = 0.0
        if w.sum() == 0:
            w[int(rng.integers(n))] = 1.0
        w /= w.sum()
        m = ClassicalMeasure(tuple(w))
        for co in primitive_preclusive_coevents(n, m.zero_events()):
            assert co.support.bit_count() == 1
            assert w[co.support.bit_length() - 1] > 0


# --- the colouring-space co-event ------------------------------------------------


def g_event(label: str) -> HomogeneousEvent:
    return HomogeneousEvent.from_fixed({ray_index(label): True})


def r_event(label: str) -> HomogeneousEvent:
    return HomogeneousEvent.from_fixed({ray_index(label): False})


def test_phi_m_support_and_values():
    co = phi_m()
    assert co.support == (gamma_p(), gamma_p_prime())
    assert co.evaluate(g_event("001")) == 1
    assert co.evaluate(r_event("001")) == 0
    assert co.evaluate(g_event("021")) == 0
    assert co.evaluate(r_event("021")) == 0
    for ray in PERES_RAYS:
        both = co.evaluate(g_event(ray.label)) + co.evaluate(r_event(ray.label))
        assert both <= 1  # never both true


def test_phi_m_preclusive_and_minimal():
    assert not pks_only_coverage(phi_m().support).covered
    for single in (SupportCoevent((gamma_p(),)), SupportCoevent((gamma_p_prime(),))):
        assert pks_only_coverage(single.support).covered


def test_singleton_coevent_not_preclusive_against_pks():
    co = SupportCoevent((gamma_p(),))
    zero_events = list(pks_events())
    assert not co.is_preclusive_for(zero_events)
    assert phi_m().is_preclusive_for(zero_events)


def test_valued_rays_span_every_type():
    co = phi_m()
    for green in (True, False):
        types = set()
        for i, ray in enumerate(PERES_RAYS):
            event = g_event(ray.label) if green else r_event(ray.label)
            if co.evaluate(event):
                types.add(ray.ray_type)
        assert types == set(RayType)


@pytest.mark.parametrize("green", [True, False])
def test_transported_coevent_for_every_ray(green):
    for k in range(N_RAYS):
        moved = transported_coevent(k, green)
        event = HomogeneousEvent.from_fixed({k: green})
        assert moved.evaluate(event) == 1
        assert not pks_only_coverage(moved.support).covered


def test_phi_m_itself_qualifies_as_the_001_green_transport():
    # the untransported co-event already values that event true, and the
    # deterministic tie-break returns some equally valid symmetry image
    assert phi_m().evaluate(g_event("001")) == 1
    moved = transported_coevent(ray_index("001"), True)
    assert moved.evaluate(g_event("001")) == 1
    assert len(moved.support) == 2
