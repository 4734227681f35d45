"""Colouring space, consistency, the walkthrough and the Peres colouring."""

import pytest
from hypothesis import given, settings, strategies as st

from pkslab.colourings import (
    Colouring,
    act_on_colouring,
    act_on_event,
    basis_chain,
    basis_name,
    consistent_assignments,
    enumerate_seed_colourings,
    fiducial_seed,
    gamma_p,
    gamma_p_prime,
    is_consistent,
    peres_walkthrough,
    pks_events,
    pks_sets_containing,
    seed_window,
    verify_ks_theorem,
)
from pkslab.rays import SWAP_XY, PERES_RAYS, ray_index, symmetry_group

GAMMA_P_GREENS = {"001", "011", "101", "012", "102", "201", "112", "1m12", "121", "211"}


def greens_of(c: Colouring) -> set[str]:
    return {PERES_RAYS[i].label for i in c.green_indices()}


def test_string_round_trip():
    c = gamma_p()
    assert Colouring.from_string(c.to_string()) == c
    assert len(c.to_string()) == 33


def test_trivial_colourings_inconsistent():
    assert not is_consistent(Colouring.all_red())
    assert not is_consistent(Colouring.all_green())


@given(st.integers(0, 2**33 - 1))
@settings(max_examples=200)
def test_every_colouring_is_inconsistent_and_in_a_pks_set(bits):
    c = Colouring(bits)
    assert not is_consistent(c)
    assert pks_sets_containing(c)


def test_pks_event_counts_and_examples():
    events = pks_events()
    reds = [e for e in events if e.green_mask == 0]
    greens = [e for e in events if e.red_mask == 0]
    assert len(reds) == 16
    assert len(greens) == 72
    assert events == tuple(reds + greens)  # the basis events come first
    assert all(e.n_fixed == 3 for e in reds) and all(e.n_fixed == 2 for e in greens)
    names = {e.describe() for e in events}
    assert "{100=r, 0m12=r, 021=r}" in names  # the contradiction basis of the walkthrough
    assert any(
        set(e.fixed) == {ray_index("001"), ray_index("110")} for e in greens
    )


def test_containment_examples():
    all_red = Colouring.all_red()
    for e in pks_events():
        if e.green_mask == 0:
            assert e.contains(all_red)
        else:
            assert not e.contains(all_red)


def test_ks_theorem_unsat_certificate():
    cert = verify_ks_theorem()
    assert cert.unsat
    assert cert.consistent_count == 0
    assert cert.nodes > 0
    assert cert.contradiction_counts  # at least one contradiction site recorded


def test_restricted_counts():
    b1 = basis_chain()[0].indices
    assert len(consistent_assignments(b1)) == 3
    window = seed_window()
    assert len(consistent_assignments(window, include_pairs=False)) == 24
    # the lone cross pair (001, 110) inside the window rules out 4 of the 24
    assert len(consistent_assignments(window, include_pairs=True)) == 20


def test_window_assignments_are_the_seeds_without_the_cross_pair():
    """With pairs imposed, the window's assignments are the seeds that do
    not green both 001 and 110, in the seeds' order."""
    i001, i110 = ray_index("001"), ray_index("110")
    kept = [s for s in enumerate_seed_colourings() if not (s[i001] and s[i110])]
    assert len(kept) == 20
    assert list(consistent_assignments(seed_window())) == kept


def test_seed_enumeration():
    seeds = enumerate_seed_colourings()
    assert len(seeds) == 24
    fid = fiducial_seed()
    assert fid in seeds
    assert greens_of(Colouring.from_green_indices(r for r, g in fid.items() if g)) == {
        "001", "101", "011", "1m12"
    }


def test_fiducial_walkthrough_reproduces_published_chain():
    trace = peres_walkthrough(fiducial_seed())
    assert trace.forced_only
    forced = [PERES_RAYS[s.forced_green].label for s in trace.steps]
    assert forced == ["102", "211", "201", "112", "012", "121"]
    visited = [basis_name(s.basis) for s in trace.steps]
    assert visited == ["B5", "B6", "B7", "B8", "B9", "B10"]
    assert trace.contradiction.kind == "all-red-basis"
    assert basis_name(trace.contradiction_basis) == "B11"


def test_swapped_seed_contradicts_at_b7():
    fid = fiducial_seed()
    perm = {i: ray_index(SWAP_XY.apply(PERES_RAYS[i])) for i in fid}
    swapped = {perm[i]: g for i, g in fid.items()}
    trace = peres_walkthrough(swapped)
    assert trace.contradiction.kind == "all-red-basis"
    assert basis_name(trace.contradiction_basis) == "B7"


def test_every_seed_reaches_a_contradiction():
    outcomes = {"all-red-basis": 0, "green-green-pair": 0}
    branched = 0
    for seed in enumerate_seed_colourings():
        trace = peres_walkthrough(seed)
        outcomes[trace.contradiction.kind] += 1
        if not trace.forced_only:
            branched += 1
    assert sum(outcomes.values()) == 24
    # 4 seeds green the crossing orthogonal pair and die on it; 4 need branching
    assert outcomes["green-green-pair"] == 4
    assert branched == 4


def test_ks_certificate_pinned():
    cert = verify_ks_theorem()
    assert cert.nodes == 47
    assert cert.contradiction_counts == (
        ("all-red basis B15 = {011, 21m1, 2m11}", 8),
        ("all-red basis B16 = {101, 12m1, m121}", 12),
        ("all-red basis B8 = {1m10, 112, m1m12}", 4),
    )


# Per seed, in enumeration order: seed greens, forced steps (basis:forced
# green ray), the contradiction reached and the branch nodes spent.
SEED_TRACES = (
    ('010 011 110', '',
     'all-red basis B16 = {101, 12m1, m121}', 3),
    ('010 01m1 110', '',
     'all-red basis B16 = {101, 12m1, m121}', 3),
    ('100 101 110', '',
     'all-red basis B15 = {011, 21m1, 2m11}', 3),
    ('001 011 101 110', '',
     'orthogonal pair both green: 001, 110', 0),
    ('001 01m1 101 110', '',
     'orthogonal pair both green: 001, 110', 0),
    ('100 10m1 110', '',
     'all-red basis B16 = {101, 12m1, m121}', 3),
    ('001 011 10m1 110', '',
     'orthogonal pair both green: 001, 110', 0),
    ('001 01m1 10m1 110', '',
     'orthogonal pair both green: 001, 110', 0),
    ('010 011 m112', 'B9:012 B10:121 B11:021 B12:1m10 B13:120 B6:211 B14:210',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('010 01m1 m112', 'B9:012 B10:121 B11:021 B12:1m10 B13:120 B15:21m1 B14:210',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('100 101 m112', 'B7:m102 B6:2m1m1 B5:20m1 B12:1m10 B13:2m10 B10:m12m1 B14:m120',
     'all-red basis B15 = {011, 21m1, 2m11}', 0),
    ('001 011 101 m112', 'B9:012 B10:121 B11:021 B8:112 B5:102 B6:211',
     'all-red basis B7 = {010, m102, 201}', 0),
    ('001 01m1 101 m112', 'B7:m102 B9:012 B10:121 B11:021 B8:112 B5:102',
     'all-red basis B15 = {011, 21m1, 2m11}', 0),
    ('100 10m1 m112', 'B7:m102 B6:2m1m1 B5:20m1 B12:1m10 B13:2m10 B15:21m1 B14:210',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('001 011 10m1 m112', 'B7:m102 B6:2m1m1 B5:20m1 B8:m1m12 B9:012 B11:0m12',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('001 01m1 10m1 m112', 'B7:m102 B15:21m1 B5:20m1 B8:m1m12 B11:0m12 B16:12m1',
     'all-red basis B9 = {100, 012, 02m1}', 0),
    ('010 011 1m12', 'B11:0m12 B10:m12m1 B9:02m1 B12:1m10 B14:m120 B6:2m1m1 B13:2m10',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('010 01m1 1m12', 'B11:0m12 B10:m12m1 B9:02m1 B12:1m10 B14:m120 B15:2m11 B13:2m10',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('100 101 1m12', 'B5:102 B6:211 B7:201 B12:1m10 B14:210 B10:121 B13:120',
     'all-red basis B15 = {011, 21m1, 2m11}', 0),
    ('001 011 101 1m12', 'B5:102 B6:211 B7:201 B8:112 B9:012 B10:121',
     'all-red basis B11 = {100, 0m12, 021}', 0),
    ('001 01m1 101 1m12', 'B5:102 B11:0m12 B10:m12m1 B9:02m1 B8:m1m12 B7:m102',
     'all-red basis B15 = {011, 21m1, 2m11}', 0),
    ('100 10m1 1m12', 'B5:102 B6:211 B7:201 B12:1m10 B14:210 B15:2m11 B13:2m10',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('001 011 10m1 1m12', 'B5:102 B6:211 B7:201 B8:112 B9:012 B11:0m12',
     'all-red basis B16 = {101, 12m1, m121}', 0),
    ('001 01m1 10m1 1m12', 'B11:0m12 B16:12m1 B9:02m1 B8:m1m12 B7:m102 B15:21m1',
     'all-red basis B5 = {010, 102, 20m1}', 0),
)


def test_every_seed_trace_pinned():
    branch_nodes = []
    for seed, (greens, steps, contradiction, nodes) in zip(
        enumerate_seed_colourings(), SEED_TRACES, strict=True
    ):
        trace = peres_walkthrough(seed)
        assert " ".join(PERES_RAYS[i].label for i in trace.seed_greens) == greens
        assert " ".join(
            f"{basis_name(s.basis)}:{PERES_RAYS[s.forced_green].label}" for s in trace.steps
        ) == steps
        assert all(
            set(s.already_red) | {s.forced_green} == set(s.basis.indices) for s in trace.steps
        )
        assert trace.contradiction.description == contradiction
        assert trace.branch_nodes == nodes
        assert trace.forced_only == (nodes == 0)
        branch_nodes.append(nodes)
    assert sum(branch_nodes) == 12
    assert sum(n > 0 for n in branch_nodes) == 4


def _green_closure(col: list[int]) -> None:
    """The orthogonality rule alone, written out: greens redden their
    orthogonal rays until nothing changes; a green-green pair conflicts."""
    from pkslab.colourings import (
        _GREEN, _RED, _UNSET, Contradiction, _Conflict, _orthogonal_neighbours,
    )

    neigh = _orthogonal_neighbours()
    changed = True
    while changed:
        changed = False
        for i in range(len(col)):
            if col[i] == _GREEN:
                for j in neigh[i]:
                    if col[j] == _GREEN:
                        raise _Conflict(Contradiction("green-green-pair", (i, j)))
                    if col[j] == _UNSET:
                        col[j] = _RED
                        changed = True


@given(st.lists(st.sampled_from((-1,) * 6 + (0, 1)), min_size=33, max_size=33))
@settings(max_examples=300)
def test_propagate_without_bases_is_the_green_closure(partial):
    from pkslab.colourings import _Conflict, _propagate

    def outcome(close):
        col = list(partial)
        try:
            close(col)
        except _Conflict as c:
            return c.contradiction
        return col

    assert outcome(lambda col: _propagate(col, None, ())) == outcome(_green_closure)


def test_walkthrough_rejects_bad_seed():
    bad = {r: False for r in seed_window()}  # all red violates every seed basis
    with pytest.raises(ValueError):
        peres_walkthrough(bad)
    with pytest.raises(ValueError):
        peres_walkthrough({0: True})


def _window_assignments():
    """All 1,024 assignments on the seed window, in binary order."""
    window = seed_window()
    for bits in range(1 << len(window)):
        yield {r: bool(bits >> k & 1) for k, r in enumerate(window)}


def test_walkthrough_accepts_exactly_one_green_per_seed_basis():
    accepted = rejected = 0
    for seed in _window_assignments():
        one_each = all(sum(seed[i] for i in b.indices) == 1 for b in basis_chain()[:4])
        try:
            peres_walkthrough(seed)
        except ValueError as e:
            assert not one_each and "four seed bases" in str(e)
            rejected += 1
        else:
            assert one_each
            accepted += 1
    assert (accepted, rejected) == (24, 1000)


def reference_transport_chain(seed):
    """The group loop: the first symmetry, identity first and then in group
    order, carrying the Peres colouring onto the seed on the window."""
    from pkslab.rays import IDENTITY, Basis, ray_permutations

    for g in [IDENTITY] + [g for g in symmetry_group() if not g.is_identity]:
        moved = act_on_colouring(g, gamma_p())
        if all(moved.is_green(r) == seed[r] for r in seed_window()):
            perm = ray_permutations()[g]
            return tuple(
                Basis(tuple(sorted(perm[i] for i in b.indices)))
                for b in basis_chain()[4:11]
            )
    return None


def _restriction(seed) -> tuple[bool, ...]:
    return tuple(seed[r] for r in seed_window())


def test_transport_table_equals_the_group_loop():
    from pkslab.colourings import _transport_table

    found = 0
    for seed in _window_assignments():
        chain = _transport_table().get(_restriction(seed))
        assert chain == reference_transport_chain(seed)
        found += chain is not None
    assert found == 14


def test_walkthroughs_equal_the_group_loop_walk(monkeypatch):
    from pkslab import colourings

    traces = [peres_walkthrough(s) for s in enumerate_seed_colourings()]
    table = {_restriction(s): reference_transport_chain(s) for s in _window_assignments()}
    monkeypatch.setattr(colourings, "_transport_table", lambda: table)
    assert traces == [peres_walkthrough(s) for s in enumerate_seed_colourings()]


def test_gamma_p_matches_published_column():
    assert greens_of(gamma_p()) == GAMMA_P_GREENS
    assert not gamma_p().is_green(ray_index("021"))
    assert gamma_p().is_green(ray_index("112"))


def test_gamma_p_lies_only_in_the_contradiction_event():
    holders = pks_sets_containing(gamma_p())
    assert [e.describe() for e in holders] == ["{100=r, 0m12=r, 021=r}"]
    holders_prime = pks_sets_containing(gamma_p_prime())
    assert [e.describe() for e in holders_prime] == ["{010=r, m102=r, 201=r}"]


def test_mirror_colouring_values():
    gpp = gamma_p_prime()
    assert gpp == act_on_colouring(SWAP_XY, gamma_p())
    assert gpp.is_green(ray_index("021"))
    assert not gpp.is_green(ray_index("201"))
    # red on the whole of B7
    b7 = basis_chain()[6]
    assert all(not gpp.is_green(i) for i in b7.indices)


def test_all_red_witnesses_non_disjointness():
    all_red = Colouring.all_red()
    names = {e.describe() for e in pks_sets_containing(all_red)}
    assert {"{100=r, 0m12=r, 021=r}", "{010=r, m102=r, 201=r}"} <= names


def test_identity_action():
    from pkslab.rays import IDENTITY

    c = gamma_p()
    assert act_on_colouring(IDENTITY, c) == c


@given(st.integers(0, 23), st.integers(0, 2**33 - 1))
@settings(max_examples=60)
def test_containment_equivariance(gi, bits):
    g = symmetry_group()[gi]
    c = Colouring(bits)
    moved = act_on_colouring(g, c)
    for e in pks_events()[:20]:
        assert e.contains(c) == act_on_event(g, e).contains(moved)


def test_transported_peres_colourings_form_a_free_orbit():
    """The 24 symmetry images of the Peres colouring are distinct total
    colourings; their restrictions to the seed window give only 14 of the
    24 seed assignments (the published 'related by the 24 symmetries' is
    loose: the window itself is not symmetry-invariant)."""
    orbit = {act_on_colouring(g, gamma_p()) for g in symmetry_group()}
    assert len(orbit) == 24
    window = seed_window()
    restrictions = {
        tuple(c.is_green(r) for r in window) for c in orbit
    }
    assert len(restrictions) == 14
    seeds = {
        tuple(s[r] for r in window) for s in enumerate_seed_colourings()
    }
    assert restrictions <= seeds
