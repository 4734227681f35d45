"""Geometry of the ray set: exact arithmetic, bases, pairs, symmetries."""

import itertools

import pytest
from hypothesis import given, strategies as st

from pkslab.rays import (
    IDENTITY,
    N_RAYS,
    PERES_RAYS,
    SWAP_XY,
    Basis,
    Ray,
    RayType,
    apply_symmetry,
    are_orthogonal,
    enumerate_bases,
    enumerate_orthogonal_pairs,
    ray_index,
    ray_permutations,
    symmetry_group,
)

# Brute-force fixtures, frozen from an independent enumeration over all
# C(33,2) pairs and C(33,3) triples with exact Z[sqrt2] dot products.
N_ORTHOGONAL_PAIRS = 72
N_PAIRS_OUTSIDE_BASES = 24

PUBLISHED_RAY_ROWS = {
    RayType.I: ["001", "010", "100"],
    RayType.II: ["011", "01m1", "101", "10m1", "110", "1m10"],
    RayType.III: ["012", "0m12", "021", "02m1", "102", "m102",
                  "201", "20m1", "120", "m120", "210", "2m10"],
    RayType.IV: ["112", "m112", "1m12", "m1m12", "121", "12m1",
                 "m121", "m12m1", "211", "21m1", "2m11", "2m1m1"],
}

PUBLISHED_BASES = [
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
]


def test_exactly_33_rays_in_published_order():
    rays = PERES_RAYS
    assert len(rays) == 33
    expected = [
        label for t in (RayType.I, RayType.II, RayType.III, RayType.IV)
        for label in PUBLISHED_RAY_ROWS[t]
    ]
    assert [r.label for r in rays] == expected


def test_type_counts():
    counts = {t: 0 for t in RayType}
    for r in PERES_RAYS:
        counts[r.ray_type] += 1
    assert counts == {RayType.I: 3, RayType.II: 6, RayType.III: 12, RayType.IV: 12}


def test_ray_set_is_exactly_the_magnitude_patterns():
    # Independent generation: every canonical triple over {-2..2} whose
    # magnitude multiset is one of the four admissible patterns.
    found = set()
    for triple in itertools.product(range(-2, 3), repeat=3):
        if triple == (0, 0, 0):
            continue
        if tuple(sorted(abs(x) for x in triple)) in {
            (0, 0, 1), (0, 1, 1), (0, 1, 2), (1, 1, 2)
        }:
            found.add(Ray.from_components(*triple))
    assert found == set(PERES_RAYS)


def test_label_round_trip_and_record_parsing():
    for r in PERES_RAYS:
        assert Ray.from_label(r.label) == r
        assert Ray.from_label(r.record) == r
    assert Ray.from_label("0m11") == Ray.from_label("01m1")  # projective alias
    assert Ray.from_label("m101") == Ray.from_label("10m1")


def test_canonical_form_rejects_bad_input():
    with pytest.raises(ValueError):
        Ray((0, 1, -2))  # sqrt2 digit must be positive
    with pytest.raises(ValueError):
        Ray.from_components(0, 0, 0)
    with pytest.raises(ValueError):
        Ray.from_components(2, 2, 1)  # not an admissible magnitude pattern
    assert Ray.from_components(0, 1, -2) == Ray.from_label("0m12")


def test_orthogonality_examples():
    assert are_orthogonal(Ray.from_label("001"), Ray.from_label("100"))
    assert are_orthogonal(Ray.from_label("112"), Ray.from_label("1m10"))
    assert not are_orthogonal(Ray.from_label("001"), Ray.from_label("011"))


def test_sqrt2_digit_matters_for_orthogonality():
    # (sqrt2,1,1).(sqrt2,-1,-1) = 2 - 1 - 1 = 0, while the literal integer
    # dot product 4 - 1 - 1 is not zero; the published basis containing
    # both rays pins the convention.
    a, b = Ray.from_label("211"), Ray.from_label("2m1m1")
    assert are_orthogonal(a, b)
    assert sum(x * y for x, y in zip(a.components, b.components)) != 0


def test_sixteen_bases_including_the_published_eleven():
    bases = enumerate_bases()
    assert len(bases) == 16
    assert len(set(bases)) == 16
    for row in PUBLISHED_BASES:
        assert Basis.of(*row) in bases


def test_orthogonal_pair_count_and_basis_annotation():
    pairs = enumerate_orthogonal_pairs()
    assert len(pairs) == N_ORTHOGONAL_PAIRS
    assert sum(1 for p in pairs if not p.in_basis) == N_PAIRS_OUTSIDE_BASES
    by_indices = {p.indices: p for p in pairs}
    # (001, 110) is orthogonal to the first listed basis ray and lies in a basis
    key = tuple(sorted((ray_index("001"), ray_index("110"))))
    assert key in by_indices and by_indices[key].in_basis
    # (110, 1m10) completes a basis with 001
    key = tuple(sorted((ray_index("110"), ray_index("1m10"))))
    assert key in by_indices and by_indices[key].in_basis


def test_symmetry_group_order_and_identity():
    group = symmetry_group()
    assert len(group) == 24
    assert IDENTITY in group
    assert sum(1 for g in group if g.is_identity) == 1


def test_group_closure_and_inverses():
    group = set(symmetry_group())
    for g in group:
        assert g.inverse() in group
        assert g.compose(g.inverse()).is_identity
    for g, h in itertools.islice(itertools.product(group, group), 200):
        assert g.compose(h) in group


def test_swap_xy_example():
    assert apply_symmetry(SWAP_XY, Ray.from_label("021")) == Ray.from_label("201")
    assert apply_symmetry(SWAP_XY, Ray.from_label("m102")) == Ray.from_label("0m12")
    assert apply_symmetry(IDENTITY, Ray.from_label("112")) == Ray.from_label("112")


def test_symmetries_preserve_type():
    for g in symmetry_group():
        for r in PERES_RAYS:
            assert apply_symmetry(g, r).ray_type == r.ray_type


def test_symmetries_preserve_orthogonality():
    pairs = list(itertools.combinations(PERES_RAYS, 2))
    for g in symmetry_group():
        for a, b in pairs:
            assert are_orthogonal(a, b) == are_orthogonal(
                apply_symmetry(g, a), apply_symmetry(g, b)
            )


def test_transitive_on_each_type():
    by_type = {}
    for r in PERES_RAYS:
        by_type.setdefault(r.ray_type, []).append(r)
    group = symmetry_group()
    for rays in by_type.values():
        for u in rays:
            images = {apply_symmetry(g, u) for g in group}
            assert set(rays) <= images


def test_bases_map_to_bases():
    bases = set(enumerate_bases())
    for perm in ray_permutations().values():
        for b in enumerate_bases():
            image = Basis(tuple(sorted(perm[i] for i in b.indices)))
            assert image in bases


@given(st.integers(0, 23), st.integers(0, 23))
def test_composition_acts_as_composed_permutation(i, j):
    group = symmetry_group()
    g, h = group[i], group[j]
    for r in PERES_RAYS[:5]:
        assert apply_symmetry(g.compose(h), r) == apply_symmetry(g, apply_symmetry(h, r))


@given(st.integers(0, 23), st.integers(0, 32), st.integers(0, 32))
def test_dot_product_invariant_under_group(gi, i, j):
    g = symmetry_group()[gi]
    a, b = PERES_RAYS[i], PERES_RAYS[j]
    ga, gb = g.apply(a), g.apply(b)
    # the projective sign flip can negate the dot product parts jointly
    d1, d2 = a.dot_parts(b), ga.dot_parts(gb)
    assert d2 == d1 or d2 == (-d1[0], -d1[1])
