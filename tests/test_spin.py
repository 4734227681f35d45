"""Spin-1 algebra, checked against an independent construction.

The cross-check basis: on C^3 with the Cartesian representation the spin
operators are (S_k)_lm = -i eps_klm, the spin-zero eigenvector along a
real unit u is u itself, and the spin-squared projector is the real outer
product u u^T.  A fixed unitary intertwines that picture with the
z-eigenbasis, where the tests' oracle (`zbasis`) builds its projectors from
the eigenbases of S.u; the package's projectors must match both.
"""

import itertools
import math

import numpy as np
import pytest

from pkslab import spin
from pkslab.rays import PERES_RAYS, enumerate_bases, enumerate_orthogonal_pairs
from pkslab.spin import direction_from_ray
from zbasis import (
    S_X,
    S_Y,
    S_Z,
    projector,
    ray_projector,
    spin_eigenbasis,
    spin_matrices,
)

SQ2 = math.sqrt(2.0)

# rows are the z-basis components of the spherical vectors e_{+1}, e_0, e_{-1}
CART_TO_Z = np.array(
    [
        [-1 / SQ2, 1j / SQ2, 0],
        [0, 0, 1],
        [1 / SQ2, 1j / SQ2, 0],
    ],
    dtype=complex,
)


def cartesian_spin(k: int) -> np.ndarray:
    s = np.zeros((3, 3), dtype=complex)
    for l, m in itertools.product(range(3), range(3)):
        eps = (l - k) * (m - l) * (m - k) / 2  # Levi-Civita on {0,1,2}
        s[l, m] = -1j * eps
    return s


def test_intertwiner_is_unitary_and_matches_spin_matrices():
    t = CART_TO_Z
    assert np.allclose(t @ t.conj().T, np.eye(3), atol=1e-14)
    for std, k in ((S_X, 0), (S_Y, 1), (S_Z, 2)):
        assert np.allclose(std, t @ cartesian_spin(k) @ t.conj().T, atol=1e-14)


def test_spin_matrix_algebra():
    sx, sy, sz = spin_matrices()
    for m in (sx, sy, sz):
        assert np.allclose(m, m.conj().T, atol=1e-15)
        assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [-1, 0, 1], atol=1e-14)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    assert np.allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-14)
    assert np.allclose(np.diag(sz), [1, 0, -1], atol=0)


def phase_free_error(a: np.ndarray, b: np.ndarray) -> float:
    inner = np.vdot(b, a)
    if abs(inner) < 1e-14:
        return 1.0
    return float(np.max(np.abs(a - b * inner / abs(inner))))


PRINTED_EIGENVECTORS = {
    # direction -> (eigenvalue -1, 0, +1) in z-basis components (+1, 0, -1)
    "x": (
        np.array([1, -SQ2, 1]) / 2,
        np.array([1, 0, -1]) / SQ2,
        np.array([1, SQ2, 1]) / 2,
    ),
    "y": (
        np.array([1, -1j * SQ2, -1]) / 2,
        np.array([1, 0, 1]) / SQ2,
        np.array([1, 1j * SQ2, -1]) / 2,
    ),
}


@pytest.mark.parametrize("axis,unit", [("x", (1, 0, 0)), ("y", (0, 1, 0))])
def test_printed_eigenvector_block(axis, unit):
    basis = spin_eigenbasis(np.array(unit, dtype=float))
    for computed, printed in zip(basis, PRINTED_EIGENVECTORS[axis]):
        assert phase_free_error(computed, printed.astype(complex)) < 1e-12


def test_z_direction_gives_z_basis():
    e_minus, e_zero, e_plus = spin_eigenbasis(np.array([0.0, 0.0, 1.0]))
    assert phase_free_error(e_plus, np.array([1, 0, 0], dtype=complex)) < 1e-14
    assert phase_free_error(e_zero, np.array([0, 1, 0], dtype=complex)) < 1e-14
    assert phase_free_error(e_minus, np.array([0, 0, 1], dtype=complex)) < 1e-14


def test_eigenbasis_contract_for_every_ray():
    sx, sy, sz = spin_matrices()
    for ray in PERES_RAYS:
        u = direction_from_ray(ray)
        op = u[0] * sx + u[1] * sy + u[2] * sz
        basis = spin_eigenbasis(u)
        for a, va in zip((-1, 0, 1), basis):
            for b, vb in zip((-1, 0, 1), basis):
                expect = a if a == b else 0.0
                assert abs(np.vdot(va, op @ vb) - expect) < 1e-12


def test_eigenbasis_rejects_non_unit():
    with pytest.raises(ValueError):
        spin_eigenbasis(np.array([1.0, 1.0, 0.0]))


def test_projector_shape_and_idempotence():
    for ray in PERES_RAYS:
        u = direction_from_ray(ray)
        p0, p1 = projector(u, 0), projector(u, 1)
        for p, rank in ((p0, 1), (p1, 2)):
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert round(np.trace(p).real) == rank
        assert np.allclose(p0 + p1, np.eye(3), atol=0)


def test_projectors_match_cartesian_oracle():
    """The eigenbasis projectors are the Cartesian u u^T and I - u u^T seen
    in the z-basis, and `spin.ray_projector`, built as that view, matches
    them in both colours; its first call warms the direction table."""
    t = CART_TO_Z
    for i, ray in enumerate(PERES_RAYS):
        u = direction_from_ray(ray)
        oracle0 = t @ np.outer(u, u) @ t.conj().T
        oracle1 = t @ (np.eye(3) - np.outer(u, u)) @ t.conj().T
        assert np.linalg.norm(ray_projector(i, True) - oracle0) < 1e-12
        assert np.linalg.norm(ray_projector(i, False) - oracle1) < 1e-12
        for green in (True, False):
            assert np.abs(spin.ray_projector(i, green) - ray_projector(i, green)).max() <= 1e-15
    spin.ray_directions.cache_clear()
    spin.ray_projector(0, True)
    assert spin.ray_directions.cache_info().currsize == 1


def test_orthogonal_pairs_annihilate():
    worst = 0.0
    for p in enumerate_orthogonal_pairs():
        i, j = p.indices
        worst = max(worst, np.linalg.norm(ray_projector(i, True) @ ray_projector(j, True)))
    assert worst < 1e-12


def test_basis_outcome_products():
    for b in enumerate_bases():
        for outcomes in itertools.product((0, 1), repeat=3):
            prod = np.eye(3, dtype=complex)
            for i, out in zip(b.indices, outcomes):
                prod = ray_projector(i, out == 0) @ prod
            norm = np.linalg.norm(prod)
            if outcomes.count(0) == 1:
                assert norm >= 0.01
            else:
                assert norm < 1e-12


def test_spin_squared_commute_for_orthogonal_directions():
    for p in enumerate_orthogonal_pairs():
        i, j = p.indices
        a, b = ray_projector(i, True), ray_projector(j, True)  # squares differ from
        # the projectors by a sign and shift, so commutators agree
        assert np.linalg.norm(a @ b - b @ a) < 1e-12


@pytest.mark.parametrize("use_out", [False, True])
def test_project_is_the_broadcast_product_in_every_shape(use_out):
    """`spin.project`, written one column at a time, gives the bytes of the
    broadcast product u (u.v) for the scan's per-row directions
    (n, 1, 1, 3) against its states (n, sectors, slots, 3), the detector
    split's one direction (3,), and the functional's per-row directions
    (n, 1, 3) against its slots (n, slots, 3), into `out` or a new array."""
    rng = np.random.default_rng(20261021)
    u = spin.ray_directions()
    n = 64
    cases = [
        (rng.normal(size=(n, 2, 4, 3)), u[rng.integers(33, size=n)][:, None, None, :]),
        (rng.normal(size=(n, 4, 3)), u[7]),
        (rng.normal(size=(n, 6, 3)), u[rng.integers(33, size=n)][:, None, :]),
    ]
    for v, w in cases:
        want = np.einsum("...i,...i->...", v, w)[..., None] * w
        out = np.full((2, *want.shape), np.nan)[1] if use_out else None
        got = spin.project(v, w, out=out)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert out is None or got is out
