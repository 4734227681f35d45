"""Spin-1 linear algebra: spin matrices, eigenbases, spin-squared projectors.

States are given in the z-eigenbasis, components ordered (+1, 0, -1); chains
are stepped in the real Cartesian picture (`project`), with the complex
z-basis projectors (`ray_projector`) as test oracle and warm-up table.
Directions come from Peres rays: a digit of modulus 2 denotes sqrt(2), and
normalisation happens once at conversion so the combinatorial layer stays exact.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .rays import PERES_RAYS, Ray

SQRT2 = math.sqrt(2.0)

# Standard spin-1 matrices, eigenvalues {-1, 0, +1}, [Sx, Sy] = i Sz cyclically.
S_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
S_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
S_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

IDENTITY3 = np.eye(3, dtype=complex)

# Rows are the z-basis components of the spherical vectors e_{+1}, e_0, e_{-1}:
# an operator P in the Cartesian picture is T P T^dagger in the z-basis.
CART_TO_Z = np.array([[-1, 1j, 0], [0, 0, SQRT2], [1, 1j, 0]]) / SQRT2


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return S_X.copy(), S_Y.copy(), S_Z.copy()


def direction_from_ray(ray: Ray) -> np.ndarray:
    """Unit 3-vector for a Peres ray (digit 2 means sqrt 2)."""
    v = np.array(
        [math.copysign(SQRT2, c) if abs(c) == 2 else float(c) for c in ray.components]
    )
    return v / np.linalg.norm(v)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component real positive (ties: first index)."""
    k = int(np.argmax(np.round(np.abs(v), 12)))
    phase = v[k] / abs(v[k])
    return v / phase


def spin_eigenbasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of S.u, returned in eigenvalue order (-1, 0, +1).

    Requires |u| = 1 within 1e-12; the phase convention is deterministic.
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    op = u[0] * S_X + u[1] * S_Y + u[2] * S_Z
    _, vecs = np.linalg.eigh(op)  # eigenvalues ascending: -1, 0, +1
    return tuple(_fix_phase(vecs[:, k]) for k in range(3))


def projector(u: np.ndarray, outcome: int) -> np.ndarray:
    """Spin-squared projector along u: outcome 0 is rank one, outcome 1 rank two."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    zero_vec = spin_eigenbasis(u)[1]
    p0 = np.outer(zero_vec, zero_vec.conj())
    return p0 if outcome == 0 else IDENTITY3 - p0


@lru_cache(maxsize=1)
def _ray_projectors() -> np.ndarray:
    """Array of shape (33, 2, 3, 3): projectors for (ray, outcome 0|1)."""
    out = np.empty((len(PERES_RAYS), 2, 3, 3), dtype=complex)
    for i, ray in enumerate(PERES_RAYS):
        u = direction_from_ray(ray)
        out[i, 0] = projector(u, 0)
        out[i, 1] = projector(u, 1)
    return out


@lru_cache(maxsize=1)
def ray_directions() -> np.ndarray:
    """Array of shape (33, 3): the real unit direction u of each ray.  In the
    Cartesian picture its green projector is u u^T and its red one I - u u^T."""
    return np.array([direction_from_ray(ray) for ray in PERES_RAYS])


def project(v: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The green step of real Cartesian slots, u (u.v): the slots `v`
    (..., 3) projected onto unit directions `u` that broadcast against them.
    The red step is v less this.  Every chain step and detector split is here."""
    dot = np.einsum("...i,...i->...", v, u)
    return np.multiply(dot[..., None], u, out=out)


def cartesian_slots(vectors) -> np.ndarray:
    """Real Cartesian slots of z-basis vectors, shape (2 len, 3): the rows
    Re T^dagger psi, then the rows Im T^dagger psi (T = `CART_TO_Z`)."""
    z = np.array([psi @ CART_TO_Z.conj() for psi in vectors])
    return np.concatenate([z.real, z.imag])


def ray_projector(index: int, green: bool) -> np.ndarray:
    """Projector for a ray by index: green is spin-squared 0, red is 1."""
    return _ray_projectors()[index, 0 if green else 1]
