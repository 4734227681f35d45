"""Spin-1 directions and spin-squared projectors in the real Cartesian picture.

States are given in the z-eigenbasis, components ordered (+1, 0, -1); chains
are stepped in the real Cartesian picture, where the spin-squared projectors
along a ray's unit direction u are u u^T (green) and I - u u^T (red), and
`project` is the one step.  Directions come from Peres rays: a digit of
modulus 2 denotes sqrt(2), and normalisation happens once at conversion so
the combinatorial layer stays exact.  The independent construction of the
projectors from the eigenbases of S.u lives in the tests' oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .rays import PERES_RAYS, Ray

SQRT2 = math.sqrt(2.0)

# Rows are the z-basis components of the spherical vectors e_{+1}, e_0, e_{-1}:
# an operator P in the Cartesian picture is T P T^dagger in the z-basis.
CART_TO_Z = np.array([[-1, 1j, 0], [0, 0, SQRT2], [1, 1j, 0]]) / SQRT2


def direction_from_ray(ray: Ray) -> np.ndarray:
    """Unit 3-vector for a Peres ray (digit 2 means sqrt 2)."""
    v = np.array(
        [math.copysign(SQRT2, c) if abs(c) == 2 else float(c) for c in ray.components]
    )
    return v / np.linalg.norm(v)


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
    """The z-basis view T P T^dagger of a ray's Cartesian projector P: u u^T
    for green (spin-squared 0), I - u u^T for red.  No program path reads it;
    it stays because the benchmark's warm-up calls it (its first call builds
    `ray_directions`), and goes with the next benchmark change."""
    u = ray_directions()[index]
    p = np.outer(u, u)
    return CART_TO_Z @ (p if green else np.eye(3) - p) @ CART_TO_Z.conj().T
