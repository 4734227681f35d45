"""The path measure in the complex z-basis picture, kept as an independent
oracle for the package's real Cartesian chains.

The spin-1 matrices, the eigenbases of S.u and the spin-squared projectors
built from them live here, apart from the package, which builds its
projectors as u u^T and I - u u^T only.  Every state here is a product of
these 3x3 projectors: event states by identity collapse, the states of all
paths through a truncated chain by brute force, and the decoherence
functional member by member on those states.
"""

from functools import lru_cache

import numpy as np

from pkslab.measure import EventUnion
from pkslab.rays import PERES_RAYS
from pkslab.spin import SQRT2, direction_from_ray

# Standard spin-1 matrices, eigenvalues {-1, 0, +1}, [Sx, Sy] = i Sz cyclically.
S_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
S_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
S_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

IDENTITY3 = np.eye(3, dtype=complex)


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return S_X.copy(), S_Y.copy(), S_Z.copy()


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


def ray_projector(index: int, green: bool) -> np.ndarray:
    """Projector for a ray by index: green is spin-squared 0, red is 1."""
    return _ray_projectors()[index, 0 if green else 1]


def chain(ordering, event) -> list[tuple[int, bool]]:
    """Fixed (ray, colour) steps in ascending position order."""
    position = ordering.positions()
    return sorted(event.fixed.items(), key=lambda step: position[step[0]])


def event_state(ordering, event, psi) -> np.ndarray:
    """Event state via identity collapse: apply only the fixed projectors.
    A path's state is the state of the event fixing all 33 rays."""
    v = np.asarray(psi, dtype=complex)
    for ray, green in chain(ordering, event):
        v = ray_projector(ray, green) @ v
    return v


def truncated_path_states(ordering, psi, chain_len: int) -> np.ndarray:
    """States of all 2^k paths through the first k beam-splitter stages.

    Row index encodes the path: bit p set means green at position p.  This
    is the brute-force route (no identity collapse) used as the oracle for
    event states on truncated chains.
    """
    if not 0 <= chain_len <= 20:
        raise ValueError("truncated chains are limited to 20 positions")
    states = np.asarray(psi, dtype=complex).reshape(1, 3)
    for p in range(chain_len):
        ray = ordering.ray_at[p]
        red = states @ ray_projector(ray, False).T
        green = states @ ray_projector(ray, True).T
        states = np.vstack([red, green])  # bit p: 0 -> red block, 1 -> green block
    return states


def event_state_by_completion(event, ordering, psi, chain_len: int) -> np.ndarray:
    """Sum of path states over all completions of the event's free rays.

    Only defined on truncated chains: every fixed ray must sit within the
    first `chain_len` positions, and the chain is cut there.
    """
    pos = {r: p for p, r in enumerate(ordering.ray_at[:chain_len])}
    for ray in event.fixed:
        if ray not in pos:
            raise ValueError("event fixes a ray beyond the truncated chain")
    states = truncated_path_states(ordering, psi, chain_len)
    idx = np.arange(1 << chain_len)
    keep = np.ones(len(idx), dtype=bool)
    for ray, green in event.fixed.items():
        bit = (idx >> pos[ray]) & 1
        keep &= bit == (1 if green else 0)
    return states[keep].sum(axis=0)


def sectors(ctx, event) -> list:
    """The homogeneous members of an event or union per sector of the
    context: one sector without a detector, else the members restricted to
    the detected ray red, then green (a member fixing the other colour
    drops out)."""
    members = event.members if isinstance(event, EventUnion) else (event,)
    if ctx.detector is None:
        return [members]
    return [
        [c for c in (e.with_fixed(ctx.detected_ray, g) for e in members) if c is not None]
        for g in (False, True)
    ]


def decoherence(ctx, a, b) -> complex:
    """The functional member by member: `event_state` of each member of each
    sector restriction, summed from zero in member order, then weighted over
    the mixture terms in order, and the sectors (red, then green) added to
    0j."""

    def states(event):
        """Per sector and mixture term, the member states summed from zero."""
        out = []
        for ms in sectors(ctx, event):
            out.append([])
            for _, psi in ctx.state.terms:
                v = np.zeros(3, dtype=complex)
                for e in ms:
                    v = v + event_state(ctx.ordering, e, psi)
                out[-1].append(v)
        return out

    sums = []
    for xa, xb in zip(states(a), states(b)):
        out = 0j
        for (w, _), va, vb in zip(ctx.state.terms, xa, xb):
            out += w * np.vdot(va, vb)
        sums.append(complex(out))
    return sums[0] if ctx.detector is None else complex(sum(sums, 0j))
