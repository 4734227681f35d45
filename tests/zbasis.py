"""The path measure in the complex z-basis picture, kept as an independent
oracle for the package's real Cartesian chains.

Every state here is a product of the 3x3 projectors `spin.ray_projector`
builds from the eigenbases of S.u: event states by identity collapse,
the states of all paths through a truncated chain by brute force, and the
decoherence functional member by member on those states.
"""

import numpy as np

from pkslab.measure import EventUnion
from pkslab.spin import ray_projector


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
