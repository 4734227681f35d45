"""Exact geometry of the Peres 33-ray configuration.

Rays are projective directions in real 3-space written in the Peres digit
shorthand: components are drawn from {-2, -1, 0, 1, 2} and a digit of
modulus 2 stands for sqrt(2), not 2.  All orthogonality questions are
therefore decided exactly in Z[sqrt(2)], with no floating point anywhere
in this module.  Everything here is immutable after construction and safe
to share across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class RayType(Enum):
    """The four classes of Peres rays, by multiset of component magnitudes."""

    I = "I"      # axes:            {0, 0, 1}
    II = "II"    # edge midpoints:  {0, 1, 1}
    III = "III"  # {0, 1, sqrt2}
    IV = "IV"    # {1, 1, sqrt2}


_TYPE_BY_MAGNITUDES = {
    (0, 0, 1): RayType.I,
    (0, 1, 1): RayType.II,
    (0, 1, 2): RayType.III,
    (1, 1, 2): RayType.IV,
}


def _canonical_sign(components: tuple[int, int, int]) -> tuple[int, int, int]:
    # Published labelling: the sqrt(2) digit, when present, is positive;
    # otherwise the first nonzero component is positive.
    for pick in (2, None):
        for c in components:
            if c != 0 and (pick is None or abs(c) == pick):
                return components if c > 0 else tuple(-x for x in components)
    raise ValueError("zero vector is not a ray")


@dataclass(frozen=True, order=True)
class Ray:
    """A projective direction with components in {-2..2} (2 meaning sqrt 2)."""

    components: tuple[int, int, int]

    def __post_init__(self) -> None:
        c = self.components
        if len(c) != 3 or any(abs(x) > 2 for x in c):
            raise ValueError(f"bad components {c!r}")
        if c != _canonical_sign(c):
            raise ValueError(f"{c!r} is not in canonical sign form")
        if tuple(sorted(abs(x) for x in c)) not in _TYPE_BY_MAGNITUDES:
            raise ValueError(f"{c!r} is not a Peres ray pattern")

    @classmethod
    def from_components(cls, x: int, y: int, z: int) -> "Ray":
        return cls(_canonical_sign((x, y, z)))

    @classmethod
    def from_label(cls, label: str) -> "Ray":
        """Parse digit shorthand ('0m12') or whitespace triples ('0 -1 2')."""
        label = label.strip()
        if any(ch in label for ch in " ,\t"):
            parts = label.replace(",", " ").split()
            if len(parts) != 3:
                raise ValueError(f"cannot parse ray {label!r}")
            return cls.from_components(*(int(p) for p in parts))
        out: list[int] = []
        sign = 1
        for ch in label:
            if ch == "m":
                sign = -1
            elif ch in "012":
                out.append(sign * int(ch))
                sign = 1
            else:
                raise ValueError(f"cannot parse ray {label!r}")
        if len(out) != 3:
            raise ValueError(f"cannot parse ray {label!r}")
        return cls.from_components(*out)

    @property
    def label(self) -> str:
        return "".join(f"m{-c}" if c < 0 else str(c) for c in self.components)

    @property
    def record(self) -> str:
        """Machine-readable form, e.g. '0 2 -1'."""
        return " ".join(str(c) for c in self.components)

    @property
    def ray_type(self) -> RayType:
        return _TYPE_BY_MAGNITUDES[tuple(sorted(abs(x) for x in self.components))]

    def dot_parts(self, other: "Ray") -> tuple[int, int]:
        """Exact dot product a + b*sqrt(2) in Z[sqrt2]; returns (a, b)."""
        a = b = 0
        for x, y in zip(self.components, other.components):
            if x == 0 or y == 0:
                continue
            s = (1 if x > 0 else -1) * (1 if y > 0 else -1)
            ax, ay = abs(x), abs(y)
            if ax == 1 and ay == 1:
                a += s
            elif ax == 2 and ay == 2:
                a += 2 * s
            else:
                b += s
        return a, b

    def __str__(self) -> str:
        return self.label


def are_orthogonal(a: Ray, b: Ray) -> bool:
    return a.dot_parts(b) == (0, 0)


# The 33 rays in the published listing order (type I, II, III, IV).  This
# fixed order keys every colouring bit, ordering position and table row
# downstream, so it must never change.
_RAY_LABELS = (
    "001", "010", "100",
    "011", "01m1", "101", "10m1", "110", "1m10",
    "012", "0m12", "021", "02m1", "102", "m102",
    "201", "20m1", "120", "m120", "210", "2m10",
    "112", "m112", "1m12", "m1m12", "121", "12m1",
    "m121", "m12m1", "211", "21m1", "2m11", "2m1m1",
)

PERES_RAYS: tuple[Ray, ...] = tuple(Ray.from_label(s) for s in _RAY_LABELS)
RAY_INDEX: dict[Ray, int] = {r: i for i, r in enumerate(PERES_RAYS)}
N_RAYS = len(PERES_RAYS)


def ray_index(ray_or_label: Ray | str) -> int:
    ray = ray_or_label if isinstance(ray_or_label, Ray) else Ray.from_label(ray_or_label)
    try:
        return RAY_INDEX[ray]
    except KeyError:
        raise ValueError(f"{ray.label} is not one of the 33 Peres rays") from None


@dataclass(frozen=True, order=True)
class Basis:
    """Three mutually orthogonal Peres rays, held as sorted ray indices."""

    indices: tuple[int, int, int]

    def __post_init__(self) -> None:
        i, j, k = self.indices
        if not i < j < k:
            raise ValueError("basis indices must be strictly increasing")
        rays = [PERES_RAYS[n] for n in self.indices]
        for a, b in itertools.combinations(rays, 2):
            if not are_orthogonal(a, b):
                raise ValueError(f"{a.label}, {b.label} are not orthogonal")

    @classmethod
    def of(cls, *rays: Ray | str) -> "Basis":
        return cls(tuple(sorted(ray_index(r) for r in rays)))

    @property
    def rays(self) -> tuple[Ray, Ray, Ray]:
        return tuple(PERES_RAYS[i] for i in self.indices)

    @property
    def labels(self) -> tuple[str, str, str]:
        return tuple(r.label for r in self.rays)

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


@dataclass(frozen=True)
class OrthogonalPair:
    """An unordered orthogonal ray pair, flagged if it lies inside a basis."""

    indices: tuple[int, int]
    in_basis: bool

    @property
    def rays(self) -> tuple[Ray, Ray]:
        return tuple(PERES_RAYS[i] for i in self.indices)

    @property
    def labels(self) -> tuple[str, str]:
        return tuple(r.label for r in self.rays)


@lru_cache(maxsize=1)
def enumerate_bases() -> tuple[Basis, ...]:
    """All 16 orthogonal bases within the Peres set, in index-lexicographic order."""
    found = []
    for i, j, k in itertools.combinations(range(N_RAYS), 3):
        if (
            are_orthogonal(PERES_RAYS[i], PERES_RAYS[j])
            and are_orthogonal(PERES_RAYS[i], PERES_RAYS[k])
            and are_orthogonal(PERES_RAYS[j], PERES_RAYS[k])
        ):
            found.append(Basis((i, j, k)))
    return tuple(found)


@lru_cache(maxsize=1)
def enumerate_orthogonal_pairs() -> tuple[OrthogonalPair, ...]:
    """All unordered orthogonal pairs, each marked whether it lies in a basis."""
    inside = {
        pair for b in enumerate_bases() for pair in itertools.combinations(b.indices, 2)
    }
    out = []
    for i, j in itertools.combinations(range(N_RAYS), 2):
        if are_orthogonal(PERES_RAYS[i], PERES_RAYS[j]):
            out.append(OrthogonalPair((i, j), (i, j) in inside))
    return tuple(out)


def _canonical_matrix_sign(
    rows: tuple[tuple[int, int, int], ...]
) -> tuple[tuple[int, int, int], ...]:
    # Projective representative of +-M: first row's nonzero entry positive.
    first = next(x for x in rows[0] if x != 0)
    if first < 0:
        rows = tuple(tuple(-x for x in row) for row in rows)
    return rows


@dataclass(frozen=True, order=True)
class Symmetry:
    """A projective-cube symmetry: a signed permutation matrix modulo sign."""

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        m = self.rows
        if any(sorted(abs(x) for x in row) != [0, 0, 1] for row in m):
            raise ValueError("rows must each have exactly one entry of modulus 1")
        if any(sorted(abs(m[r][c]) for r in range(3)) != [0, 0, 1] for c in range(3)):
            raise ValueError("columns must each have exactly one entry of modulus 1")
        if m != _canonical_matrix_sign(m):
            raise ValueError("matrix is not in canonical sign form")

    @classmethod
    def from_rows(cls, rows) -> "Symmetry":
        return cls(_canonical_matrix_sign(tuple(tuple(row) for row in rows)))

    def apply(self, ray: Ray) -> Ray:
        x = tuple(
            sum(self.rows[r][c] * ray.components[c] for c in range(3)) for r in range(3)
        )
        return Ray.from_components(*x)

    def compose(self, other: "Symmetry") -> "Symmetry":
        rows = tuple(
            tuple(
                sum(self.rows[r][k] * other.rows[k][c] for k in range(3))
                for c in range(3)
            )
            for r in range(3)
        )
        return Symmetry.from_rows(rows)

    def inverse(self) -> "Symmetry":
        return Symmetry.from_rows(tuple(zip(*self.rows)))

    @property
    def is_identity(self) -> bool:
        return self.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(f"{x:2d}" for x in row) for row in self.rows) + "]"


IDENTITY = Symmetry.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
SWAP_XY = Symmetry.from_rows(((0, 1, 0), (1, 0, 0), (0, 0, 1)))


@lru_cache(maxsize=1)
def symmetry_group() -> tuple[Symmetry, ...]:
    """The 24 signed permutation matrices modulo overall sign, sorted."""
    elems = set()
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rows = tuple(
                tuple(signs[r] if c == perm[r] else 0 for c in range(3))
                for r in range(3)
            )
            elems.add(Symmetry.from_rows(rows))
    return tuple(sorted(elems))


def apply_symmetry(g: Symmetry, r: Ray) -> Ray:
    """Image of a Peres ray under a cube symmetry (always lands in the set)."""
    image = g.apply(r)
    if image not in RAY_INDEX:
        raise ValueError(f"{g} maps {r.label} outside the Peres set")
    return image


@lru_cache(maxsize=1)
def ray_permutations() -> dict[Symmetry, tuple[int, ...]]:
    """For each group element, the induced permutation of ray indices."""
    return {
        g: tuple(ray_index(apply_symmetry(g, r)) for r in PERES_RAYS)
        for g in symmetry_group()
    }
