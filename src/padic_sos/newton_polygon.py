"""2-adic Newton diagrams and the irreducibility facts they certify.

The diagram of a polynomial is the lower convex hull of the points
(i, ord2(c_i)) over its nonzero coefficients.  Two consequences are
used downstream:

* generalized Eisenstein criterion: a polynomial with nonzero constant
  term whose diagram is one segment of slope k/deg, gcd(k, deg) = 1,
  is irreducible over the 2-adic field;
* slope-denominator divisibility:.for a pure polynomial whose single
  segment has slope with reduced denominator e, every irreducible
  factor over the 2-adic field has degree divisible by e.  (Factor
  diagrams are segments of the same slope between lattice points, so
  their widths are multiples of e.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .padic import ord2_int
from .ratpoly import RatPoly


@dataclass(frozen=True)
class Segment:
    start: tuple[int, int]
    end: tuple[int, int]
    slope: Fraction
    lattice_length: int


@dataclass(frozen=True)
class NewtonDiagram:
    """Lower hull of the valuation points of a polynomial.

    ``points`` lists (i, ord2(c_i)) for nonzero c_i only; zero
    coefficients contribute nothing.  ``vertices`` are the hull's
    extreme points; collinear interior lattice points stay off the
    vertex list but on the segments.
    """

    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]

    @property
    def is_segment(self) -> bool:
        return len(self.segments) == 1

    @property
    def constant_term_present(self) -> bool:
        return bool(self.points) and self.points[0][0] == 0


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless it turns strictly upward
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_diagram(f: RatPoly) -> NewtonDiagram:
    if f.is_zero:
        raise ValueError("the zero polynomial has no Newton diagram")
    pts = [(i, ord2_int(c.numerator) - ord2_int(c.denominator))
           for i, c in enumerate(f.coeffs) if c != 0]
    verts = _lower_hull(pts)
    segs = []
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        dx, dy = x2 - x1, y2 - y1
        segs.append(Segment((x1, y1), (x2, y2), Fraction(dy, dx), gcd(dx, abs(dy))))
    return NewtonDiagram(tuple(pts), tuple(verts), tuple(segs))


def is_pure(diagram: NewtonDiagram, f0_nonzero: bool | None = None) -> bool:
    """Nonzero constant term and a single-segment hull.

    A single point (constant polynomial excluded by construction never
    happens here for degree >= 1 with one nonzero coefficient at x^d)
    is not a segment; a one-coefficient monomial diagram is not pure.
    """
    if f0_nonzero is None:
        f0_nonzero = diagram.constant_term_present
    return f0_nonzero and diagram.is_segment


def eisenstein_irreducible(f: RatPoly) -> bool:
    """Sufficient irreducibility test over the 2-adic field: pure with
    segment rise coprime to the degree.  False only means "no verdict"."""
    if f.degree < 1:
        return False
    d = newton_diagram(f)
    if not is_pure(d):
        return False
    (x1, y1), (x2, y2) = d.vertices[0], d.vertices[-1]
    rise, run = y2 - y1, x2 - x1
    return gcd(abs(rise), run) == 1


def factor_degree_divisor(diagram: NewtonDiagram) -> int:
    """Reduced denominator e of the pure diagram's slope: every
    irreducible factor over the 2-adic field has degree divisible by e."""
    if not is_pure(diagram):
        raise ValueError("factor degree divisor requires a pure diagram")
    return diagram.segments[0].slope.denominator
