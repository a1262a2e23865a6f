"""2-adic Newton diagrams and the irreducibility facts they certify.

The diagram of a polynomial is the lower convex hull of the points
(i, ord2(c_i)) over its nonzero coefficients.  Two consequences are
used downstream, and both need only whether the diagram is pure (a
nonzero constant term and one segment, from (0, v_0) to (d, v_d)) and
that segment's slope:

* generalized Eisenstein criterion: a polynomial with nonzero constant
  term whose diagram is one segment of slope k/deg, gcd(k, deg) = 1,
  is irreducible over the 2-adic field;
* slope-denominator divisibility: for a pure polynomial whose single
  segment has slope with reduced denominator e, every irreducible
  factor over the 2-adic field has degree divisible by e.  (Factor
  diagrams are segments of the same slope between lattice points, so
  their widths are multiples of e.)

``pure_slope`` decides both from the chord between the two end
points: the hull is that one segment exactly when no point lies below
it.  The hull itself (``newton_diagram``) is built only where it is
printed, in the ``newton-polygon`` document and in the evidence of the
two rules.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .padic import ord2_int
from .ratpoly import RatPoly
from .record import Record


class Segment(Record):
    start: tuple[int, int]
    end: tuple[int, int]
    slope: Fraction
    lattice_length: int


class NewtonDiagram(Record):
    """Lower hull of the valuation points of a polynomial.

    ``points`` lists (i, ord2(c_i)) for nonzero c_i only; zero
    coefficients contribute nothing.  ``vertices`` are the hull's
    extreme points; collinear interior lattice points stay off the
    vertex list but on the segments.
    """

    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]


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
    """The diagram read from the model f = c*P: ord2(c_i) is
    ord2(P_i) + ord2(c)."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no Newton diagram")
    c = f.content
    v = ord2_int(c.numerator) - ord2_int(c.denominator)
    pts = [(i, ord2_int(x) + v) for i, x in enumerate(f.primitive_part) if x]
    verts = _lower_hull(pts)
    segs = []
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        dx, dy = x2 - x1, y2 - y1
        segs.append(Segment((x1, y1), (x2, y2), Fraction(dy, dx), gcd(dx, abs(dy))))
    return NewtonDiagram(tuple(pts), tuple(verts), tuple(segs))


def pure_slope(f: RatPoly) -> Fraction | None:
    """The slope (v_d - v_0)/d of f's diagram when it is pure, else None.

    Pure means deg f = d >= 1, a nonzero constant term and every point
    (j, v_j) on or above the chord from (0, v_0) to (d, v_d), that is
    d*v_j >= (d-j)*v_0 + j*v_d: the hull drops collinear points, so it
    is then the one segment.  The content shifts every point alike, so
    the primitive part is read."""
    p = f.primitive_part
    d = len(p) - 1
    if d < 1 or not p[0]:
        return None
    v0, vd = ord2_int(p[0]), ord2_int(p[d])
    for j in range(1, d):
        if p[j] and d * ord2_int(p[j]) < (d - j) * v0 + j * vd:
            return None
    return Fraction(vd - v0, d)


def eisenstein_irreducible(f: RatPoly) -> bool:
    """Sufficient irreducibility test over the 2-adic field: pure with
    segment rise coprime to the degree, that is, a slope whose reduced
    denominator is the degree.  False only means "no verdict"."""
    slope = pure_slope(f)
    return slope is not None and slope.denominator == f.degree
