#!/usr/bin/env python3
"""Offline derivation of the Perles-configuration coordinates stored in
``signrank.fixtures``.

The Perles configuration is the classical 9-point, 9-line arrangement that
cannot be realized with rational coordinates; its incidence structure is
exactly the zero set of the built-in 9x9 pattern A0 (line j passes through
point i iff A0[i][j] = 0):

    l1: p1 p2 p5 p6        l4: p2 p7 p9        l7: p3 p6 p9
    l2: p1 p8 p9           l5: p2 p3 p8        l8: p4 p6 p8
    l3: p1 p4 p7           l6: p3 p5 p7        l9: p4 p5 p9

The arrangement is mirror symmetric (1<->2, 3<->4, 5<->6, 7<->8, 9 fixed),
so we work in a symmetric frame with the four-point line l1 on the x-axis:

    p1 = (-a, 0)   p2 = (a, 0)    p5 = (-b, 0)  p6 = (b, 0)
    p3 = (-c, h)   p4 = (c, h)    p7 = (-d, k)  p8 = (d, k)   p9 = (0, e)

Fixing the affine gauge b = k = 1 leaves the collinearity constraints of
l2, l3, l6, l7 (the mirrored lines follow by symmetry).  Eliminating a, c,
h leaves one closure condition on e with the symmetric "tilt" d as the one
remaining projective gauge freedom:

    e^2 (d^2 + 4 d - 1) - e (4 d - 2) - 1 = 0,   discriminant (2 d)^2 * 5

so every solution needs sqrt(5), for every choice of d.  d = 2 gives the
clean values frozen into the fixtures module:

    e = (3 + 2 sqrt5)/11,   a = h = 2 + sqrt5,   c = 3 + sqrt5

This script re-derives all of that with sympy, rebuilds the configuration,
and checks (exactly, via the package's own arithmetic) that its encoding
equals A0 entry-for-entry.  Run it after touching the fixture coordinates:

    python3 tools/derive_perles.py
"""

import sys
from fractions import Fraction

import sympy as sp


def derive():
    a, c, d, h, e = sp.symbols("a c d h e", positive=True)

    # collinearity of (P, Q, R) as a vanishing 3x3 determinant
    def collinear(P, Q, R):
        M = sp.Matrix([[P[0], P[1], 1], [Q[0], Q[1], 1], [R[0], R[1], 1]])
        return sp.expand(M.det())

    b = sp.Integer(1)
    k = sp.Integer(1)
    p1 = (-a, 0)
    p3 = (-c, h)
    p4 = (c, h)
    p5 = (-b, 0)
    p6 = (b, 0)
    p7 = (-d, k)
    p8 = (d, k)
    p9 = (0, e)

    eq_l2 = collinear(p1, p8, p9)  # l2: p1 p8 p9
    eq_l3 = collinear(p1, p4, p7)  # l3: p1 p4 p7
    eq_l6 = collinear(p3, p5, p7)  # l6: p3 p5 p7
    eq_l7 = collinear(p3, p6, p9)  # l7: p3 p6 p9

    # eliminate a, c, h in favour of d and e
    a_of = sp.solve(eq_l2, a)[0]
    c_of = sp.solve(eq_l6, c)[0]
    h_of = sp.solve(sp.Eq(eq_l7.subs(c, c_of), 0), h)[0]
    closure = sp.simplify(
        eq_l3.subs({a: a_of, c: c_of.subs(h, h_of), h: h_of})
    )
    closure = sp.simplify(sp.together(closure))
    num, _ = sp.fraction(closure)
    poly = sp.Poly(sp.expand(num), e)
    print("closure numerator as a polynomial in e:")
    print("   ", poly.as_expr())
    quad = sp.Poly(sp.cancel(poly.as_expr() / poly.LC() * sp.LC(poly)), e)
    disc = sp.factor(sp.discriminant(poly.as_expr(), e))
    print("discriminant:", disc)

    d_val = sp.Integer(2)
    sols = sp.solve(poly.as_expr().subs(d, d_val), e)
    e_val = next(s for s in sols if s.is_positive)
    print(f"\nwith d = {d_val}: e =", sp.nsimplify(sp.radsimp(e_val)))
    a_val = sp.radsimp(a_of.subs({d: d_val, e: e_val}))
    h_val = sp.radsimp(h_of.subs({d: d_val, e: e_val}))
    c_val = sp.radsimp(c_of.subs({d: d_val, e: e_val, h: h_val}))
    print("a =", sp.simplify(a_val), " c =", sp.simplify(c_val), " h =", sp.simplify(h_val))
    return d_val, sp.simplify(e_val), sp.simplify(a_val), sp.simplify(c_val), sp.simplify(h_val)


def as_quad(value):
    """Split p + q*sqrt(5) into exact Fractions (p, q)."""
    value = sp.expand(sp.radsimp(value))
    q = value.coeff(sp.sqrt(5))
    p = sp.simplify(value - q * sp.sqrt(5))
    return Fraction(str(p)), Fraction(str(q))


def verify(d_val, e_val, a_val, c_val, h_val) -> bool:
    from signrank.scalars import QuadElem
    from signrank.fixtures import A0_PATTERN
    from signrank.geometry import Configuration, encode_configuration

    def q5(value):
        p, q = as_quad(value)
        return QuadElem(p, q, 5)

    zero, one = QuadElem(0, 0, 5), QuadElem(1, 0, 5)
    a = q5(a_val)
    c = q5(c_val)
    h = q5(h_val)
    e = q5(e_val)
    dd = q5(d_val)
    points = [
        (-a, zero), (a, zero), (-c, h), (c, h),
        (-one, zero), (one, zero), (-dd, one), (dd, one), (zero, e),
    ]

    def line(P, Q):
        (x1, y1), (x2, y2) = P, Q
        slope = (y2 - y1) / (x2 - x1)
        return (slope * x1 - y1, -slope, one)

    lines = [
        (zero, zero, one),
        line(points[0], points[7]),  # l2 through p1, p8 (p9 follows)
        line(points[0], points[6]),  # l3 through p1, p7 (p4 follows)
        line(points[1], points[6]),  # l4 through p2, p7 (p9 follows)
        line(points[1], points[7]),  # l5 through p2, p8 (p3 follows)
        line(points[4], points[6]),  # l6 through p5, p7 (p3 follows)
        line(points[5], points[8]),  # l7: p6 p9
        line(points[5], points[7]),  # l8: p6 p8
        line(points[4], points[8]),  # l9: p5 p9
    ]
    C = Configuration(2, points, lines)
    encoded = encode_configuration(C)
    if encoded != A0_PATTERN:
        print("MISMATCH: encoding differs from A0")
        print(encoded.to_text())
        return False
    print("\nencoding equals A0 entry-for-entry: OK")
    print("\nfrozen coordinate summary (r, s meaning r + s*sqrt5):")
    names = ["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9"]
    for name, (x, y) in zip(names, points):
        print(f"  {name}: ({x.r}{'+' if x.s >= 0 else ''}{x.s}*s5, {y.r}{'+' if y.s >= 0 else ''}{y.s}*s5)")
    for j, coeffs in enumerate(lines):
        c0, c1, c2 = coeffs
        print(f"  l{j + 1}: c0=({c0.r},{c0.s}) c1=({c1.r},{c1.s}) c2=({c2.r},{c2.s})")
    return True


def main() -> int:
    vals = derive()
    return 0 if verify(*vals) else 1


if __name__ == "__main__":
    sys.exit(main())
