"""Derive the holonomic tables _ODE in src/qkostant/holonomic.py.

Development tool only: it needs sympy, which the package does not depend
on, and neither the package nor its tests import it.  Run from the
repository root:

    PYTHONPATH=src python3 scripts/derive_ode.py

and it prints the literal `_ODE = {...}` block that holonomic.py holds.

For family B, C or D with e = rank - shift, the highest-root polynomial is
P = g + conj(g) with g = (A + B*s)*(T + q*s)**e / (2**(e+1) * (q**2+4)),
T = q**2+2q+2, s*s = q**2+4, and (A, B, shift) the family's EXPLICIT
entry.  Writing R = g'/g and S = g''/g = R' + R**2 as x + y*s with x, y in
Q(q, e), the Wronskian-style determinant

    | P    1   1       |
    | P'   R   conj(R) |  = 0
    | P''  S   conj(S) |

divided by -2*s is c2*P'' + c1*P' + c0*P = 0 with c2 = y(R), c1 = -y(S)
and c0 = x(R)*y(S) - y(R)*x(S).  Clearing denominators and the integer
content gives c0, c1, c2 in Z[q, e], printed as tuples over the q-degree of
tuples over the e-degree, with the sign fixed so that the recurrence's
leading factor has a positive n**2 term at e = 0.
"""

from __future__ import annotations

import sympy as sp

from qkostant.closedform import EXPLICIT

q, e = sp.symbols("q e")
S2 = q**2 + 4


def _poly(coeffs):
    return sum(c * q**k for k, c in enumerate(coeffs))


def _d(x, y):
    """d/dq of x + y*s, using s' = q/s = q*s/(q**2+4)."""
    return sp.diff(x, q), sp.diff(y, q) + y * q / S2


def _mul(u, v):
    (x1, y1), (x2, y2) = u, v
    return x1 * x2 + y1 * y2 * S2, x1 * y2 + x2 * y1


def _log_derivative(x, y):
    """(x + y*s)'/(x + y*s) as a pair, through the conjugate."""
    num = _mul(_d(x, y), (x, -y))
    den = x**2 - y**2 * S2
    return num[0] / den, num[1] / den


def derive(family):
    a, b, _ = EXPLICIT[family]
    ra = _log_derivative(_poly(a), _poly(b))
    rt = _log_derivative(q**2 + 2 * q + 2, q)
    r = (sp.cancel(ra[0] + e * rt[0] - 2 * q / S2), sp.cancel(ra[1] + e * rt[1]))
    dr = _d(*r)
    sq = _mul(r, r)
    s = (sp.cancel(dr[0] + sq[0]), sp.cancel(dr[1] + sq[1]))
    c2, c1, c0 = r[1], -s[1], r[0] * s[1] - r[1] * s[0]
    den = sp.lcm([sp.denom(sp.together(c)) for c in (c0, c1, c2)])
    polys = [sp.Poly(sp.cancel(c * den), q, e) for c in (c0, c1, c2)]
    content = sp.gcd_list([p.as_expr() for p in polys])
    polys = [sp.Poly(sp.cancel(p.as_expr() / content), q, e) for p in polys]
    # The leading recurrence factor at e = 0 is c0[0] + c1[1]*n + c2[2]*n*(n-1);
    # make its n**2 coefficient positive.
    if polys[2].as_expr().coeff(q, 2).subs(e, 0) < 0:
        polys = [-p for p in polys]
    return tuple(_table(p) for p in polys)


def _table(p):
    """p in Z[q, e] as a tuple over q-degree of tuples over e-degree."""
    dq, de = p.degree(q), p.degree(e)
    rows = [[0] * (de + 1) for _ in range(dq + 1)]
    for (i, j), c in p.terms():
        if c != int(c):
            raise ValueError(f"non-integer coefficient {c}")
        rows[i][j] = int(c)
    rows = [tuple(row[: max((k + 1 for k, c in enumerate(row) if c), default=0)])
            for row in rows]
    return tuple(rows)


def _wrapped(items, indent, width=88):
    """repr of a tuple of items, wrapped at width after the given indent."""
    lines, line = [], " " * indent + "("
    for i, item in enumerate(items):
        piece = repr(item) + ("," if i < len(items) - 1 else "),")
        if len(line) + len(piece) + 1 > width and line.strip() != "(":
            lines.append(line.rstrip())
            line = " " * (indent + 1)
        line += piece + " "
    lines.append(line.rstrip())
    return lines


def main():
    print("_ODE = {")
    for family in ("B", "C", "D"):
        print(f'    "{family}": (')
        for table in derive(family):
            print("\n".join(_wrapped(table, 8)))
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
