"""The holonomic route to the B/C/D highest-root polynomials.

With e = rank - shift (the shift of closedform.EXPLICIT), P_r is a sum of
two conjugate terms whose logarithmic derivatives lie in Q(q, e)(s), so
eliminating them from P, P' and P'' gives c2*P'' + c1*P' + c0*P = 0 with
c0, c1, c2 in Z[q, e] of q-degree at most 11 and e-degree at most 3 (the
_ODE tables below, derived by scripts/derive_ode.py): P_r is D-finite in q
(Stanley, "Differentiably finite power series", Eur. J. Combin. 1, 1980).  The coefficient of q**n
in that equation is an order-9 recurrence for the coefficients p_n, whose
leading factor is 8(n-1)(n-2) for B and D and (16e+8)(n-1)(n-2) for C.
The seeds are closed forms in the rank: P_r counts the ways to write the
highest root theta as a sum of positive roots, so p0 = 0, p1 = 1 (theta
itself) and p2 = hv - 2, the number of pairs {beta, theta - beta}, with hv
the dual Coxeter number (p2 = 2r - 3 for B, r - 1 for C, 2r - 4 for D).
From them each later p_n up to the degree (the height of the highest root)
is one exact division of a sum of nine small-times-big products: O(r**2)
bit operations for all 2r coefficients.  A table whose c1 or c2 is not
divisible by q or q**2, a zero leading factor, a nonzero remainder, a
negative coefficient, or coefficients without gf_jet's jet
(kronecker.check_jet) raise InternalCancellationFailure.

closedform.highest_qpoly is its one caller and imports this module only
when it needs the route, so the requests that never build a B/C/D
highest-root polynomial (qpoly, stats, verify) never compile the tables.
"""

from __future__ import annotations

from . import closedform
from .errors import InternalCancellationFailure
from .kronecker import check_jet
from .polyring import QPoly
from .rootsys import highest_root

# With e = rank - shift, P_r solves c2*P'' + c1*P' + c0*P = 0
# where c0, c1, c2 are in Z[q, e], held as tuples over the q-degree of tuples
# over the e-degree (derived, and reprinted, by scripts/derive_ode.py).
_ODE = {
    "B": (
        ((16,), (4, -32), (-182, -112, -64), (-386, -184, 24), (-388, -80, -30, -32),
         (-316, -325, -89, -4), (-114, -108, -22, -8), (14, -118, -86, -8),
         (22, -7, -14, -1), (30, 11, -9, -2)),
        ((), (-16,), (-4, 32), (146, 56, 32), (272, 60, 32), (292, 114, 56),
         (280, 204, 16), (114, 108, 20), (64, 116, 14), (2, 20, 2), (0, 15, 3)),
        ((), (), (8,), (12, -16), (-30, -32), (-69, -20), (-88, -28), (-102, -12),
         (-52, -9), (-41, -6), (-8, -1), (-5, -1)),
    ),
    "C": (
        ((16, 32), (64, 48, 32), (94, 44), (88, 42, 12, 32), (68, 104, 46, 4),
         (20, 42, 14, 8), (6, 30, 46, 8), (-4, -4, 7, 1), (-2, -3, 3, 2)),
        ((), (-16, -32), (-64, -48, -32), (-94, -44, -32), (-88, -64, -56),
         (-68, -112, -16), (-20, -56, -20), (-6, -54, -14), (4, -10, -2), (2, -5, -3)),
        ((), (), (8, 16), (32, 32), (50, 20), (56, 28), (52, 12), (28, 9), (18, 6),
         (4, 1), (2, 1)),
    ),
    "D": (
        ((16,), (-12, -32), (-242, -272, -64), (-16, -32, -8), (-204, -352, -190, -32),
         (-310, -209, -45, -4), (-94, -82, -38, -8), (-300, -274, -82, -8),
         (-28, -25, -8, -1), (-30, -37, -15, -2)),
        ((), (-16,), (12, 32), (130, 152, 32), (40, 92, 32), (152, 186, 56),
         (144, 84, 16), (82, 72, 20), (128, 84, 14), (10, 8, 2), (18, 15, 3)),
        ((), (), (8,), (-4, -16), (-30, -32), (-9, -20), (-32, -28), (-22, -12),
         (-14, -9), (-17, -6), (-2, -1), (-3, -1)),
    ),
}


def _seed(lie_type: str, rank: int) -> tuple:
    """(p0, p1, p2): theta is no sum of zero roots and one sum of one root,
    and its two-root sums are the pairs {beta, theta - beta} over the
    2hv - 4 roots beta with <beta, theta^vee> = 1 (hv the dual Coxeter
    number: 2r - 1 for B, r + 1 for C, 2r - 2 for D)."""
    dual_coxeter = {"B": 2 * rank - 1, "C": rank + 1, "D": 2 * rank - 2}[lie_type]
    return (0, 1, dual_coxeter - 2)


def _ode_at(lie_type: str, e: int) -> tuple:
    """The integer coefficient lists of c0, c1, c2 in _ODE[lie_type] at e."""
    return tuple(
        [sum(c * e ** i for i, c in enumerate(row)) for row in table]
        for table in _ODE[lie_type]
    )


def holonomic_qpoly(lie_type: str, rank: int) -> QPoly:
    """A B/C/D highest-root polynomial from the coefficient recurrence.

    rank must already be validated.  P_rank is seeded with (p0, p1, p2) =
    (0, 1, hv - 2) from the rank alone; every later coefficient up to its
    degree (the highest root's height) is one exact division, and the
    result must be nonnegative with the jet gf_jet gives, or
    InternalCancellationFailure is raised.
    """
    label = f"holonomic recurrence for {lie_type}{rank}"
    c0, c1, c2 = _ode_at(lie_type, rank - closedform.EXPLICIT[lie_type][2])
    # The coefficient of q**n in c2*P'' + c1*P' + c0*P is the sum over m of
    # (u_m + t*v_m + t*(t-1)*w_m) * p_{n-m}, t = n - m, with (u_m, v_m, w_m) =
    # (c0[m], c1[m+1], c2[m+2]).  Terms of c1 below q or of c2 below q**2
    # would reach p_{n+1} or p_{n+2}.
    if c1[0] or c2[0] or c2[1]:
        raise InternalCancellationFailure(f"{label} needs c1 divisible by q and c2 by q^2")
    (u, v, w), *rest = zip(c0, c1[1:], c2[2:], strict=True)
    degree = sum(highest_root(lie_type, rank))
    p = list(_seed(lie_type, rank)[:degree + 1])
    for n in range(len(p), degree + 1):
        acc = 0
        for m, (um, vm, wm) in enumerate(rest[:n], 1):
            t = n - m
            acc += (um + t * (vm + (t - 1) * wm)) * p[t]
        lead = u + n * (v + (n - 1) * w)
        if not lead:
            raise InternalCancellationFailure(f"{label} has a zero leading factor at q^{n}")
        c, rem = divmod(-acc, lead)
        if rem:
            raise InternalCancellationFailure(f"{label} leaves a remainder at q^{n}")
        if c < 0:
            raise InternalCancellationFailure(f"{label} gives a negative coefficient at q^{n}")
        p.append(c)
    check_jet(p, closedform.gf_jet(lie_type, rank), f"{label} gives")
    return QPoly(p)
