"""Model domains in C^2 and their boundary geometry.

A domain is described by holomorphic components f = (f_1, ..., f_p) and
g = (g_1, ..., g_q), all vanishing at the origin, through the defining
function

    r = 2*Re(z) + sum_j |f_j|^2 - sum_m |g_m|^2.

The module computes r and its first Wirtinger derivatives, the tangential
vector field L applied to test functions, the determinant of the Levi form
along L, a boundary direction at the origin along which that determinant is
negative when one of a few exact tries finds it, and a lower bound for the
D'Angelo type at 0: the contact order of the curve (0, t), TYPE_WITNESS.
It also holds the one spelling of an infinite value, `spell_inf`, which
every subcommand's report and artifact goes through.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

from .polyring import (
    GaussRational,
    Poly,
    canonical_str,
    mono_conj,
    parse_poly,
    require_holomorphic,
    two_re,
)


class DomainError(ValueError):
    """Raised when a domain description violates the model assumptions."""


class UndecidedError(RuntimeError):
    """A run stalled or a check stayed undecided on valid input."""


DEFAULT_SAMPLE_RADIUS = 0.1


def spell_inf(value):
    """value as the engine writes it: a float +-inf as "infinity"/"-infinity",
    in printed reports and, since strict JSON has no infinite number, in
    --json artifacts; any other value as it is."""
    if isinstance(value, float) and math.isinf(value):
        return "infinity" if value > 0 else "-infinity"
    return value


class _DomainFields(NamedTuple):
    name: str
    f: tuple[Poly, ...]
    g: tuple[Poly, ...] = ()
    params: Optional[dict] = None
    sample_radius: float = DEFAULT_SAMPLE_RADIUS


class DomainSpec(_DomainFields):
    """Holomorphic data defining the domain near the origin.

    A named tuple of its five fields, validated on every construction path:
    the constructor, `_make` and `_replace`, copy and pickle.  A dict
    `params` makes the record unhashable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        for label, components in (("f", spec.f), ("g", spec.g)):
            for idx, p in enumerate(components):
                require_holomorphic(p, f"{label}[{idx}]")
                if not p.constant_term().is_zero():
                    raise DomainError(
                        f"component {label}[{idx}] must vanish at the origin, "
                        f"got {canonical_str(p)}"
                    )
        if not 0 < spec.sample_radius < math.inf:
            raise DomainError("sample_radius must be positive and finite")
        return spec

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def flat_domain() -> DomainSpec:
    """The model with an everywhere nondegenerate Levi form."""
    return DomainSpec(name="flat", f=(parse_poly("w"),))


def cross_power_domain(tau: int, l: int, k: int) -> DomainSpec:
    """f = (w^tau + z^k*w^l), the single-component family of finite type."""
    if not (k > tau > l > 0):
        raise DomainError(
            f"cross-power parameters need k > tau > l > 0, got tau={tau}, l={l}, k={k}"
        )
    component = parse_poly(f"w^{tau} + z^{k}*w^{l}")
    return DomainSpec(
        name=f"cross-power({tau},{l},{k})",
        f=(component,),
        params={"tau": tau, "l": l, "k": k},
    )


def borderline_domain() -> DomainSpec:
    """f = (w + w^5, w^2) against g = (w); hypotheses fail at radius ~1."""
    return DomainSpec(
        name="borderline(5)",
        f=(parse_poly("w + w^5"), parse_poly("w^2")),
        g=(parse_poly("w"),),
    )


def defining_function(spec: DomainSpec) -> Poly:
    r = two_re(Poly.variable("z"))
    for p in spec.f:
        r = r + p * p.conj()
    for p in spec.g:
        r = r - p * p.conj()
    return r


class LeviData(NamedTuple):
    """The defining function with its first derivatives and Levi determinant."""

    r: Poly
    lam: Poly
    r_z: Poly
    r_w: Poly


def _tangential(h: Poly, r_z: Poly, r_w: Poly) -> Poly:
    return r_z * h.wirtinger("w") - r_w * h.wirtinger("z")


def expand_r(spec: DomainSpec) -> LeviData:
    """r, r_z, r_w and the Levi determinant lam along L = r_z d/dw - r_w d/dz.

    2*Re(z) is pluriharmonic and f, g are holomorphic, so the complex
    Hessian of r is sum_j df_j (x) conj(df_j) - sum_m dg_m (x) conj(dg_m),
    and pairing it with L and its conjugate gives

        lam = sum_j |L f_j|^2 - sum_m |L g_m|^2.

    Every component vanishes at the origin, so r(0) = 0 and r_z(0) = 1.
    """
    r = defining_function(spec)
    r_z, r_w = r.wirtinger("z"), r.wirtinger("w")

    def norm_sq(components) -> Poly:
        images = (_tangential(p, r_z, r_w) for p in components)
        return sum((h * h.conj() for h in images), Poly.zero())

    lam = norm_sq(spec.f) - norm_sq(spec.g)
    return LeviData(r=r, lam=lam, r_z=r_z, r_w=r_w)


def descent_direction(lam: Poly) -> Optional[tuple[Poly, tuple]]:
    """(h, v) with h the lowest-degree part of lam and h(v) < 0, or None.

    Let d be the least total degree of lam and h its degree-d part.  The
    tried directions are v = (i, 0) and v = (i*t, 1) for t = 0..d; the
    first with h(v) < 0, evaluated exactly, is returned as the pair of
    Gaussian rationals (z, w).  lam = 0 gives None.

    A returned v puts boundary points that are not pseudoconvex arbitrarily
    near 0.  r = 2*Re(z) + O(2) and Re(v_z) = 0, so v is the tangent of a
    boundary curve t*v + O(t^2), t real, along which lam = t^d*h(v) +
    O(t^(d+1)) < 0 for small t != 0.

    The rule refuses every lam with lam(0) < 0 (d = 0) and every lam with
    -lam = sum d_j*|row_j|^2 != 0, d_j > 0 and holomorphic rows.  In the
    second case -h is a nonzero sum of |p_j|^2 with each p_j holomorphic
    and homogeneous of degree d/2.  A nonzero p_j vanishes on at most d/2
    complex lines through 0, and the d + 2 tried directions lie on distinct
    lines, so h(v) < 0 for one of them.

    When every term of h is c*z^a*zb^a*w^b*wb^b with c > 0, h >= 0
    everywhere and nothing is evaluated.  A lam whose lowest part is >= 0
    but which is negative at higher order passes; `subelliptic verify`
    samples it.
    """
    d = min(map(sum, lam.terms), default=0)
    h = Poly({m: c for m, c in lam.terms.items() if sum(m) == d})
    if all(mono_conj(m) == m and not c.b and c.a > 0 for m, c in h.terms.items()):
        return None
    for t, w in [(1, 0)] + [(t, 1) for t in range(d + 1)]:
        v = (GaussRational(0, t), GaussRational(w))
        if h.eval_exact(*v).re < 0:
            return h, v
    return None


def apply_L(h: Poly, data: LeviData) -> Poly:
    """The tangential holomorphic derivative L(h) = r_z*h_w - r_w*h_z."""
    return _tangential(h, data.r_z, data.r_w)


def vertical_order(p: Poly) -> Union[int, float]:
    """Vanishing order of p along the vertical curve (0, t); math.inf if none.

    Setting z = 0 and w = t keeps exactly the terms w^c wb^d, which become
    t^c tb^d; distinct monomials stay distinct, so nothing cancels and the
    order is the least c + d.
    """
    return min(
        (m[2] + m[3] for m in p.terms if m[0] == 0 and m[1] == 0),
        default=math.inf,
    )


TYPE_WITNESS = "(0, t)"


def type_lower_bound(spec: DomainSpec) -> Union[int, float]:
    """Contact order of r along (0, t), which no monomial curve exceeds.

    Let V be the vertical order of r = 2*Re(z) + sum |f_j|^2 - sum |g_m|^2.
    Along (c*t^s, t) with c != 0, the term 2*Re(c*t^s) has bidegrees (s, 0)
    and (0, s) in (t, tb), while every term of |f_j|^2 or |g_m|^2 has
    bidegree (p, q) with p, q >= 1, so nothing cancels it and the contact
    is at most s.  The curve changes r(0, t) only by products that hold a
    factor c*t^s against a factor of degree >= 1, all of degree > s; when
    s > V they cannot touch the degree-V part, so the contact is exactly V.
    Hence the vertical curve is extremal among all monomial test curves.
    """
    return vertical_order(defining_function(spec))
