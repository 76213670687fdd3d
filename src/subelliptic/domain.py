"""Model domains in C^2 and their boundary geometry.

A domain is described by holomorphic components f = (f_1, ..., f_p) and
g = (g_1, ..., g_q), all vanishing at the origin, through the defining
function

    r = 2*Re(z) + sum_j |f_j|^2 - sum_m |g_m|^2.

The module computes r and its Wirtinger derivatives, the determinant of the
Levi form restricted to the complex tangential direction, the tangential
vector field L applied to test functions, and a lower bound for the D'Angelo
type at the origin obtained from an explicit family of monomial curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .polyring import (
    Curve,
    GaussRational,
    Poly,
    canonical_str,
    parse_poly,
    require_holomorphic,
    substitute_curve,
    two_re,
)


class DomainError(ValueError):
    """Raised when a domain description violates the model assumptions."""


DEFAULT_COEFFS: tuple[GaussRational, ...] = (
    GaussRational.of(1),
    GaussRational.of(-1),
    GaussRational.i_unit(),
    GaussRational.i_unit().scale(-1),
    GaussRational.of(2),
    GaussRational.of(-2),
)
DEFAULT_DEGREE_CAP = 8


@dataclass(frozen=True)
class DomainSpec:
    """Holomorphic data defining the domain near the origin."""

    name: str
    f: tuple[Poly, ...]
    g: tuple[Poly, ...] = ()
    params: Optional[dict] = None
    sample_radius: float = 0.5

    def __post_init__(self):
        for label, components in (("f", self.f), ("g", self.g)):
            for idx, p in enumerate(components):
                require_holomorphic(p, f"{label}[{idx}]")
                if not p.constant_term().is_zero():
                    raise DomainError(
                        f"component {label}[{idx}] must vanish at the origin, "
                        f"got {canonical_str(p)}"
                    )
        if not 0 < self.sample_radius < math.inf:
            raise DomainError("sample_radius must be positive and finite")


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


def borderline_domain(power: int = 5) -> DomainSpec:
    """f = (w + w^power, w^2) against g = (w); hypotheses fail at radius ~1."""
    if power < 2:
        raise DomainError("power must be at least 2")
    return DomainSpec(
        name=f"borderline({power})",
        f=(parse_poly(f"w + w^{power}"), parse_poly("w^2")),
        g=(parse_poly("w"),),
    )


def defining_function(spec: DomainSpec) -> Poly:
    r = two_re(Poly.variable("z"))
    for p in spec.f:
        r = r + p * p.conj()
    for p in spec.g:
        r = r - p * p.conj()
    return r


@dataclass(frozen=True)
class LeviData:
    """The defining function with its first derivatives and Levi determinant."""

    r: Poly
    lam: Poly
    r_z: Poly
    r_w: Poly


def levi_form(r: Poly) -> Poly:
    """Determinant of the Levi form against the complex tangent of {r = 0}.

    The tangential (1,0) vector is L = r_z d/dw - r_w d/dz up to scale, and
    pairing the complex Hessian of r with L and its conjugate gives

        lam = r_ww* |r_z|^2 + r_zz* |r_w|^2 - 2 Re(r_zw* r_w r_z*).
    """
    r_z, r_w = r.wirtinger("z"), r.wirtinger("w")
    r_zb, r_wb = r.wirtinger("zb"), r.wirtinger("wb")
    r_zzb = r_z.wirtinger("zb")
    r_wwb = r_w.wirtinger("wb")
    r_zwb = r_z.wirtinger("wb")
    return (
        r_wwb * r_z * r_zb
        + r_zzb * r_w * r_wb
        - two_re(r_zwb * r_w * r_zb)
    )


def expand_r(spec: DomainSpec) -> LeviData:
    r = defining_function(spec)
    if not r.constant_term().is_zero():
        raise DomainError("defining function does not vanish at the origin")
    r_z = r.wirtinger("z")
    if r_z.constant_term() != GaussRational.one():
        raise DomainError("normalization r_z(0) = 1 failed")
    return LeviData(
        r=r,
        lam=levi_form(r),
        r_z=r_z,
        r_w=r.wirtinger("w"),
    )


def apply_L(h: Poly, data: LeviData) -> Poly:
    """The tangential holomorphic derivative L(h) = r_z*h_w - r_w*h_z."""
    return data.r_z * h.wirtinger("w") - data.r_w * h.wirtinger("z")


ContactValue = Union[int, Fraction, float]


def contact_order(r: Poly, curve: Curve) -> ContactValue:
    """Normalized vanishing order of r along the curve.

    Returns the vanishing order of the pullback divided by the curve
    multiplicity (so reparametrizations t -> t^c change nothing), as an int
    when integral, a Fraction otherwise, and math.inf for curves inside the
    zero set.
    """
    pullback = substitute_curve(r, curve)
    if pullback.is_zero():
        return math.inf
    value = Fraction(pullback.vanishing_order(), curve.multiplicity())
    return int(value) if value.denominator == 1 else value


@dataclass(frozen=True)
class TypeBound:
    """Best contact order found and the curve achieving it."""

    value: ContactValue
    witness: Curve


def type_lower_bound(spec: DomainSpec, degree_cap: int = DEFAULT_DEGREE_CAP) -> TypeBound:
    """Maximum contact order over the vertical and monomial test curves.

    The family consists of (0, t) and (c*t^s, t) for c in DEFAULT_COEFFS and
    1 <= s <= degree_cap.  On the model domains the vertical curve is
    extremal, but the search does not assume that.
    """
    r = defining_function(spec)
    best_value: ContactValue = -1
    best_curve = None
    candidates = [Curve.vertical()]
    for s in range(1, degree_cap + 1):
        for c in DEFAULT_COEFFS:
            candidates.append(Curve.monomial(c, s))
    for curve in candidates:
        value = contact_order(r, curve)
        if value > best_value:
            best_value = value
            best_curve = curve
    return TypeBound(value=best_value, witness=best_curve)
