"""The identity catalog: every verified identity as a pair of side
builders over the dual-strategy context, with its parameter schema and a
deterministic sampler.

Builder conventions: `p` maps schema symbols to values (monomials in
t-units under the exact strategy, rationals/integers under the numeric
one); `ctx.qpow(e)` is q^e with e in q-units. Records that are
instances of a well-poised transform (the central partial-sum transform,
the infinite transform, the multi-base quotient) pass their sequences to
the shared implementations in `bailey` (the bridge records phi54, ppte-m
and cpte3 take theirs from `pte.bridge_sequences`); the basic
hypergeometric sums (qgauss, qbinom, phi32, cpte5) sum `bailey.phi_term`;
the Rogers-Ramanujan-Slater identities are written once per family
(`_rr_mod5`, `_gg_mod8`, `_mod16`, `_slater69`) and share product sides
(`_triple`, `_p16`, `_p121`); the other sums follow the source displays
term by term. A sum times a q-power is `ctx.summation(..., times=m)`
under both strategies. Square-root pairs are always realized through
ctx.vwp. A record sets no working order: the exact strategy derives the
headroom its Laurent dips need (`context.exact_run`). Samplers draw one
candidate (None = rejected); rejection and determinism live in the
registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Dict, Optional, Tuple

from .bailey import (
    cor_lhs,
    cor_pref,
    cor_rhs_sum,
    cor_transform,
    phi_term,
    poch_quotient,
    running_sums,
    sv_linear,
    sv_quotient,
    wp_transform,
)
from .context import Ctx
from .errors import DegenerateFamily
from .pte import bridge_sequences, family6
from .series import QMonomial


@dataclass(frozen=True)
class ParamSpec:
    symbol: str
    kind: str            # monomial | rational | integer
    note: str = ""


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    anchor: str                       # human-readable source note
    covers: Tuple[str, ...]           # inventory labels this record checks
    schema: Tuple[ParamSpec, ...]
    build: Callable[[Ctx, Dict], Tuple[object, object]]
    sampler: Callable[[random.Random, str], Optional[Dict]]
    exponent_denominator: int = 1
    strategies: Tuple[str, ...] = ("exact", "numeric")
    note: Optional[str] = None


# ---------------------------------------------------------------------------
# sampling pools
# ---------------------------------------------------------------------------

COEFS = [F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(3), F(1, 3), F(2, 3),
         F(3, 2), F(-2)]
SMALL_COEFS = [F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(1, 3)]
RATS = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 5), F(-2, 5), F(3, 5),
        F(5, 8), F(-3, 4), F(2, 7), F(-5, 7), F(7, 10)]
QPOOL = [F(1, 7), F(-1, 6), F(1, 9), F(1, 11), F(-1, 8), F(1, 5), F(1, 12),
         F(-1, 10)]
QUPOOL = [F(1, 5), F(-1, 5), F(1, 6), F(1, 7), F(-1, 6), F(1, 8)]


def _mono(rng, lo: int, hi: int, d: int = 1, pool=COEFS,
          unit_ok: bool = True) -> QMonomial:
    e = rng.randint(lo, hi)
    c = rng.choice(pool)
    if not unit_ok or e == 0:
        while c == 1 and e == 0:
            c = rng.choice(pool)
    return QMonomial(c, e * d)


def _rat(rng, pool=RATS) -> F:
    return rng.choice(pool)


def _qv(rng) -> F:
    return rng.choice(QPOOL)


def _xyz(rng, mode: str, d: int = 1) -> Dict:
    """The ubiquitous (x, y, z) triple: x drives valuation growth."""
    if mode == "exact":
        return {
            "x": _mono(rng, 1, 2, d, SMALL_COEFS),
            "y": _mono(rng, 0, 2, d),
            "z": _mono(rng, 0, 2, d),
        }
    return {
        "x": rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(-2, 5), F(2, 5)]),
        "y": _rat(rng),
        "z": _rat(rng),
        "q": _qv(rng),
    }


# ---------------------------------------------------------------------------
# shared builder pieces
# ---------------------------------------------------------------------------

def _seed_alpha(ctx: Ctx):
    """alpha = (1, 0, 0, ...); pass support=0 with it."""
    return lambda n: ctx.num(1 if n == 0 else 0)


def _bridge_cor(ctx: Ctx, p, a, b):
    """The central transform with the bridge pair of the multisets (a, b)
    (see `pte.bridge_sequences`) as its (beta, alpha)."""
    alpha, beta = bridge_sequences(ctx, a, b)
    return cor_transform(ctx, p["x"], p["y"], p["z"], beta, alpha)


# ---------------------------------------------------------------------------
# record builders, catalog order
# ---------------------------------------------------------------------------

def _b_qgauss(ctx, p):
    a, b, c = p["a"], p["b"], p["c"]
    qq = ctx.qpow(1)
    z = ctx.div(c, ctx.mul(a, b))
    lhs = ctx.summation(phi_term(ctx, [a, b], [c], qq, z))
    rhs = ctx.mul(ctx.poch_inf(ctx.div(c, a), qq), ctx.poch_inf(ctx.div(c, b), qq),
                  ctx.inv_poch_inf(c, qq), ctx.inv_poch_inf(z, qq))
    return lhs, rhs


def _s_qgauss(rng, mode):
    if mode == "exact":
        a = _mono(rng, 0, 2, pool=SMALL_COEFS)
        b = _mono(rng, 0, 2, pool=SMALL_COEFS)
        c = QMonomial(rng.choice(SMALL_COEFS),
                      a.exp + b.exp + rng.randint(1, 2))
        return {"a": a, "b": b, "c": c}
    a, b = _rat(rng), _rat(rng)
    w = rng.choice([F(1, 2), F(-1, 3), F(2, 5), F(-1, 4)])
    return {"a": a, "b": b, "c": a * b * w, "q": _qv(rng)}


def _b_qbinom(ctx, p):
    a, z = p["a"], p["z"]
    qq = ctx.qpow(1)
    lhs = ctx.summation(phi_term(ctx, [a], [], qq, z))
    rhs = ctx.mul(ctx.poch_inf(ctx.mul(a, z), qq), ctx.inv_poch_inf(z, qq))
    return lhs, rhs


def _s_qbinom(rng, mode):
    if mode == "exact":
        return {"a": _mono(rng, 0, 3), "z": _mono(rng, 1, 3, pool=SMALL_COEFS)}
    return {"a": _rat(rng), "z": rng.choice([F(1, 2), F(-1, 2), F(1, 3),
                                             F(-2, 5)]), "q": _qv(rng)}


def _b_bailey_transform(ctx, p):
    return wp_transform(ctx, p["a"], ctx.num(0), p["y"], p["z"],
                        _seed_alpha(ctx), support=0)


def _s_bailey_transform(rng, mode):
    if mode == "exact":
        ey, ez = rng.randint(1, 2), rng.randint(1, 2)
        y = QMonomial(rng.choice(SMALL_COEFS), ey)
        z = QMonomial(rng.choice(SMALL_COEFS), ez)
        a = QMonomial(rng.choice(SMALL_COEFS), ey + ez + rng.randint(0, 1))
        return {"a": a, "y": y, "z": z}
    y, z = _rat(rng), _rat(rng)
    if abs(y) < F(1, 4) or abs(z) < F(1, 4):
        return None
    a = rng.choice([F(1, 4), F(-1, 4), F(1, 5), F(2, 7)])
    return {"a": a, "y": y, "z": z, "q": _qv(rng)}


def _b_thm_wp(ctx, p):
    return wp_transform(ctx, p["a"], p["k"], p["r1"], p["r2"],
                        _seed_alpha(ctx), support=0)


def _s_thm_wp(rng, mode):
    if mode == "exact":
        e1, e2 = rng.randint(1, 2), rng.randint(1, 2)
        r1 = QMonomial(rng.choice(SMALL_COEFS), e1)
        r2 = QMonomial(rng.choice(SMALL_COEFS), e2)
        ea = e1 + e2 + rng.randint(0, 1)
        a = QMonomial(rng.choice(SMALL_COEFS), ea)
        k = QMonomial(rng.choice(SMALL_COEFS), ea + rng.randint(0, 2))
        return {"a": a, "k": k, "r1": r1, "r2": r2}
    r1, r2 = _rat(rng), _rat(rng)
    if abs(r1) < F(1, 4) or abs(r2) < F(1, 4):
        return None
    a = rng.choice([F(1, 4), F(-1, 4), F(1, 5), F(2, 7)])
    k = rng.choice([F(1, 3), F(-1, 3), F(1, 6), F(2, 9)])
    return {"a": a, "k": k, "r1": r1, "r2": r2, "q": _qv(rng)}


def _b_cor_central(ctx, p):
    vals = [ctx.num(p[f"alpha{i}"]) for i in range(6)]

    def alpha(n):
        return vals[n] if n < len(vals) else ctx.num(0)

    return cor_transform(ctx, p["x"], p["y"], p["z"],
                         running_sums(ctx, alpha), alpha)


def _s_cor_central(rng, mode):
    out = _xyz(rng, mode)
    for i in range(6):
        out[f"alpha{i}"] = F(rng.randint(-5, 5), rng.choice([1, 2, 3]))
    return out


def _b_alt_alpha(ctx, p):
    x, y, z = p["x"], p["y"], p["z"]
    lhs = cor_lhs(ctx, x, y, z, lambda n: ctx.num(1), idx=lambda n: 2 * n)
    rhs = ctx.mul(cor_pref(ctx, x, y, z),
                  cor_rhs_sum(ctx, x, y, z, lambda n: ctx.num((-1) ** n)))
    return lhs, rhs


def _b_ones_alpha(ctx, p):
    return cor_transform(ctx, p["x"], p["y"], p["z"],
                         lambda n: ctx.num(n + 1), lambda n: ctx.num(1))


def _b_alt_sum(ctx, p):
    x = p["x"]
    qq = ctx.qpow(1)
    inv_x = ctx.inv(x)
    arg = ctx.mul(ctx.qpow(1), ctx.pow_int(inv_x, 2))   # q / x^2

    def term(n):
        head = ctx.sub(ctx.one(), ctx.mul(ctx.qpow(2 * n + 1), inv_x))
        return ctx.mul(head, ctx.poch(arg, qq, 2 * n),
                       ctx.pow_int(x, 2 * n),
                       ctx.inv_poch(qq, qq, 2 * n + 1))

    lhs = ctx.summation(term)
    rhs = ctx.mul(ctx.inv(ctx.add(ctx.one(), x)),
                  ctx.poch_inf(ctx.mul(qq, inv_x), qq),
                  ctx.inv_poch_inf(x, qq))
    return lhs, rhs


def _b_ones_sum(ctx, p):
    x = p["x"]
    qq = ctx.qpow(1)
    inv_x = ctx.inv(x)
    arg = ctx.mul(ctx.qpow(1), ctx.pow_int(inv_x, 2))

    def term(n):
        head = ctx.add(ctx.one(), ctx.mul(ctx.qpow(n + 1), inv_x))
        return ctx.mul(head, ctx.poch(arg, qq, n), ctx.pow_int(x, n),
                       ctx.num(n + 1), ctx.inv_poch(qq, qq, n + 1))

    lhs = ctx.summation(term)
    rhs = ctx.mul(ctx.inv(ctx.sub(ctx.one(), x)),
                  ctx.poch_inf(ctx.mul(qq, inv_x), qq),
                  ctx.inv_poch_inf(x, qq))
    return lhs, rhs


def _b_u_power(ctx, p):
    x, u = p["x"], p["u"]
    qq = ctx.qpow(1)
    inv_x = ctx.inv(x)
    arg = ctx.mul(ctx.qpow(1), ctx.pow_int(inv_x, 2))

    def term(n):
        head = ctx.add(ctx.one(), ctx.mul(ctx.qpow(n + 1), inv_x))
        tail = ctx.sub(ctx.one(), ctx.pow_int(u, n + 1))
        return ctx.mul(head, ctx.poch(arg, qq, n), ctx.pow_int(x, n),
                       tail, ctx.inv_poch(qq, qq, n + 1))

    lhs = ctx.summation(term)
    rhs = ctx.mul(ctx.sub(ctx.one(), u), ctx.inv(ctx.sub(ctx.one(), x)),
                  ctx.poch_inf(ctx.mul(qq, u, inv_x), qq),
                  ctx.inv_poch_inf(ctx.mul(x, u), qq))
    return lhs, rhs


def _s_x_unit(rng, mode):
    # exact strategy: the infinite products force x = c*q exactly
    if mode == "exact":
        c = rng.choice([F(2), F(1, 2), F(-1, 2), F(3), F(1, 3), F(-2),
                        F(2, 3), F(3, 2)])
        return {"x": QMonomial(c, 1)}
    x = rng.choice([F(1, 3), F(-1, 3), F(2, 5), F(-2, 5), F(1, 2), F(3, 7)])
    return {"x": x, "q": _qv(rng)}


def _s_x_unit_u(rng, mode):
    out = _s_x_unit(rng, mode)
    if mode == "exact":
        e = rng.randint(0, 2)
        pool = [c for c in COEFS if not (e == 0 and c == 1)]
        out["u"] = QMonomial(rng.choice(pool), e)
    else:
        out["u"] = rng.choice([F(1, 2), F(-1, 2), F(2, 5), F(-3, 5), F(1, 4)])
    return out


def _b_phi54(ctx, p):
    # the bridge pair of ({c}, {})
    return _bridge_cor(ctx, p, [p["c"]], [])


def _s_phi54(rng, mode):
    out = _xyz(rng, mode)
    out["c"] = _rat(rng) if mode == "numeric" else \
        _mono(rng, 0, 2, unit_ok=False)
    return out


def _b_phi32(ctx, p):
    x, y = p["x"], p["y"]
    qq = ctx.qpow(1)
    xy = ctx.mul(x, y)
    nqxy = ctx.neg(ctx.mul(qq, xy))
    nxy = ctx.neg(xy)
    qx2y = ctx.mul(qq, x, x, y)
    lhs = ctx.summation(phi_term(ctx, [nqxy, y, x], [nxy, qx2y], qq, x))
    rhs = ctx.mul(ctx.inv(ctx.add(ctx.one(), xy)),
                  ctx.poch_inf(ctx.mul(x, x), qq), ctx.poch_inf(ctx.mul(qq, xy), qq),
                  ctx.inv_poch_inf(qx2y, qq), ctx.inv_poch_inf(x, qq))
    return lhs, rhs


def _s_phi32(rng, mode):
    if mode == "exact":
        return {"x": _mono(rng, 1, 2, pool=SMALL_COEFS),
                "y": _mono(rng, 0, 2)}
    return {"x": rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(2, 5)]),
            "y": _rat(rng), "q": _qv(rng)}


# -- multi-base records ------------------------------------------------------

def _b_poly2(ctx, p):
    x = p["x"]
    sv = (p["p"], p["P"], p["Q"], p["R"], p["a"], p["b"], p["c"])
    quot = sv_quotient(ctx, *sv, False)
    return cor_transform(
        ctx, x, p["y"], p["z"], sv_quotient(ctx, *sv, True),
        lambda n: ctx.mul(sv_linear(ctx, *sv, n), quot(n)),
        arg=ctx.mul(x, ctx.pow_int(p["R"], 2)))


def _s_poly2(rng, mode):
    if mode == "exact":
        for _ in range(40):
            ep, eP, eQ, eR = (rng.randint(1, 2) for _ in range(4))
            quot_ok = (eP + eQ + eR - ep >= 1 and ep + eP + eQ - eR >= 1
                       and ep + eQ + eR - eP >= 1 and ep + eP + eR - eQ >= 1)
            slope_ok = (ep + eP - eQ - eR >= 0 and eP + eQ - ep - eR >= 0
                        and ep + eQ - eP - eR >= 0)
            if quot_ok and slope_ok:
                break
        else:
            return None
        out = _xyz(rng, "exact")
        out.update({"p": QMonomial(F(1), ep), "P": QMonomial(F(1), eP),
                    "Q": QMonomial(F(1), eQ), "R": QMonomial(F(1), eR)})
    else:
        out = _xyz(rng, "numeric")
        for sym in "pPQR":
            out[sym] = rng.choice([F(1, 3), F(2, 5), F(-1, 3), F(1, 2),
                                   F(-2, 5)])
    a = rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(2, 5)])
    b = rng.choice([F(1, 3), F(-1, 3), F(2, 7), F(1, 4)])
    c = rng.choice([F(2), F(3), F(-2), F(1, 2), F(2, 5)])
    if a == b * c or c == 1 or a == 1 or b == 1:
        return None
    out.update({"a": a, "b": b, "c": c})
    return out


def _b_poly2q(ctx, p):
    a, b, c = p["a"], p["b"], p["c"]
    qm = ctx.qpow(p["m"])
    ups = [a, b, c, ctx.div(a, ctx.mul(b, c))]
    downs = [ctx.mul(ctx.div(a, c), qm), ctx.mul(ctx.div(a, b), qm),
             ctx.mul(b, c, qm), qm]
    alpha = poch_quotient(ctx, ups, downs, qm)
    return cor_transform(ctx, p["x"], p["y"], p["z"],
                         poch_quotient(ctx, ups, downs, qm, shift=qm),
                         lambda n: ctx.mul(ctx.vwp(a, n, qm), alpha(n)),
                         arg=ctx.mul(p["x"], qm))


def _s_poly2q(rng, mode):
    out = _xyz(rng, mode)
    out["m"] = rng.randint(1, 3)
    a = rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(2, 5)])
    b = rng.choice([F(1, 3), F(-1, 3), F(2, 7), F(1, 4)])
    c = rng.choice([F(2), F(3), F(-2), F(1, 2), F(2, 5)])
    if a == b * c or 1 in (a, b, c):
        return None
    out.update({"a": a, "b": b, "c": c})
    return out


def _b_phi65(ctx, p):
    a, b = p["a"], p["b"]
    qq = ctx.qpow(1)
    ups, downs = [a, b], [qq, ctx.mul(a, b, qq)]
    return cor_transform(ctx, p["x"], p["y"], p["z"],
                         poch_quotient(ctx, ups, downs, qq, shift=qq),
                         poch_quotient(ctx, ups, downs, qq),
                         arg=ctx.mul(p["x"], qq))


def _s_phi65(rng, mode):
    out = _xyz(rng, mode)
    a = rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(2), F(-2), F(3, 2)])
    b = rng.choice([F(1, 3), F(-1, 3), F(2, 5), F(3), F(-1, 2)])
    out.update({"a": a, "b": b})
    return out


def _b_ppte_m(ctx, p):
    a1, a2 = p["a1"], p["a2"]
    return _bridge_cor(ctx, p, [a1, a2], [a1 + a2 - 1])


def _s_ppte_m(rng, mode):
    out = _xyz(rng, mode)
    a1 = rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(2), F(3, 4)])
    a2 = rng.choice([F(1, 3), F(-1, 3), F(2, 5), F(-2), F(1, 4)])
    if a1 + a2 == 1:
        return None
    out.update({"a1": a1, "a2": a2})
    return out


def _b_cpte3(ctx, p):
    return _bridge_cor(ctx, p, *family6(p["m"], p["n"]))


def _no_rational_pole(values, q: F, depth: int = 60) -> bool:
    """Reject numeric draws where some denominator entry sits exactly on
    a power q^{-t}; the factor (1 - v q^t) would vanish."""
    for v in values:
        w = F(v)
        for _ in range(depth):
            w *= q
            if w == 1:
                return False
            if abs(w) < 1:
                break
    return True


def _s_cpte3(rng, mode):
    out = _xyz(rng, mode)
    m = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    n = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    if m == n:
        return None
    try:
        avals, bvals = family6(m, n)
    except DegenerateFamily:
        return None
    if any(not v for v in avals) or any(not v for v in bvals):
        return None
    if mode == "numeric" and not _no_rational_pole(bvals, out["q"]):
        return None
    out.update({"m": m, "n": n})
    return out


_F12_A = (170, 126, 209, 87, 234, 62, 275, 21, 288, 8, 299, -3)
_F12_B = (183, 113, 195, 101, 242, 54, 269, 27, 294, 2, 296)


def _b_cpte5(ctx, p):
    m = p["m"]
    avals = [1 + F(t) * m for t in _F12_A]
    bvals = [1 + F(t) * m for t in _F12_B]
    qq = ctx.qpow(1)
    z = ctx.qpow(12)
    ups = [ctx.num(ai) for ai in avals]
    downs = [ctx.mul(ctx.num(bi), qq) for bi in bvals]
    lhs = ctx.summation(phi_term(ctx, ups, downs, qq, z))
    rhs = ctx.mul(*[ctx.poch_inf(ctx.mul(u, qq), qq) for u in ups])
    rhs = ctx.mul(rhs, *[ctx.inv_poch_inf(d, qq) for d in downs])
    rhs = ctx.mul(rhs, ctx.inv_poch_inf(qq, qq))
    return lhs, rhs


def _s_cpte5(rng, mode):
    m = F(rng.choice([1, -1, 2, 3, 5]), rng.choice([1, 3, 4, 5]))
    if any(1 + F(t) * m == 0 for t in _F12_A + _F12_B):
        return None
    out = {"m": m}
    if mode == "numeric":
        out["q"] = _qv(rng)
        if not _no_rational_pole([1 + F(t) * m for t in _F12_B], out["q"]):
            return None
    return out


# -- bi-basic records ---------------------------------------------------------

def _b_bibasic_ab(ctx, p):
    x, y, z, pv, B = p["x"], p["y"], p["z"], p["p"], p["B"]
    p2 = ctx.pow_int(pv, 2)
    nBp = ctx.neg(ctx.mul(B, pv))

    def weight(n, e):
        return ctx.mul(ctx.inv_poch(nBp, p2, n), ctx.pow_int(B, n),
                       ctx.pow_int(pv, e))

    lhs = cor_lhs(ctx, x, y, z, lambda n: weight(n, n * n))
    inner = cor_rhs_sum(ctx, x, y, z, lambda n: weight(n, n * n - 2 * n),
                        start=1, times=ctx.div(pv, B))
    rhs = ctx.mul(cor_pref(ctx, x, y, z), ctx.sub(ctx.one(), inner))
    return lhs, rhs


def _b_bibasic_ab2(ctx, p):
    x, y, z, pv, B = p["x"], p["y"], p["z"], p["p"], p["B"]

    def rterm(n):
        tail = ctx.sub(ctx.one(), ctx.mul(B, ctx.pow_int(pv, 2 * n - 1)))
        return ctx.mul(tail, ctx.pow_int(B, n),
                       ctx.pow_int(pv, n * n - 2 * n))

    lhs = cor_lhs(ctx, x, y, z, lambda n: ctx.mul(ctx.pow_int(B, n),
                                                  ctx.pow_int(pv, n * n)))
    inner = cor_rhs_sum(ctx, x, y, z, rterm, start=1, times=ctx.div(pv, B))
    rhs = ctx.mul(cor_pref(ctx, x, y, z), ctx.sub(ctx.one(), inner))
    return lhs, rhs


def _s_bibasic(rng, mode):
    # exact: p may sit on a half-integer q-power (odd t-exponent)
    if mode == "exact":
        out = _xyz(rng, "exact", d=2)
        out["p"] = QMonomial(rng.choice(SMALL_COEFS), rng.randint(1, 3))
        eB = rng.randint(0, 2)
        pool = [c for c in COEFS if not (eB == 0 and c == 1)]
        out["B"] = QMonomial(rng.choice(pool), eB)
        return out
    out = _xyz(rng, "numeric")
    del out["q"]
    out["p"] = rng.choice([F(1, 3), F(-1, 3), F(2, 5), F(1, 2), F(-2, 5)])
    out["B"] = rng.choice([F(1, 2), F(-1, 2), F(2, 3), F(3, 5), F(-3, 4)])
    out["__q_unit"] = rng.choice(QUPOOL)
    return out


def _b_rrs3eq1(ctx, p):
    x, a, b = p["x"], p["a"], p["b"]
    qq = ctx.qpow(1)
    xq = ctx.mul(x, qq)

    def lterm(n):
        e = a * n * n + b * n + F(n * (n - 1), 2)
        return ctx.mul(ctx.pow_int(ctx.neg(x), n), ctx.qpow(e),
                       ctx.inv_poch(xq, qq, n))

    lhs = ctx.summation(lterm)

    def rterm(n):
        e = a * n * n + (b - 2 * a) * n + F(n * (n - 1), 2)
        tail = ctx.sub(ctx.one(), ctx.qpow(2 * a * n + b - a))
        return ctx.mul(ctx.pow_int(ctx.neg(x), n), ctx.qpow(e), tail,
                       ctx.inv_poch(x, qq, n))

    inner = ctx.summation(rterm, start=1, times=ctx.qpow(a - b))
    rhs = ctx.mul(ctx.sub(ctx.one(), x), ctx.sub(ctx.one(), inner))
    return lhs, rhs


def _s_rrs3eq1(rng, mode):
    a = F(rng.choice([0, 1, 2, 3]), rng.choice([1, 2]))
    b = F(rng.choice([-1, 0, 1, 2, 3]), rng.choice([1, 2]))
    if mode == "exact":
        return {"x": QMonomial(rng.choice(SMALL_COEFS), 2 * rng.randint(1, 2)),
                "a": a, "b": b}
    return {"x": rng.choice([F(1, 2), F(-1, 2), F(2, 5), F(1, 3)]),
            "a": a, "b": b, "__q_unit": rng.choice(QUPOOL)}


def _b_bb_z0(ctx, p):
    # the central transform at base q^2 and z = 0
    x, y, ia, ib = p["x"], p["y"], p["a"], p["b"]
    q2, z = ctx.qpow(2), ctx.num(0)
    base_a = ctx.qpow(2 * ia)
    narg = ctx.neg(ctx.qpow(ia + ib))

    def weight(n, e):
        return ctx.mul(ctx.qpow(e), ctx.inv_poch(narg, base_a, n))

    lhs = cor_lhs(ctx, x, y, z, lambda n: weight(n, ia * n * n + ib * n),
                  base=q2)
    inner = cor_rhs_sum(ctx, x, y, z,
                        lambda n: weight(n, ia * n * n + (ib - 2 * ia) * n),
                        start=1, times=ctx.qpow(ia - ib), base=q2)
    rhs = ctx.mul(cor_pref(ctx, x, y, z), ctx.sub(ctx.one(), inner))
    return lhs, rhs


def _s_bb_z0(rng, mode):
    ia = rng.randint(1, 2)
    ib = rng.randint(-ia, 3)
    if mode == "exact":
        return {"x": _mono(rng, 1, 2, pool=SMALL_COEFS),
                "y": _mono(rng, 0, 2), "a": ia, "b": ib}
    return {"x": rng.choice([F(1, 2), F(-1, 2), F(2, 5), F(1, 3)]),
            "y": _rat(rng), "a": ia, "b": ib, "q": _qv(rng)}


def _b_bb_yinf(ctx, p):
    x, ia, ib = p["x"], p["a"], p["b"]
    q2 = ctx.qpow(2)
    base_a = ctx.qpow(2 * ia)
    narg = ctx.neg(ctx.qpow(ia + ib))

    def lterm(n):
        return ctx.mul(ctx.pow_int(ctx.neg(x), n),
                       ctx.qpow((ia + 1) * n * n + (ib - 1) * n),
                       ctx.inv_poch(ctx.mul(q2, x), q2, n),
                       ctx.inv_poch(narg, base_a, n))

    lhs = ctx.summation(lterm)

    def rterm(n):
        return ctx.mul(ctx.pow_int(ctx.neg(x), n),
                       ctx.qpow((ia + 1) * n * n + (ib - 2 * ia - 1) * n),
                       ctx.inv_poch(x, q2, n), ctx.inv_poch(narg, base_a, n))

    inner = ctx.summation(rterm, start=1, times=ctx.qpow(ia - ib))
    rhs = ctx.mul(ctx.sub(ctx.one(), x), ctx.sub(ctx.one(), inner))
    return lhs, rhs


def _s_bb_yinf(rng, mode):
    ia = rng.randint(1, 2)
    ib = rng.randint(-ia, 3)
    if mode == "exact":
        return {"x": _mono(rng, 1, 2, pool=SMALL_COEFS), "a": ia, "b": ib}
    return {"x": rng.choice([F(1, 2), F(-1, 2), F(2, 5), F(1, 3)]),
            "a": ia, "b": ib, "q": _qv(rng)}


# -- fixed single-base identities ---------------------------------------------

def _rr_mod5(b, r, h=None):
    """Rogers' mod-5 identities in base q^4 (no h) and their companions:

        sum_n [1 + q^(h-2n)] q^(n^2+bn) / (q^4;q^4)_n
            = 1 / ((q^r, q^(5-r); q^5)_inf (-q^2;q^2)_inf).
    """
    def build(ctx, p):
        q4, q5 = ctx.qpow(4), ctx.qpow(5)

        def term(n):
            head = () if h is None else \
                (ctx.add(ctx.one(), ctx.qpow(h - 2 * n)),)
            return ctx.mul(*head, ctx.qpow(n * n + b * n),
                           ctx.inv_poch(q4, q4, n))

        return ctx.summation(term), ctx.mul(
            ctx.inv_poch_inf(ctx.qpow(r), q5),
            ctx.inv_poch_inf(ctx.qpow(5 - r), q5),
            ctx.inv_poch_inf(ctx.neg(ctx.qpow(2)), ctx.qpow(2)))

    return build


def _gg_mod8(a, b, r, h=None):
    """The Gollnitz-Gordon-Slater mod-8 identities (no h) and their
    companions:

        sum_n [1 - q^(2n+h)] (-q^a;q^2)_n q^(n^2+bn) / (q^2;q^2)_n
            = 1 / (q^r, q^4, q^(8-r); q^8)_inf.
    """
    def build(ctx, p):
        q2, q8 = ctx.qpow(2), ctx.qpow(8)
        nqa = ctx.neg(ctx.qpow(a))

        def term(n):
            head = () if h is None else \
                (ctx.sub(ctx.one(), ctx.qpow(2 * n + h)),)
            return ctx.mul(*head, ctx.poch(nqa, q2, n),
                           ctx.qpow(n * n + b * n), ctx.inv_poch(q2, q2, n))

        return ctx.summation(term), ctx.mul(
            ctx.inv_poch_inf(ctx.qpow(r), q8),
            ctx.inv_poch_inf(ctx.qpow(4), q8),
            ctx.inv_poch_inf(ctx.qpow(8 - r), q8))

    return build


def _triple(ctx, c, a, m):
    """(c q^a, c q^(m-a), q^m; q^m)_inf as factors for a `ctx.mul`."""
    qm = ctx.qpow(m)
    return [ctx.poch_inf(ctx.mul(c, ctx.qpow(a)), qm),
            ctx.poch_inf(ctx.mul(c, ctx.qpow(m - a)), qm),
            ctx.poch_inf(qm, qm)]


def _p16(ctx, z, a):
    """The factors of (z;q)_inf (-q^a, -q^(16-a), q^16; q^16)_inf /
    (q^4;q^4)_inf, the product side of the mod-16 identities."""
    q4 = ctx.qpow(4)
    return [ctx.poch_inf(z, ctx.qpow(1)), *_triple(ctx, -1, a, 16),
            ctx.inv_poch_inf(q4, q4)]


def _mod16(c, a, e):
    """The mod-16 companions of the Gessel-Stanton identities:

        c + sum_{n>=1} (-q;q)_n q^((n^2-n)/2) / (q;q)_(n-1)
            = q^e (-1;q)_inf (-q^a, -q^(16-a), q^16; q^16)_inf
              / (q^4;q^4)_inf.
    """
    def build(ctx, p):
        qq = ctx.qpow(1)
        nq = ctx.neg(qq)

        def term(n):
            return ctx.mul(ctx.poch(nq, qq, n), ctx.qpow(F(n * n - n, 2)),
                           ctx.inv_poch(qq, qq, n - 1))

        lhs = ctx.add(ctx.num(c), ctx.summation(term, start=1))
        return lhs, ctx.mul(ctx.qpow(e), *_p16(ctx, ctx.num(-1), a))

    return build


def _b_rrs6(ctx, p):
    b = p["b"]
    qq = ctx.qpow(1)
    q2 = ctx.qpow(2)
    q3b = ctx.mul(ctx.qpow(3), ctx.inv(b))

    def term(n):
        return ctx.mul(ctx.poch(b, qq, n), ctx.poch(q3b, qq, n),
                       ctx.qpow(F(n * (n + 1), 2)),
                       ctx.inv_poch(q2, q2, n + 1), ctx.inv_poch(qq, qq, n))

    lhs = ctx.summation(term)
    rhs = ctx.mul(ctx.poch_inf(ctx.mul(ctx.qpow(4), ctx.inv(b)), q2),
                  ctx.poch_inf(ctx.mul(b, qq), q2), ctx.inv_poch_inf(qq, qq))
    return lhs, rhs


def _s_rrs6(rng, mode):
    if mode == "exact":
        e = rng.randint(0, 3)
        pool = [c for c in COEFS if not (e in (0, 3) and c == 1)]
        return {"b": QMonomial(rng.choice(pool), e)}
    b = rng.choice([F(1, 2), F(-1, 2), F(1, 3), F(2, 5), F(-2, 5), F(3, 5)])
    return {"b": b, "q": _qv(rng)}


def _b_qbailey(ctx, p):
    b, c = p["b"], p["c"]
    qq = ctx.qpow(1)
    q2 = ctx.qpow(2)
    qb = ctx.mul(qq, ctx.inv(b))

    def term(n):
        return ctx.mul(ctx.poch(b, qq, n), ctx.poch(qb, qq, n),
                       ctx.pow_int(c, n), ctx.qpow(F(n * (n - 1), 2)),
                       ctx.inv_poch(c, qq, n), ctx.inv_poch(q2, q2, n))

    lhs = ctx.summation(term)
    rhs = ctx.mul(ctx.poch_inf(ctx.mul(c, qq, ctx.inv(b)), q2),
                  ctx.poch_inf(ctx.mul(b, c), q2), ctx.inv_poch_inf(c, qq))
    return lhs, rhs


def _s_qbailey(rng, mode):
    if mode == "exact":
        ec = rng.randint(1, 2)
        c = QMonomial(rng.choice(SMALL_COEFS), ec)
        eb = rng.randint(0, 2)
        pool = [cf for cf in COEFS if not (eb in (0, 1) and cf == 1)]
        return {"b": QMonomial(rng.choice(pool), eb), "c": c}
    return {"b": rng.choice([F(1, 2), F(-1, 2), F(2, 5), F(3, 5)]),
            "c": rng.choice([F(1, 3), F(-1, 3), F(1, 4), F(2, 7)]),
            "q": _qv(rng)}


def _b_gs1(ctx, p):
    qq = ctx.qpow(1)
    nq = ctx.neg(qq)

    def term(n):
        return ctx.mul(ctx.poch(nq, qq, n - 1), ctx.qpow(F(n * n + n, 2)),
                       ctx.inv_poch(qq, qq, n))

    lhs = ctx.add(ctx.one(), ctx.summation(term, start=1))
    return lhs, ctx.mul(*_p16(ctx, nq, 6))


def _b_gs2(ctx, p):
    qq = ctx.qpow(1)
    nq = ctx.neg(qq)

    def term(n):
        return ctx.mul(ctx.poch(nq, qq, n), ctx.qpow(F(n * n + 3 * n, 2)),
                       ctx.inv_poch(qq, qq, n + 1))

    return ctx.summation(term), ctx.mul(*_p16(ctx, nq, 2))


def _slater69(k):
    """Slater's identity 69 (k = 0) and its shifted companion (k = 1):

        sum_n (-q^2;q^2)_(n+k) q^(n^2+2n) / (q;q)_(2n+2+k)
            = P (k = 0), 2P - 1/(1-q) (k = 1), where
        P = (-q^2, -q^14, q^16; q^16)_inf (-q;q^2)_inf / (q^2;q^2)_inf.
    """
    def build(ctx, p):
        qq, q2 = ctx.qpow(1), ctx.qpow(2)
        nq2 = ctx.neg(q2)

        def term(n):
            return ctx.mul(ctx.poch(nq2, q2, n + k), ctx.qpow(n * n + 2 * n),
                           ctx.inv_poch(qq, qq, 2 * n + 2 + k))

        lhs = ctx.summation(term)
        prod = ctx.mul(*_triple(ctx, -1, 2, 16),
                       ctx.poch_inf(ctx.neg(qq), q2), ctx.inv_poch_inf(q2, q2))
        return lhs, prod if k == 0 else ctx.sub(
            ctx.mul(ctx.num(2), prod), ctx.inv(ctx.sub(ctx.one(), qq)))

    return build


def _p121(ctx):
    """(q^2, q^14, q^16; q^16)_inf (q^12, q^20; q^32)_inf / (q;q)_inf, the
    product side of Slater's identity 121."""
    q32 = ctx.qpow(32)
    return ctx.mul(*_triple(ctx, 1, 2, 16), ctx.poch_inf(ctx.qpow(12), q32),
                   ctx.poch_inf(ctx.qpow(20), q32),
                   ctx.inv_poch_inf(ctx.qpow(1), ctx.qpow(1)))


def _b_slater121(ctx, p):
    qq, q2 = ctx.qpow(1), ctx.qpow(2)
    nq2 = ctx.neg(q2)

    def term(n):
        return ctx.mul(ctx.poch(nq2, q2, n - 1), ctx.qpow(n * n),
                       ctx.inv_poch(qq, qq, 2 * n))

    return ctx.add(ctx.one(), ctx.summation(term, start=1)), _p121(ctx)


def _b_s121(ctx, p):
    qq, q2 = ctx.qpow(1), ctx.qpow(2)
    nq2 = ctx.neg(q2)

    def term(n):
        return ctx.mul(ctx.poch(nq2, q2, n), ctx.qpow(n * n),
                       ctx.inv_poch(qq, qq, 2 * n + 1))

    lhs = ctx.summation(term)
    return lhs, ctx.sub(ctx.mul(ctx.num(2), _p121(ctx)), ctx.one())


# -- false theta records -------------------------------------------------------

def _false_theta_half(ctx):
    return ctx.summation(lambda n: ctx.mul(ctx.num((-1) ** n),
                                           ctx.qpow(F(n * (n + 1), 2))))


def _false_theta_third(ctx):
    def term(n):
        e = F(n * (3 * n + 1), 2)
        return ctx.sub(ctx.qpow(e), ctx.qpow(e + 2 * n + 1))
    return ctx.summation(term)


def _b_r1(ctx, p):
    qq = ctx.qpow(1)
    q2 = ctx.qpow(2)
    nq = ctx.neg(qq)

    def term(n):
        return ctx.mul(ctx.poch(qq, q2, n), ctx.num((-1) ** n),
                       ctx.qpow(n * n + n), ctx.inv_poch(nq, qq, 2 * n + 1))

    return ctx.summation(term), _false_theta_half(ctx)


def _b_r2a(ctx, p):
    qq = ctx.qpow(1)
    nq = ctx.neg(qq)

    def term(n):
        return ctx.mul(ctx.qpow(2 * n * n + n),
                       ctx.inv_poch(nq, qq, 2 * n + 1))

    return _false_theta_third(ctx), ctx.summation(term)


def _b_r2b(ctx, p):
    qq = ctx.qpow(1)
    nq = ctx.neg(qq)

    def term(n):
        return ctx.mul(ctx.num((-1) ** n), ctx.qpow(F(n * (n + 1), 2)),
                       ctx.inv_poch(nq, qq, n))

    return _false_theta_third(ctx), ctx.summation(term)


def _b_ft1(ctx, p):
    qq = ctx.qpow(1)
    q2 = ctx.qpow(2)

    def term(n):
        return ctx.mul(ctx.poch(qq, q2, n), ctx.num((-1) ** n),
                       ctx.qpow(n * n - n), ctx.inv_poch(ctx.num(-1), qq,
                                                         2 * n + 1))

    lhs = ctx.sub(ctx.one(), ctx.summation(term))
    return lhs, _false_theta_half(ctx)


def _b_ft2(ctx, p):
    qq = ctx.qpow(1)
    nq = ctx.neg(qq)

    def term(n):
        tail = ctx.inv(ctx.add(ctx.one(), ctx.qpow(2 * n + 3)))
        return ctx.mul(ctx.qpow(2 * n * n + 3 * n),
                       ctx.inv_poch(nq, qq, 2 * n + 1), tail)

    lhs = ctx.sub(ctx.mul(ctx.num(2), ctx.inv(ctx.add(ctx.one(), qq))),
                  ctx.summation(term))
    return lhs, _false_theta_third(ctx)


def _b_ft3(ctx, p):
    qq = ctx.qpow(1)

    def term(n):
        return ctx.mul(ctx.num((-1) ** n), ctx.qpow(F(n * (n + 1), 2)),
                       ctx.inv_poch(ctx.num(-1), qq, n + 2))

    lhs = ctx.add(ctx.num(F(1, 2)), ctx.summation(term))
    return lhs, _false_theta_third(ctx)


def _s_none(rng, mode):
    return {"q": _qv(rng)} if mode == "numeric" else {}


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _rec(id, anchor, covers, schema, build, sampler, d=1,
         strategies=("exact", "numeric"), note=None):
    return IdentityRecord(id, anchor, tuple(covers),
                          tuple(ParamSpec(*s) for s in schema), build,
                          sampler, d, tuple(strategies), note)


RECORDS = [
    _rec("qgauss", "q-Gauss summation",
         ["q-gauss-sum"],
         [("a", "monomial", "upper"), ("b", "monomial", "upper"),
          ("c", "monomial", "lower; exp(c) >= exp(a)+exp(b)+1")],
         _b_qgauss, _s_qgauss),
    _rec("qbinom", "q-binomial theorem",
         ["q-binomial-theorem"],
         [("a", "monomial", "numerator"), ("z", "monomial", "exp >= 1")],
         _b_qbinom, _s_qbinom),
    _rec("bailey-transform",
         "classical transform for a pair relative to a (k = 0)",
         ["classical-transform"],
         [("a", "monomial", ""), ("y", "monomial", "exp >= 1"),
          ("z", "monomial", "exp >= 1")],
         _b_bailey_transform, _s_bailey_transform),
    _rec("thm-wp-transform", "well-poised transform with seed sequence",
         ["wp-transform", "wp-pair-def", "wp-chain-step"],
         [("a", "monomial", ""), ("k", "monomial", "exp(k) >= exp(a)"),
          ("r1", "monomial", "exp >= 1"), ("r2", "monomial", "exp >= 1")],
         _b_thm_wp, _s_thm_wp),
    _rec("cor-central", "partial-sum transform, arbitrary finite sequence",
         ["partial-sum-transform"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", "")] +
         [(f"alpha{i}", "rational", "sequence entry") for i in range(6)],
         _b_cor_central, _s_cor_central),
    _rec("alt-alpha", "alternating sequence: even-index collapse",
         ["alt-alpha-transform"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", "")],
         _b_alt_alpha, _xyz),
    _rec("alt-sum", "alternating-sequence summation",
         ["alt-alpha-sum"],
         [("x", "monomial", "exact strategy: x = c*q")],
         _b_alt_sum, _s_x_unit),
    _rec("ones-alpha", "all-ones sequence: weighted transform",
         ["ones-alpha-transform"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", "")],
         _b_ones_alpha, _xyz),
    _rec("ones-sum", "all-ones sequence summation",
         ["ones-alpha-sum"],
         [("x", "monomial", "exact strategy: x = c*q")],
         _b_ones_sum, _s_x_unit),
    _rec("u-power", "geometric sequence summation",
         ["u-power-sum"],
         [("x", "monomial", "exact strategy: x = c*q"),
          ("u", "monomial", "u != 1")],
         _b_u_power, _s_x_unit_u),
    _rec("phi54", "5-on-4 series transform via telescoping",
         ["phi-5-4", "phi-series-def"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""), ("c", "monomial", "c != 1")],
         _b_phi54, _s_phi54),
    _rec("phi32", "3-on-2 summation from the q-Gauss route",
         ["phi-3-2"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", "")],
         _b_phi32, _s_phi32),
    _rec("poly2", "five-base transform from the finite telescoping identity",
         ["pentabasic-transform", "multibasic-telescoping"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""), ("a", "rational", "a != 1"),
          ("b", "rational", "b != 1"), ("c", "rational", "c != 0, 1; a != bc"),
          ("p", "monomial", "base"), ("P", "monomial", "base"),
          ("Q", "monomial", "base"), ("R", "monomial", "base")],
         _b_poly2, _s_poly2),
    _rec("poly2q", "single-base collapse of the five-base transform",
         ["pentabasic-basic-case"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""), ("a", "rational", "a != 1"),
          ("b", "rational", ""), ("c", "rational", "c != 0; a != bc"),
          ("m", "integer", "base power, >= 1")],
         _b_poly2q, _s_poly2q),
    _rec("phi65", "6-on-5 to 4-on-3 transform via two-parameter telescoping",
         ["phi-6-5-telescoped"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""), ("a", "rational", ""),
          ("b", "rational", "")],
         _b_phi65, _s_phi65),
    _rec("ppte-m", "size-(2,1) bridge pair transform",
         ["bridge-condition-transform"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""), ("a1", "rational", ""),
          ("a2", "rational", "a1 + a2 != 1")],
         _b_ppte_m, _s_ppte_m),
    _rec("cpte3", "size-6 quadratic family transform (10-on-9)",
         ["family6-transform", "family6-raw", "family6-normalized",
          "affine-invariance"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""), ("m", "rational", "nonzero"),
          ("n", "rational", "nonzero, nondegenerate")],
         _b_cpte3, _s_cpte3),
    _rec("cpte5", "size-12 family: 12-on-11 summation",
         ["family12-transform", "family12", "pte-definition",
          "ideal-poly-criterion"],
         [("m", "rational", "nonzero; no entry may vanish")],
         _b_cpte5, _s_cpte5,
         note="the eleven-entry denominator list includes the eighth "
              "parameter, which some printings of this summation omit; "
              "verification confirms the full list"),
    _rec("bibasic-ab", "bi-basic series with quadratic exponent, "
         "second-base shifted factorials",
         ["bibasic-half-series", "bibasic-general"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""),
          ("p", "monomial", "second base; half q-powers allowed"),
          ("B", "monomial", "nonzero")],
         _b_bibasic_ab, _s_bibasic, d=2),
    _rec("bibasic-ab2", "bi-basic series with quadratic exponent, plain",
         ["bibasic-half-series-2", "bibasic-general-2"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("z", "monomial", ""),
          ("p", "monomial", "second base; half q-powers allowed"),
          ("B", "monomial", "nonzero")],
         _b_bibasic_ab2, _s_bibasic, d=2),
    _rec("rrs3eq1", "single-variable reduction with free quadratic exponent",
         ["rr-intermediate"],
         [("x", "monomial", "exp >= 1"), ("a", "rational", "half-integers, >= 0"),
          ("b", "rational", "half-integers")],
         _b_rrs3eq1, _s_rrs3eq1, d=2),
    _rec("rrs3", "mod-5 identity, shifted variant A",
         ["rr-slater-1"], [], _rr_mod5(6, 2, 3), _s_none),
    _rec("rrs3n", "mod-5 identity, shifted variant B",
         ["rr-slater-2"], [], _rr_mod5(4, 1, 1), _s_none),
    _rec("rrs6", "two-parameter mod-2 product identity",
         ["rr-slater-3"],
         [("b", "monomial", "0 <= exp <= 3")],
         _b_rrs6, _s_rrs6),
    _rec("rrs6-2", "mod-8 identity, weighted variant A",
         ["rr-slater-4"], [], _gg_mod8(3, 0, 3, 1), _s_none),
    _rec("rrs6-3", "mod-8 identity, weighted variant B",
         ["rr-slater-5"], [], _gg_mod8(3, -2, 1, -1), _s_none),
    _rec("rrs6-4", "mod-16 identity, +1 head",
         ["rr-slater-6"], [], _mod16(1, 6, 0), _s_none),
    _rec("rrs6-5", "mod-16 identity, -1 head",
         ["rr-slater-7"], [], _mod16(-1, 2, 1), _s_none),
    _rec("gg1a", "Gollnitz-Gordon-Slater identity, first",
         ["gollnitz-gordon-1"], [], _gg_mod8(1, 2, 3), _s_none),
    _rec("gg1b", "Gollnitz-Gordon-Slater identity, second",
         ["gollnitz-gordon-2"], [], _gg_mod8(1, 0, 1), _s_none),
    _rec("rogers1", "Rogers mod-5 identity, quartic base, first",
         ["rogers-mod5-1"], [], _rr_mod5(2, 2), _s_none),
    _rec("rogers2", "Rogers mod-5 identity, quartic base, second",
         ["rogers-mod5-2"], [], _rr_mod5(0, 1), _s_none),
    _rec("qbailey", "Andrews' q-analog of Bailey's sum",
         ["q-bailey-sum"],
         [("b", "monomial", ""), ("c", "monomial", "lower; exp >= 1")],
         _b_qbailey, _s_qbailey),
    _rec("gs1", "Gessel-Stanton mod-16 summation, first",
         ["gessel-stanton-1"], [], _b_gs1, _s_none),
    _rec("gs2", "Gessel-Stanton mod-16 summation, second",
         ["gessel-stanton-2"], [], _b_gs2, _s_none),
    _rec("slater69", "Slater's list identity 69",
         ["slater-69"], [], _slater69(0), _s_none),
    _rec("slater121", "Slater's list identity 121",
         ["slater-121"], [], _b_slater121, _s_none),
    _rec("s69", "shifted variant of Slater's identity 69",
         ["slater-69-shifted"], [], _slater69(1), _s_none),
    _rec("s121", "shifted variant of Slater's identity 121",
         ["slater-121-shifted"], [], _b_s121, _s_none),
    _rec("r1", "false theta of triangular type as a quotient series",
         ["lost-notebook-1", "false-theta-half"], [], _b_r1, _s_none),
    _rec("r2a", "false theta of pentagonal type, first quotient form",
         ["lost-notebook-2a", "false-theta-third"], [], _b_r2a, _s_none),
    _rec("r2b", "false theta of pentagonal type, second quotient form",
         ["lost-notebook-2b"], [], _b_r2b, _s_none),
    _rec("ft1", "new representation of the triangular false theta",
         ["false-theta-1"], [], _b_ft1, _s_none,
         note="encoded exactly as displayed (leading 1 minus the sum); "
              "verification confirms the display"),
    _rec("ft2", "new representation of the pentagonal false theta, first",
         ["false-theta-2"], [], _b_ft2, _s_none),
    _rec("ft3", "new representation of the pentagonal false theta, second",
         ["false-theta-3"], [], _b_ft3, _s_none),
    _rec("bb-z0", "bi-basic collapse: one numerator parameter, squared base",
         ["bibasic-z0"],
         [("x", "monomial", "exp >= 1"), ("y", "monomial", ""),
          ("a", "integer", ">= 1"), ("b", "integer", "")],
         _b_bb_z0, _s_bb_z0),
    _rec("bb-yinf", "bi-basic collapse: quadratic exponent only",
         ["bibasic-yinf"],
         [("x", "monomial", "exp >= 1"), ("a", "integer", ">= 1"),
          ("b", "integer", "")],
         _b_bb_yinf, _s_bb_yinf),
]
