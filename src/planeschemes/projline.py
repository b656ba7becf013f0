"""Arithmetic of the projective line over F_p and the Moebius action of PGL(2,p).

Points of P1(F_p) are encoded as plain integers 0..p: a value m < p is the
finite point [m:1] and the value p stands for [1:0] (infinity).  The same
encoding doubles as the slope labels of the affine plane AG(2,p): slope m of
a line corresponds to [m:1], the vertical parallel class to [1:0].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolated, SingularMatrix, UnsupportedPrime, ZeroInverse

#: largest prime accepted by the constructors in this package
MAX_PRIME = 31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    """Reject anything but an odd prime <= MAX_PRIME.  p = 2 is rejected everywhere."""
    if not is_prime(p) or p == 2:
        raise UnsupportedPrime(f"p must be an odd prime, got {p}")
    if p > MAX_PRIME:
        raise UnsupportedPrime(f"p = {p} exceeds the supported bound {MAX_PRIME}")


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo the prime p."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


@dataclass(frozen=True, order=True)
class PglElement:
    """Canonical representative of an element of PGL(2,p).

    Matrix rows are (a b) and (c d).  The first nonzero entry in the order
    a, b, c, d equals 1, so every coset of the center has exactly one
    representative and dataclass ordering is the lexicographic order used by
    all deterministic searches.
    """

    a: int
    b: int
    c: int
    d: int
    p: int

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def pgl_canonical(a: int, b: int, c: int, d: int, p: int) -> PglElement:
    """Scale (a b; c d) so its first nonzero entry is 1; reject singular input."""
    a, b, c, d = a % p, b % p, c % p, d % p
    if (a * d - b * c) % p == 0:
        raise SingularMatrix(f"det of ({a},{b};{c},{d}) vanishes mod {p}")
    for x in (a, b, c, d):
        if x:
            s = fp_inv(x, p)
            break
    return PglElement((a * s) % p, (b * s) % p, (c * s) % p, (d * s) % p, p)


def pgl_identity(p: int) -> PglElement:
    return PglElement(1, 0, 0, 1, p)


def pgl_mul(g: PglElement, h: PglElement) -> PglElement:
    """Matrix product g*h (acting on points right-to-left: first h, then g)."""
    p = g.p
    return pgl_canonical(
        g.a * h.a + g.b * h.c,
        g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c,
        g.c * h.b + g.d * h.d,
        p,
    )


def pgl_inv(g: PglElement) -> PglElement:
    return pgl_canonical(g.d, -g.b, -g.c, g.a, g.p)


def moebius_apply(g: PglElement, x: int) -> int:
    """Image of the projective point x (0..p, with p = infinity) under g.

    [u:v] goes to [a*u + b*v : c*u + d*v] followed by projective
    normalization; the induced map on the p+1 points is a bijection.
    """
    p = g.p
    if x == p:
        u, v = 1, 0
    else:
        u, v = x, 1
    u2 = (g.a * u + g.b * v) % p
    v2 = (g.c * u + g.d * v) % p
    if v2 == 0:
        return p
    return (u2 * fp_inv(v2, p)) % p


def point_permutation(g: PglElement) -> tuple[int, ...]:
    """The permutation of the p+1 projective points induced by g."""
    return tuple(moebius_apply(g, x) for x in range(g.p + 1))


@lru_cache(maxsize=None)
def pgl_elements(p: int) -> tuple[PglElement, ...]:
    """All p^3 - p elements of PGL(2,p), sorted in canonical lexicographic order."""
    check_prime(p)
    out = []
    for c in range(1, p):
        for d in range(p):
            out.append(PglElement(0, 1, c, d, p))
    for b in range(p):
        for c in range(p):
            for d in range(p):
                if (d - b * c) % p != 0:
                    out.append(PglElement(1, b, c, d, p))
    out.sort()
    if len(out) != p**3 - p:
        raise InvariantViolated(f"{len(out)} elements of PGL(2,{p}), want {p**3 - p}")
    return tuple(out)
