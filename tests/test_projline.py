import random

import pytest

from planeschemes.errors import SingularMatrix, UnsupportedPrime, ZeroInverse
from planeschemes.projline import (
    PglElement,
    check_prime,
    fp_inv,
    moebius_apply,
    pgl_canonical,
    pgl_elements,
    pgl_identity,
    pgl_inv,
    pgl_mul,
    point_permutation,
)


def test_fp_inv_examples():
    assert fp_inv(1, 5) == 1
    assert fp_inv(2, 5) == 3
    assert fp_inv(4, 7) == 2


def test_fp_inv_zero():
    with pytest.raises(ZeroInverse):
        fp_inv(0, 5)
    with pytest.raises(ZeroInverse):
        fp_inv(10, 5)


def test_check_prime_rejects():
    for bad in (2, 4, 9, 1, 0, -3):
        with pytest.raises(UnsupportedPrime):
            check_prime(bad)
    with pytest.raises(UnsupportedPrime):
        check_prime(37)   # beyond MAX_PRIME
    check_prime(31)


def test_canonical_examples():
    assert pgl_canonical(1, 0, 0, 1, 3) == PglElement(1, 0, 0, 1, 3)
    assert pgl_canonical(2, 0, 0, 2, 3) == PglElement(1, 0, 0, 1, 3)
    # first nonzero entry is b=2; scale by 2^-1 = 3 mod 5
    assert pgl_canonical(0, 2, 1, 0, 5) == PglElement(0, 1, 3, 0, 5)


def test_canonical_rejects_singular():
    with pytest.raises(SingularMatrix):
        pgl_canonical(1, 2, 2, 4, 5)


def test_canonical_scalar_invariance():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11])
        while True:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if (a * d - b * c) % p:
                break
        lam = rng.randrange(1, p)
        assert pgl_canonical(a, b, c, d, p) == pgl_canonical(
            lam * a, lam * b, lam * c, lam * d, p
        )


def test_moebius_examples():
    p = 3
    ident = pgl_identity(p)
    for x in range(p + 1):
        assert moebius_apply(ident, x) == x
    swap = pgl_canonical(0, 1, 1, 0, 3)         # z -> 1/z
    assert moebius_apply(swap, 0) == 3          # 0 -> infinity
    neg = pgl_canonical(3 - 1, 0, 0, 1, 3)      # z -> -z
    assert moebius_apply(neg, 1) == 2


def test_moebius_bijection_and_composition():
    rng = random.Random(11)
    for p in (3, 5, 7):
        els = pgl_elements(p)
        for _ in range(50):
            g = rng.choice(els)
            h = rng.choice(els)
            pg, ph = point_permutation(g), point_permutation(h)
            assert sorted(pg) == list(range(p + 1))
            # product acts right-to-left: first h, then g
            combined = point_permutation(pgl_mul(g, h))
            assert combined == tuple(pg[ph[x]] for x in range(p + 1))
            assert point_permutation(pgl_inv(g)) == tuple(
                pg.index(x) for x in range(p + 1)
            )


def test_slope_permutation_examples():
    neg3 = pgl_canonical(2, 0, 0, 1, 3)          # z -> -z at p=3
    assert point_permutation(neg3) == (0, 2, 1, 3)
    inv5 = pgl_canonical(0, 1, 1, 0, 5)          # z -> 1/z at p=5
    perm = point_permutation(inv5)
    assert perm[0] == 5 and perm[5] == 0
    assert perm[1] == 1 and perm[4] == 4
    assert perm[2] == 3 and perm[3] == 2


def test_slope_agrees_with_moebius_randomly():
    rng = random.Random(13)
    for p in (3, 5, 7, 11, 13):
        els = pgl_elements(p)
        for _ in range(1000):
            g = rng.choice(els)
            x = rng.randrange(p + 1)
            assert point_permutation(g)[x] == moebius_apply(g, x)


def test_pgl_element_counts():
    for p in (3, 5, 7, 11):
        els = pgl_elements(p)
        assert len(els) == p**3 - p
        assert len(set(els)) == len(els)
        assert list(els) == sorted(els)
