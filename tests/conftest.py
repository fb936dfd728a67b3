import random

import pytest

from cablejones.laurent import LaurentPoly
from cablejones.linkexpr import Cable, ConnSum, Twist, Unknot, component_count


def random_poly(rng: random.Random, max_terms=8, max_exp=30, max_coeff=20,
                nonzero=False) -> LaurentPoly:
    terms = [(rng.randint(-max_exp, max_exp),
              rng.randint(-max_coeff, max_coeff))
             for _ in range(rng.randint(0, max_terms))]
    p = LaurentPoly.from_terms(terms)
    if nonzero and p.is_zero():
        return LaurentPoly.monomial(rng.randint(1, max_coeff),
                                    rng.randint(-max_exp, max_exp))
    return p


def random_expr(rng: random.Random, depth=2, max_components=3):
    """A small random link expression; cable nesting limited by depth."""
    kind = rng.random()
    if depth == 0 or kind < 0.25:
        return Unknot()
    if kind < 0.55:
        child = random_expr(rng, depth - 1, max_components)
        c = component_count(child)
        s = rng.randint(1, 3)
        r = rng.randint(-3, 3)
        from cablejones.linkexpr import cable_gcd
        if c + cable_gcd(r, s) - 1 > max_components:
            s, r = 1, rng.choice([-2, -1, 1, 2])
        return Cable(child, rng.randint(1, c), r, s)
    if kind < 0.8:
        child = random_expr(rng, depth - 1, max_components)
        return Twist(child, rng.randint(1, component_count(child)),
                     rng.randint(-3, 3))
    left = random_expr(rng, depth - 1, min(2, max_components))
    right = random_expr(rng, depth - 1, min(2, max_components))
    if component_count(left) + component_count(right) - 1 > max_components:
        return Twist(left, 1, rng.randint(-2, 2))
    return ConnSum(left, rng.randint(1, component_count(left)),
                   right, rng.randint(1, component_count(right)))


@pytest.fixture
def rng():
    return random.Random(20210907)
