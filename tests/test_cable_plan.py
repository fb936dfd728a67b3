"""Every path that reads jones._cable_plan, against the dense recursion.

A cable is expanded by one of three paths, all reading the same plan of
the cabling formula's terms: the closed form of a cable of the unknot, the
one double sum of a cable of a torus knot, and the child-by-child merge of
a cable of anything else.  Random chains of cables, with framing twists
between some of their levels, reach each of them many times; every value
must be the dense referee's, in the same dtype.
"""

import math
import random

from cablejones import jones
from cablejones.jones import colored_jones
from cablejones.linkexpr import Cable, Twist, Unknot

from test_numerator import referee, same


def random_chain(rng: random.Random):
    """A knot: 1-4 cables with gcd(r, s) = 1, s <= 3 and |r| <= 5, and a
    framing twist under about a third of the cables above the first."""
    e = Unknot()
    for _ in range(rng.randint(1, 4)):
        s = rng.randint(1, 3)
        r = rng.choice([r for r in range(-5, 6) if math.gcd(r, s) == 1])
        if not isinstance(e, Unknot) and rng.random() < 0.35:
            e = Twist(e, 1, rng.randint(-3, 3))
        e = Cable(e, 1, r, s)
    return e


class TestCableChains:
    def test_random_chains_reach_every_path(self, monkeypatch):
        runs = {"closed form": 0, "torus-knot sum": 0, "child by child": 0}

        def spy(name, f, ran=lambda result: True):
            def counted(*args):
                result = f(*args)
                runs[name] += ran(result)
                return result
            return counted

        monkeypatch.setattr(jones, "_unknot_cable", spy("closed form", jones._unknot_cable))
        monkeypatch.setattr(jones, "_torus_knot_cable",
                            spy("torus-knot sum", jones._torus_knot_cable,
                                lambda num: num is not None))
        monkeypatch.setattr(jones, "_merge", spy("child by child", jones._merge))
        rng = random.Random(31)
        for _ in range(150):
            e = random_chain(rng)
            colors = (rng.randint(1, 6),)
            same(colored_jones(e, colors), referee(e, colors))
        assert min(runs.values()) >= 10, runs
