import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from lcmlat import GeneratorSet, Monomial, QuotientPair

# HYPOTHESIS_PROFILE=deep raises the example budget of every property test
# that does not set its own (tests/test_cli_fuzz.py)
settings.register_profile("deep", max_examples=5000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_monomial(rng, nvars, max_exp):
    while True:
        m = Monomial([rng.randint(0, max_exp) for _ in range(nvars)])
        if not m.is_unit():
            return m


def random_ideal(rng, max_vars=5, max_gens=6, max_exp=4):
    nvars = rng.randint(1, max_vars)
    names = tuple(f"x{j}" for j in range(nvars))
    gens = [random_monomial(rng, nvars, max_exp) for _ in range(rng.randint(1, max_gens))]
    return GeneratorSet(names, gens)


def random_proper_pair(rng, max_vars=3, max_gens=3, max_exp=2):
    """A random proper quotient: J built from multiples of I's generators."""
    while True:
        i = random_ideal(rng, max_vars, max_gens, max_exp).minimalize()
        j_gens = []
        for g in i.gens:
            for _ in range(rng.randint(0, 2)):
                extra = Monomial([rng.randint(0, max_exp) for _ in range(i.nvars)])
                j_gens.append(g.mul(extra))
        pair = QuotientPair(i, GeneratorSet(i.variables, j_gens))
        if pair.is_proper():
            return pair


@pytest.fixture
def rng():
    return random.Random(20260819)
