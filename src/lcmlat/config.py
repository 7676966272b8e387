"""Runtime limits and knobs.

A single Config value is threaded through the expensive entry points; the
defaults are deliberately desk-scale.  Field arithmetic for Betti numbers is
exact rationals by default, GF(p) on request.  A Config is frozen and checks
its field when it is built, so a value in hand is always a valid one.
"""

from dataclasses import dataclass

from .errors import InvalidInput

# Miller-Rabin on the first thirteen primes as bases decides primality
# exactly below PRIME_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster); the first twelve alone fail at 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


@dataclass(frozen=True)
class Config:
    # hard cap on elements of any one semilattice
    element_cap: int = 4096
    # hard cap on characteristic poset points
    poset_cap: int = 20000
    # hard cap on the Lyubeznik faces one Betti table enumerates
    subset_cap: int = 2 ** 14
    # "Q" for exact rationals, ("GF", p) for a prime field
    field: object = "Q"
    # atom-count ceiling for the census
    atom_cap: int = 5
    # permutation budget for the general canonization fallback
    canon_perm_cap: int = 100000
    # census at atom_cap itself must be requested explicitly
    long_run: bool = False

    def __post_init__(self):
        f = self.field
        if f == "Q":
            return
        if isinstance(f, tuple) and len(f) == 2 and f[0] == "GF" and isinstance(f[1], int):
            if f[1] >= PRIME_BOUND:  # checked before f is printed: a huge int has no str
                raise InvalidInput(f"a field modulus must be below {PRIME_BOUND}")
            if _is_prime(f[1]):
                return
        raise InvalidInput(f"field must be 'Q' or ('GF', prime), got {f!r}")

    def field_label(self):
        return "Q" if self.field == "Q" else f"GF({self.field[1]})"


def _is_prime(p):
    """Deterministic Miller-Rabin, exact for p < PRIME_BOUND."""
    if p < 2 or any(p % b == 0 for b in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    return all(pow(b, d, p) == 1 or p - 1 in (pow(b, d << t, p) for t in range(s))
               for b in _BASES)


DEFAULT = Config()
