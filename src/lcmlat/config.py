"""Runtime limits and knobs.

A single Config value is threaded through the expensive entry points; the
defaults are deliberately desk-scale.  Field arithmetic for Betti numbers is
exact rationals by default, GF(p) on request.
"""

from dataclasses import dataclass

from .errors import InvalidInput


@dataclass
class Config:
    # hard cap on elements of any one semilattice
    element_cap: int = 4096
    # hard cap on characteristic poset points
    poset_cap: int = 20000
    # hard cap on Taylor complex subsets (2**n_generators)
    subset_cap: int = 2 ** 14
    # "Q" for exact rationals, ("GF", p) for a prime field
    field: object = "Q"
    # atom-count ceiling for the census
    atom_cap: int = 5
    # permutation budget for the general canonization fallback
    canon_perm_cap: int = 100000
    # census at atom_cap itself must be requested explicitly
    long_run: bool = False

    def validate_field(self):
        f = self.field
        if f == "Q":
            return
        if isinstance(f, tuple) and len(f) == 2 and f[0] == "GF":
            p = f[1]
            if isinstance(p, int) and p >= 2 and _is_prime(p):
                return
        raise InvalidInput(f"field must be 'Q' or ('GF', prime), got {f!r}")

    def field_label(self):
        return "Q" if self.field == "Q" else f"GF({self.field[1]})"


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


DEFAULT = Config()
