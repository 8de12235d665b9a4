"""Binomial-coefficient parity and the divisibility screen for orders that
can carry a subset-regular hypergraph exchanged with its complement.

Parity of comb(a, b) is decided by the binary digit test (odd iff every
bit of b is also set in a), with the conventions comb(a, b) = 0 for b > a
and comb(a, 0) = 1.
"""

from collections import namedtuple

__all__ = [
    "AdmissibilityReport",
    "PeriodicityError",
    "admissible",
    "binom_parity",
    "residue_classes",
]


# Refuse a larger modulus: the scan's time grows linearly with it.  One
# process, 2 vCPUs, Python 3.11: `residues` took 0.18 s at 4096, 0.58 s at
# 16 384, 1.9-2.4 s at this bound ((k, t) = (3, 1), (3, 2), (12, 11)) and
# 33 s at 2^20.
MAX_MODULUS = 1 << 16

# Refuse a larger t: `parity` reports t + 1 parities, and the residue scan
# computes them for every order it scans.  One process, 2 vCPUs, Python
# 3.11, k = t + 1: `residues --mod 65536` took 2.1 s at t = 2, 4.8 s at
# t = 32, 7.9 s at this bound and 16.1 s at t = 128.
MAX_T = 64


class PeriodicityError(ValueError):
    """The admissible residue set failed to repeat across scanned periods."""


def binom_parity(a: int, b: int) -> int:
    """Parity of comb(a, b): 1 if odd, 0 if even."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    return 1 if b & ~a == 0 else 0


class AdmissibilityReport(namedtuple("AdmissibilityReport", "n k t parities")):
    """Parities of comb(n-i, k-i) for i = 0..t; admissible iff all even."""

    __slots__ = ()

    @property
    def admissible(self) -> bool:
        return not any(self.parities)

    def to_lines(self) -> list[str]:
        words = ("even", "odd")
        lines = [
            f"i={i} C({self.n - i},{self.k - i}) {words[p]}"
            for i, p in enumerate(self.parities)
        ]
        lines.append(f"admissible {'true' if self.admissible else 'false'}")
        return lines


def admissible(n: int, k: int, t: int) -> AdmissibilityReport:
    """Divisibility screen: comb(n-i, k-i) must be even for every i = 0..t."""
    if not 0 < t < k < n:
        raise ValueError(f"need 0 < t < k < n, got t={t}, k={k}, n={n}")
    if t > MAX_T:
        raise ValueError(f"t={t} exceeds the bound of {MAX_T}")
    parities = tuple(binom_parity(n - i, k - i) for i in range(t + 1))
    return AdmissibilityReport(n=n, k=k, t=t, parities=parities)


def residue_classes(k: int, t: int, modulus: int) -> set[int]:
    """Residues of admissible orders mod a power of two, found by scanning.

    The scan starts at the smallest legal order k+1 and covers eight
    consecutive blocks of length `modulus`; the admissible residue set must
    be identical in every block, otherwise the answer would depend on the
    scan range and a PeriodicityError is raised instead.
    """
    if modulus < 1 or modulus & (modulus - 1):
        raise ValueError(f"modulus must be a power of two, got {modulus}")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} exceeds the bound of {MAX_MODULUS}")
    if not 0 < t < k:
        raise ValueError(f"need 0 < t < k, got t={t}, k={k}")
    start = k + 1
    blocks = []
    for j in range(8):
        lo = start + j * modulus
        blocks.append(
            {
                nn % modulus
                for nn in range(lo, lo + modulus)
                if admissible(nn, k, t).admissible
            }
        )
    for j, block in enumerate(blocks[1:], start=1):
        if block != blocks[0]:
            raise PeriodicityError(
                f"admissible residues mod {modulus} vary across periods: "
                f"{sorted(blocks[0])} in block 0 vs {sorted(block)} in block {j}"
            )
    return set(blocks[0])
