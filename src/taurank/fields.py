"""Exact coefficient fields (rationals and prime fields) and a splittable RNG.

Every computation in this library is exact: a scalar is a plain Python
number, over Q an `int` or a `fractions.Fraction`, over F_p an `int`
reduced into [0, p).  A field object names the field, gives its zero and
one, converts ints and fractions into it (`from_int`, `from_fraction`),
samples and serializes its scalars.  Over Q each of these gives an `int`
for an integral value, so a matrix built from them with integral cells
holds ints only, which the modular rank shortcut of `linalg` needs.
`sample(rng, bound, count)` draws `count` scalars in one call, through
`SeedStream.randints`, with the same stream as `count` calls of
`SeedStream.randint`; a Hom space draws all its coefficients in one call.
A field does no arithmetic: every computation uses Python's operators on
scalars, and `linalg` reduces F_p cells once, when it builds a matrix.
`is_zero` serves the benchmark tracer's count of nonzero Hom
coefficients.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, repeat


class RationalField:
    """The field Q.  A scalar is an `int` or a `Fraction`, the two mix
    freely; `zero`, `one`, `from_int`, `from_fraction` and `sample` give
    an `int` for an integral value."""

    name = "Q"
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        return n

    def from_fraction(self, q):
        q = Fraction(q)
        return q.numerator if q.denominator == 1 else q

    def is_zero(self, a):
        return a == 0

    def to_json(self, a):
        return int(a) if a.denominator == 1 else str(a)

    def sample(self, rng, bound, count):
        """`count` uniform integers in [-bound, bound], as `int`s."""
        if bound == 0:
            return [0] * count
        return rng.randints(-bound, bound, count)

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3 * 10**24."""
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large for the primality test (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p, with int scalars in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F_{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
        return (q.numerator * pow(q.denominator, -1, self.p)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def to_json(self, a):
        return int(a)

    def sample(self, rng, bound, count):
        """`count` uniform elements; `bound` 0 gives zeros, as over Q."""
        if bound == 0:
            return [0] * count
        return rng.randints(0, self.p - 1, count)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

DEFAULT_PRIME = 2147483647


_MASK64 = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    # splitmix64-style finalizer; cheap, deterministic, well spread.
    x = (seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class SeedStream:
    """Seedable, splittable deterministic random stream.

    `split(i)` derives the i-th child stream; children with distinct
    indices are independent and reproducible.  Randomized operations
    document which stream index they consume.  The underlying
    `random.Random` is seeded on the first draw: many streams are only
    split, or never drawn from at all.
    """

    __slots__ = ("seed", "_bits")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bits = None

    def split(self, index: int) -> "SeedStream":
        return SeedStream(_mix(self.seed, index))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi]; one draw of `randints`."""
        return self.randints(lo, hi, 1)[0]

    def randints(self, lo: int, hi: int, count: int) -> list:
        """`count` uniform ints in [lo, hi]; the same draws as `count`
        calls of `random.Random.randint`, which rejects getrandbits(k)
        values >= n, k = n.bit_length()."""
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"empty range for randints({lo}, {hi})")
        if not count:
            return []  # no draw, so no seeding
        bits = self._bits
        if bits is None:
            bits = self._bits = random.Random(self.seed).getrandbits
        # islice pulls exactly `count` accepted values, so the stream ends
        # where `count` single draws would leave it
        accepted = filter(n.__gt__, map(bits, repeat(n.bit_length())))
        return list(map(lo.__add__, islice(accepted, count)))

    def __repr__(self):
        return f"SeedStream({self.seed})"
