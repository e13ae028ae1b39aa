"""Paillier public-key cryptosystem over Python integers, plus a signed
fixed-point codec that maps protocol reals into the integer plaintext space.

The construction uses g = n + 1, which turns the encryption exponentiation
g^m mod n^2 into the exact shortcut 1 + m*n and makes lambda = phi(n) with
mu its inverse mod n.  Decryption works modulo p^2 and q^2 and recombines by
the Chinese remainder theorem (Paillier 1999, section 7), so the keypair keeps
its primes; every plaintext, a packed share pair included, decrypts through
that one function.  Arithmetic is plain bignum; no constant-time effort is
made (wiretap confidentiality, not side channels, is the threat model).

Encryption is the short-exponent, fixed-base variant of Damgard, Jurik and
Nielsen (2010): c = (1 + m*n) * h^alpha mod n^2 in place of the textbook
(1 + m*n) * r^n.  Its semantic security rests on decisional composite
residuosity plus the assumption that h^alpha for a short alpha is as hard
to tell from a random n-th residue as r^n is; the speed is taken for that
assumption on purpose.
- h = (-x^2 mod n)^n mod n^2 with x expanded from SHA-256 of n, so every
  sender derives the same h from the announced n and nobody chooses it.
- alpha has min(bits(n), 2 * s(n)) bits, s(n) the NIST SP 800-57 strength
  of the modulus: 160 bits for a 256-bit key, 224 for a 2048-bit key.
- h^alpha is read from a window-6 table of h's powers that each public key
  object builds on its first encryption and keeps: one full-size
  exponentiation for h, then 64 mulmods per 6 bits of alpha, holding
  0.18 MB at 256 bits and 1.4 MB at 2048 bits.  An encryption is then
  about alpha_bits / 6 mulmods mod n^2 instead of a bits(n)-bit
  exponentiation.
Ciphertexts therefore differ from the textbook scheme's, while every one
decrypts under the unchanged key.
"""
from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    MagnitudeOverflow,
    MalformedCiphertext,
    PlaintextOutOfRange,
)

# Primes below 1000, used to reject candidates cheaply before Miller-Rabin.
_SMALL_PRIMES: list[int] = [2]
for _c in range(3, 1000, 2):
    if all(_c % _p for _p in _SMALL_PRIMES):
        _SMALL_PRIMES.append(_c)

MILLER_RABIN_ROUNDS = 64


def is_probable_prime(n: int, rng: random.Random, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin with random bases; error probability <= 4^-rounds."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Random prime with the top bit set (exactly ``bits`` bits)."""
    if bits < 2:
        raise ConfigError("prime size must be at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def _int_bytes(n: int) -> bytes:
    return n.to_bytes((n.bit_length() + 7) // 8, "big")


def _fingerprint(n: int) -> str:
    return hashlib.sha256(_int_bytes(n)).hexdigest()[:16]


# Bits of alpha per row of the blinding table; a row holds 2^6 = 64 powers.
BLINDING_WINDOW = 6
_DIGIT_MASK = (1 << BLINDING_WINDOW) - 1

# NIST SP 800-57 Part 1 (Rev. 5), table 2: security strength of an
# integer-factorization modulus, as (smallest modulus size, strength).
_FACTORING_STRENGTH = ((15360, 256), (7680, 192), (3072, 128), (2048, 112))


def _security_bits(n: int) -> int:
    """NIST strength of modulus ``n``: 80 below 2048 bits, then 112, 128,
    192 and 256 from 2048, 3072, 7680 and 15360 bits.

    The size is that of the key n came from: a product of two k-bit primes
    has 2k or 2k - 1 bits, so an odd bit length rounds up by one.
    """
    size = n.bit_length() + n.bit_length() % 2
    return next((s for bits, s in _FACTORING_STRENGTH if size >= bits), 80)


def _blinding_base(n: int) -> int:
    """h = (-x^2 mod n)^n mod n^2 (Damgard, Jurik and Nielsen 2010), with x
    expanded from SHA-256 of n's bytes and redrawn until gcd(x, n) = 1.

    Every sender derives the same h from n alone, so no party chooses it
    and the key announcement carries n only.
    """
    seed = _int_bytes(n)
    # 64 bits beyond n make x mod n close to uniform.
    size = (n.bit_length() + 64 + 7) // 8
    attempt = 0
    while True:
        stream = b"".join(
            hashlib.sha256(
                seed + attempt.to_bytes(4, "big") + block.to_bytes(4, "big")
            ).digest()
            for block in range(-(-size // 32))
        )
        x = int.from_bytes(stream[:size], "big") % n
        if math.gcd(x, n) == 1:
            return pow(-x * x % n, n, n * n)
        attempt += 1


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    g: int
    key_id: str = ""

    def __post_init__(self) -> None:
        if not self.key_id:
            object.__setattr__(self, "key_id", _fingerprint(self.n))

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @functools.cached_property
    def alpha_bits(self) -> int:
        """Length of the blinding exponent: twice the key's security
        strength, capped at the modulus size."""
        return min(self.n.bit_length(), 2 * _security_bits(self.n))

    @functools.cached_property
    def h(self) -> int:
        """The fixed n-th residue that ``encrypt`` raises to alpha."""
        return _blinding_base(self.n)

    @functools.cached_property
    def blinding_table(self) -> tuple[tuple[int, ...], ...]:
        """Fixed-base window table of h: row i holds h^(d * 2^(6i)) mod n^2
        for d = 0..63, one row per 6-bit digit of alpha.  Built on first
        use and kept by this key object."""
        n2 = self.n_squared
        rows = []
        base = self.h
        for _ in range(-(-self.alpha_bits // BLINDING_WINDOW)):
            row = [1, base]
            for _ in range(_DIGIT_MASK - 1):
                row.append(row[-1] * base % n2)
            rows.append(tuple(row))
            base = row[-1] * base % n2
        return tuple(rows)


@dataclass(frozen=True)
class PaillierKeypair:
    """A private key: lambda and mu of the textbook formula, and the primes
    with the per-prime constants that decryption uses."""

    public: PaillierPublicKey
    lam: int
    mu: int
    p: int = field(repr=False)
    q: int = field(repr=False)
    p_squared: int = field(repr=False)
    q_squared: int = field(repr=False)
    h_p: int = field(repr=False)
    h_q: int = field(repr=False)
    q_inv_p: int = field(repr=False)


def keypair_from_primes(p: int, q: int) -> PaillierKeypair:
    """Assemble a keypair from two known primes (toy keys included)."""
    if p == q:
        raise ConfigError("p and q must be distinct primes")
    n = p * q
    lam = (p - 1) * (q - 1)
    if math.gcd(n, lam) != 1:
        raise ConfigError("gcd(n, lambda) must be 1")
    mu = pow(lam, -1, n)
    return PaillierKeypair(
        public=PaillierPublicKey(n=n, g=n + 1),
        lam=lam,
        mu=mu,
        p=p,
        q=q,
        p_squared=p * p,
        q_squared=q * q,
        # With g = n + 1, L_p(g^(p-1) mod p^2) = (p - 1) * q = -q (mod p).
        h_p=pow(-q, -1, p),
        h_q=pow(-p, -1, q),
        q_inv_p=pow(q, -1, p),
    )


MIN_KEY_BITS = 16


def keygen(bit_length: int = 256, rng: random.Random | None = None) -> PaillierKeypair:
    """Generate a keypair with two equal-bit-length primes.

    ``bit_length`` is the target modulus size; 256 is the package default.
    Retries until the primes are distinct and gcd(n, lambda) = 1.
    """
    if bit_length < MIN_KEY_BITS:
        raise ConfigError(f"key size below {MIN_KEY_BITS} bits is not supported")
    if rng is None:
        rng = random.SystemRandom()
    half = bit_length // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if math.gcd(n, (p - 1) * (q - 1)) != 1:
            continue
        return keypair_from_primes(p, q)


@dataclass(frozen=True)
class Ciphertext:
    """An element of Z*_{n^2} tagged with the key that produced it."""

    value: int
    key_id: str


def encrypt(
    public: PaillierPublicKey, m: int, rng: random.Random | None = None
) -> Ciphertext:
    """Encrypt an integer plaintext in [0, n) as (1 + m*n) * h^alpha mod n^2.

    This is the short-exponent variant of Damgard, Jurik and Nielsen
    (2010): h is the key's fixed n-th residue and alpha a
    fresh ``alpha_bits``-bit exponent from ``rng``, so repeated
    encryptions of the same plaintext differ.  h^alpha is one table
    entry per non-zero 6-bit digit of alpha, a product of about
    alpha_bits / 6 mulmods in place of the textbook r^n.  Semantic
    security rests on decisional composite residuosity plus the
    assumption that a short exponent hides h^alpha as well as a full one.
    """
    n = public.n
    if not 0 <= m < n:
        raise PlaintextOutOfRange(f"plaintext {m} outside [0, {n})")
    if rng is None:
        rng = random.SystemRandom()
    alpha = rng.getrandbits(public.alpha_bits)
    n2 = public.n_squared
    # g = n + 1 makes g^m mod n^2 collapse to 1 + m*n, already below n^2.
    c = 1 + m * n
    for row in public.blinding_table:
        digit = alpha & _DIGIT_MASK
        if digit:
            c = c * row[digit] % n2
        alpha >>= BLINDING_WINDOW
    return Ciphertext(value=c, key_id=public.key_id)


def check_ciphertext(keypair: PaillierKeypair, c: Ciphertext) -> None:
    """Raise ``MalformedCiphertext`` unless ``c`` is a unit mod n^2 under
    this keypair's key."""
    public = keypair.public
    if c.key_id != public.key_id:
        raise MalformedCiphertext(
            f"ciphertext was produced under key {c.key_id}, not {public.key_id}"
        )
    if not 0 < c.value < public.n_squared or math.gcd(c.value, public.n) != 1:
        raise MalformedCiphertext("ciphertext is not a valid element for this key")


def decrypt(keypair: PaillierKeypair, c: Ciphertext) -> int:
    """Recover the plaintext m mod p and m mod q, then recombine.

    m_p = L_p(c^(p-1) mod p^2) * h_p mod p with L_p(u) = (u - 1) / p, and
    likewise for q; two half-size exponentiations give the same integer as
    the textbook L(c^lambda mod n^2) * mu mod n, for any plaintext in
    [0, n).
    """
    check_ciphertext(keypair, c)
    p, q = keypair.p, keypair.q
    m_p = (pow(c.value, p - 1, keypair.p_squared) - 1) // p * keypair.h_p % p
    m_q = (pow(c.value, q - 1, keypair.q_squared) - 1) // q * keypair.h_q % q
    return m_q + (m_p - m_q) * keypair.q_inv_p % p * q


def add_ciphertexts(public: PaillierPublicKey, a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Homomorphic addition: the product of ciphertexts decrypts to the sum
    of plaintexts mod n."""
    if a.key_id != b.key_id or a.key_id != public.key_id:
        raise MalformedCiphertext("ciphertexts under different keys cannot be combined")
    return Ciphertext(value=a.value * b.value % public.n_squared, key_id=public.key_id)


def pack_uint(v: int) -> bytes:
    """Wire form of a non-negative integer: u32 byte length, then the value
    big-endian.  Public keys and ciphertexts both travel this way."""
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    return len(raw).to_bytes(4, "big") + raw


def unpack_uint(data: bytes, offset: int, error: type[Exception]) -> tuple[int, int]:
    """Parse one ``pack_uint`` integer at ``offset``; returns the value and
    the offset just past it.  Truncation raises ``error``."""
    start = offset + 4
    end = start + int.from_bytes(data[offset:start], "big")
    if len(data) < end:
        raise error("truncated big integer")
    return int.from_bytes(data[start:end], "big"), end


def public_key_to_bytes(public: PaillierPublicKey) -> bytes:
    """Serialization of n (g is implied n + 1, h is derived from n)."""
    return pack_uint(public.n)


def public_key_from_bytes(
    data: bytes, error: type[Exception] = MalformedCiphertext
) -> tuple[PaillierPublicKey, bytes]:
    """Parse one serialized key; returns the key and any trailing bytes.
    Truncation raises ``error``."""
    n, end = unpack_uint(data, 0, error)
    return PaillierPublicKey(n=n, g=n + 1), data[end:]


@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point embedding of reals into Z_n, one value or one
    (s, w) share pair per plaintext, laid out so that the product of up to
    ``fan_in`` ciphertexts of packed pairs decrypts to their exact sum.

    encode(v) = round(v * 2^f), with negative values wrapped to n - |.|;
    decode treats residues above n/2 as negative.  Values must satisfy
    |v| <= 2^(R - f) with R = (bits(n) - 1) // 2 - 1 - c and
    c = ceil(log2(fan_in)), so every encoding lies in [-2^R, 2^R]; a sender
    who knows only n and the run's fan-in checks that.  The bound is
    inclusive because decode can return it: below about 205-bit keys the
    largest float under 2^(R - f) encodes to 2^R, which decodes to the
    bound itself, and a decoded share must encode again unchanged.

    ``encode_pair`` packs the encodings of a share pair into one plaintext,
    as in Bianchi, Piva and Barni (IEEE TIFS 2010): each is offset by 2^R
    into a slot of [0, 2^(R+1)], and the two slots are the digits of radix
    B = fan_in * 2^(R+1) + 1, s the high one.  A sum of d <= fan_in packed
    pairs, which is what the product of their ciphertexts decrypts to, has
    digit sums in [0, d * 2^(R+1)], below B, so the sum is again a two-digit
    number of radix B: the high digit is the s slots' sum, the low digit
    the w slots', and each minus d * 2^R is the exact sum of the d
    encodings (``decode_sum``).  The largest such sum is B^2 - 1.  Since
    fan_in <= 2^c, B is at most 2^(R+c+1) + 1, the radix at fan-in 1, and
    every modulus keygen makes lies above that radix squared: an
    odd-length n is a product of two k-bit primes with their top bit set,
    at least (2^(k-1) + 1)^2, and an even-length n is at least
    2^(2(R+c) + 3).  A modulus below B^2 is refused.  At fan-in 1 the
    layout is the plain pair layout: R = (bits(n) - 1) // 2 - 1 and
    B = 2^(R+1) + 1; an encoding can be exactly 2^R, so a slot holds
    2^(R+1) + 1 values and B is the smallest exact radix.
    """

    modulus: int
    fractional_bits: int
    fan_in: int = 1

    def __post_init__(self) -> None:
        if self.fractional_bits <= 0:
            raise ConfigError("fractional_bits must be positive")
        if self.fan_in < 1:
            raise ConfigError(f"fan_in={self.fan_in} must be at least 1")
        if self._range_bits <= self.fractional_bits:
            raise ConfigError(
                f"a {self.modulus.bit_length()}-bit modulus is too small for "
                f"{self.fractional_bits} fractional bits at fan-in {self.fan_in}"
            )
        if self._radix**2 > self.modulus:
            raise ConfigError(
                f"a modulus below ({self.fan_in} * 2^{self._range_bits + 1} + 1)^2 "
                f"cannot hold the (s, w) pair layout"
            )

    @functools.cached_property
    def _range_bits(self) -> int:
        """R, log2 of the bound on |encoded|:
        (bits(n) - 1) // 2 - 1 - ceil(log2(fan_in))."""
        return (self.modulus.bit_length() - 1) // 2 - 1 - (self.fan_in - 1).bit_length()

    @functools.cached_property
    def _radix(self) -> int:
        """B = fan_in * 2^(R+1) + 1, the radix of the pair layout."""
        return (self.fan_in << (self._range_bits + 1)) + 1

    @functools.cached_property
    def max_magnitude(self) -> int:
        """Inclusive bound on |v|, exact as an integer at any modulus size."""
        return 2 ** (self._range_bits - self.fractional_bits)

    def encode(self, v: float) -> int:
        v = float(v)
        scaled = v * float(2**self.fractional_bits)
        # float-int comparison is exact; isfinite also rejects a scaled
        # value that overflowed although |v| itself is in range.
        if not math.isfinite(scaled) or abs(v) > self.max_magnitude:
            raise MagnitudeOverflow(f"value {v!r} outside the codec range")
        q = round(scaled)
        return q if q >= 0 else self.modulus + q

    def decode(self, e: int) -> float:
        if not 0 <= e < self.modulus:
            raise MagnitudeOverflow(f"encoded value {e} outside [0, n)")
        signed = e - self.modulus if e > self.modulus // 2 else e
        return signed / 2**self.fractional_bits

    def encode_pair(self, s: float, w: float) -> int:
        """One plaintext in [0, B^2) holding ``encode(s)`` and
        ``encode(w)``, each moved from its residue into its slot."""
        offset, n = 1 << self._range_bits, self.modulus
        high, low = ((self.encode(v) + offset) % n for v in (s, w))
        return high * self._radix + low

    def decode_sum(self, m: int, count: int) -> tuple[float, float]:
        """The (s, w) sums of the ``count`` packed pairs whose plaintexts
        add up to m: each slot's digit minus count * 2^R, the exact sum of
        the encodings, divided by 2^f with one rounding.  A count above
        the fan-in or a plaintext outside [0, B^2) raises
        ``MagnitudeOverflow``, and so does a digit above count * 2^(R+1),
        which no sum of ``count`` pairs makes; that digit check can fire
        only for a count below the fan-in, since every digit is below B.
        The checks see the sum, not its terms: at a count of 2 or more, a
        term whose plaintext is no packed pair (say n - 1) can shift a sum
        that still lies in the layout, and the shifted sum decodes."""
        if not 1 <= count <= self.fan_in:
            raise MagnitudeOverflow(
                f"a sum of {count} pairs is outside the pair layout of fan-in {self.fan_in}"
            )
        radix = self._radix
        if not 0 <= m < radix * radix:
            raise MagnitudeOverflow(f"plaintext {m} outside the pair layout")
        digits = divmod(m, radix)
        if max(digits) > count << (self._range_bits + 1):
            raise MagnitudeOverflow(
                f"plaintext {m} outside the pair layout of a sum of {count} pairs"
            )
        offset, scale = count << self._range_bits, 2**self.fractional_bits
        high, low = ((digit - offset) / scale for digit in digits)
        return high, low


def to_codec_grid(values: np.ndarray, fractional_bits: int) -> np.ndarray:
    """Each value rounded half to even to a multiple of 2^-f, -0.0 made
    +0.0: bit for bit what ``decode_sum(encode_pair(s, w), 1)`` returns
    for a pair in the codec's range."""
    scale = float(2**fractional_bits)
    return np.rint(values * scale) / scale + 0.0


def smallest_key_bits(fractional_bits: int, fan_in: int, peak_bits: int) -> int:
    """Smallest ``keygen`` size whose every modulus admits a codec with
    ``fractional_bits`` fractional bits and fan-in ``fan_in`` that carries
    every value up to 2^``peak_bits``.

    keygen multiplies two (key_bits // 2)-bit primes, so n has
    2 * (key_bits // 2) bits or one fewer; the codec's bound
    2^((bits(n) - 1) // 2 - 1 - ceil(log2(fan_in)) - fractional_bits)
    reaches 2^peak_bits on the shorter n exactly from
    key_bits // 2 = fractional_bits + peak_bits + 2 + ceil(log2(fan_in)) on.
    The pair layout fits every such n (see ``FixedPointCodec``).
    """
    half = fractional_bits + peak_bits + 2 + (fan_in - 1).bit_length()
    return max(MIN_KEY_BITS, 2 * half)
