import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsum import paillier
from privsum.errors import (
    ConfigError,
    MagnitudeOverflow,
    MalformedCiphertext,
    PlaintextOutOfRange,
)
from privsum.paillier import (
    BLINDING_WINDOW,
    Ciphertext,
    FixedPointCodec,
    PaillierPublicKey,
    add_ciphertexts,
    decrypt,
    encrypt,
    generate_prime,
    is_probable_prime,
    keygen,
    keypair_from_primes,
    public_key_from_bytes,
    public_key_to_bytes,
    smallest_key_bits,
    to_codec_grid,
)

TOY = keypair_from_primes(5, 7)


def test_toy_key_vector():
    assert TOY.public.n == 35
    assert TOY.public.g == 36
    assert TOY.lam == 24
    # independent oracle: brute-force the modular inverse of 24 mod 35
    mu = next(m for m in range(1, 35) if 24 * m % 35 == 1)
    assert mu == 19
    assert TOY.mu == 19


def test_toy_key_invariants():
    assert math.gcd(TOY.lam, TOY.public.n) == 1
    assert TOY.mu * TOY.lam % TOY.public.n == 1


def test_keygen_bit_lengths():
    kp = keygen(256, random.Random(1))
    assert kp.public.n.bit_length() in (255, 256)
    assert kp.public.g == kp.public.n + 1
    assert kp.mu * kp.lam % kp.public.n == 1
    assert math.gcd(kp.lam, kp.public.n) == 1


def test_keygen_rejects_tiny_keys():
    with pytest.raises(ConfigError):
        keygen(8, random.Random(0))


def test_encrypt_forced_r_matches_definition():
    # direct modular-exponentiation oracle, no g = n+1 shortcut
    expected = pow(36, 3, 35 * 35) * pow(2, 35, 35 * 35) % (35 * 35)
    c = textbook_encrypt(TOY.public, 3, 2)
    assert c.value == expected
    assert decrypt(TOY, c) == 3


def test_encrypt_rejects_out_of_range():
    with pytest.raises(PlaintextOutOfRange):
        encrypt(TOY.public, 35, random.Random(0))
    with pytest.raises(PlaintextOutOfRange):
        encrypt(TOY.public, -1, random.Random(0))


def test_probabilistic_encryption_differs():
    rng = random.Random(7)
    kp = keygen(64, rng)
    a = encrypt(kp.public, 1, rng)
    b = encrypt(kp.public, 1, rng)
    assert a.value != b.value
    assert decrypt(kp, a) == decrypt(kp, b) == 1


def test_no_ciphertext_collisions_in_bulk():
    rng = random.Random(11)
    kp = keygen(64, rng)
    seen = {encrypt(kp.public, 1, rng).value for _ in range(10_000)}
    assert len(seen) == 10_000


@settings(max_examples=300, deadline=None)
@given(m=st.integers(min_value=0, max_value=34))
def test_toy_roundtrip_identity(m):
    rng = random.Random(m)
    assert decrypt(TOY, encrypt(TOY.public, m, rng)) == m


def test_roundtrip_256_bit():
    rng = random.Random(3)
    kp = keygen(256, rng)
    for _ in range(200):
        m = rng.randrange(kp.public.n)
        assert decrypt(kp, encrypt(kp.public, m, rng)) == m
    assert decrypt(kp, encrypt(kp.public, 0, rng)) == 0


def test_homomorphic_addition():
    rng = random.Random(5)
    kp = keygen(128, rng)
    n = kp.public.n
    for _ in range(100):
        m1 = rng.randrange(n)
        m2 = rng.randrange(n)
        c = add_ciphertexts(kp.public, encrypt(kp.public, m1, rng), encrypt(kp.public, m2, rng))
        assert decrypt(kp, c) == (m1 + m2) % n


def textbook_decrypt(keypair, c):
    """Oracle: m = L(c^lambda mod n^2) * mu mod n with L(u) = (u - 1) / n."""
    n = keypair.public.n
    return (pow(c.value, keypair.lam, n * n) - 1) // n * keypair.mu % n


def textbook_encrypt(public, m, r):
    """Oracle: c = g^m * r^n mod n^2 with a blinding r from Z*_n."""
    n2 = public.n_squared
    value = pow(public.g, m, n2) * pow(r, public.n, n2) % n2
    return Ciphertext(value=value, key_id=public.key_id)


def test_textbook_encrypt_roundtrips_through_decrypt():
    for m in range(35):
        for r in (1, 2, 4, 34):
            assert decrypt(TOY, textbook_encrypt(TOY.public, m, r)) == m
    rng = random.Random(16)
    n = KP256.public.n
    for _ in range(50):
        m, r = rng.randrange(n), rng.randrange(1, n)
        assert decrypt(KP256, textbook_encrypt(KP256.public, m, r)) == m


@pytest.mark.parametrize("bits, count", [(64, 50), (256, 50), (2048, 3)])
def test_encrypt_is_the_fixed_base_formula(bits, count):
    rng = random.Random(bits)
    kp = keygen(bits, rng)
    public = kp.public
    n2 = public.n_squared
    for _ in range(count):
        m = rng.randrange(public.n)
        clone = random.Random()
        clone.setstate(rng.getstate())
        alpha = clone.getrandbits(public.alpha_bits)
        c = encrypt(public, m, rng)
        assert c.value == pow(public.n + 1, m, n2) * pow(public.h, alpha, n2) % n2
        assert rng.getstate() == clone.getstate()  # alpha is all encrypt draws
        assert decrypt(kp, c) == m


def test_blinding_base_is_an_nth_residue_derived_from_n_alone():
    for kp in (TOY, KP256):
        public = kp.public
        assert decrypt(kp, Ciphertext(value=public.h, key_id=public.key_id)) == 0
        twin = PaillierPublicKey(n=public.n, g=public.n + 1)
        assert twin.h == public.h
    assert KP256.public.h != 1


def test_blinding_table_holds_the_powers_of_h():
    public = KP256.public
    n2 = public.n_squared
    table = public.blinding_table
    assert len(table) == math.ceil(public.alpha_bits / BLINDING_WINDOW) == 27
    assert {len(row) for row in table} == {2**BLINDING_WINDOW}
    for i in (0, 13, 26):
        for d in (0, 1, 37, 63):
            assert table[i][d] == pow(public.h, d << (BLINDING_WINDOW * i), n2)
    assert public.blinding_table is table  # built once per key object


@pytest.mark.parametrize(
    "n, alpha_bits",
    [
        (35, 6),  # the toy key: capped at the modulus size
        ((1 << 34) + 1, 35),
        ((1 << 63) + 1, 64),
        ((1 << 254) + 1, 160),  # a 256-bit key whose modulus has 255 bits
        ((1 << 255) + 1, 160),
        ((1 << 2044) + 1, 160),  # a 2046-bit key, still 80-bit strength
        ((1 << 2046) + 1, 224),  # a 2048-bit key whose modulus has 2047 bits
        ((1 << 2047) + 1, 224),
        ((1 << 3071) + 1, 256),
    ],
)
def test_alpha_bits_is_twice_the_key_strength(n, alpha_bits):
    assert PaillierPublicKey(n=n, g=n + 1).alpha_bits == alpha_bits


def test_alpha_bits_is_computed_once_per_key_object(monkeypatch):
    calls = []
    strength = paillier._security_bits
    monkeypatch.setattr(paillier, "_security_bits", lambda n: calls.append(n) or strength(n))
    public = keygen(64, random.Random(5)).public
    rng = random.Random(6)
    for m in range(5):
        encrypt(public, m, rng)
    assert calls == [public.n]


def test_crt_decrypt_matches_textbook_on_every_toy_unit():
    n2 = TOY.public.n_squared
    units = [v for v in range(1, n2) if math.gcd(v, TOY.public.n) == 1]
    assert len(units) == 24 * 35  # |Z*_{n^2}| = phi(n) * n
    for v in units:
        c = Ciphertext(value=v, key_id=TOY.public.key_id)
        assert decrypt(TOY, c) == textbook_decrypt(TOY, c)


def random_units(keypair, rng, count):
    n, n2 = keypair.public.n, keypair.public.n_squared
    units = []
    while len(units) < count:
        v = rng.randrange(1, n2)
        if math.gcd(v, n) == 1:
            units.append(Ciphertext(value=v, key_id=keypair.public.key_id))
    return units


def test_crt_decrypt_matches_textbook_at_256_bits():
    rng = random.Random(13)
    kp = keygen(256, rng)
    for c in random_units(kp, rng, 200):
        assert decrypt(kp, c) == textbook_decrypt(kp, c)


def test_crt_decrypt_matches_textbook_at_2048_bits():
    rng = random.Random(14)
    kp = keygen(2048, rng)
    for c in random_units(kp, rng, 3):
        assert decrypt(kp, c) == textbook_decrypt(kp, c)


def test_keypair_keeps_its_primes_out_of_repr():
    kp = keygen(256, random.Random(15))
    assert kp.p * kp.q == kp.public.n
    assert str(kp.p) not in repr(kp) and str(kp.q) not in repr(kp)


def test_decrypt_rejects_malformed():
    with pytest.raises(MalformedCiphertext):
        decrypt(TOY, Ciphertext(value=35, key_id=TOY.public.key_id))  # gcd(35, n) != 1
    with pytest.raises(MalformedCiphertext):
        decrypt(TOY, Ciphertext(value=0, key_id=TOY.public.key_id))
    with pytest.raises(MalformedCiphertext):
        decrypt(TOY, Ciphertext(value=2, key_id="deadbeef"))


def test_wrong_key_cannot_decrypt():
    rng = random.Random(9)
    kp1 = keygen(64, rng)
    kp2 = keygen(64, rng)
    c = encrypt(kp1.public, 42, rng)
    with pytest.raises(MalformedCiphertext):
        decrypt(kp2, c)


def test_prime_generation():
    rng = random.Random(2)
    for bits in (16, 32, 128):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p, rng)
    assert not is_probable_prime(561, rng)  # Carmichael number
    assert not is_probable_prime(1, rng)
    assert is_probable_prime(2, rng)


def test_public_key_serialization_roundtrip():
    kp = keygen(128, random.Random(4))
    data = public_key_to_bytes(kp.public)
    parsed, rest = public_key_from_bytes(data)
    assert rest == b""
    assert parsed.n == kp.public.n
    assert parsed.g == kp.public.g
    assert parsed.key_id == kp.public.key_id


# -- fixed-point codec ------------------------------------------------------

KP256 = keygen(256, random.Random(12))


def test_codec_zero_and_negative():
    codec = FixedPointCodec(KP256.public.n, 32)
    assert codec.encode(0.0) == 0
    assert codec.decode(0) == 0.0
    assert codec.encode(-1.5) == KP256.public.n - 6442450944  # 1.5 * 2^32
    assert codec.decode(codec.encode(-1.5)) == -1.5


@settings(max_examples=500, deadline=None)
@given(v=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_codec_roundtrip_error_bound(v):
    codec = FixedPointCodec(KP256.public.n, 32)
    assert abs(codec.decode(codec.encode(v)) - v) <= 2**-33 * (1.0 + abs(v))


def test_codec_monotone_on_samples():
    codec = FixedPointCodec(KP256.public.n, 32)
    values = [-500.0, -1.25, -2**-33, 0.0, 2**-20, 3.75, 999.0]
    encoded_as_signed = []
    for v in values:
        e = codec.encode(v)
        encoded_as_signed.append(e - codec.modulus if e > codec.modulus // 2 else e)
    assert encoded_as_signed == sorted(encoded_as_signed)


def test_codec_overflow_guard():
    codec = FixedPointCodec(KP256.public.n, 32)
    with pytest.raises(MagnitudeOverflow):
        codec.encode(codec.max_magnitude * 2.0)
    with pytest.raises(MagnitudeOverflow):
        codec.encode(float("inf"))
    with pytest.raises(MagnitudeOverflow):
        codec.decode(-5)


def test_codec_rejects_oversized_fraction():
    with pytest.raises(ConfigError):
        FixedPointCodec(TOY.public.n, 32)  # 35 has nowhere near 34 bits


# A fixed odd 2048-bit modulus: the codec only needs n, not a keypair.
N_2048 = (1 << 2047) + 0x1D


def test_codec_roundtrip_at_2048_bits():
    codec = FixedPointCodec(N_2048, 48)
    for v in (0.0, 1.5, -1.5, -(2.0**-40), 123456.789, 1e250, -1e250):
        assert codec.decode(codec.encode(v)) == v
    # non-finite, or |v| in range but v * 2^48 beyond the float range
    for v in (float("inf"), float("-inf"), float("nan"), 1e308, -1e308):
        with pytest.raises(MagnitudeOverflow):
            codec.encode(v)


def test_codec_range_bound_is_exact():
    codec = FixedPointCodec((1 << 255) + 1, 32)
    bound = 2.0 ** ((256 - 1) // 2 - 1 - 32)  # 2^94
    assert codec.max_magnitude == bound
    # the bound is inclusive: +-bound round-trip, the next float past it fails
    for v in (bound, -bound, math.nextafter(bound, 0.0), -math.nextafter(bound, 0.0)):
        assert codec.decode(codec.encode(v)) == v
    past = math.nextafter(bound, math.inf)
    for v in (past, -past):
        with pytest.raises(MagnitudeOverflow):
            codec.encode(v)


def test_codec_rejects_a_64_bit_modulus_at_48_fractional_bits():
    # 2^((64 - 1) // 2 - 1) = 2^30 leaves no room for 48 fractional bits.
    with pytest.raises(ConfigError):
        FixedPointCodec((1 << 64) - 1, 48)


@pytest.mark.parametrize("fractional_bits", [5, 32, 48])
def test_smallest_key_bits_is_the_first_size_whose_every_modulus_fits(fractional_bits):
    def shortest_modulus(key_bits):
        # keygen's n has 2k or 2k - 1 bits for k = key_bits // 2, and is a
        # product of two k-bit primes with their top bit set
        half = 1 << (key_bits // 2 - 1)
        return (half + 1) ** 2

    assert smallest_key_bits(fractional_bits) == smallest_key_bits(fractional_bits, 1)
    for fan_in in range(1, 9):
        smallest = smallest_key_bits(fractional_bits, fan_in)
        FixedPointCodec(shortest_modulus(smallest), fractional_bits, fan_in)
        kp = keygen(smallest, random.Random(fractional_bits))
        FixedPointCodec(kp.public.n, fractional_bits, fan_in)
        if smallest > 16:
            with pytest.raises(ConfigError):
                FixedPointCodec(shortest_modulus(smallest - 1), fractional_bits, fan_in)
        else:
            with pytest.raises(ConfigError):
                keygen(smallest - 1)
        # each doubling of the fan-in costs one bit per value, two per key
        assert smallest == max(16, smallest_key_bits(fractional_bits) + 2 * math.ceil(
            math.log2(fan_in)
        ))


# -- the (s, w) pair layout -----------------------------------------------

# Keys of 102 bits (the smallest f = 48 admits, R = 49) and of 256 bits,
# each with an odd-length and an even-length modulus.
def _keys_of_both_parities(bits, seed):
    found = {}
    rng = random.Random(seed)
    while len(found) < 2:
        kp = keygen(bits, rng)
        found.setdefault(kp.public.n.bit_length() % 2, kp)
    return [found[0], found[1]]


PAIR_KEYS = _keys_of_both_parities(102, 47) + _keys_of_both_parities(256, 48)


def test_the_largest_value_below_the_bound_encodes_to_the_slot_edge():
    """At the smallest key, encode returns +-2^R exactly for the largest
    |v| below the bound, so a slot must hold 2^(R+1) + 1 values: with a
    radix of 2^(R+1) the pair would overflow."""
    assert sorted(kp.public.n.bit_length() for kp in PAIR_KEYS) == [101, 102, 255, 256]
    for kp in PAIR_KEYS[:2]:
        codec = FixedPointCodec(kp.public.n, 48)
        assert codec._range_bits == 49
        top = math.nextafter(float(codec.max_magnitude), 0.0)
        edge = 2**codec._range_bits
        assert (codec.encode(top), codec.encode(-top)) == (edge, kp.public.n - edge)
        assert codec.encode(codec.decode(edge)) == edge
        m = codec.encode_pair(top, top)
        assert m == codec._radix**2 - 1 < kp.public.n
        assert codec.decode_sum(m, 1) == (2.0, 2.0)
        assert codec.decode_sum(codec.encode_pair(-top, top), 1) == (-2.0, 2.0)


def _codec_value(q, codec):
    """A float whose encoding is the integer q, or the nearest integer
    encode returns: float(q) rounds an |q| beyond 2^53, at most up to the
    bound 2^R, which the codec admits."""
    return float(q) / 2**codec.fractional_bits


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pair_layout_holds_every_pair_encode_can_return(data):
    kp = data.draw(st.sampled_from(PAIR_KEYS))
    n = kp.public.n
    codec = FixedPointCodec(n, 48)
    edge = 2**codec._range_bits
    ints = st.sampled_from([-edge, -edge + 1, -1, 0, 1, edge - 1, edge]) | st.integers(
        -edge, edge
    )
    s, w = (_codec_value(data.draw(ints), codec) for _ in range(2))
    m = codec.encode_pair(s, w)
    assert 0 <= m < n
    # each slot is the signed encoding offset by 2^R
    signed = [e - n if e > n // 2 else e for e in (codec.encode(s), codec.encode(w))]
    assert divmod(m, codec._radix) == (signed[0] + edge, signed[1] + edge)
    assert codec.decode_sum(m, 1) == (codec.decode(codec.encode(s)), codec.decode(codec.encode(w)))
    # a decoded value encodes again unchanged, the edges +-2^R included
    for e in (codec.encode(s), codec.encode(w)):
        assert codec.encode(codec.decode(e)) == e
    c = encrypt(kp.public, m, random.Random(m))
    assert decrypt(kp, c) == m


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_codec_grid_is_the_round_trip_of_a_packed_pair(data):
    """``to_codec_grid`` gives, bit for bit, what a pair's packed plaintext
    decodes to: signed zeros, the range edges, one unit of 2^-f, ties
    halfway between two units and values anywhere in the range."""
    f = data.draw(st.sampled_from([16, 48]))
    codec = FixedPointCodec(KP256.public.n, f)
    top, unit = float(codec.max_magnitude), 2.0**-f
    values = (
        st.sampled_from([0.0, -0.0, top, -top, unit, -unit])
        | st.integers(-(2**40), 2**40).map(lambda j: (2 * j + 1) * unit / 2)
        | st.floats(-top, top)
    )
    pairs = data.draw(st.lists(st.tuples(values, values), min_size=1, max_size=8))
    want = np.array([codec.decode_sum(codec.encode_pair(s, w), 1) for s, w in pairs]).T
    assert to_codec_grid(np.array(pairs).T, f).tobytes() == want.tobytes()


def test_pair_layout_checks_both_values_and_the_packed_plaintext():
    codec = FixedPointCodec(KP256.public.n, 48)
    past = math.nextafter(float(codec.max_magnitude), math.inf)
    for pair in ((past, 0.0), (0.0, -past), (float("nan"), 1.0)):
        with pytest.raises(MagnitudeOverflow):
            codec.encode_pair(*pair)
    for m in (-1, codec._radix**2, KP256.public.n - 1):
        with pytest.raises(MagnitudeOverflow, match="outside the pair layout"):
            codec.decode_sum(m, 1)


def test_codec_refuses_a_modulus_below_the_pair_layout():
    # 101 bits, R = 49: (2^50 + 1)^2 is the least modulus that holds the
    # layout, and 2^100 + 1, a valid range for one value, falls short
    FixedPointCodec((2**50 + 1) ** 2, 48)
    with pytest.raises(ConfigError, match="pair layout"):
        FixedPointCodec(2**100 + 1, 48)
    with pytest.raises(ConfigError, match="pair layout"):
        FixedPointCodec((2**50 + 1) ** 2 - 1, 48)


@pytest.mark.parametrize("bits", [102, 103, 128])
def test_every_keygen_modulus_holds_the_pair_layout(bits):
    rng = random.Random(bits)
    lengths = set()
    for _ in range(60):
        n = keygen(bits, rng).public.n
        lengths.add(n.bit_length() % 2)
        assert FixedPointCodec(n, 48)._radix ** 2 <= n
    assert lengths == {0, 1}


# -- sums of packed pairs -------------------------------------------------

SUM_FAN_INS = (1, 2, 3, 4, 7, 8, 64)
# One keygen modulus per size, each with room for 64 summed pairs.
SUM_KEYS = {bits: keygen(bits, random.Random(bits)) for bits in (64, 128, 256, 512)}


def _sum_codec(bits, fan_in):
    return FixedPointCodec(SUM_KEYS[bits].public.n, 16 if bits == 64 else 48, fan_in)


def _signed(codec, v):
    e = codec.encode(v)
    return e - codec.modulus if e > codec.modulus // 2 else e


@pytest.mark.parametrize("bits", sorted(SUM_KEYS))
def test_fan_in_one_is_the_plain_pair_layout(bits):
    """The pair layout before fan-in existed, written out: range
    R = (bits(n) - 1) // 2 - 1, radix 2^(R+1) + 1, residues offset by 2^R."""
    codec = _sum_codec(bits, 1)
    n, f = codec.modulus, codec.fractional_bits
    range_bits = (n.bit_length() - 1) // 2 - 1
    radix = 2 ** (range_bits + 1) + 1
    assert (codec._range_bits, codec._radix) == (range_bits, radix)
    assert codec.max_magnitude == 2 ** (range_bits - f)
    assert codec == FixedPointCodec(n, f)
    rng = random.Random(bits)
    top = float(codec.max_magnitude)
    for s, w in [(top, -top), (-top, top), (0.0, -0.0)] + [
        (rng.uniform(-top, top), rng.uniform(-top, top)) for _ in range(50)
    ]:
        packed = ((codec.encode(s) + 2**range_bits) % n) * radix + (
            codec.encode(w) + 2**range_bits
        ) % n
        assert codec.encode_pair(s, w) == packed
        assert codec.decode_sum(packed, 1) == tuple(codec.decode(codec.encode(v)) for v in (s, w))


@pytest.mark.parametrize("bits", sorted(SUM_KEYS))
@pytest.mark.parametrize("fan_in", SUM_FAN_INS)
def test_sums_of_up_to_fan_in_pairs_unpack_exactly(bits, fan_in):
    """Each doubling of the fan-in halves the range; a sum of up to fan_in
    packed pairs, at the range edges or mixed, unpacks to the exact sum of
    the encodings over 2^f, and a product of their ciphertexts decrypts to
    that sum."""
    codec = _sum_codec(bits, fan_in)
    wide = _sum_codec(bits, 1)
    assert codec._range_bits == wide._range_bits - math.ceil(math.log2(fan_in))
    assert codec._radix == fan_in * 2 ** (codec._range_bits + 1) + 1 <= wide._radix
    top = float(codec.max_magnitude)
    rng = random.Random(bits * fan_in)
    cases = [
        [(top, top)] * fan_in,
        [(-top, -top)] * fan_in,
        [(top, -top)] * fan_in,
        [(-top, top)] * fan_in,
        [(top, -top), (-top, top)] * (fan_in // 2) + [(top, top)] * (fan_in % 2),
        [(rng.uniform(-top, top), rng.choice((top, -top))) for _ in range(fan_in)],
        [(rng.uniform(-top, top), rng.uniform(-1.0, 1.0)) for _ in range(max(1, fan_in - 1))],
    ]
    for pairs in cases:
        count = len(pairs)
        total = sum(codec.encode_pair(s, w) for s, w in pairs)
        assert total < codec._radix**2 <= codec.modulus
        want = tuple(
            sum(_signed(codec, pair[side]) for pair in pairs) / 2**codec.fractional_bits
            for side in (0, 1)
        )
        assert codec.decode_sum(total, count) == want
    public = SUM_KEYS[bits].public
    ciphers = [encrypt(public, codec.encode_pair(s, w), rng) for s, w in cases[0]]
    product = ciphers[0]
    for cipher in ciphers[1:]:
        product = add_ciphertexts(public, product, cipher)
    got = codec.decode_sum(decrypt(SUM_KEYS[bits], product), fan_in)
    assert got == (fan_in * top, fan_in * top)


def test_sum_decoder_refuses_what_no_sum_of_count_pairs_makes():
    codec = _sum_codec(256, 2)
    edge = 2 ** (codec._range_bits + 1)
    # two pairs fit the fan-in-2 layout; three are more than it holds
    both = codec.encode_pair(1.0, -2.0) + codec.encode_pair(3.0, 4.0)
    assert codec.decode_sum(both, 2) == (4.0, 2.0)
    with pytest.raises(MagnitudeOverflow, match="pair layout of fan-in 2"):
        codec.decode_sum(both, 3)
    with pytest.raises(MagnitudeOverflow, match="pair layout of fan-in 2"):
        codec.decode_sum(both, 0)
    # a digit above count * 2^(R+1) is no sum of count pairs
    with pytest.raises(MagnitudeOverflow, match="outside the pair layout of a sum of 1"):
        codec.decode_sum((edge + 1) * codec._radix, 1)
    assert codec.decode_sum((edge + 1) * codec._radix, 2)[0] == (
        (edge + 1 - edge) / 2**codec.fractional_bits
    )
    with pytest.raises(MagnitudeOverflow, match="outside the pair layout"):
        codec.decode_sum(codec._radix**2, 2)
    with pytest.raises(ConfigError, match="fan_in=0"):
        FixedPointCodec(codec.modulus, 48, 0)
    with pytest.raises(ConfigError, match="at fan-in 2"):
        FixedPointCodec(_sum_codec(64, 1).modulus, 29, 2)
