"""Tests for the reference crypto models (golden behavioural models)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes_ref import SBOX, aes128_encrypt_block, expand_key_128
from repro.crypto.rsa_ref import mod_exp, mod_mul, rsa_decrypt, rsa_encrypt


def _generate_sbox():
    """Compute the AES S-box from the finite-field definition."""

    def gf_mul(a: int, b: int) -> int:
        product = 0
        for _ in range(8):
            if b & 1:
                product ^= a
            high = a & 0x80
            a = (a << 1) & 0xFF
            if high:
                a ^= 0x1B
            b >>= 1
        return product

    # Multiplicative inverses via exponentiation (a^254).
    def gf_inverse(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        base = a
        exponent = 254
        while exponent:
            if exponent & 1:
                result = gf_mul(result, base)
            base = gf_mul(base, base)
            exponent >>= 1
        return result

    sbox = []
    for value in range(256):
        inverse = gf_inverse(value)
        transformed = 0
        for bit in range(8):
            new_bit = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= new_bit << bit
        sbox.append(transformed)
    return tuple(sbox)


class TestAesSbox:
    def test_matches_the_finite_field_definition(self):
        assert SBOX == _generate_sbox()

    def test_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_has_no_fixed_points(self):
        assert all(SBOX[i] != i for i in range(256))


class TestAesEncryption:
    def test_fips197_appendix_b_vector(self):
        ciphertext = aes128_encrypt_block(
            0x3243F6A8885A308D313198A2E0370734, 0x2B7E151628AED2A6ABF7158809CF4F3C
        )
        assert ciphertext == 0x3925841D02DC09FBDC118597196A0B32

    def test_fips197_appendix_c_vector(self):
        ciphertext = aes128_encrypt_block(
            0x00112233445566778899AABBCCDDEEFF, 0x000102030405060708090A0B0C0D0E0F
        )
        assert ciphertext == 0x69C4E0D86A7B0430D8CDB78070B4C55A

    def test_all_zero_block_and_key(self):
        assert aes128_encrypt_block(0, 0) == 0x66E94BD4EF8A2C3B884CFA59CA342B2E

    def test_key_expansion_first_and_last_round_key(self):
        round_keys = expand_key_128(0x2B7E151628AED2A6ABF7158809CF4F3C)
        assert len(round_keys) == 11
        assert bytes(round_keys[0]).hex() == "2b7e151628aed2a6abf7158809cf4f3c"
        assert bytes(round_keys[10]).hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    @given(
        plaintext=st.integers(min_value=0, max_value=(1 << 128) - 1),
        key=st.integers(min_value=0, max_value=(1 << 128) - 1),
    )
    @settings(max_examples=5, deadline=None)
    def test_encryption_is_input_dependent(self, plaintext, key):
        ciphertext = aes128_encrypt_block(plaintext, key)
        assert 0 <= ciphertext < (1 << 128)
        assert aes128_encrypt_block(plaintext ^ 1, key) != ciphertext


class TestRsaReference:
    def test_textbook_example(self):
        # p=61, q=53 -> n=3233, e=17, d=2753
        ciphertext = rsa_encrypt(65, 17, 3233)
        assert ciphertext == 2790
        assert rsa_decrypt(ciphertext, 2753, 3233) == 65

    def test_mod_exp_zero_modulus(self):
        assert mod_exp(5, 3, 0) == 0

    def test_mod_exp_exponent_zero(self):
        assert mod_exp(5, 0, 13) == 1

    def test_mod_mul_matches_python(self):
        assert mod_mul(123, 456, 789) == (123 * 456) % 789

    @given(
        base=st.integers(min_value=0, max_value=0xFFFF),
        exponent=st.integers(min_value=0, max_value=0xFF),
        modulus=st.integers(min_value=1, max_value=0xFFFF),
    )
    @settings(max_examples=20, deadline=None)
    def test_mod_exp_matches_pow(self, base, exponent, modulus):
        assert mod_exp(base, exponent, modulus) == pow(base, exponent, modulus)

    @given(
        a=st.integers(min_value=0, max_value=0xFFFF),
        b=st.integers(min_value=0, max_value=0xFFFF),
        modulus=st.integers(min_value=1, max_value=0xFFFF),
    )
    @settings(max_examples=20, deadline=None)
    def test_mod_mul_matches_python_property(self, a, b, modulus):
        assert mod_mul(a, b, modulus) == (a * b) % modulus
