"""Functional validation of the regenerated Trust-Hub-style benchmark designs.

These tests establish that the accelerator cores are *real* implementations
of their algorithms (checked against the reference models by simulation) and
that every Trojan stays dormant under normal operation — the premise that
makes the Trojans realistic and dynamic testing ineffective.
"""

import hashlib

import pytest

from repro.crypto.aes_ref import aes128_encrypt_block
from repro.crypto.rsa_ref import mod_exp
from repro.sim import Simulator
from repro.trusthub import catalog, design_names, load_design, load_module
from repro.trusthub.aes_core import AES_LATENCY
from repro.trusthub.aes_trojans import AES_TROJAN_SPECS
from repro.trusthub.rsa_core import RSA_LATENCY
from repro.trusthub.uart_core import BAUD_DIV


AES_VECTORS = [
    (0x3243F6A8885A308D313198A2E0370734, 0x2B7E151628AED2A6ABF7158809CF4F3C),
    (0x00112233445566778899AABBCCDDEEFF, 0x000102030405060708090A0B0C0D0E0F),
    (0, 0),
]


def run_aes(module, plaintext, key, cycles=AES_LATENCY):
    simulator = Simulator(module)
    values = {}
    for _ in range(cycles):
        values = simulator.step({"state": plaintext, "key": key})
    return values["out"]


class TestAesCore:
    @pytest.mark.parametrize("plaintext, key", AES_VECTORS)
    def test_matches_reference(self, plaintext, key):
        module = load_module("AES-HT-FREE")
        assert run_aes(module, plaintext, key) == aes128_encrypt_block(plaintext, key)

    def test_pipelining_one_block_per_cycle(self):
        module = load_module("AES-HT-FREE")
        simulator = Simulator(module)
        blocks = [(i * 0x1111111111111111, 0x0F0F << i) for i in range(4)]
        outputs = []
        for cycle in range(AES_LATENCY + len(blocks)):
            if cycle < len(blocks):
                plaintext, key = blocks[cycle]
            else:
                plaintext, key = 0, 0
            values = simulator.step({"state": plaintext, "key": key})
            outputs.append(values["out"])
        for index, (plaintext, key) in enumerate(blocks):
            assert outputs[AES_LATENCY - 1 + index] == aes128_encrypt_block(plaintext, key)

    def test_structural_depth_matches_paper_scale(self):
        from repro.rtl import compute_fanout_classes

        module = load_module("AES-HT-FREE")
        analysis = compute_fanout_classes(module)
        assert analysis.placement["out"] == 22
        assert not analysis.uncovered


class TestAesTrojansDormant:
    @pytest.mark.parametrize("name", ["AES-T100", "AES-T1400", "AES-T1900", "AES-T2500", "AES-T2800"])
    def test_trojan_designs_still_encrypt_correctly(self, name):
        # With benign stimuli the Trojan stays dormant (or, for the
        # cycle-counter designs, has not yet reached its threshold), so the
        # ciphertext equals the reference — this is what makes them stealthy.
        module = load_module(name)
        plaintext, key = AES_VECTORS[0]
        assert run_aes(module, plaintext, key) == aes128_encrypt_block(plaintext, key)

    def test_t2500_payload_fires_after_threshold(self):
        spec = AES_TROJAN_SPECS["AES-T2500"]
        module = load_module("AES-T2500")
        plaintext, key = AES_VECTORS[0]
        expected = aes128_encrypt_block(plaintext, key)
        simulator = Simulator(module)
        flipped_cycles = 0
        for _ in range(AES_LATENCY + 40):
            values = simulator.step({"state": plaintext, "key": key})
            if values["out"] == expected ^ spec.payload.flip_mask:
                flipped_cycles += 1
        # The 4-bit counter reaches the threshold periodically: the LSB flip
        # must have been observable at least once (the payload is real).
        assert flipped_cycles >= 1

    def test_rf_design_has_antena_pin(self):
        module = load_module("AES-T1600")
        assert "antena" in module.outputs

    def test_catalogue_matches_table1_expectations(self):
        designs = catalog()
        # 25 infested AES designs + HT-free, 3 RSA + HT-free, 1 UART + HT-free.
        assert len(design_names(family="AES", with_trojan=True)) == 25
        assert len(design_names(family="BasicRSA", with_trojan=True)) == 3
        assert len(design_names(family="RS232", with_trojan=True)) == 1
        for name, design in designs.items():
            if design.has_trojan:
                assert design.expected_detection != "secure", name
            else:
                assert design.expected_detection == "secure", name

    def test_catalogued_sources_are_pinned(self):
        # SHA-256 over every design's name and source, in catalogue order,
        # as it was when each design built the AES support library afresh:
        # building it once per process must not change a byte.
        digest = hashlib.sha256()
        designs = catalog()
        for name in design_names():
            digest.update(f"{name}\n{designs[name].source}\n".encode("utf-8"))
        assert digest.hexdigest() == (
            "0f6214e49639f9e20c866241f6b60f3406d99f8a43deab16b15faa20c21b23fd"
        )

    def test_unknown_design_raises(self):
        from repro.errors import DesignError

        with pytest.raises(DesignError):
            load_design("AES-T9999")


class TestRsaCore:
    @pytest.mark.parametrize(
        "message, exponent, modulus",
        [(65, 17, 3233), (1234, 77, 56153), (2, 255, 65521), (0, 13, 101)],
    )
    def test_matches_reference(self, message, exponent, modulus):
        module = load_module("BasicRSA-HT-FREE")
        simulator = Simulator(module)
        values = {}
        stimulus = {"ds": 1, "indata": message, "inExp": exponent, "inMod": modulus}
        for _ in range(RSA_LATENCY):
            values = simulator.step(stimulus)
        assert values["cypher"] == mod_exp(message, exponent, modulus)
        assert values["ready"] == 1

    def test_trojan_design_dormant_result_correct(self):
        module = load_module("BasicRSA-T300")
        simulator = Simulator(module)
        stimulus = {"ds": 1, "indata": 65, "inExp": 17, "inMod": 3233}
        values = {}
        for _ in range(RSA_LATENCY):
            values = simulator.step(stimulus)
        assert values["cypher"] == mod_exp(65, 17, 3233)


class TestUartCore:
    def _transmit(self, module, byte):
        """Drive the transmitter and capture the serial frame on txd."""
        simulator = Simulator(module)
        simulator.step({"rst": 1, "rxd": 1})
        samples = []
        simulator.step({"rst": 0, "tx_data": byte, "tx_send": 1, "rxd": 1})
        for _ in range(BAUD_DIV * 12):
            values = simulator.step({"rst": 0, "tx_send": 0, "rxd": 1})
            samples.append(values["txd"])
        return samples

    def test_transmitter_frames_data(self):
        module = load_module("RS232-HT-FREE")
        samples = self._transmit(module, 0xA5)
        # Start bit (0) must appear, followed by the LSB-first data bits.
        assert 0 in samples
        start = samples.index(0)
        bits = [samples[start + BAUD_DIV * (1 + i)] for i in range(8)]
        assert int("".join(str(b) for b in reversed(bits)), 2) == 0xA5

    def test_loopback_receiver_recovers_byte(self):
        module = load_module("RS232-HT-FREE")
        simulator = Simulator(module)
        simulator.step({"rst": 1, "rxd": 1})
        byte = 0x3C
        frame = [0] + [(byte >> i) & 1 for i in range(8)] + [1]
        received = None
        cycle_inputs = []
        for bit in frame:
            cycle_inputs.extend([bit] * BAUD_DIV)
        cycle_inputs.extend([1] * (BAUD_DIV * 3))
        for rxd in cycle_inputs:
            values = simulator.step({"rst": 0, "rxd": rxd, "tx_send": 0})
            if values["rx_valid"]:
                received = values["rx_data"]
        assert received == byte

    def test_trojaned_uart_dormant_below_threshold(self):
        module = load_module("RS232-T2400")
        simulator = Simulator(module)
        simulator.step({"rst": 1, "rxd": 1})
        byte = 0x3C
        frame = [0] + [(byte >> i) & 1 for i in range(8)] + [1]
        received = None
        for bit in frame:
            for _ in range(BAUD_DIV):
                values = simulator.step({"rst": 0, "rxd": bit, "tx_send": 0})
                if values["rx_valid"]:
                    received = values["rx_data"]
        for _ in range(BAUD_DIV * 2):
            values = simulator.step({"rst": 0, "rxd": 1, "tx_send": 0})
            if values["rx_valid"]:
                received = values["rx_data"]
        assert received == byte
