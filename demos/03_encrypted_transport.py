"""Hiding shares from a wiretapper.

A passive eavesdropper on every link sees each share pair of the plain
protocol.  Switching the transport to per-receiver Paillier encryption
leaves the consensus result untouched (shares ride through a fixed-point
codec, so the two trajectories agree to ~2^-48) while the wire carries only
ciphertexts that fail to decrypt without the right private key.

The same encrypted transport also runs as five real TCP processes: an
`algorithm2-simulated` config such as the fig7 preset picks it, in the
README's `privsum node --preset fig7` example or through
`run_local_cluster`, which starts those five `privsum node` processes.

Run:  python demos/03_encrypted_transport.py
"""
import random

import numpy as np

from privsum import ExperimentConfig, decrypt, default_demo_graph, keygen, run_experiment
from privsum.errors import MalformedCiphertext
from privsum.sim import MODE_ALGORITHM1, MODE_ALGORITHM2

graph = default_demo_graph()
x0 = [10.0, 15.0, 20.0, 25.0, 30.0]


def config(mode):
    return ExperimentConfig(
        graph=graph, x0=list(x0), big_k=1, epsilon=0.01, max_rounds=100,
        seed=1, mode=mode, key_bits=256,
    )


plain = run_experiment(config(MODE_ALGORITHM1))
enc = run_experiment(config(MODE_ALGORITHM2))

print("plain final estimates:    ", np.round(plain.record.final_pi(), 9))
print("encrypted final estimates:", np.round(enc.record.final_pi(), 9))
worst = np.abs(plain.record.shares - enc.record.shares).max()
print(f"worst share deviation plain vs encrypted: {worst:.2e} (codec quantization)")
print(f"mean encryption latency: {enc.crypto['mean_encrypt_ms']:.3f} ms per share pair")
print()

# The wire holds what crossed each link, one ciphertext of the packed
# (s, w) pair per round and edge, edges in the layout's (sender, receiver)
# order; the topology and parameters are public.
layout = enc.record.weights.layout
cipher = enc.record.wire[0, 0]  # round 0, link 0
print("what the wiretapper sees on one link (round 0):")
print(f"  sender {layout.senders[0]} -> receiver {layout.receivers[0]}")
print(f"  (s, w) ciphertext: {str(cipher.value)[:48]}... ({cipher.value.bit_length()} bits)")

outsider = keygen(256, random.Random(99))
try:
    decrypt(outsider, cipher)
    print("  outsider decrypted the share (should never happen)")
except MalformedCiphertext as exc:
    print(f"  outsider decryption attempt fails: {exc}")

plain_first = plain.record.shares[0, :, 0].tolist()
print(f"  the plaintext shares it is hiding: {plain_first!r}")
