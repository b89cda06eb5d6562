"""Named-stream seed derivation.

All randomness in an experiment flows from a single master seed; independent
components take sub-streams keyed by name, so adding or reordering one
component never perturbs the draws of another.
"""

import hashlib


def derive_seed(seed: int, stream: str) -> int:
    """Deterministic 63-bit sub-seed for the named stream."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
