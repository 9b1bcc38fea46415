"""A perturbed libm for tests: ellid's transcendental results moved by a few ulps.

``perturbed_libm`` swaps the ``math`` of every loaded ``ellid`` module for a
namespace whose chosen functions return their true result moved by a number
of ulps in [-ulps, ulps], each step a ``math.nextafter``.  A libm that
differs from the one the golden bytes were made with differs this way, so a
result that survives it does not rest on libm's last bit.  The move is a
hash of the argument bits and of a salt that the seed draws for each
function, so a perturbed function, like a real libm, gives the same result
for the same argument however many calls came before.
"""

import contextlib
import math
import random
import struct
import sys
import types
import zlib

TRANSCENDENTAL = ("exp", "log", "sin", "cos", "tan", "expm1", "log1p", "sqrt")


def _moved(fn, salt: bytes, ulps: int):
    def wrapped(*args):
        y = fn(*args)
        key = struct.pack(f"<{len(args)}d", *args) + salt
        steps = zlib.crc32(key) % (2 * ulps + 1) - ulps
        toward = math.copysign(math.inf, steps)
        for _ in range(abs(steps)):
            y = math.nextafter(y, toward)
        return y
    return wrapped


def ellid_modules():
    """Every loaded ``ellid`` module that imports ``math``."""
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("ellid.") and getattr(m, "math", None) is math]


@contextlib.contextmanager
def perturbed_libm(seed: int, ulps: int = 1, names=TRANSCENDENTAL,
                   modules=None):
    """Run the body with ``names`` of ``math`` moved in ``modules``.

    ``modules`` defaults to ``ellid_modules()``; each gets back the real
    module on exit.
    """
    if modules is None:
        modules = ellid_modules()
    rng = random.Random(seed)
    fake = types.SimpleNamespace(**vars(math))
    for name in names:
        setattr(fake, name, _moved(getattr(math, name), rng.randbytes(8), ulps))
    for module in modules:
        module.math = fake
    try:
        yield
    finally:
        for module in modules:
            module.math = math
