"""Pin the OpenBLAS kernel that the bit-exact tests depend on.

The golden reports and the sampler digests hold floats to the last bit, and
OpenBLAS picks its kernels by CPU at load time: AVX-512 (SkylakeX) kernels
round differently from the AVX2 ones.  Forcing the Haswell kernels, which
need AVX2, makes the bytes the same on every x86-64 machine with AVX2.  The
variable must be set before numpy loads, and no pytest or hypothesis plugin
imports numpy earlier; OpenBLAS on other architectures ignores it.
"""

import os

os.environ["OPENBLAS_CORETYPE"] = "Haswell"
