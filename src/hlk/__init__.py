"""Exact-arithmetic toolkit for polarized Lefschetz structures.

Finite bigraded cohomology models over Q(i), the operator Lie algebras
generated by their Lefschetz sl2-triples, relative Lie algebra
cohomology with its Hodge bigrading, and an assembler that combines
per-representation diamonds into a global one.
"""

__version__ = "0.1.0"

# hashlib loads OpenSSL's libcrypto (about 3.5 MB and 3 ms per process);
# the interpreter's builtin module computes the same digests
try:
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256
