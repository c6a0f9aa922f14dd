"""Wire format: the self-describing typed binary codec.

VISIT (paper section 3.2) transfers "simple data types like strings,
integers, floats, user defined structures, and arrays of these" using an
MPI-like tagged message mechanism, with "any data conversions (byte order,
precision, integer-float) performed transparently by the server".  This
package implements exactly that data model.
"""

from repro.wire.codec import (
    coerce_array,
    decode,
    describe,
    encode,
)

__all__ = [
    "encode",
    "decode",
    "describe",
    "coerce_array",
]
