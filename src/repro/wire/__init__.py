"""Wire format: the self-describing typed binary codec.

VISIT (paper section 3.2) transfers "simple data types like strings,
integers, floats, user defined structures, and arrays of these" using an
MPI-like tagged message mechanism, with "any data conversions (byte order,
precision, integer-float) performed transparently by the server".  This
package implements exactly that data model, and the ``_kind``-tagged
dataclass layer both message protocols share.
"""

from repro.wire.codec import (
    coerce_array,
    decode,
    describe,
    encode,
)
from repro.wire.tagged import TaggedCodec

__all__ = [
    "encode",
    "decode",
    "describe",
    "coerce_array",
    "TaggedCodec",
]
