"""Wire format: the self-describing typed binary codec.

VISIT (paper section 3.2) transfers "simple data types like strings,
integers, floats, user defined structures, and arrays of these" using an
MPI-like tagged message mechanism, with "any data conversions (byte order,
precision, integer-float) performed transparently by the server".  This
package implements that data model (the decoder returns native byte
order; no precision conversion is reproduced), and the one field decoder
every inbound document goes through (:mod:`repro.wire.fields`), whose
tagged pair is the ``_kind``-tagged layer both message protocols share.
"""

from repro.wire.codec import (
    decode,
    describe,
    encode,
)
from repro.wire.fields import check_fields, decode_fields, decode_tagged, encode_tagged

__all__ = [
    "encode",
    "decode",
    "describe",
    "decode_fields",
    "decode_tagged",
    "encode_tagged",
    "check_fields",
]
