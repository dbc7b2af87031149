"""ORC-like columnar file format: stripes, stats, projection, pruning."""

from repro.orc.reader import OrcMetadata, OrcReader, StripeInfo
from repro.orc.writer import (DEFAULT_STRIPE_ROWS, OrcWriter, write_orc,
                               write_orc_file)

__all__ = [
    "OrcMetadata",
    "OrcReader",
    "StripeInfo",
    "OrcWriter",
    "write_orc",
    "write_orc_file",
    "DEFAULT_STRIPE_ROWS",
]
