"""Narrow element dtypes shared across the overlay and tracegen layers.

``INDEX_DTYPE`` is the element type for node / instance / term index
arrays (CSR offsets and payloads).  It lives here — at the bottom of
the import graph — so ``repro.tracegen`` can narrow its arrays without
importing the overlay package (which itself imports tracegen).
``repro.overlay.topology`` re-exports it as the authoritative public
name.

int32 spans ±2.1e9: enough for every per-shard segment we build.  The
builders guard their counts against the dtype bound explicitly and
raise ``OverflowError`` with the offending sizes, so widening this one
literal (or sharding harder) is the documented escape hatch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["INDEX_DTYPE"]

#: Element type for index arrays (CSR offsets and payloads).
INDEX_DTYPE = np.dtype(np.int32)
