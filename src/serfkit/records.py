"""Two-channel magnetometer time-series container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeError


@dataclass(frozen=True)
class TwoChannelRecord:
    """Synchronized top/bottom magnetometer series in tesla, as read-only views.

    The arrays given must not change later: gradiometer calls keep their spectra.
    """

    sample_rate_hz: float
    top_t: np.ndarray
    bottom_t: np.ndarray

    def __post_init__(self):
        top = np.asarray(self.top_t, dtype=float).view()
        bottom = np.asarray(self.bottom_t, dtype=float).view()
        top.flags.writeable = bottom.flags.writeable = False
        object.__setattr__(self, "top_t", top)
        object.__setattr__(self, "bottom_t", bottom)
        # Not a field: {"spectra": (top, bottom) rffts, (start, stop): their bins there}.
        object.__setattr__(self, "_held", {})
        if not self.sample_rate_hz > 0:
            raise InvalidParameterError("sample_rate_hz must be positive")
        if top.ndim != 1 or bottom.ndim != 1:
            raise ShapeError("channels must be 1-D arrays")
        if len(top) != len(bottom):
            raise ShapeError(
                f"channel lengths differ: top {len(top)}, bottom {len(bottom)}"
            )
        if not np.all(np.isfinite(top)) or not np.all(np.isfinite(bottom)):
            raise InvalidParameterError("record contains non-finite samples")

    def __len__(self) -> int:
        return len(self.top_t)

    def __copy__(self):
        # Immutable but for what is held for its samples, which a shallow copy shares.
        return self

    def __reduce__(self):
        # Pickles and deep copies are built anew: read-only samples, nothing held.
        return type(self), (self.sample_rate_hz, self.top_t, self.bottom_t)
