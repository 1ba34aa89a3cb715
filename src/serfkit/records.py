"""Two-channel magnetometer time-series container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeError


@dataclass(frozen=True)
class TwoChannelRecord:
    """Synchronized top/bottom magnetometer series in tesla."""

    sample_rate_hz: float
    top_t: np.ndarray
    bottom_t: np.ndarray

    def __post_init__(self):
        top = np.asarray(self.top_t, dtype=float)
        bottom = np.asarray(self.bottom_t, dtype=float)
        object.__setattr__(self, "top_t", top)
        object.__setattr__(self, "bottom_t", bottom)
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
