"""Diurnal activity profiles.

Traffic at an ISP PoP follows the day: quiet before dawn, a morning
ramp, and an evening peak (the paper's Fig. 4/5/14 all show it).  The
profile here is a smooth 24-hour curve sampled at the client activity
and the CDN pool-scaling hooks.
"""

from __future__ import annotations

# Hour-by-hour relative activity, renormalized so the mean is 1.0.
# Shape: trough at 04:00, evening peak at 21:00 — the pattern of
# residential traces like EU1-ADSL2 (Fig. 14).
_HOURLY = [
    0.25, 0.18, 0.14, 0.12, 0.12, 0.15,  # 00-05
    0.25, 0.45, 0.70, 0.85, 0.95, 1.05,  # 06-11
    1.10, 1.05, 1.00, 1.00, 1.05, 1.15,  # 12-17
    1.35, 1.60, 1.80, 1.90, 1.60, 0.90,  # 18-23
]
_MEAN = sum(_HOURLY) / len(_HOURLY)
HOURLY_ACTIVITY = [value / _MEAN for value in _HOURLY]


def activity_at(seconds_of_day: float, timezone_offset_hours: float = 0.0) -> float:
    """Relative activity at a local time of day.

    Args:
        seconds_of_day: seconds since midnight **GMT**.
        timezone_offset_hours: local offset (EU ≈ +1, US-East ≈ -5).

    Interpolates linearly between the hourly anchors; mean over the day
    is 1.0 by construction.
    """
    local = (seconds_of_day / 3600.0 + timezone_offset_hours) % 24.0
    low = int(local) % 24
    high = (low + 1) % 24
    frac = local - int(local)
    return HOURLY_ACTIVITY[low] * (1 - frac) + HOURLY_ACTIVITY[high] * frac


def pool_scale(
    seconds_of_day: float,
    timezone_offset_hours: float = 0.0,
    floor: float = 0.3,
) -> float:
    """CDN server-pool scale factor in [floor, 1.0].

    Fig. 4 of the paper: fbcdn/youtube use many more serverIPs at peak
    hours.  Pools scale with activity, clamped to a floor so a domain
    never disappears.
    """
    level = activity_at(seconds_of_day, timezone_offset_hours)
    peak = max(HOURLY_ACTIVITY)
    return max(floor, min(1.0, level / peak + (1 - 1 / peak) * floor))
