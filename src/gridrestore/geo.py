"""Great-circle geometry shared by the network and scenario modules."""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two (lat, lon) points in degrees."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * math.asin(min(1.0, math.sqrt(a)))


def haversine_m_array(lat: float, lon: float, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Distances in meters from one point to many, vectorized."""
    p1 = math.radians(lat)
    p2 = np.radians(lats)
    dphi = np.radians(lats - lat)
    dlam = np.radians(lons - lon)
    a = np.sin(dphi / 2.0) ** 2 + math.cos(p1) * np.cos(p2) * np.sin(dlam / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def initial_bearing_rad(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Forward azimuth in radians from point 1 toward point 2."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dlam)
    return math.atan2(y, x)


def point_segment_distance_m(
    lat: float,
    lon: float,
    lat_a: float,
    lon_a: float,
    lat_b: float,
    lon_b: float,
) -> float:
    """Great-circle distance in meters from a point to the arc segment a-b.

    Uses the cross-track/along-track construction; when the perpendicular
    foot falls outside the segment the nearer endpoint distance is returned.
    """
    d_ap = haversine_m(lat_a, lon_a, lat, lon)
    if d_ap == 0.0:
        return 0.0
    d_ab = haversine_m(lat_a, lon_a, lat_b, lon_b)
    if d_ab == 0.0:
        return d_ap

    theta_ap = initial_bearing_rad(lat_a, lon_a, lat, lon)
    theta_ab = initial_bearing_rad(lat_a, lon_a, lat_b, lon_b)
    delta = theta_ap - theta_ab
    if math.cos(delta) <= 0.0:
        # foot of the perpendicular lies behind a
        return d_ap

    ang_ap = d_ap / EARTH_RADIUS_M
    sin_xt = max(-1.0, min(1.0, math.sin(ang_ap) * math.sin(delta)))
    ang_xt = math.asin(sin_xt)
    cos_xt = math.cos(ang_xt)
    if cos_xt == 0.0:
        return abs(ang_xt) * EARTH_RADIUS_M
    cos_at = max(-1.0, min(1.0, math.cos(ang_ap) / cos_xt))
    d_at = math.acos(cos_at) * EARTH_RADIUS_M
    if d_at > d_ab:
        # foot lies beyond b
        return haversine_m(lat_b, lon_b, lat, lon)
    return abs(ang_xt) * EARTH_RADIUS_M


def point_segment_distance_m_array(
    lats: np.ndarray,
    lons: np.ndarray,
    lat_a: float,
    lon_a: float,
    lat_b: float,
    lon_b: float,
) -> np.ndarray:
    """``point_segment_distance_m`` from each point (lats[i], lons[i]) to the arc a-b.

    Every branch of the scalar construction is evaluated for every point, and the
    scalar's branch order picks each result. The arithmetic is the scalar's, step for
    step; only numpy's transcendental functions stand in for ``math``'s. So a value
    differs from the scalar one by rounding alone (a relative ~1e-15), except where
    the two pick different branches. That happens only at a branch threshold, where
    the branches meet and give the same distance. The one ill-conditioned step is
    ``arccos`` near 1 in the along-track distance: an ulp of its argument moves the
    along-track distance by up to ~0.1 m, and so moves the "beyond b" test and the
    result by about that much at most. A point whose scalar computation would fail
    (a latitude past a pole that rounds the haversine term below 0) comes out NaN,
    with no warning.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d_ap = haversine_m_array(lat_a, lon_a, lats, lons)
        d_ab = haversine_m(lat_a, lon_a, lat_b, lon_b)
        if d_ab == 0.0:
            return d_ap
        p1 = math.radians(lat_a)
        p2 = np.radians(lats)
        dlam = np.radians(lons - lon_a)
        theta_ap = np.arctan2(
            np.sin(dlam) * np.cos(p2),
            math.cos(p1) * np.sin(p2) - math.sin(p1) * np.cos(p2) * np.cos(dlam))
        delta = theta_ap - initial_bearing_rad(lat_a, lon_a, lat_b, lon_b)
        ang_ap = d_ap / EARTH_RADIUS_M
        ang_xt = np.arcsin(np.clip(np.sin(ang_ap) * np.sin(delta), -1.0, 1.0))
        cos_xt = np.cos(ang_xt)
        d_at = np.arccos(np.clip(np.cos(ang_ap) / cos_xt, -1.0, 1.0)) * EARTH_RADIUS_M
        xt = np.abs(ang_xt) * EARTH_RADIUS_M
        beyond_b = (d_at > d_ab) & (cos_xt != 0.0)
        dist = np.where(beyond_b, haversine_m_array(lat_b, lon_b, lats, lons), xt)
        dist = np.where(np.cos(delta) <= 0.0, d_ap, dist)  # foot behind a
        return np.where(d_ap == 0.0, 0.0, dist)
