"""Focused-ion-beam fabrication support: RGB dose-rate pixel maps for
hemispherical milling and circle-arc fitting of measured surface profiles.

A surface profile is a ``specfit.MeasurementSeries`` with x the lateral
position in um and y the height z in nm. Only the profile code paths
import ``specfit``; the dose map loads no fitting module.

Depth-to-color encoding is linear with a required calibration constant
(depth removed per RGB unit); values overflow blue -> green -> red, so
the encodable depth ceiling is 765 calibration quanta. The dose map
checks only what ``config.SCHEMA`` does not already guarantee of its inputs.
"""
from __future__ import annotations

import json
import math
import struct
from typing import NamedTuple

import numpy as np

CHANNEL_CAP = 255
MAX_UNITS = 3 * CHANNEL_CAP
# a fitted profile whose rms deviation lies below this classifies as ideal
IDEAL_RMS_NM = 1.0
# pixel rows per block of hemisphere_dose_map; bounds its temporaries
DOSE_BLOCK_ROWS = 64


class FabError(ValueError):
    """Invalid fabrication parameters or degenerate geometry."""


class DoseMap(NamedTuple):
    """Square RGB dose-rate map, radially symmetric about its center."""

    pitch_nm: float
    calibration_nm_per_unit: float
    pixels: np.ndarray  # (h, w, 3) uint8

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def depth_nm(self) -> np.ndarray:
        """Decode the map back to a depth field in nm."""
        units = self.pixels.astype(np.int64).sum(axis=2)
        return units * self.calibration_nm_per_unit


def hemisphere_depth_nm(r_nm: np.ndarray, radius_nm: float, aperture_nm: float) -> np.ndarray:
    """Target milling depth d(r) for a concave spherical cap.

    d(r) = sqrt(R^2 - r^2) - sqrt(R^2 - (a/2)^2) inside the aperture,
    zero outside, so the rim mills to zero depth.
    """
    rim = math.sqrt(radius_nm ** 2 - (aperture_nm / 2.0) ** 2)
    inside = r_nm <= aperture_nm / 2.0
    depth = np.zeros_like(r_nm, dtype=float)
    depth[inside] = np.sqrt(radius_nm ** 2 - r_nm[inside] ** 2) - rim
    return depth


def encode_depth_units(units: np.ndarray) -> np.ndarray:
    """Spread integer dose units across the RGB channels, blue filling
    first, then green, then red; returned in (R, G, B) storage order."""
    if np.any(units < 0) or np.any(units > MAX_UNITS):
        raise FabError(f"dose units must lie in [0, {MAX_UNITS}]")
    blue = np.minimum(units, CHANNEL_CAP)
    green = np.minimum(units - blue, CHANNEL_CAP)
    pixels = np.empty(units.shape + (3,), dtype=np.uint8)
    pixels[..., 0], pixels[..., 1], pixels[..., 2] = units - blue - green, green, blue
    return pixels


def hemisphere_dose_map(
    radius_um: float,
    aperture_um: float,
    pitch_nm: float,
    calibration_nm_per_unit: float,
) -> DoseMap:
    """RGB dose map milling a concave hemisphere cap of the given radius.

    The aperture must fit the sphere (aperture <= 2 radius) and be
    resolved by at least 50 pixels. Raises when the center depth exceeds
    the encodable range, naming the calibration that would fit.
    """
    if aperture_um > 2.0 * radius_um:
        raise FabError(f"aperture {aperture_um} um exceeds sphere diameter {2 * radius_um} um")
    radius_nm = radius_um * 1e3
    aperture_nm = aperture_um * 1e3
    across = aperture_nm / pitch_nm
    if across < 50:
        raise FabError(
            f"pitch {pitch_nm} nm resolves the aperture by only {across:.0f} px; need >= 50")

    center_depth = hemisphere_depth_nm(np.array([0.0]), radius_nm, aperture_nm)[0]
    max_units = int(round(center_depth / calibration_nm_per_unit))
    if max_units > MAX_UNITS:
        needed = center_depth / MAX_UNITS
        raise FabError(
            f"center depth {center_depth:.1f} nm needs {max_units} units; "
            f"calibration must be >= {needed:.4f} nm/unit")

    half = int(math.ceil(aperture_nm / 2.0 / pitch_nm))
    coords = (np.arange(2 * half + 1) - half) * pitch_nm
    pixels = np.empty((coords.size, coords.size, 3), dtype=np.uint8)
    for start in range(0, coords.size, DOSE_BLOCK_ROWS):
        rows = slice(start, start + DOSE_BLOCK_ROWS)
        r = np.hypot(coords[None, :], coords[rows, None])  # pixel (y, x) at hypot(x, y)
        depth = hemisphere_depth_nm(r, radius_nm, aperture_nm)
        pixels[rows] = encode_depth_units(
            np.round(depth / calibration_nm_per_unit).astype(np.int64))
    return DoseMap(pitch_nm=pitch_nm, calibration_nm_per_unit=calibration_nm_per_unit,
                   pixels=pixels)


# ---------------------------------------------------------------------------
# BMP output
# ---------------------------------------------------------------------------

def write_bmp(path, dose_map: DoseMap, metadata: dict) -> None:
    """Write the map as an uncompressed 24-bit bottom-up BMP (BGR order,
    rows padded to 4 bytes), plus a JSON sidecar with the calibration.

    Extra ``metadata`` entries are merged into the sidecar (the BMP body
    stays bit-exact)."""
    px = dose_map.pixels
    h, w = px.shape[:2]
    row_bytes = w * 3
    pad = (4 - row_bytes % 4) % 4
    image_size = (row_bytes + pad) * h
    header = struct.pack(
        "<2sIHHI", b"BM", 14 + 40 + image_size, 0, 0, 14 + 40)
    info = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, 24, 0, image_size, 2835, 2835, 0, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(info)
        zero = b"\x00" * pad
        for row in px[::-1]:  # bottom-up
            # stored (R, G, B) per pixel; BMP wants B, G, R
            fh.write(row[:, ::-1].tobytes())
            fh.write(zero)
    sidecar = {
        "format": "bmp24",
        "width_px": w,
        "height_px": h,
        "pitch_nm": dose_map.pitch_nm,
        "calibration_nm_per_unit": dose_map.calibration_nm_per_unit,
        "channel_fill_order": "blue,green,red",
    }
    sidecar.update(metadata)
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# profile fitting
# ---------------------------------------------------------------------------

def fit_hemisphere_profile(
    profile,
    *,
    edge_exclusion_fraction: float,
) -> dict:
    """Least-squares circle-arc fit of a surface profile, a
    ``MeasurementSeries`` of x in um and z in nm.

    Fits (x - x0)^2 + (z - z0)^2 = R^2 by the algebraic (Kasa) least
    squares of ``lsq.least_squares``, after dropping the outermost
    ``edge_exclusion_fraction`` of the lateral extent on each side (milled
    shapes deviate at the rim). Points whose design matrix
    [2x, 2z, 1] has rank below 3, as ``numpy.linalg.lstsq`` counts it, are
    rejected as collinear.
    Returns radius_um, center_offset_um, center_height_nm, rms_nm,
    n_points and classified_ideal_hemisphere (rms_nm < IDEAL_RMS_NM).
    """
    x_um, z_nm = profile.as_arrays()
    if x_um.size < 10:
        raise FabError("need at least 10 profile points spanning the curved region")

    span = x_um[-1] - x_um[0]
    keep = ((x_um >= x_um[0] + edge_exclusion_fraction * span)
            & (x_um <= x_um[-1] - edge_exclusion_fraction * span))
    x = x_um[keep] * 1e3  # nm
    z = z_nm[keep]
    if x.size < 10:
        raise FabError("edge exclusion left fewer than 10 points")

    # Kasa fit: x^2 + z^2 = 2 x x0 + 2 z z0 + (R^2 - x0^2 - z0^2)
    from . import lsq
    coef = lsq.least_squares(np.stack([2.0 * x, 2.0 * z, np.ones_like(x)]), x ** 2 + z ** 2)
    if coef is None:
        raise FabError("degenerate circle fit: points are collinear")
    x0, z0, c = coef
    r_sq = c + x0 ** 2 + z0 ** 2
    if r_sq <= 0:
        raise FabError("degenerate circle fit: non-positive squared radius")
    radius_nm = math.sqrt(r_sq)
    residuals = np.hypot(x - x0, z - z0) - radius_nm
    rms_nm = float(np.sqrt(np.mean(residuals ** 2)))
    return {
        "radius_um": radius_nm / 1e3,
        "center_offset_um": x0 / 1e3,
        "center_height_nm": float(z0),
        "rms_nm": rms_nm,
        "n_points": int(x.size),
        "classified_ideal_hemisphere": rms_nm < IDEAL_RMS_NM,
    }


def synthetic_hemisphere_profile(
    radius_um: float,
    aperture_um: float,
    n_points: int,
    noise_nm: np.ndarray | float,
):
    """Ideal concave cross-section plus ``noise_nm``, the caller's draw of
    n_points heights or one for all, as a ``MeasurementSeries`` of (x_um, z_nm)."""
    from .specfit import MeasurementSeries
    radius_nm = radius_um * 1e3
    aperture_nm = aperture_um * 1e3
    x_nm = np.linspace(-aperture_nm / 2.0, aperture_nm / 2.0, n_points)
    z = noise_nm - hemisphere_depth_nm(np.abs(x_nm), radius_nm, aperture_nm)
    return MeasurementSeries(x_nm / 1e3, z)
