"""Procedural rendering primitives shared by the synthetic datasets.

Everything here is deterministic given an ``np.random.Generator`` and fully
vectorised per image.  The generators draw into float32 canvases in [0, 1];
channel layout is CHW to match the network input convention.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError


def blank_canvas(channels: int, size: int, fill: float = 0.0) -> np.ndarray:
    """A ``(channels, size, size)`` canvas filled with ``fill``."""
    return np.full((channels, size, size), fill, dtype=np.float32)


def coordinate_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index grids for mask construction."""
    return np.mgrid[0:size, 0:size]


def paste_glyph(
    canvas: np.ndarray,
    glyph: np.ndarray,
    scale: float,
    angle_deg: float,
    shift: tuple[float, float],
    intensity: float = 1.0,
) -> np.ndarray:
    """Paste a rotated/scaled glyph onto a single-channel canvas.

    Args:
        canvas: ``(H, W)`` float canvas, modified out of place.
        glyph: Small bitmap to paste.
        scale: Up-scaling factor applied to the glyph.
        angle_deg: Rotation in degrees.
        shift: ``(dy, dx)`` translation of the glyph centre from the canvas
            centre, in pixels.
        intensity: Ink intensity.

    Returns:
        A new canvas with the glyph rendered (max-composited).
    """
    from scipy import ndimage

    size = canvas.shape[0]
    enlarged = ndimage.zoom(glyph, zoom=scale, order=1, prefilter=False)
    if angle_deg:
        enlarged = ndimage.rotate(
            enlarged, angle_deg, reshape=True, order=1, prefilter=False
        )
    enlarged = np.clip(enlarged, 0.0, 1.0)
    gh, gw = enlarged.shape
    if gh > size or gw > size:
        # Centre-crop oversize glyphs so extreme augmentations stay valid.
        top = max(0, (gh - size) // 2)
        left = max(0, (gw - size) // 2)
        enlarged = enlarged[top : top + size, left : left + size]
        gh, gw = enlarged.shape
    row = int(round((size - gh) / 2 + shift[0]))
    col = int(round((size - gw) / 2 + shift[1]))
    row = int(np.clip(row, 0, size - gh))
    col = int(np.clip(col, 0, size - gw))
    out = canvas.copy()
    region = out[row : row + gh, col : col + gw]
    np.maximum(region, intensity * enlarged, out=region)
    return out


def disk_mask(size: int, center: tuple[float, float], radius: float) -> np.ndarray:
    """Boolean mask of a filled disk."""
    rows, cols = coordinate_grid(size)
    return (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= radius**2


def ring_mask(
    size: int, center: tuple[float, float], radius: float, thickness: float
) -> np.ndarray:
    """Boolean mask of an annulus."""
    rows, cols = coordinate_grid(size)
    dist2 = (rows - center[0]) ** 2 + (cols - center[1]) ** 2
    return (dist2 <= radius**2) & (dist2 >= (radius - thickness) ** 2)


def rect_mask(
    size: int, top: int, left: int, height: int, width: int
) -> np.ndarray:
    """Boolean mask of an axis-aligned rectangle."""
    mask = np.zeros((size, size), dtype=bool)
    mask[max(top, 0) : top + height, max(left, 0) : left + width] = True
    return mask


def triangle_mask(size: int, center: tuple[float, float], half: float) -> np.ndarray:
    """Boolean mask of an upward-pointing isoceles triangle."""
    rows, cols = coordinate_grid(size)
    rel_r = rows - (center[0] - half)
    within_height = (rel_r >= 0) & (rel_r <= 2 * half)
    spread = rel_r / 2.0
    within_width = np.abs(cols - center[1]) <= spread
    return within_height & within_width


def cross_mask(size: int, center: tuple[float, float], arm: float, width: float) -> np.ndarray:
    """Boolean mask of a plus sign."""
    rows, cols = coordinate_grid(size)
    horizontal = (np.abs(rows - center[0]) <= width) & (np.abs(cols - center[1]) <= arm)
    vertical = (np.abs(cols - center[1]) <= width) & (np.abs(rows - center[0]) <= arm)
    return horizontal | vertical


def stripes_mask(size: int, period: int, phase: int, vertical: bool) -> np.ndarray:
    """Boolean mask of parallel stripes."""
    if period < 2:
        raise DatasetError(f"stripe period must be >= 2, got {period}")
    rows, cols = coordinate_grid(size)
    axis = cols if vertical else rows
    return ((axis + phase) // (period // 2)) % 2 == 0


def checker_mask(size: int, cell: int, phase: int) -> np.ndarray:
    """Boolean mask of a checkerboard."""
    if cell < 1:
        raise DatasetError(f"checker cell must be >= 1, got {cell}")
    rows, cols = coordinate_grid(size)
    return (((rows + phase) // cell) + ((cols + phase) // cell)) % 2 == 0


def radial_gradient(size: int, center: tuple[float, float], radius: float) -> np.ndarray:
    """Float image falling off linearly from 1 at the centre to 0."""
    rows, cols = coordinate_grid(size)
    dist = np.sqrt((rows - center[0]) ** 2 + (cols - center[1]) ** 2)
    return np.clip(1.0 - dist / radius, 0.0, 1.0).astype(np.float32)


def linear_gradient(size: int, angle_rad: float) -> np.ndarray:
    """Float image ramping 0..1 along ``angle_rad``."""
    rows, cols = coordinate_grid(size)
    projection = rows * np.sin(angle_rad) + cols * np.cos(angle_rad)
    lo, hi = projection.min(), projection.max()
    return ((projection - lo) / max(hi - lo, 1e-8)).astype(np.float32)


def colorize(mask_or_gray: np.ndarray, color: np.ndarray) -> np.ndarray:
    """Lift a grayscale image to CHW using an RGB ``color`` vector."""
    gray = mask_or_gray.astype(np.float32)
    return np.stack([gray * float(c) for c in color])


def composite_over(base: np.ndarray, overlay: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Alpha-composite ``overlay`` over CHW ``base`` with HW ``alpha``."""
    return base * (1.0 - alpha[None]) + overlay * alpha[None]


def add_sensor_noise(
    image: np.ndarray, rng: np.random.Generator, sigma: float
) -> np.ndarray:
    """Additive Gaussian noise, clipped back to [0, 1]."""
    noisy = image + rng.normal(0.0, sigma, size=image.shape).astype(np.float32)
    return np.clip(noisy, 0.0, 1.0)


def blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur over the spatial dims of a CHW or HW image."""
    from scipy import ndimage

    if image.ndim == 2:
        return ndimage.gaussian_filter(image, sigma=sigma).astype(np.float32)
    return np.stack(
        [ndimage.gaussian_filter(ch, sigma=sigma) for ch in image]
    ).astype(np.float32)


def random_color(rng: np.random.Generator, minimum: float = 0.2) -> np.ndarray:
    """A random RGB vector with at least one strong channel."""
    color = rng.uniform(minimum, 1.0, size=3).astype(np.float32)
    color[rng.integers(0, 3)] = rng.uniform(0.7, 1.0)
    return color
