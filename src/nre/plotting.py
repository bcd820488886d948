"""Dependency-free SVG rendering of two-dimensional decision regions.

The plot rasterizes a score function on a grid: cells with positive score get
the positive-class fill, cells with negative score the negative fill, and
cells scoring exactly zero (empty support) stay unpainted. Data points inside
the bounds are drawn on top, blue for +1 and red for -1.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError

POSITIVE_FILL = "#9ecbff"
NEGATIVE_FILL = "#ffb3b3"
POSITIVE_POINT = "#1f4e9e"
NEGATIVE_POINT = "#c23b3b"
BOUNDS_PAD = 0.25  # default bounds extend the data's span by this fraction on each side
CANVAS_PX = 480


def checked_bounds(bounds) -> tuple[float, float, float, float]:
    """The bounds, if every bound is finite and both spans are finite and > 0; else DataError."""
    xmin, xmax, ymin, ymax = bounds
    spans = (xmax - xmin, ymax - ymin)
    if not (np.isfinite(bounds).all() and all(0.0 < s < np.inf for s in spans)):
        raise DataError(f"plot bounds {tuple(map(float, bounds))} need finite values and spans > 0")
    return bounds


def data_bounds(features: np.ndarray) -> tuple[float, float, float, float]:
    """The data's range padded by BOUNDS_PAD of its span each side; DataError past float range."""
    x0, y0 = features.min(axis=0).tolist()  # Python floats overflow to inf without a warning
    x1, y1 = features.max(axis=0).tolist()
    dx = BOUNDS_PAD * ((x1 - x0) or 1.0)
    dy = BOUNDS_PAD * ((y1 - y0) or 1.0)
    return checked_bounds((x0 - dx, x1 + dx, y0 - dy, y1 + dy))


def grid_points(bounds, resolution: int):
    """Cell-center grid over the bounds; returns (centers (R*R, 2), xs, ys)."""
    xmin, xmax, ymin, ymax = bounds
    xs = xmin + (np.arange(resolution) + 0.5) * (xmax - xmin) / resolution
    ys = ymin + (np.arange(resolution) + 0.5) * (ymax - ymin) / resolution
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()]), xs, ys


def render_decision_regions(
    score_fn,
    features: np.ndarray,
    labels: np.ndarray,
    bounds,
    resolution: int,
) -> str:
    """CANVAS_PX-square SVG of the score function's sign regions with the data points overlaid.

    ``score_fn`` maps an (N, 2) array to N scores, sampled at the centers of a
    ``resolution`` x ``resolution`` grid over the bounds (``data_bounds(features)``
    when None). The output is a pure function of the inputs, so repeated
    renders are byte-identical. Points outside the bounds fall off the canvas
    and are not drawn.
    """
    features = np.asarray(features, dtype=np.float64)
    bounds = data_bounds(features) if bounds is None else checked_bounds(bounds)
    xmin, xmax, ymin, ymax = bounds
    pts, xs, ys = grid_points(bounds, resolution)
    vals = np.asarray(score_fn(pts)).reshape(len(ys), len(xs))

    def sx(x):
        return (x - xmin) / (xmax - xmin) * CANVAS_PX

    def sy(y):
        return CANVAS_PX - (y - ymin) / (ymax - ymin) * CANVAS_PX  # svg y grows downward

    cell_w = CANVAS_PX / resolution
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_PX}" height="{CANVAS_PX}" '
        f'viewBox="0 0 {CANVAS_PX} {CANVAS_PX}">',
        f'<rect width="{CANVAS_PX}" height="{CANVAS_PX}" fill="white"/>',
    ]
    for i in range(len(ys)):
        for j in range(len(xs)):
            v = vals[i, j]
            if v == 0.0:
                continue
            fill = POSITIVE_FILL if v > 0.0 else NEGATIVE_FILL
            x = sx(xs[j]) - cell_w / 2
            y = sy(ys[i]) - cell_w / 2
            out.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_w:.2f}" fill="{fill}"/>'
            )
    for (px, py), lab in zip(features, labels):
        if not (xmin <= px <= xmax and ymin <= py <= ymax):
            continue
        color = POSITIVE_POINT if lab > 0 else NEGATIVE_POINT
        out.append(
            f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.5" fill="{color}" '
            f'fill-opacity="0.8"/>'
        )
    out.append("</svg>")
    return "\n".join(out)
