"""Reference/deformed grid pictures as standalone SVG files.

Purely cosmetic output: the polylines and their images under a map, which
render_grid_svg returns, carry the testable content; the SVG just draws
them in two panels side by side.  Grid lines are clipped to a disk region and
sampled with a fixed number of points per line so curved images stay smooth.
A picture's polylines, markers and center are mapped by one evaluate call
on one stack, and each polyline is formatted as one array.  A grid past
GRID_VERTEX_BUDGET vertices or a chord index of 2^53 is refused first.
"""

import numbers
from collections import namedtuple

import numpy as np

from .conformal import RADIUS_CEILING
from .exceptions import ConfmechError
from .tensors import libm_pow, require_count

SAMPLES_PER_LINE = 42
GRID_SPACING = 0.0147
GRID_VERTEX_BUDGET = 1 << 20
STROKE_GRID = 0.49
STROKE_OUTLINE = 1.2
PANEL = 380.0  # side of each square panel
GAP = 40.0  # between the two panels


class DiskRegion(namedtuple("DiskRegion", "center radius")):
    """The disk |x - center| <= radius: a center of two finite numbers, a radius > 0 of finite square.

    An immutable NamedTuple; _make and _replace go through the same refusals.
    """

    __slots__ = ()

    def __new__(cls, center, radius):
        try:
            pair = [isinstance(c, numbers.Real) for c in center]
        except TypeError:
            pair = []
        if pair != [True, True]:
            shown = " ".join(repr(center).split())  # one line, also for an array
            raise ConfmechError("disk center must be two numbers, got %s" % shown)
        if not (np.all(np.isfinite(center)) and 0.0 < radius <= RADIUS_CEILING):
            at = (np.asarray(center, dtype=float), float(radius))
            raise ConfmechError("disk needs a finite center and a radius > 0 of finite square: %s, %r" % at)
        return super().__new__(cls, center, radius)

    _make = classmethod(lambda cls, fields: cls(*fields))


def grid_polylines(region, spacing, samples_per_line=SAMPLES_PER_LINE):
    """Grid segments clipped to the disk plus its boundary circle.

    Returns a list of (k, 2) arrays.  Vertical and horizontal chords of the
    disk at multiples of `spacing`, each sampled with samples_per_line
    points, followed by the outline sampled twice as densely.  Refused: a
    samples_per_line that is not an int of at least 1, a spacing not finite
    and above 0, a grid past the vertex budget, and a chord index
    (|c| + r) / spacing above 2^53, where k spacing is no longer exact.
    """
    samples_per_line = require_count(samples_per_line, "samples_per_line")
    cx, cy = region.center
    r = region.radius
    if not 0.0 < spacing < np.inf:
        raise ConfmechError("grid spacing must be finite and greater than 0, got %r" % (spacing,))
    # each axis has at most 2 r / spacing + 1 chords; Python floats overflow to inf quietly
    vertices = (2.0 * (2.0 * float(r) / float(spacing) + 1.0) + 2.0) * samples_per_line
    if not vertices <= GRID_VERTEX_BUDGET:
        at = (spacing, samples_per_line, vertices, GRID_VERTEX_BUDGET)
        raise ConfmechError("spacing %r, %d points a line: up to %.3g vertices, above the budget of %d" % at)
    index = (max(abs(float(cx)), abs(float(cy))) + float(r)) / float(spacing)
    if not index <= 2.0**53:
        raise ConfmechError("spacing %r: chord index (|c| + r) / spacing = %.3g > 2^53" % (spacing, index))
    lines = []
    # axis 0: vertical chords at x = k spacing; axis 1: horizontal ones at y = k spacing
    for axis, (a, b) in enumerate(((cx, cy), (cy, cx))):
        # a level with |level - a| > r leaves no chord, and its square may overflow; so may
        # k spacing next to the largest float, to inf without a warning
        with np.errstate(over="ignore"):
            level = np.arange(int(np.ceil((a - r) / spacing)), int(np.floor((a + r) / spacing)) + 1) * spacing
        level = level[np.abs(level - a) <= r]
        half = r * r - libm_pow(level - a, 2.0)
        level, half = level[half > 0.0], np.sqrt(half[half > 0.0])
        lo, hi = b - half, b + half
        # linspace takes one route for all rows if one has hi == lo: such a chord is lo alone
        along = np.repeat(lo[:, None], samples_per_line, axis=1)
        along[hi > lo] = np.linspace(lo[hi > lo], hi[hi > lo], samples_per_line, axis=-1)
        chord = [np.broadcast_to(level[:, None], along.shape), along]
        lines.extend(np.stack(chord[::-1] if axis else chord, axis=-1))
    ang = np.linspace(0.0, 2.0 * np.pi, 2 * samples_per_line)
    lines.append(np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)]))
    return lines


class _Panel:
    """Maps data coordinates into one SVG viewport (y axis flipped); a box with no extent is refused."""

    def __init__(self, points, x0, width, height):
        lo, hi = points.min(axis=0), points.max(axis=0)
        pad = 0.05 * np.maximum(hi - lo, 1e-9)  # the box of the points, 5 % of its span wider on each side
        lo, hi = lo - pad, hi + pad
        size = hi - lo
        if not np.all(size > 0.0):
            raise ConfmechError("points near %s span too little next to their size to draw" % (lo,))
        scale = min(width / size[0], height / size[1])
        # the bits of x0 + scale (x - lo_x) and y0 + scale (hi_y - y): negating both factors is exact
        self.anchor = np.array([lo[0], hi[1]])
        self.factor = np.array([scale, -scale])
        self.origin = np.array([x0 + 0.5 * (width - scale * size[0]), 0.5 * (height - scale * size[1])])

    def to_svg(self, p):
        """SVG (x, y) of each point of a stack (k, 2), element by element."""
        return self.origin + (p - self.anchor) * self.factor


def _polyline(xy, stroke, width):
    """An SVG polyline through the SVG points xy (k, 2)."""
    xy = xy.ravel().tolist()
    coords = " ".join(["%.3f,%.3f"] * (len(xy) // 2)) % tuple(xy)
    return '<polyline fill="none" stroke="%s" stroke-width="%.2f" points="%s"/>' % (stroke, width, coords)


def _dot(xy, fill):
    return '<circle cx="%.3f" cy="%.3f" r="3.0" fill="%s"/>' % (*xy, fill)


def render_grid_svg(mapping, region, out_path, spacing=GRID_SPACING, samples_per_line=SAMPLES_PER_LINE):
    """Write a two-panel SVG: the gridded region and its image under the map.

    One evaluate call maps the polylines, 8 markers at equal angles and the
    center, and one to_svg call per panel takes them into its viewport.
    Returns (reference_polylines, image_polylines) so callers can assert on
    the geometry without parsing the file.
    """
    ref = grid_polylines(region, spacing, samples_per_line)
    (cx, cy), r = region.center, region.radius
    ang = np.arange(8) * (2.0 * np.pi / 8)
    marks = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
    points = np.concatenate(ref + [marks, [[cx, cy]]])
    img = mapping.evaluate(points)
    cuts = np.cumsum([len(line) for line in ref])

    width = 2 * PANEL + GAP
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="0 0 %.0f %.0f">' % (width, PANEL, width, PANEL)
    ]
    for x0, pts in ((0.0, points), (PANEL + GAP, img)):
        # each panel's box holds its polylines and markers, not its center
        xy = _Panel(pts[:-1], x0, PANEL, PANEL).to_svg(pts)
        *lines, outline, dots = np.split(xy[:-1], cuts)
        parts += [_polyline(line, "#bbbbbb", STROKE_GRID) for line in lines]
        parts.append(_polyline(outline, "#000000", STROKE_OUTLINE))
        parts += [_dot(p, "#d62728") for p in dots.tolist()] + [_dot(xy[-1].tolist(), "#1f77b4")]
    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return ref, np.split(img, cuts)[:-1]
