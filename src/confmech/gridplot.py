"""Reference/deformed grid pictures as standalone SVG files.

Purely cosmetic output: the polylines and their images under a map, which
render_grid_svg returns, carry the testable content; the SVG just draws
them in two panels side by side.  Grid lines are clipped to a disk region and
sampled with a fixed number of points per line so curved images stay smooth.
Each polyline is mapped by one evaluate call on its stack of vertices,
and each is scaled to SVG coordinates and formatted as one array.  A grid of
more than GRID_VERTEX_BUDGET vertices is refused before any line is built.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfmechError

SAMPLES_PER_LINE = 42
GRID_VERTEX_BUDGET = 1 << 20
STROKE_GRID = 0.49
STROKE_OUTLINE = 1.2
PANEL = 380.0  # side of each square panel
GAP = 40.0  # between the two panels


@dataclass(frozen=True)
class DiskRegion:
    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ConfmechError("radius must be positive, got %r" % (self.radius,))


def grid_polylines(region, spacing, samples_per_line=SAMPLES_PER_LINE):
    """Grid segments clipped to the disk plus its boundary circle.

    Returns a list of (k, 2) arrays.  Vertical and horizontal chords of the
    disk at multiples of `spacing`, each sampled with samples_per_line
    points, followed by the outline sampled twice as densely.
    """
    cx, cy = region.center
    r = region.radius
    # each axis has at most 2 r / spacing + 1 chords; Python floats overflow to inf quietly
    vertices = (2.0 * (2.0 * float(r) / float(spacing) + 1.0) + 2.0) * samples_per_line
    if not vertices <= GRID_VERTEX_BUDGET:
        at = (spacing, samples_per_line, vertices, GRID_VERTEX_BUDGET)
        raise ConfmechError("spacing %r, %d points a line: up to %.3g vertices, above the budget of %d" % at)
    lines = []
    # axis 0: vertical chords at x = k spacing; axis 1: horizontal ones at y = k spacing
    for axis, (a, b) in enumerate(((cx, cy), (cy, cx))):
        for k in range(int(np.ceil((a - r) / spacing)), int(np.floor((a + r) / spacing)) + 1):
            level = k * spacing
            half = r * r - (level - a) ** 2
            if half <= 0.0:
                continue
            half = np.sqrt(half)
            along = np.linspace(b - half, b + half, samples_per_line)
            chord = [np.full_like(along, level), along]
            lines.append(np.column_stack(chord[::-1] if axis else chord))
    ang = np.linspace(0.0, 2.0 * np.pi, 2 * samples_per_line)
    lines.append(np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)]))
    return lines


def _bounds(point_groups):
    """The box of all points, padded by 5 % of its span on each side."""
    allpts = np.vstack([np.vstack(g) for g in point_groups if g])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.05 * span, hi + 0.05 * span


class _Panel:
    """Maps data coordinates into one SVG viewport (y axis flipped)."""

    def __init__(self, lo, hi, x0, width, height):
        scale = min(width / (hi[0] - lo[0]), height / (hi[1] - lo[1]))
        # the bits of x0 + scale (x - lo_x) and y0 + scale (hi_y - y): negating both factors is exact
        self.anchor = np.array([lo[0], hi[1]])
        self.factor = np.array([scale, -scale])
        self.origin = np.array(
            [x0 + 0.5 * (width - scale * (hi[0] - lo[0])), 0.5 * (height - scale * (hi[1] - lo[1]))]
        )

    def to_svg(self, p):
        """SVG (x, y) of one point, or of each point of a stack (k, 2)."""
        return self.origin + (p - self.anchor) * self.factor

    def polyline(self, pts, stroke, width):
        xy = self.to_svg(pts).ravel().tolist()
        coords = " ".join(["%.3f,%.3f"] * (len(xy) // 2)) % tuple(xy)
        return '<polyline fill="none" stroke="%s" stroke-width="%.2f" points="%s"/>' % (
            stroke,
            width,
            coords,
        )

    def dot(self, p, fill):
        x, y = self.to_svg(p).tolist()
        return '<circle cx="%.3f" cy="%.3f" r="3.0" fill="%s"/>' % (x, y, fill)


def render_grid_svg(mapping, region, out_path, spacing=0.0147, samples_per_line=SAMPLES_PER_LINE):
    """Write a two-panel SVG: the gridded region and its image under the map.

    Returns (reference_polylines, image_polylines) so callers can assert on
    the geometry without parsing the file.
    """
    ref = grid_polylines(region, spacing, samples_per_line)
    img = [mapping.evaluate(line) for line in ref]
    # markers: 8 boundary points at equal angles, and the center
    (cx, cy), r = region.center, region.radius
    ang = np.arange(8) * (2.0 * np.pi / 8)
    ref_marks = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
    ref_center = np.array([cx, cy])
    img_marks = mapping.evaluate(ref_marks)
    img_center = mapping.evaluate(ref_center)

    lo_l, hi_l = _bounds([ref, [ref_marks]])
    lo_r, hi_r = _bounds([img, [img_marks]])
    width = 2 * PANEL + GAP
    left = _Panel(lo_l, hi_l, 0.0, PANEL, PANEL)
    right = _Panel(lo_r, hi_r, PANEL + GAP, PANEL, PANEL)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="0 0 %.0f %.0f">' % (width, PANEL, width, PANEL)
    ]
    for pane, lines, marks, center in (
        (left, ref, ref_marks, ref_center),
        (right, img, img_marks, img_center),
    ):
        outline = lines[-1]
        for line in lines[:-1]:
            parts.append(pane.polyline(line, "#bbbbbb", STROKE_GRID))
        parts.append(pane.polyline(outline, "#000000", STROKE_OUTLINE))
        for p in marks:
            parts.append(pane.dot(p, "#d62728"))
        parts.append(pane.dot(center, "#1f77b4"))
    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return ref, img
