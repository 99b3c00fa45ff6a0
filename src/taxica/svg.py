"""Deterministic SVG biplots of a decomposition.

Rows are drawn as circles, columns as triangles, both labeled; a cross marks
the origin and each axis caption carries its percent of explained variation.
Output is plain SVG 1.1 text assembled with fixed float formatting, so the
same decomposition always yields byte-identical bytes.
"""
from __future__ import annotations

import numpy as np

from .ca import Decomposition
from .diagnostics import explained_variation
from .errors import ValidationError

__all__ = ["emit_svg_biplot"]

_WIDTH = 720
_HEIGHT = 540
_MARGIN = 48


def _escape(text: str) -> str:
    """Escape ``&``, ``>`` and ``<`` for XML text, in the order and with the
    entities of ``xml.sax.saxutils.escape``; quotes are left as they are."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fallback_labels(labels, size: int) -> list[str]:
    return [lab if lab.strip() else str(i + 1) for i, lab in enumerate(labels[:size])]


def emit_svg_biplot(decomp: Decomposition, axis_x: int, axis_y: int) -> str:
    """Render the joint display of two axes (1-based) as an SVG document.

    The viewport is padded 5% beyond the extremes of the plotted coordinates.
    Raises :class:`ValidationError` when an axis index is out of range or the
    two indices coincide.
    """
    if axis_x == axis_y:
        raise ValidationError("a biplot needs two distinct axes")
    for axis in (axis_x, axis_y):
        if not 1 <= axis <= decomp.rank_used:
            raise ValidationError(
                f"axis {axis} out of range 1..{decomp.rank_used}"
            )
    fx, fy, gx, gy = (X[:, a - 1] for X in (decomp.F, decomp.G) for a in (axis_x, axis_y))
    xs = np.concatenate([fx, gx])
    ys = np.concatenate([fy, gy])
    expl = explained_variation(decomp)

    def padded(lo: float, hi: float) -> tuple[float, float]:
        span = hi - lo
        if span <= 0:
            span = max(abs(hi), 1.0)
        return lo - 0.05 * span, hi + 0.05 * span

    x0, x1 = padded(float(xs.min()), float(xs.max()))
    y0, y1 = padded(float(ys.min()), float(ys.max()))

    def sx(x: float) -> float:
        return _MARGIN + (x - x0) / (x1 - x0) * (_WIDTH - 2 * _MARGIN)

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if x0 <= 0 <= x1:
        parts.append(
            f'<line x1="{sx(0):.2f}" y1="{_MARGIN}" x2="{sx(0):.2f}" '
            f'y2="{_HEIGHT - _MARGIN}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    if y0 <= 0 <= y1:
        parts.append(
            f'<line x1="{_MARGIN}" y1="{sy(0):.2f}" x2="{_WIDTH - _MARGIN}" '
            f'y2="{sy(0):.2f}" stroke="#bbbbbb" stroke-width="1"/>'
        )

    row_labels = _fallback_labels(decomp.model.table.row_labels, fx.size)
    col_labels = _fallback_labels(decomp.model.table.col_labels, gx.size)
    for label, x, y in zip(row_labels, fx, fy):
        cx, cy = sx(float(x)), sy(float(y))
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#1f77b4"/>'
        )
        parts.append(
            f'<text x="{cx + 5:.2f}" y="{cy - 4:.2f}" font-size="11" '
            f'font-family="sans-serif" fill="#1f77b4">{_escape(label)}</text>'
        )
    for label, x, y in zip(col_labels, gx, gy):
        cx, cy = sx(float(x)), sy(float(y))
        parts.append(
            f'<polygon points="{cx:.2f},{cy - 4.5:.2f} {cx - 4:.2f},{cy + 3.5:.2f} '
            f'{cx + 4:.2f},{cy + 3.5:.2f}" fill="#d62728"/>'
        )
        parts.append(
            f'<text x="{cx + 5:.2f}" y="{cy - 4:.2f}" font-size="11" '
            f'font-family="sans-serif" font-style="italic" '
            f'fill="#d62728">{_escape(label)}</text>'
        )

    caption_x = f"Axis {axis_x} ({expl[axis_x - 1]:.1f}%)"
    caption_y = f"Axis {axis_y} ({expl[axis_y - 1]:.1f}%)"
    parts.append(
        f'<text x="{_WIDTH / 2:.2f}" y="{_HEIGHT - 12}" font-size="13" '
        f'font-family="sans-serif" text-anchor="middle">{_escape(caption_x)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_HEIGHT / 2:.2f}" font-size="13" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 14 {_HEIGHT / 2:.2f})">{_escape(caption_y)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
