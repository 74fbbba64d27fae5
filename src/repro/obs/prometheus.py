"""Prometheus text-exposition helpers: escaping, labels, sample lines.

The exposition format (text/plain version 0.0.4) requires label values to
escape backslash, double-quote, and newline; these helpers centralize that so
`ServiceMetrics.render_prometheus` and the stage histograms produce parseable
output even when a label value carries a quote or newline (e.g. a query name).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional


def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: Optional[Mapping[str, object]]) -> str:
    """Render a label set as ``{k="v",...}`` (empty string when no labels)."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in labels.items()
    )
    return "{" + body + "}"


def format_sample_value(value: float) -> str:
    """Render a sample value: integers bare, floats via repr, specials named."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))

