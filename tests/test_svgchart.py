"""SVG line charts: axes, ticks and markers of small series."""
import re

import pytest

from freqcrowd import svgchart
from freqcrowd.errors import InputError


def tick_labels(svg):
    """The x-axis tick labels, left to right."""
    return re.findall(r'<text x="[\d.]+" y="444" text-anchor="middle">([^<]*)</text>', svg)


def circles(svg):
    return [(float(x), float(y))
            for x, y in re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)]


@pytest.mark.parametrize("x", [14.0, 1e16, -1e16])
def test_a_single_point_gets_a_widened_axis(x):
    """A zero-width axis is widened from its one value: by 1 at 14 (ticks
    14.0 to 15.0 every 0.2), and by a share of |x| where adding 1 would
    round away, so the point still sits at the axis' left edge."""
    svg = svgchart.line_chart([("one", [x], [3.0])], title="t")
    assert circles(svg) == [(72.0, 424.0)]  # plot area's lower-left corner
    labels = tick_labels(svg)
    if x == 14.0:
        assert labels == ["14", "14.2", "14.4", "14.6", "14.8", "15"]
    else:
        assert labels and set(labels) == {f"{x:.1e}"}


def test_ticks_end_where_the_step_rounds_away():
    """Two distinct values a few ulps apart at 1e16: the tick step rounds
    away when added, so the axis gets its one tick and the call returns."""
    svg = svgchart.line_chart([("a", [1e16, 1e16 + 2], [0, 1])])
    assert circles(svg) == [(72.0, 424.0), (696.0, 36.0)]  # the plot area's two corners
    assert tick_labels(svg) == ["1.0e+16"]


@pytest.mark.parametrize("series, message", [
    ([("a", [1.0, 2.0], [3.0])], "series 'a': x and y lengths differ"),
    ([], "nothing to plot"),
    ([("a", [], []), ("b", (), ())], "nothing to plot"),
], ids=["unequal-lengths", "no-series", "empty-series"])
def test_rejects_series_it_cannot_draw(series, message):
    with pytest.raises(InputError, match=message):
        svgchart.line_chart(series)
