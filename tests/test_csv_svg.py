"""CSV exactness and SVG validity/determinism.

The reference renderers here are the straightforward per-value forms:
the format_value strings of each row of the columns under one explicit
quoting rule (csv.writer's, as of Python 3.13), and
one f-string per SVG data point through scalar _Axes.px/py calls.  The
package's column and chunked writers must give the same bytes.
"""
import csv
import io
import math
import sys
import xml.etree.ElementTree as ET
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ecokmap import _kernels, csvio, svgplot
from ecokmap.csvio import format_value, read_csv, render_csv, write_csv
from ecokmap.svgplot import count_data_elements, heatmap_svg, line_svg, scatter_svg


class TestCsv:
    def test_float_formatting_is_lossless(self):
        values = [1 / 3, math.pi, 0.1, 1e-300, -4.9e15, 2.0, 0.0]
        for v in values:
            assert float(format_value(v)) == v

    def test_nan_round_trips_as_nan(self):
        s = format_value(math.nan)
        assert s == "nan"
        assert math.isnan(float(s))

    def test_ints_written_without_decimal_point(self):
        assert format_value(42) == "42"

    def test_write_read_cycle_exact(self, tmp_path):
        columns = [range(1, 3), np.array([0.1 + 0.2, 5e-324]), [-1 / 7, 1e308]]
        path = tmp_path / "t.csv"
        write_csv(path, ["n", "a", "b"], columns)
        header, got = read_csv(path)
        assert header == ["n", "a", "b"]
        assert len(got) == 2
        for (n, a, b), row in zip(zip(*columns), got):
            assert int(row[0]) == n
            assert float(row[1]) == a
            assert float(row[2]) == b

    def test_carriage_return_label_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["n", "label"], [[1, 2], ["cr\rhere", "ok"]])
        assert path.read_bytes() == b'n,label\n1,"cr\rhere"\n2,ok\n'
        assert read_csv(path) == (["n", "label"], [["1", "cr\rhere"], ["2", "ok"]])

    def test_empty_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty.csv: empty CSV file"):
            read_csv(path)

    def test_rendering_is_deterministic_with_unix_newlines(self):
        columns = [[1], [2.5]]
        text = render_csv(["n", "v"], columns)
        assert text == "n,v\n1,2.5\n"
        assert render_csv(["n", "v"], columns) == text


POINTS = [(0.1, 0.5), (0.2, 0.9), (0.35, 0.2), (0.8, 0.4)]


class TestSvg:
    @pytest.mark.parametrize(
        "render",
        [
            lambda xs, ys: scatter_svg(xs, ys, xlabel="x", ylabel="y", title="t"),
            lambda xs, ys: line_svg(xs, ys, xlabel="x", ylabel="y", title="t"),
            lambda xs, ys: heatmap_svg(xs, ys, ys, xlabel="x", ylabel="y", title="t"),
        ],
        ids=["scatter", "line", "heatmap"],
    )
    def test_valid_xml_and_point_count(self, render):
        xs = [p[0] for p in POINTS]
        ys = [p[1] for p in POINTS]
        svg = render(xs, ys)
        root = ET.fromstring(svg)  # raises on malformed XML
        assert root.tag.endswith("svg")
        assert count_data_elements(svg) == len(POINTS)

    def test_repeated_render_byte_identical(self):
        xs = [p[0] for p in POINTS]
        ys = [p[1] for p in POINTS]
        a = scatter_svg(xs, ys, xlabel="x", ylabel="y", title="t")
        b = scatter_svg(xs, ys, xlabel="x", ylabel="y", title="t")
        assert a == b

    def test_degenerate_range_still_renders(self):
        svg = scatter_svg([1.0, 1.0], [2.0, 2.0], xlabel="x", ylabel="y", title="t")
        ET.fromstring(svg)
        assert count_data_elements(svg) == 2

    def test_heatmap_handles_nan_cells(self):
        svg = heatmap_svg(
            [0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [0.5, math.nan, -0.5],
            xlabel="c2", ylabel="c3", title="t",
        )
        ET.fromstring(svg)
        assert count_data_elements(svg) == 3
        assert "#b0b0b0" in svg

    @pytest.mark.parametrize("plot", [scatter_svg, line_svg])
    def test_unequal_coordinate_counts_are_refused(self, plot):
        with pytest.raises(ValueError, match="all of one length"):
            plot([0.0, 1.0], [0.0], xlabel="x", ylabel="y", title="t")

    def test_title_is_escaped(self):
        svg = scatter_svg([0.0], [0.0], xlabel="x", ylabel="y", title="a < b & c")
        ET.fromstring(svg)


def reference_csv(header, columns) -> str:
    """The format_value strings of each row, each field quoted when it holds
    ',', '"', '\\r' or '\\n' or is a lone empty field."""
    lone = len(header) == 1

    def field(f):
        if any(c in f for c in ',"\r\n') or (lone and f == ""):
            return '"' + f.replace('"', '""') + '"'
        return f

    rows = [header, *([format_value(v) for v in row] for row in zip(*columns))]
    return "".join(",".join(map(field, row)) + "\n" for row in rows)


def csv_writer_csv(header, columns) -> str:
    """csv.writer over the format_value strings of each row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in zip(*columns):
        w.writerow([format_value(v) for v in row])
    return buf.getvalue()


# Fields csv.writer must quote, or that it writes specially.
AWKWARD_LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " ", "'", "%s", "%d"]
HEADER_FIELDS = ["a", "b,c", "", "lambda1", 'q"', "%s"]


@st.composite
def csv_columns(draw, n_rows):
    """One column of n_rows values of a single kind, as a list, a numpy
    array or a range."""
    kind = draw(st.sampled_from(["float", "float64", "int", "str"]))
    if kind == "int" and draw(st.booleans()):
        start = draw(st.integers(min_value=-(10**12), max_value=10**12))
        return range(start, start + n_rows)
    values = st.floats()  # nan, +-inf, -0.0 and subnormals included
    if kind == "float64":
        values = values.map(np.float64)
    elif kind == "int":
        values = st.integers(min_value=-(10**40), max_value=10**40)
    elif kind == "str":
        values = st.sampled_from(["aperiodic", "escaped", "3", *AWKWARD_LABELS]) | st.text(
            alphabet='ab ,"\r\n-%', max_size=4
        )
    column = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
    return np.array(column) if kind == "float" and draw(st.booleans()) else column


@st.composite
def csv_tables(draw):
    """A header and a rectangular table of homogeneous columns."""
    n_cols = draw(st.integers(min_value=1, max_value=5))
    n_rows = draw(st.integers(min_value=0, max_value=30))
    header = draw(st.lists(st.sampled_from(HEADER_FIELDS), min_size=n_cols, max_size=n_cols))
    return header, [draw(csv_columns(n_rows)) for _ in range(n_cols)]


class TestCsvTemplates:
    """render_csv and write_csv against csv.writer + format_value."""

    @given(csv_tables())
    @example((["n", "a", "b,c"], [[1, 2, 3], [0.1, 5e-324, -math.inf], [-0.0, math.inf, math.nan]]))
    @example((["param", "n", "period"], [np.full(3, 3.9), range(500, 503), ["aperiodic"] * 3]))
    @example((["label"], [["a,b", "", 'say "hi"', "two\nlines", "cr\rhere"]]))
    @example(([""], [[""]]))
    @example((["a", "b,c"], [[10**30, -(10**35)], [np.float64(0.5), np.float64(-2.0)]]))
    @example((["n", "x"], [[], np.empty(0)]))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_reference(self, tmp_path_factory, table):
        header, columns = table
        expected = reference_csv(header, columns)
        # The rule is csv.writer's, except that csv.writer quotes a lone
        # "\r" only from Python 3.13 on.
        if "\r" not in expected or sys.version_info >= (3, 13):
            assert csv_writer_csv(header, columns) == expected
        assert render_csv(header, columns) == expected
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == expected.encode("ascii")

    def test_labels_needing_quotes_are_quoted_like_csv_writer(self):
        columns = [np.arange(len(AWKWARD_LABELS), dtype=float), AWKWARD_LABELS]
        text = render_csv(["v", "label"], columns)
        assert text == reference_csv(["v", "label"], columns)
        assert '0,"a,b"\n' in text and '1,"say ""hi"""\n' in text and "4,\n" in text
        lone = render_csv(["b,c"], [["", "x"]])
        assert lone == reference_csv(["b,c"], [["", "x"]]) == '"b,c"\n""\nx\n'

    def test_streams_more_rows_than_one_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvio, "CHUNK_ROWS", 7)
        for n_rows in (0, 6, 7, 49, 50):  # none, part of a chunk, whole chunks, a remainder
            columns = [
                range(n_rows),
                np.arange(n_rows) / 7,
                ["aperiodic" if i % 3 else "period-2" for i in range(n_rows)],
            ]
            write_csv(tmp_path / "t.csv", ["n", "v", "p"], columns)
            assert (tmp_path / "t.csv").read_text() == reference_csv(["n", "v", "p"], columns)

    @pytest.mark.parametrize(
        "header,columns",
        [
            (["label"], [["ok", "caf\u00e9"]]),
            (["caf\u00e9"], [["ok"]]),
            (["n", "p"], [[1], np.array(["\u00e9"])]),
        ],
        ids=["str", "header", "str-array"],
    )
    def test_non_ascii_refused_before_the_file_is_opened(self, tmp_path, header, columns):
        name = header[-1]
        with pytest.raises(ValueError, match=f"CSV column {name!r}"):
            render_csv(header, columns)
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"CSV column {name!r}"):
            write_csv(path, header, columns)
        assert not path.exists()

    @pytest.mark.parametrize(
        "columns,error",
        [
            ([[1], [True]], TypeError),
            ([[1, 2], np.array([True, False])], TypeError),
            ([[1, 2], [2.0, False]], TypeError),
            ([[1, 2.0], [0.5, 0.25]], TypeError),
            ([[1, 2], ["period-2", 3]], TypeError),
            ([[1, 2], [None, None]], TypeError),
            ([[1, 2], [0.5]], ValueError),
            ([[1, 2]], ValueError),
        ],
        ids=["bool", "bool-array", "bool-among-floats", "mixed", "mixed-label", "none",
             "unequal", "header-mismatch"],
    )
    def test_rejected_before_the_file_is_opened(self, tmp_path, columns, error):
        with pytest.raises(error):
            render_csv(["n", "v"], columns)
        path = tmp_path / "t.csv"
        with pytest.raises(error):
            write_csv(path, ["n", "v"], columns)
        assert not path.exists()


# Floats whose bytes or formatting are easy to get wrong when formatted in
# C: signed zeros, a NaN with its sign bit set (written "nan", where glibc
# writes "-nan"), both infinities and the smallest subnormal.
NEG_NAN = -math.nan
SPECIAL_FLOATS = [0.0, -0.0, NEG_NAN, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1 / 3]


KINDS = ["float", "float64", "array", "column"]


def as_kind(values, kind):
    """values as a list of floats, a list of numpy float64, an array or a
    strided read-only column of a 2-d array (as OrbitRecord.columns gives)."""
    if kind == "float64":
        return [np.float64(v) for v in values]
    if kind == "column":
        column = np.column_stack([values, values])[:, 0]
        column.flags.writeable = False
        return column
    return np.array(values) if kind == "array" else list(values)


def repeating(pool, n_rows, rng):
    """n_rows values drawn from pool, every value of pool among them."""
    return [*pool, *(pool[i] for i in rng.integers(0, len(pool), n_rows - len(pool)))]


class TestRepeatedFloats:
    """Columns whose values repeat, in runs and scattered: the bytes must
    be csv.writer + format_value's."""

    def test_signed_zeros_and_nans_keep_their_text(self):
        assert math.copysign(1.0, NEG_NAN) == -1.0
        zeros = np.array([-0.0, -0.0, 0.0, 0.0] * 2)
        assert render_csv(["v"], [zeros]) == "v\n" + "-0\n-0\n0\n0\n" * 2
        nans = np.array([NEG_NAN, NEG_NAN, math.nan] * 2)
        assert render_csv(["v"], [nans]) == "v\n" + "nan\n" * 6

    @pytest.mark.parametrize("kind", KINDS)
    def test_special_values_same_bytes_as_reference(self, kind):
        rng = np.random.default_rng(0)
        n_rows = len(SPECIAL_FLOATS) * 12
        columns = [
            range(n_rows),
            as_kind(repeating(SPECIAL_FLOATS, n_rows, rng), kind),
            as_kind(repeating(SPECIAL_FLOATS[:3], n_rows, rng), kind),
        ]
        expected = csv_writer_csv(["n", "a", "b"], columns)
        assert expected == reference_csv(["n", "a", "b"], columns)
        assert render_csv(["n", "a", "b"], columns) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_loop", lambda: _kernels._PYTHON)
            assert render_csv(["n", "a", "b"], columns) == expected

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("order", ["runs", "scattered"])
    def test_repeats_same_bytes_as_reference(self, kind, order):
        # In runs, every row but a run's first repeats the row before it;
        # scattered, a value's rows are rarely neighbours.
        n_rows = len(SPECIAL_FLOATS) * 4
        rows = repeating(SPECIAL_FLOATS, n_rows, np.random.default_rng(1))
        if order == "runs":
            rows = sorted(rows, key=SPECIAL_FLOATS.index)
        column = as_kind(rows, kind)
        expected = csv_writer_csv(["v"], [column])
        assert render_csv(["v"], [column]) == expected == reference_csv(["v"], [column])

    @given(
        pool=st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=6),
        repeats=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(KINDS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_repeating_columns_same_bytes_as_reference(self, pool, repeats, kind, seed):
        rng = np.random.default_rng(seed)
        n_rows = len(pool) * repeats
        columns = [as_kind(repeating(pool, n_rows, rng), kind), range(n_rows)]
        assert render_csv(["x", "n"], columns) == reference_csv(["x", "n"], columns)

    def test_chunk_boundaries(self, tmp_path, monkeypatch):
        # Runs of repeated values cross the chunk boundaries.
        monkeypatch.setattr(csvio, "CHUNK_ROWS", 7)
        rng = np.random.default_rng(2)
        for n_rows in (0, 6, 7, 49, 50):
            pool = SPECIAL_FLOATS[: max(1, n_rows // 4)]
            runs = sorted(repeating(pool, max(n_rows, len(pool)), rng)[:n_rows], key=pool.index)
            columns = [
                range(n_rows),
                np.array(runs),
                np.arange(n_rows) / 7,  # distinct: formatted per row
            ]
            write_csv(tmp_path / "t.csv", ["n", "a", "v"], columns)
            expected = reference_csv(["n", "a", "v"], columns)
            assert (tmp_path / "t.csv").read_text() == expected


class ReferenceAxes(svgplot._Axes):
    """The axis ranges from Python min/max over the finite values."""

    def __init__(self, xs, ys):
        fx = [v for v in xs if math.isfinite(v)]
        fy = [v for v in ys if math.isfinite(v)]
        self.x_lo, self.x_hi = svgplot._pad_range(min(fx, default=0.0), max(fx, default=1.0))
        self.y_lo, self.y_hi = svgplot._pad_range(min(fy, default=0.0), max(fy, default=1.0))


def reference_svg(kind, xs, ys, values=None, radius=1.2):
    """The plot as built one point at a time from scalar px/py calls."""
    ax = ReferenceAxes(xs, ys)
    fmt = svgplot._fmt
    parts = svgplot._header("t") + svgplot._axes_elems(ax, "x", "y")
    if kind == "line":
        coords = " ".join(f"{fmt(ax.px(x))},{fmt(ax.py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f5fa8" stroke-width="1"/>'
        )
    if kind in ("line", "scatter"):
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle class="d" cx="{fmt(ax.px(x))}" cy="{fmt(ax.py(y))}" '
                f'r="{fmt(radius)}" fill="#1f5fa8"/>'
            )
    else:
        ux, uy = sorted(set(xs)), sorted(set(ys))
        dx = min((b - a for a, b in zip(ux, ux[1:])), default=1.0)
        dy = min((b - a for a, b in zip(uy, uy[1:])), default=1.0)
        finite = [v for v in values if not math.isnan(v)]
        v_lo, v_hi = min(finite, default=-1.0), max(finite, default=1.0)
        w = abs(ax.px(dx) - ax.px(0.0))
        h = abs(ax.py(dy) - ax.py(0.0))
        for x, y, v in zip(xs, ys, values):
            parts.append(
                f'<rect class="d" x="{fmt(ax.px(x) - w / 2)}" y="{fmt(ax.py(y) - h / 2)}" '
                f'width="{fmt(w)}" height="{fmt(h)}" '
                f'fill="{svgplot._heat_color(v, v_lo, v_hi)}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(kind, xs, ys, values=None, radius=1.2):
    labels = dict(xlabel="x", ylabel="y", title="t")
    if kind == "heatmap":
        return heatmap_svg(xs, ys, values, **labels)
    plot = line_svg if kind == "line" else scatter_svg
    return plot(xs, ys, radius=radius, **labels)


svg_coords = st.floats(min_value=-1e6, max_value=1e6) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0]
)


class TestSvgAgainstScalarReference:
    @pytest.mark.parametrize("kind", ["scatter", "line", "heatmap"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_reference(self, kind, data):
        n = data.draw(st.integers(min_value=0, max_value=40))
        xs = data.draw(st.lists(svg_coords, min_size=n, max_size=n))
        ys = data.draw(st.lists(svg_coords, min_size=n, max_size=n))
        values = data.draw(st.lists(svg_coords, min_size=n, max_size=n))
        assert render(kind, xs, ys, values) == reference_svg(kind, xs, ys, values)

    @pytest.mark.parametrize("kind", ["scatter", "line", "heatmap"])
    @pytest.mark.parametrize(
        "xs,ys",
        [
            ([0.5], [0.25]),  # a single point
            ([5e-324], [0.0]),  # a single subnormal point: its 10% pad underflows
            ([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]),  # a constant series
            ([0.0, 0.0], [-0.0, 0.0]),  # signed zeros: ranges from Python min/max
            ([math.nan, 0.1, 0.2], [0.3, math.nan, 0.4]),  # NaN coordinates
            ([1, 2, 3, 4], [0.5, -0.25, 0.125, 2.0]),  # int x, as lyapunov's n column
        ],
    )
    def test_edge_cases(self, kind, xs, ys):
        assert render(kind, xs, ys, ys) == reference_svg(kind, xs, ys, ys)

    def test_array_input_matches_list_input(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(500, 2))
        for kind in ("scatter", "line"):
            got = render(kind, pts[:, 0], pts[:, 1], radius=2.0)
            assert got == reference_svg(kind, *pts.T.tolist(), radius=2.0)


class TestRepeatedPoints:
    """Plots whose points repeat, in runs and scattered: the bytes must be
    the scalar reference's."""

    @pytest.mark.parametrize("kind", ["scatter", "line"])
    def test_special_coordinates_same_bytes_as_reference(self, kind):
        rng = np.random.default_rng(3)
        pool = [(x, y) for x in SPECIAL_FLOATS[:6] for y in (0.5, -0.0, NEG_NAN)]
        xs, ys = map(list, zip(*repeating(pool, len(pool) * 5, rng)))
        assert render(kind, xs, ys) == reference_svg(kind, xs, ys)
        assert render(kind, np.array(xs), np.array(ys)) == reference_svg(kind, xs, ys)

    @pytest.mark.parametrize("kind", ["scatter", "line"])
    @pytest.mark.parametrize("order", ["runs", "scattered"])
    def test_repeats_same_bytes_as_reference(self, kind, order):
        # A bifurcation diagram's x repeats in runs, once per tail state.
        pool = [(x, y) for x in (0.1, 0.2, 0.3) for y in (0.4, 0.5, 0.6, 0.7)]
        points = repeating(pool, 48, np.random.default_rng(4))
        if order == "runs":
            points = sorted(points, key=pool.index)
        xs, ys = map(list, zip(*points))
        assert render(kind, xs, ys) == reference_svg(kind, xs, ys)

    @pytest.mark.parametrize("kind", ["scatter", "line"])
    def test_chunk_boundaries(self, kind, monkeypatch):
        monkeypatch.setattr(svgplot, "CHUNK_POINTS", 7)
        rng = np.random.default_rng(5)
        assert render(kind, [], []) == reference_svg(kind, [], [])
        for n in (4, 7, 14, 49, 50):  # part of a chunk, whole chunks, a remainder
            pool = [(0.25 * i, -0.5 * i) for i in range(max(1, n // 8))]
            xs, ys = map(list, zip(*sorted(repeating(pool, n, rng))))  # runs across chunks
            assert render(kind, xs, ys) == reference_svg(kind, xs, ys)

    @given(
        pool=st.lists(st.tuples(svg_coords, svg_coords), min_size=1, max_size=6),
        repeats=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeating_points_same_bytes_as_reference(self, pool, repeats, seed):
        xs, ys = map(list, zip(*repeating(pool, len(pool) * repeats, np.random.default_rng(seed))))
        for kind in ("scatter", "line"):
            assert render(kind, xs, ys) == reference_svg(kind, xs, ys)


class TestSpan:
    """_span against Python's min and max over the finite values, sign of
    zero included."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0, 0.0, -0.0, 0.0] * 40,  # long enough for vectorized reductions
            [0.0, 1.0, -0.0, -1.0, -0.0],
            [math.nan, math.nan],
            [math.nan, math.inf, -math.inf],
            [],
            [0.75],
            [-0.0],
            [5e-324],
        ],
    )
    def test_same_as_python_min_and_max(self, values):
        finite = [v for v in values if math.isfinite(v)]
        expected = (min(finite, default=0.0), max(finite, default=1.0))
        got = svgplot._span(np.array(values, dtype=float))
        assert [(v, math.copysign(1.0, v)) for v in got] == [
            (v, math.copysign(1.0, v)) for v in expected
        ]


def compiled_rows(template, columns, chunk=4096) -> str:
    return b"".join(_kernels.render_rows(template, columns, chunk)).decode("ascii")


def float_bits(b: int) -> float:
    return np.array([b], dtype=np.uint64).view(np.float64)[0].item()


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
ANY_FLOAT = (
    st.floats() | INT64.map(lambda b: float_bits(b % 2**64)) | st.sampled_from(SPECIAL_FLOATS)
)


class TestRenderRows:
    """_frame.c's render_rows against Python's % conversions, value by value."""

    @given(values=st.lists(ANY_FLOAT, max_size=40), ints=st.lists(INT64, max_size=40))
    @example(
        values=SPECIAL_FLOATS + [-1.7976931348623157e308, -2.2250738585072014e-308, 2.0**50],
        ints=[-(2**63), 2**63 - 1, 0, -1],
    )
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_percent(self, compiled, values, ints):
        column = np.array(values, dtype=np.float64)
        for conversion in ("%.17g", "%.2f"):
            want = "".join(conversion % v + "\n" for v in values)
            assert compiled_rows(conversion + "\n", [column], 7) == want
        want = "".join("<%d>" % v for v in ints)
        assert compiled_rows("<%d>", [np.array(ints, dtype=np.int64)], 5) == want

    @pytest.mark.parametrize(
        "conversion,value,text",
        [
            ("%.17g", 1 + 2**-17, "1.0000076293945312"),  # ...3125: 2 is even, kept
            ("%.17g", 1 + 3 * 2**-17, "1.0000228881835938"),  # ...9375: 7 is odd, up
            ("%.17g", -(1 + 2**-17), "-1.0000076293945312"),
            ("%.17g", 0.0010004043579101562, "0.0010004043579101562"),  # ...15625
            ("%.17g", 0.0010023117065429688, "0.0010023117065429688"),  # ...296875
            ("%.17g", 1.0728836059570312e-05, "1.0728836059570312e-05"),  # ...703125
            ("%.17g", 1.0251998901367188e-05, "1.0251998901367188e-05"),  # ...671875
            ("%.2f", 0.125, "0.12"),
            ("%.2f", 0.375, "0.38"),
            ("%.2f", -0.625, "-0.62"),
            ("%.2f", 1e15 + 0.125, "1000000000000000.12"),
            ("%.2f", 2.0**50 - 0.875, "1125899906842623.12"),
        ],
    )
    def test_decimal_ties_round_half_to_even(self, compiled, conversion, value, text):
        # Each value's exact decimal expansion ends in a 5 just past the
        # digits kept, which round to the even neighbour.
        digits = str(Decimal(value)).replace("-", "").replace(".", "").lstrip("0")
        assert digits.endswith("5") and len(digits) == {"%.17g": 18}.get(conversion, len(digits))
        assert conversion % value == text
        assert compiled_rows(conversion, [np.array([value])]) == text

    def test_ints_past_int64_route_to_the_template(self, monkeypatch):
        # A library whose render_rows is called fails the test.
        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._Backend(None, lib=object()))
        columns = [
            [10**30, -(10**19)],
            np.array([2**63, 1], dtype=np.uint64),
            range(2**63 - 1, 2**63 + 1),
        ]
        header = ["big", "u64", "range"]
        assert render_csv(header, columns) == reference_csv(header, columns)


@pytest.fixture(scope="module")
def reference_outputs():
    """fig-2's c2 = c3 = 0.6 sweep and a 100 000-step orbit, as the CLI
    writes them: (header, columns, scatter x, scatter y) tables."""
    from dataclasses import replace

    from ecokmap.dynamics import ModelParams, State
    from ecokmap.orbit import iterate
    from ecokmap.sweep import SweepSpec, bifurcation_sweep, bifurcation_table

    base = ModelParams(3.0, 3.0, 1.8, 0.6, 0.6, 2.5)
    spec = SweepSpec(
        base=base, parameter="r2", lo=2.8, hi=4.0, n_points=241, s0=State(0.2, 0.1),
        n_transient=400, n_record=100, n_lyap=20_000,
    )
    header, columns = bifurcation_table(bifurcation_sweep(spec))
    n, x, y = iterate(replace(base, r2=3.9), State(0.2, 0.1), 100_400, 400).columns()
    return {
        "sweep": (header, columns, columns[0], columns[3]),
        "orbit": (["n", "x", "y"], [n, x, y], x, y),
    }


@pytest.mark.parametrize("name", ["sweep", "orbit"])
def test_compiled_rows_same_bytes_as_the_template(compiled, reference_outputs, name):
    header, columns, xs, ys = reference_outputs[name]
    labels = dict(xlabel="x", ylabel="y", title="t")

    def outputs():
        plots = scatter_svg(xs, ys, **labels), line_svg(xs, ys, **labels)
        return render_csv(header, columns), *plots

    got = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_loop", lambda: _kernels._PYTHON)
        assert outputs() == got
