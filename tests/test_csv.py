"""``csv_text`` against CPython's ``'%.17g'``, cell by cell, and the CSV of
every command that emits data columns against the per-row text of the same
arrays computed from the library."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifrac import (
    FracParams,
    SampledFunction,
    TransformedGrid,
    VolterraProblem,
    kernel_from_id,
    picard_solve,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    psi_rl_derivative,
)
from psifrac import _csv, cli, funcs, models
from psifrac._csv import csv_text


def per_row(header, *columns):
    """The reference: one ``'%.17g'`` call per cell."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


def assert_same_text(got, want):
    # a short report: the first differing lines, not a diff of the whole text
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def assert_cells_match(values):
    values = np.asarray(values, dtype=float)
    assert_same_text(csv_text("v", values), per_row("v", values))


class TestCells:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_cells_match(values)
        # the same cells in every column position of a three-column table
        assert_same_text(
            csv_text("a,b,c", values, values[::-1], -values),
            per_row("a,b,c", values, values[::-1], -values),
        )

    def test_random_bits_in_the_fast_range(self):
        # exponent fields of 1e-270 .. 1e270 with random sign and mantissa,
        # where every cell but a near tie is formatted in numpy
        rng = np.random.default_rng(20261018)
        exponent = rng.integers(1023 - 896, 1023 + 896, 100_000, dtype=np.uint64)
        bits = rng.integers(0, 2**52, 100_000, dtype=np.uint64) | (exponent << np.uint64(52))
        bits |= rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63)
        assert_cells_match(bits.view(np.float64))

    def test_typical_values(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(50_000) * 10.0 ** rng.integers(-22, 22, 50_000)
        assert_cells_match(np.concatenate([values, np.round(values, 3), np.linspace(0, 1, 4097)]))

    @pytest.mark.parametrize(
        "value",
        [
            0.0, -0.0, math.inf, -math.inf, math.nan,
            5e-324, 2.2250738585072014e-308,
            # the %g switch between fixed and exponent form
            9.9999999999999995e-05, 1e-4, 1e16, 1e17, 99999999999999999.0,
            # exact ties in the 17th digit, decided half to even
            1000000000000000.25, 1000000000000000.75, 2000000000000000.5, 123456789012345.625,
            2.0**53 - 2, 2.0**53 + 2,
        ],
    )
    def test_edge_value(self, value):
        assert_cells_match([value, -value])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-300, 301)])
        assert_cells_match(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)
        ]))

    @pytest.mark.parametrize("rows,cols", [(8193, 1), (4097, 2), (1171, 7), (1, 3)])
    def test_chunk_edges_and_separators(self, rows, cols):
        # cells for the per-cell fallback at the chunk edges and in the last
        # column, where the separator is a newline
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows) for _ in range(cols)]
        for c in columns:
            c[::1170] = math.nan
            c[-1] = 1000000000000000.75
        columns[-1][::4096] = -math.inf
        assert_same_text(csv_text("h", *columns), per_row("h", *columns))

    def test_empty_columns_give_the_header(self):
        assert csv_text("x,value", np.array([]), np.array([])) == "x,value\n"


class TestTables:
    def test_split_powers_of_ten(self):
        # column 316 - k holds 10^(16-k): hi, lo, and hi's Veltkamp halves
        hi, lo, h1, h2 = _csv._tables()[-1]
        for p in range(-300, 301):
            assert (hi[p + 300], lo[p + 300]) == _csv._pow10(p)
        assert np.array_equal(h1 + h2, hi)
        significand = np.frexp(h1)[0] * 2.0**26  # at most 26 significant bits
        assert np.array_equal(significand, np.floor(significand))


class TestChunkPlan:
    """A table's rows are cut into chunks of equal whole rows, all formatted
    in one pair of workspace arrays sized for the largest chunk."""

    @pytest.mark.parametrize("cols", [1, 2, 7])
    @pytest.mark.parametrize("steps,extra", [(1, -1), (1, 0), (1, 1), (1.5, 0), (2, 1), (4, 1)])
    def test_equal_whole_row_chunks(self, monkeypatch, cols, steps, extra):
        step = 8192 // cols
        rows = int(steps * step) + extra
        chunk, seen, workspaces = _csv._chunk, [], []

        def recorded(v, c, src, out):
            seen.append((int(v[0]), v.size))  # column 0 holds the row number
            workspaces.append((src, out))  # held, so no address is reused
            return chunk(v, c, src, out)

        monkeypatch.setattr(_csv, "_chunk", recorded)
        rng = np.random.default_rng(rows + cols)
        columns = [np.arange(rows, dtype=float)]
        columns += [rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows) for _ in range(cols - 1)]
        assert_same_text(csv_text("h", *columns), per_row("h", *columns))
        assert all(size % cols == 0 for _, size in seen)
        seen.sort()
        starts = [first for first, _ in seen]
        ends = [first + size // cols for first, size in seen]
        assert starts == [0, *ends[:-1]] and ends[-1] == rows  # each row once
        lengths = [e - b for b, e in zip(starts, ends)]
        assert max(lengths) - min(lengths) <= 1  # no short tail
        assert min(lengths) >= min(rows, math.floor(0.75 * step)) and max(lengths) < 1.5 * step
        # one workspace pair for the whole table, as large as its largest chunk
        src, out = workspaces[0]
        assert all(s is src and o is out for s, o in workspaces)
        cells = cols * max(lengths)
        assert src.shape == (cells, 7) and out.shape == (cells, 25)


class TestTwoThreadSplit:
    """Tables of one to three chunk steps of rows, give or take a few, with
    special cells at the middle row ceil(rows/2) and the last row: every
    chunk is formatted on the calling thread, csv_text starts no thread, and
    callers on several threads each get their own text."""

    @pytest.mark.parametrize("cols", [1, 2, 7])
    @pytest.mark.parametrize("chunks", [(1, 0), (1, 1), (2, -1), (2, 1), (3, 5)])
    def test_same_bytes_around_the_split(self, cols, chunks):
        step = 8192 // cols
        rows = chunks[0] * step + chunks[1]
        mid = (rows + 1) // 2
        rng = np.random.default_rng(rows + cols)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows) for _ in range(cols)]
        special = (math.nan, -math.inf, 1000000000000000.75)
        for j, c in enumerate(columns):
            for i, r in enumerate((mid - 1, mid, rows - 1)):
                c[r] = special[(i + j) % 3]
        assert_same_text(csv_text("h", *columns), per_row("h", *columns))

    @pytest.mark.parametrize("cols", [1, 2, 7])
    def test_no_table_starts_a_thread(self, monkeypatch, cols):
        def refuse(thread):
            raise AssertionError("csv_text started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        step = 8192 // cols
        for rows in (0, 1, step, 3 * step + 5):
            values = np.random.default_rng(rows).standard_normal((cols, rows))
            assert_same_text(csv_text("h", *values), per_row("h", *values))

    def test_concurrent_callers(self):
        # more callers than cores, each splitting its own table, with thread
        # switches forced often; every text must still be its own
        tables = [np.random.default_rng(i).standard_normal((3, 2 * 4096 + i)) for i in range(4)]
        got = [None] * len(tables)

        def call(i):
            got[i] = csv_text("a,b,c", *tables[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(tables))]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        for text, table in zip(got, tables):
            assert_same_text(text, per_row("a,b,c", *table))

    @pytest.mark.parametrize("raise_at", ["first", "second"])
    def test_exception_reaches_the_caller(self, monkeypatch, raise_at):
        # two chunks, cut at row rows // 2; the failing one is keyed on its
        # first row, and the thread count stays as it was
        rows = 2 * 8192 + 1
        first_row = {"first": 0, "second": rows // 2}[raise_at]
        chunk = _csv._chunk

        def failing(v, cols, src, out):
            if v[0] == first_row:
                raise RuntimeWarning(f"chunk at row {first_row}")
            return chunk(v, cols, src, out)

        values = np.arange(rows, dtype=float)
        before = threading.active_count()
        assert csv_text("v", values) == per_row("v", values)
        assert threading.active_count() == before
        monkeypatch.setattr(_csv, "_chunk", failing)
        with pytest.raises(RuntimeWarning, match=f"^chunk at row {first_row}$"):
            csv_text("v", values)
        assert threading.active_count() == before


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


OPS = {
    "integral": lambda f: psi_integral(f, 0.3),
    "integral1": psi_integral_order1,
    "rl-deriv": lambda f: psi_rl_derivative(f, 0.3),
    "hilfer": lambda f: psi_hilfer_derivative(f, FracParams(0.3, 0.6)),
    "psi-frac": lambda f: psi_frac_integral(f, FracParams(0.3, 0.6)),
}


class TestCommandOutput:
    @pytest.mark.parametrize("n", [1, 2, 4096])
    @pytest.mark.parametrize("kid,a,b", [("identity", 0.0, 1.0), ("log", 1.0, 2.0)])
    @pytest.mark.parametrize("kind", OPS)
    def test_op(self, capsys, kind, kid, a, b, n):
        code, out = run_cli(
            capsys, "op", "--kind", kind, "--kernel", kid, "--a", str(a), "--b", str(b),
            "--n", str(n), "--f", "sin", "--mu", "0.3", "--nu", "0.6",
        )
        kernel = kernel_from_id(kid, (a, b))
        grid = TransformedGrid.build(kernel, a, b, n)
        f = SampledFunction.from_callable(grid, funcs.resolve_spatial("sin", kernel, a))
        try:
            values = OPS[kind](f).values
        except ValueError:  # derivative-type operators need n >= 4
            assert (code, out) == (1, "")
            return
        assert code == 0
        assert_same_text(out, per_row("x,value", grid.x_nodes, values))

    def test_volterra(self, capsys):
        code, out = run_cli(capsys, "volterra", "--n", "256", "--w", "linear:-1")
        kernel = kernel_from_id("identity", (0.0, 1.0))
        problem = VolterraProblem(
            phi=funcs.resolve_spatial("one", kernel, 0.0), integrand=funcs.resolve_state("linear:-1"),
            p=FracParams(0.5, 0.5), kernel=kernel, a=0.0, b=1.0, n=256,
        )
        x = picard_solve(problem, tol=1e-8, max_iter=50).solution
        assert code == 0
        assert_same_text(out, per_row("x,value", x.grid.x_nodes, x.values))

    @pytest.mark.parametrize("lam", ["0.3", "-3"])
    def test_malthus(self, capsys, lam):
        code, out = run_cli(capsys, "malthus", f"--lambda={lam}", "--t-max", "100", "--steps", "300")
        spec = models.MalthusSpec(
            n0=100.0, lam=float(lam), p=FracParams(0.5, 1.0),
            kernel=kernel_from_id("identity", (0.0, 100.0)), horizon=100.0,
        )
        assert code == 0
        assert_same_text(out, per_row("t,N", *models.malthus_curve(spec, 300)))

    def test_figures(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "figures", "--out-dir", str(tmp_path))
        assert code == 0
        cases = (("fig1.csv", "identity", 0.0, 1.0), ("fig2.csv", "sqrt_shift:1", 0.0, 3.0),
                 ("fig3.csv", "log", 1.0, math.e))
        for name, kid, a, b in cases:
            header, *columns = cli._figure_columns(kernel_from_id(kid, (a, b)), a, b)
            assert_same_text((tmp_path / name).read_text(encoding="utf-8"), per_row(header, *columns))
