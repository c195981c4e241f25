import collections
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit, least_squares

import spskit.g2fit as g2fit_module
import spskit.reproduce as reproduce_module
import spskit.specfit as specfit_module
from spskit import lsq
from spskit.reproduce import (
    fit_roundtrip_draws,
    fit_roundtrip_fits,
    fit_roundtrip_summary,
)
from spskit.specfit import (
    FitError,
    FitResult,
    MeasurementSeries,
    SeriesError,
    convolve_decay,
    correct_g2_background,
    cos2_model,
    fit_decay_with_irf,
    fit_g2,
    fit_g2_batch,
    fit_lorentzian,
    fit_polarization,
    format_with_uncertainty,
    g2_model,
    lorentzian,
    lorentzian_with_instrument,
    read_series_csv,
    zpl_fraction,
)


def write_series_csv(path, series: MeasurementSeries, x_name: str = "x", y_name: str = "y"):
    """A series as the CSV that ``read_series_csv`` reads, 10 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind={series.kind}\n")
        fh.write(f"{x_name},{y_name}\n")
        for xv, yv in zip(series.x.tolist(), series.y.tolist()):
            fh.write(f"{xv:.10g},{yv:.10g}\n")


def series(x, y, kind="spectrum"):
    return MeasurementSeries(tuple(x), tuple(y), kind)


def reference_decay(t, lifetime, irf):
    """The IRF convolution as a direct sum over the exponential's samples."""
    return np.convolve(irf / irf.sum(), np.exp(-(t - t[0]) / lifetime))[: len(t)]


# amp exp(-x/tau): tau is the nonlinear parameter, amp the coefficient
EXP_DECAY = specfit_module.Separable(lambda xv, tau: (np.exp(-xv / tau),),
                                     lambda xv, cols, tau: ((0, cols[:, 0] * xv / tau ** 2),),
                                     ["tau", "amp"])


class TestSeriesValidation:
    def test_rejects_unsorted_x(self):
        with pytest.raises(SeriesError):
            series([1.0, 1.0, 2.0], [0, 0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(SeriesError):
            series([1.0, 2.0], [0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(SeriesError):
            series([1.0, 2.0], [0.0, float("inf")])

    def test_rejects_unknown_kind(self):
        with pytest.raises(SeriesError):
            series([1.0, 2.0], [0.0, 0.0], "sideband")

    def test_series_holds_read_only_arrays(self):
        s = series([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        x, y = s.as_arrays()
        assert x.dtype == y.dtype == np.float64
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_x_is_a_read_only_copy_of_the_callers_grid(self):
        # a read-only view of a writeable base, a grid over a writeable
        # buffer, and the decay grid of reproduce's draws
        base = np.linspace(0.0, 1.0, 5)
        view = base.view()
        view.flags.writeable = False
        buffered = np.frombuffer(bytearray(base.tobytes()))
        decay, irf = fit_roundtrip_draws([0])[0]["decay"][:2]
        grid = reproduce_module.DECAY_GRID
        cases = [(base, MeasurementSeries(view, base).x),
                 (buffered, MeasurementSeries(buffered, base).x), (grid, decay.x), (grid, irf.x)]
        for caller, held in cases:
            assert held is not caller and not held.flags.writeable
            assert held.tobytes() == caller.tobytes()
        try:
            for caller, _ in cases:
                caller[0] = -1.0  # every caller's grid starts at 0
            assert [held[0] for _, held in cases] == [0.0] * 4
        finally:
            grid[0] = 0.0

    def test_a_bad_grid_raises_the_same_message_on_every_call(self):
        for bad, match in ((np.array([0.0, 2.0, 1.0]), "strictly increasing"),
                           (np.array([0.0, 1.0, np.inf]), "must be finite")):
            for x in (np.frombuffer(bad.tobytes()),) * 2 + (bad,):
                with pytest.raises(SeriesError, match=match):
                    MeasurementSeries(x, np.zeros(3))

    def test_uniform_grid_allows_csv_rounding_only(self):
        t = np.linspace(0.0, 12288.0, 8192)
        rounded = np.array([float(f"{v:.10g}") for v in t])
        assert specfit_module._uniform_spacing(rounded, "test") == pytest.approx(12288.0 / 8191)
        jittered = t + 1e-4 * 1.5 * np.random.default_rng(2).uniform(-1.0, 1.0, t.size)
        with pytest.raises(SeriesError, match="uniform"):
            specfit_module._uniform_spacing(jittered, "test")

    def test_csv_round_trip(self, tmp_path):
        s = series(np.linspace(0, 10, 21), np.arange(21.0), "decay")
        path = tmp_path / "series.csv"
        write_series_csv(path, s, "time_ps", "counts")
        back = read_series_csv(path)
        assert back.kind == "decay"
        assert np.allclose(back.x, s.x)
        assert np.allclose(back.y, s.y)


def read_line_by_line(path) -> MeasurementSeries:
    """``read_series_csv`` as a loop over the lines alone: the reference it
    must match on a file without a byte order mark."""
    kind = "spectrum"
    xs, ys = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].replace(",", " ").split():
                    if token.startswith("kind="):
                        kind = token.split("=", 1)[1]
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise SeriesError(f"{path}, line {lineno}: expected two comma-separated "
                                  f"columns, got {line!r}")
            try:
                xv = float(parts[0])
            except ValueError:
                continue  # header row
            try:
                yv = float(parts[1])
            except ValueError:
                raise SeriesError(f"{path}, line {lineno}: expected a number in the second "
                                  f"column, got {line!r}") from None
            xs.append(xv)
            ys.append(yv)
    return MeasurementSeries(xs, ys, kind)


def read_outcome(read, path):
    """The x and y bytes and the kind a reader gives, or its SeriesError text."""
    try:
        got = read(path)
    except SeriesError as exc:
        return str(exc)
    return got.x.tobytes(), got.y.tobytes(), got.kind


# tokens a CSV field may hold besides a plain number
ODD_FIELDS = ["1_0", "2_5e3", "nan", "-inf", "Infinity", "", "abc", " 7 ", "\t8", "\xa09",
              "3\x1c", "\x1f4", "0x10", "+.5", "1e400", "5e-324", "\u0663", "\x00", "#1"]
# lines that may sit among the rows
ODD_LINES = ["", "   ", "\x0c", "x,y", "# kind=decay", "# note, kind=correlation", "#kind=",
             "7", "a,b,c", "1,2,3", ",", "\x1e", "1\x1c,2"]


@st.composite
def csv_texts(draw):
    """CSV texts near the ones spskit writes: a kind comment and a header,
    then rows of increasing x, some with padding or a third column; an odd
    file also has odd fields and lines, and any of three line endings."""
    odd = draw(st.booleans())
    number = st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.10g}")
    field = st.one_of(number, st.sampled_from(ODD_FIELDS)) if odd else number
    lines = draw(st.lists(st.sampled_from(["# kind=decay", "x,y", "", "# spskit"]), max_size=3))
    x = np.cumsum(draw(st.lists(st.floats(1e-3, 1e3), max_size=25)))
    for xv in x.tolist():
        pad = draw(st.sampled_from(["", " ", "\t"]))
        tail = draw(st.sampled_from(["", ",3", ",abc", ","]))
        x_field = draw(field) if odd and draw(st.integers(0, 9)) == 0 else f"{xv:.10g}"
        lines.append(f"{pad}{x_field}{pad},{pad}{draw(field)}{tail}")
        if odd and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(ODD_LINES)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"])) if odd else "\n"
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestReadSeriesCsv:
    """``read_series_csv`` reads what the line loop reads, and skips a
    UTF-8 byte order mark."""

    CASES = {
        "kind comment after the header": "x,y\n# kind=decay\n1,2\n2,3\n",
        "kind comment among the rows": "# kind=decay\nx,y\n1,2\n# kind=correlation\n2,3\n",
        "blank lines": "# kind=decay\n\nx,y\n\n1,2\n\n2,3\n\n",
        "white-space line": "x,y\n1,2\n \t\n2,3\n",
        "CRLF endings": "# kind=polarization\r\nx,y\r\n1,2\r\n\r\n2,3\r\n",
        "CR endings": "x,y\r1,2\r2,3\r",
        "header row in the middle": "x,y\n1,2\nx,y\n2,3\n",
        "third column": "x,y,z\n1,2,3\n2,3,abc\n3,4,\n",
        "padded fields": "x,y\n 1 , 2 \n\t2,\t3\t\n\xa03,4\xa0\n",
        "underscored numbers": "x,y\n1_0,2\n2_0,3_5\n",
        "nan row": "x,y\n1,nan\n2,3\n",
        "inf row": "x,y\n1,2\ninf,3\n",
        "one-column row": "x,y\n1,2\n3\n4,5\n",
        "non-numeric y": "x,y\n1,2\n3,abc\n",
        "empty y": "x,y\n1,2\n3,\n",
        "separator in a field": "x,y\n1,2\x1c\n2,3\n",
        "decreasing x": "x,y\n2,1\n1,2\n",
        "one row": "# kind=decay\nx,y\n1,2\n",
        "no rows": "# kind=decay\nx,y\n",
        "unknown kind": "# kind=sideband\n1,2\n2,3\n",
        "trailing comment": "x,y\n1,2\n2,3\n# end\n",
    }

    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_edge_cases_read_as_line_by_line(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_series_csv, path) == read_outcome(read_line_by_line, path)

    @pytest.mark.parametrize("text, expected", [
        ("1,10\n2,20\n3,30", ([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], "spectrum")),
        ("# kind=decay\n1,2\n2,3\n", ([1.0, 2.0], [2.0, 3.0], "decay")),
    ], ids=["first row", "kind comment"])
    def test_a_byte_order_mark_is_no_part_of_the_first_line(self, tmp_path, text, expected):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        got = read_series_csv(path)
        assert (got.x.tolist(), got.y.tolist(), got.kind) == expected

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_any_text_reads_as_line_by_line(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_series_csv, path) == read_outcome(read_line_by_line, path)


class TestLorentzianFit:
    def test_noisy_round_trip(self):
        rng = np.random.default_rng(11)
        x = np.linspace(540, 590, 301)
        y = lorentzian(x, 565.85, 5.76, 1000.0, 20.0)
        y = y + rng.normal(0.0, 10.0, x.size)  # ~1% of peak
        fit = fit_lorentzian(series(x, y), None)
        assert fit.params["center_nm"] == pytest.approx(565.85, abs=0.05)
        assert fit.params["fwhm_nm"] == pytest.approx(5.76, rel=0.02)
        assert fit.stderr["fwhm_nm"] > 0

    def test_too_few_samples_rejected(self):
        x = np.linspace(560, 570, 5)
        with pytest.raises(SeriesError, match="8 samples"):
            fit_lorentzian(series(x, lorentzian(x, 565.0, 2.0, 10.0, 0.0)), None)

    def test_instrument_deconvolution_round_trip(self):
        # a 0.224 nm line behind a finite interferometer scan: fitting with
        # the kernel recovers the physical linewidth
        x = np.linspace(565.85 - 3.0, 565.85 + 3.0, 601)
        instrument = 3.0  # scan range, 1/nm
        y = lorentzian_with_instrument(x, 565.85, 0.224, 1000.0, 0.0, instrument)
        fit = fit_lorentzian(series(x, y), instrument)
        assert fit.params["fwhm_nm"] == pytest.approx(0.224, rel=0.03)

    def test_instrument_broadens_plain_fit(self):
        x = np.linspace(565.85 - 3.0, 565.85 + 3.0, 601)
        instrument = 3.0  # scan range, 1/nm
        y = lorentzian_with_instrument(x, 565.85, 0.224, 1000.0, 0.0, instrument)
        plain = fit_lorentzian(series(x, y), None)
        assert plain.params["fwhm_nm"] > 0.25

    def test_delta_like_instrument_matches_plain_fit(self):
        rng = np.random.default_rng(3)
        x = np.linspace(550, 580, 401)
        y = lorentzian(x, 566.0, 4.0, 500.0, 5.0) + rng.normal(0, 2.0, x.size)
        wide = fit_lorentzian(series(x, y), 1e6)
        plain = fit_lorentzian(series(x, y), None)
        for key in ("center_nm", "fwhm_nm", "amplitude", "offset"):
            assert wide.params[key] == pytest.approx(plain.params[key], rel=1e-6)

    def test_delta_kernel_convolution_is_identity(self):
        x = np.linspace(560, 572, 801)
        clean = lorentzian(x, 566.0, 1.5, 123.0, 7.0)
        conv = lorentzian_with_instrument(x, 566.0, 1.5, 123.0, 7.0, 1e9)
        assert np.max(np.abs(conv - clean)) < 1e-9 * 123.0

    def test_kernel_has_unit_weight(self):
        kern = specfit_module._sinc2_kernel(2.5, 0.01, 600)
        assert kern.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 301, 2990, 8001])
    @pytest.mark.parametrize("scan_range", [0.05, 3.0, 1e6])
    def test_convolution_is_the_direct_one(self, n, scan_range):
        # the kernel on the grid's mean spacing, as the convolution takes it
        # (x[1] - x[0] of this grid alone moves the result by up to 4e-12)
        x = 560.0 + 0.004 * np.arange(n)
        x_pad, convolve = specfit_module._instrument(x, scan_range)
        kern = specfit_module._sinc2_kernel(
            scan_range, specfit_module._uniform_spacing(x, "reference"), n)
        pad = len(kern) // 2
        rows = np.stack([lorentzian(x_pad, x[n // 2] + shift * (x[-1] - x[0]), fwhm, 1.0, 0.0)
                         for shift, fwhm in ((0.0, 0.05), (0.3, 1.3), (-0.45, 0.2))])
        direct = np.array([np.convolve(row, kern, mode="same")[pad:pad + n] for row in rows])
        got = convolve(rows)
        assert np.abs(got - direct).max() <= 1e-14 * np.abs(direct).max()
        # a row of the (3, N) stack is the row alone, bit for bit
        for row, stacked in zip(rows, got):
            assert np.array_equal(convolve(row), stacked)

    def test_convolution_has_the_same_bits_under_every_blas_kernel(self):
        # the BLAS kernels of ROADMAP item 12, each set in a child's
        # environment only: the convolution calls no BLAS routine
        from test_config_cli import _child_env  # which imports this module
        code = ("import hashlib\n"
                "import numpy as np\n"
                "from spskit import specfit\n"
                "x = 560.0 + 0.004 * np.arange(2990)\n"
                "x_pad, convolve = specfit._instrument(x, 0.37)\n"
                "rows = np.stack([specfit.lorentzian(x_pad, 566.0 + s, 1.3, 1.0, 0.0)\n"
                "                 for s in (0.0, 0.7)])\n"
                "print(hashlib.sha256(convolve(rows).tobytes()).hexdigest())\n")
        digests = []
        for coretype in (None, "Haswell", "Prescott"):
            env = _child_env()
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            digests.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True, env=env).stdout)
        assert len(digests[0]) == 65 and digests[1:] == digests[:1] * 2

    @pytest.mark.parametrize("scan_range", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_scan_range_rejected_first(self, scan_range):
        # checked before the sample count: five samples would fail that too
        x = np.linspace(560, 570, 5)
        with pytest.raises(SeriesError, match="scan range must be positive and finite"):
            fit_lorentzian(series(x, lorentzian(x, 565.0, 2.0, 10.0, 0.0)), scan_range)

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(4)
        x = np.linspace(540, 590, 301)
        y = lorentzian(x, 565.85, 5.76, 1000.0, 20.0) + rng.normal(0, 10.0, x.size)
        with pytest.raises(FitError) as excinfo:
            fit_lorentzian(series(x, y), None)
        assert "center_nm" in excinfo.value.last_params

    @pytest.mark.parametrize("bounds", [None, ([0.0], [np.inf])])
    def test_budget_counts_every_residual_evaluation(self, monkeypatch, bounds):
        # the cap is MAX_ITERATIONS evaluations, one basis call at one trial
        # point each (the Jacobian takes none), bounded or not (the bounded
        # fit also holds its amplitude at or above 0)
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", 2)
        x = np.linspace(0.0, 5.0, 50)
        y = 3.0 * np.exp(-x / 1.5)
        evaluations = []

        def basis(xv, tau):
            evaluations.append(tau)
            return EXP_DECAY.basis(xv, tau)

        fit = EXP_DECAY._replace(basis=basis)
        with pytest.raises(FitError) as excinfo:
            specfit_module._one(specfit_module._run_fit_batch(
                fit, x, y[None], [[8.0]], bounds=bounds,
                constraints=None if bounds is None else ([[1.0]], [0.0])))
        assert len(evaluations) == 2
        assert set(excinfo.value.last_params) == {"amp", "tau"}

    def test_report_has_parenthetical_format(self):
        rng = np.random.default_rng(11)
        x = np.linspace(540, 590, 301)
        y = lorentzian(x, 565.85, 5.76, 1000.0, 20.0) + rng.normal(0.0, 10.0, x.size)
        fit = fit_lorentzian(series(x, y), None)
        formatted = fit.as_dict()["formatted"]
        assert "(" in formatted["fwhm_nm"] and formatted["fwhm_nm"].endswith(")")


class TestUncertaintyFormat:
    @pytest.mark.parametrize("value,err,expected", [
        (897.3, 8.2, "897(8)"),
        (366.2, 19.0, "366(19)"),
        (565.851, 0.05, "565.85(5)"),
        (0.904, 0.009, "0.904(9)"),
        (1234.0, 160.0, "1230(160)"),
    ])
    def test_known_cases(self, value, err, expected):
        assert format_with_uncertainty(value, err) == expected

    def test_degenerate_error_falls_back(self):
        assert format_with_uncertainty(3.5, 0.0) == "3.5"


class TestDecayFit:
    def make_decay(self, lifetime, irf_fwhm=100.0, peak=8000.0, noise=True, seed=5):
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, 10000.0, 8.0)
        irf = np.exp(-0.5 * ((t - 400.0) / (irf_fwhm / 2.3548)) ** 2)
        clean = peak * convolve_decay(t, lifetime, irf)
        counts = rng.poisson(clean).astype(float) if noise else clean
        return series(t, counts, "decay"), series(t, irf, "decay")

    def test_paper_lifetime_round_trip(self):
        decay, irf = self.make_decay(897.0)
        fit = fit_decay_with_irf(decay, irf)
        assert fit.params["lifetime_ps"] == pytest.approx(897.0, rel=0.02)

    def test_cavity_lifetime_round_trip(self):
        decay, irf = self.make_decay(366.0)
        fit = fit_decay_with_irf(decay, irf)
        assert fit.params["lifetime_ps"] == pytest.approx(366.0, rel=0.03)

    def test_start_within_five_percent_of_each_lifetime(self, monkeypatch):
        # reproduce's 100 draws: the first-moment start, the counts' mean
        # delay less the IRF's; a fifth of the window was 20 %-968 % off
        draws = [draw["decay"] for draw in fit_roundtrip_draws(range(100))]
        starts = []
        monkeypatch.setattr(specfit_module, "_run_fit_batch",
                            lambda fit, x, y, theta0, **kw: starts.extend(np.ravel(theta0)) or [])
        specfit_module.fit_decay_with_irf_batch([d[0] for d in draws], [d[1] for d in draws])
        truths = np.array([d[2]["lifetime"] for d in draws])
        assert len(starts) == 100
        assert np.abs(np.array(starts) / truths - 1.0).max() < 0.05

    def test_delta_irf_noiseless_is_exact(self):
        t = np.arange(0.0, 6000.0, 10.0)
        irf = np.zeros_like(t)
        irf[0] = 1.0
        clean = 5000.0 * np.exp(-t / 750.0)
        fit = fit_decay_with_irf(series(t, clean, "decay"), series(t, irf, "decay"))
        assert fit.params["lifetime_ps"] == pytest.approx(750.0, rel=1e-6)

    def test_grid_scale_lifetime_warns(self):
        t = np.arange(0.0, 3000.0, 100.0)
        irf = np.zeros_like(t)
        irf[0] = 1.0
        clean = 5000.0 * np.exp(-t / 60.0)  # below the 100 ps bin width
        with pytest.warns(UserWarning, match="ill-conditioned"):
            fit = fit_decay_with_irf(series(t, clean, "decay"), series(t, irf, "decay"))
        assert fit.warnings

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 8192), log_ratio=st.floats(math.log(0.01), math.log(5000.0)),
           dt=st.floats(0.5, 50.0), lead=st.floats(0.0, 0.5), trail=st.floats(0.0, 0.49),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=8192, log_ratio=math.log(5000.0), dt=16.0, lead=0.0, trail=0.0, seed=1)
    @example(n=8192, log_ratio=math.log(0.01), dt=16.0, lead=0.3, trail=0.3, seed=2)
    @example(n=257, log_ratio=math.log(8.0), dt=1.0, lead=0.0, trail=0.2, seed=3)
    def test_recursion_matches_direct_convolution(self, n, log_ratio, dt, lead, trail, seed):
        # tau/dt from 0.01 to 5000: factors a^s from underflow to near 1,
        # over up to 13 doubling steps
        rng = np.random.default_rng(seed)
        t = dt * np.arange(n)
        irf = rng.random(n)
        irf[: int(lead * n)] = 0.0
        irf[n - int(trail * n):] = 0.0 if int(trail * n) else irf[n:]
        lifetime = dt * math.exp(log_ratio)
        expected = reference_decay(t, lifetime, irf)
        got = convolve_decay(t, lifetime, irf)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        # a non-negative IRF gives no negative value, not even by round-off
        assert np.all(got >= 0.0)
        # a row of a stack, beside rows of other lifetimes, is the single
        # call in every bit, the sign of a zero included
        other = rng.random(n)
        stack = convolve_decay(t, np.array([[3.0 * lifetime], [lifetime], [lifetime / 7.0]]),
                               np.stack([other, irf, other]))
        assert stack[1].tobytes() == got.tobytes()

    def test_irf_resampled_onto_data_grid(self):
        decay, irf = self.make_decay(897.0)
        t_irf = np.asarray(irf.x)[::2]
        y_irf = np.asarray(irf.y)[::2]
        fit = fit_decay_with_irf(decay, series(t_irf, y_irf, "decay"))
        assert fit.params["lifetime_ps"] == pytest.approx(897.0, rel=0.03)


class TestTenthPercentile:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300), min_size=8, max_size=300),
           n=st.integers(8, 8001), seed=st.integers(0, 2 ** 32 - 1),
           decimals=st.one_of(st.none(), st.integers(0, 2)))
    def test_same_bits_as_numpy(self, values, n, seed, decimals):
        # hypothesis's own values, and n random ones, rounded for ties
        y = np.random.default_rng(seed).normal(100.0, 30.0, n)
        for data in (np.array(values), y if decimals is None else np.round(y, decimals)):
            assert specfit_module._tenth_percentile(data) == np.percentile(data, 10)


def unpooled_fit_g2(correlation) -> FitResult:
    """``fit_g2`` on every sample of the correlation, as before pooling."""
    tau, y, w, p0, lower, upper = g2fit_module._g2_start(correlation)
    cons = g2fit_module._G2_BOX
    fits = [specfit_module._run_fit_batch(
        model, tau, y[None], [p0[:m]], weights=None if w is None else w[None],
        bounds=([lower[:m]], [upper[:m]]), constraints=box)[0]
        for model, m, box in ((g2fit_module._G2_WITH_BUNCHING, 2, cons),
                              (g2fit_module._G2_PLAIN, 1, (cons[0][:3, :2], cons[1][:3])))]
    return g2fit_module._g2_choose(*fits, tau)


class TestG2Fit:
    def synthetic(self, anti, bunch, t1, t2=6000.0, baseline=140.0, noise=0.0, seed=2):
        rng = np.random.default_rng(seed)
        tau = np.linspace(-30000.0, 30000.0, 1201)
        g2 = g2_model(tau, anti, bunch, t1, t2) * baseline
        if noise:
            g2 = g2 + rng.normal(0.0, noise * baseline, tau.size)
        return series(tau, g2, "correlation")

    def test_free_space_dip(self):
        fit = fit_g2(self.synthetic(0.949, 0.0, 837.0, noise=0.004))
        assert fit.params["g2_zero"] == pytest.approx(0.051, abs=0.01)
        assert fit.params["antibunching_time_ps"] == pytest.approx(837.0, rel=0.05)

    def test_cavity_dip(self):
        fit = fit_g2(self.synthetic(0.982, 0.0, 366.0, noise=0.003))
        assert fit.params["g2_zero"] == pytest.approx(0.018, abs=0.01)

    def test_perfect_antibunching(self):
        fit = fit_g2(self.synthetic(1.0, 0.0, 500.0))
        assert fit.params["g2_zero"] == pytest.approx(0.0, abs=1e-6)

    def test_identity_holds_exactly(self):
        p = fit_g2(self.synthetic(0.9, 0.08, 700.0, noise=0.005)).params
        assert p["g2_zero"] == 1.0 - p["antibunching_amplitude"] + p["bunching_amplitude"]

    def test_model_returns_to_unity_at_long_delay(self):
        p = fit_g2(self.synthetic(0.9, 0.05, 700.0)).params
        far = g2_model(np.array([1e9]), p["antibunching_amplitude"], p["bunching_amplitude"],
                       p["antibunching_time_ps"], p["bunching_time_ps"])
        assert far[0] == pytest.approx(1.0, abs=1e-9)

    def test_successive_batches_on_other_grids_fit_as_alone(self, monkeypatch):
        # two grids of one length and span with the same starting times (a
        # dip faster than the sampling starts at span/200; the bunching time
        # starts at a moment of each grid's samples, so grid b is handed grid
        # a's): an exponential computed on one grid must never serve the other
        u = np.linspace(-1.0, 1.0, 1201)
        grids = [30000.0 * u, 30000.0 * np.sinh(2.0 * u) / np.sinh(2.0)]
        noise = np.random.default_rng(4).uniform(-0.01, 0.01, u.size)
        a, b = (series(tau, g2_model(tau, 0.9, 0.05, 50.0, 6000.0) + noise, "correlation")
                for tau in grids)
        g2_start, start_a = g2fit_module._g2_start, g2fit_module._g2_start(a)[3]
        monkeypatch.setattr(g2fit_module, "_g2_start",
                            lambda s: (*g2_start(s)[:3], start_a, *g2_start(s)[4:]))
        starts = [g2fit_module._g2_start(s)[3] for s in (a, b)]
        assert starts[0] == starts[1]
        fit_b = fit_g2_batch([b])
        assert fit_g2_batch([b]) == fit_b
        fit_a = fit_g2_batch([a])
        assert fit_g2_batch([b]) == fit_b
        assert fit_g2_batch([a]) == fit_a

    def test_bunching_time_starts_within_its_bounds(self):
        # the moment start of t2 on reproduce's 100 draws, and on noisy
        # correlations without bunching, whose excess may be of either sign
        correlations = [draw["correlation"][0] for draw in fit_roundtrip_draws(range(100))]
        correlations += [self.synthetic(0.9, 0.0, 500.0, noise=0.01, seed=s) for s in range(10)]
        for correlation in correlations:
            *_, start, lower, upper = g2fit_module._g2_start(correlation)
            assert lower[1] <= start[1] <= upper[1]

    @pytest.mark.parametrize("t1", [500.0, 20000.0])
    def test_bunching_time_start_falls_back_to_the_geometric_mean(self, t1):
        # without bunching the excess beyond 5 t1 is nowhere positive; a
        # 20 ns dip leaves no delay beyond 5 t1 in the 30 ns window
        tau, _, _, start, lower, upper = g2fit_module._g2_start(self.synthetic(0.9, 0.0, t1))
        assert (np.abs(tau) >= 5.0 * start[0]).any() == (t1 == 500.0)
        assert start[1] == math.sqrt(lower[1] * upper[1])

    def test_one_delay_grid_per_batch(self):
        # pooling takes one grid: two grids of one length and span are
        # rejected, not fitted apart
        u = np.linspace(-1.0, 1.0, 1201)
        a, b = (series(tau, g2_model(tau, 0.9, 0.05, 50.0, 6000.0), "correlation")
                for tau in (30000.0 * u, 30000.0 * np.sinh(2.0 * u) / np.sinh(2.0)))
        with pytest.raises(SeriesError, match="one delay grid"):
            fit_g2_batch([a, b])

    @pytest.mark.parametrize("plain", [False, True])
    def test_start_holding_the_antibunching_amplitude_at_zero(self, plain):
        # from t1 = 1e5 ps, twice the window, the constraint A >= 0 holds A
        # at 0 and the projected cost does not depend on t1; the fit must
        # still reach the optimum it reaches from the true times
        tau = np.linspace(-50000.0, 50000.0, 801)
        y = np.random.default_rng(5).poisson(
            200.0 * g2_model(tau, 0.7, 0.4, 2000.0, 15000.0)).astype(float)
        fit = g2fit_module._G2_PLAIN if plain else g2fit_module._G2_WITH_BUNCHING
        cons = g2fit_module._G2_BOX
        cons = (cons[0][:3, :2], cons[1][:3]) if plain else cons
        m = 1 if plain else 2

        def solve(theta0):
            return specfit_module._one(specfit_module._run_fit_batch(
                fit, tau, y[None], [theta0[:m]], weights=specfit_module.poisson_weights(y)[None],
                bounds=([1e-9, 9000.0][:m], [np.inf, 1e5][:m]), constraints=cons))

        got, ref = solve([1e5, 30000.0]), solve([2000.0, 15000.0])
        assert got.params["antibunching_amplitude"] > 0.3
        assert got.residual_norm == pytest.approx(ref.residual_norm, rel=1e-9)
        # the reference fit's standard errors as the forward-difference
        # Jacobian gave them, rounded down: the scale of the tolerance
        stderr = ({"antibunching_amplitude": 0.0482, "antibunching_time_ps": 134.1,
                   "normalization": 0.759} if plain else
                  {"antibunching_amplitude": 0.0356, "bunching_amplitude": 0.0305,
                   "antibunching_time_ps": 212.9, "bunching_time_ps": 2368.0,
                   "normalization": 2.509})
        for name, value in ref.params.items():
            assert got.params[name] == pytest.approx(value, rel=1e-5, abs=1e-4 * stderr[name])

    @settings(max_examples=30, deadline=None)
    @given(grid=st.sampled_from(["odd", "even", "asymmetric"]), n=st.integers(150, 800),
           counts=st.booleans(), anti=st.floats(0.6, 1.0), bunch=st.floats(0.0, 0.15),
           t1=st.floats(300.0, 1200.0), t2=st.floats(4000.0, 9000.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pooled_fit_is_the_fit_on_every_sample(self, grid, n, counts, anti, bunch, t1, t2,
                                                   seed):
        # symmetric grids with and without tau = 0 pool +-tau pairs; the
        # asymmetric one pools nothing. Counts take Poisson weights.
        tau = {"odd": np.linspace(-30000.0, 30000.0, 2 * n + 1),
               "even": np.linspace(-30000.0, 30000.0, 2 * n),
               "asymmetric": np.linspace(-20000.0, 30000.0, 2 * n)}[grid]
        rng = np.random.default_rng(seed)
        clean = g2_model(tau, anti, bunch, t1, t2)
        y = (rng.poisson(200.0 * clean).astype(float) if counts
             else clean + rng.uniform(-0.01, 0.01, tau.size))
        correlation = series(tau, y, "correlation")
        got, ref = fit_g2(correlation), unpooled_fit_g2(correlation)
        assert got.model == ref.model
        for name in G2_PARAMETERS:
            assert got.params[name] == pytest.approx(ref.params[name], rel=1e-6), name
        for name, value in ref.stderr.items():
            assert got.stderr[name] == pytest.approx(value, rel=1e-4), name
        # the reported norm is the full series' residual at the fitted values
        w = specfit_module.poisson_weights(y) if counts else 1.0
        p = got.params
        full = p["normalization"] * g2_model(tau, p["antibunching_amplitude"],
                                             p["bunching_amplitude"], p["antibunching_time_ps"],
                                             p["bunching_time_ps"])
        assert got.residual_norm == pytest.approx(np.linalg.norm(w * (full - y)), rel=1e-9)

    def test_short_tails_rejected(self):
        tau = np.linspace(-500.0, 500.0, 9)
        g2 = g2_model(tau, 0.9, 0.0, 400.0, 5000.0)
        with pytest.raises(SeriesError, match="tails too short"):
            fit_g2(series(tau, g2, "correlation"))


class TestBackgroundCorrection:
    def test_infinite_snr_is_identity(self):
        assert correct_g2_background(0.37, math.inf) == pytest.approx(0.37, rel=1e-12)

    def test_hand_evaluated_example(self):
        # rho = 0.9: (0.5 - 0.19)/0.81
        assert correct_g2_background(0.5, 9.0) == pytest.approx(0.3827, abs=1e-4)

    def test_zero_snr_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            correct_g2_background(0.5, 0.0)

    def test_high_snr_correction_is_negligible(self):
        # for the measured dip the correction stays below 5e-5 once the
        # signal-to-noise ratio reaches the 4e4 class
        g2 = 0.018
        assert abs(correct_g2_background(g2, 4e4) - g2) < 5e-5

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-9),
           st.floats(min_value=0.0, max_value=1.5))
    def test_exact_inverse_of_mixing_map(self, rho, g2_true):
        snr = rho / (1.0 - rho)
        mixed = rho ** 2 * g2_true + (1.0 - rho ** 2)
        assert abs(correct_g2_background(mixed, snr) - g2_true) < 1e-9


class TestPolarizationFit:
    def test_paper_dop_round_trip(self):
        rng = np.random.default_rng(9)
        theta = np.linspace(0.0, 360.0, 73)
        dop = 0.904
        a = 900.0 * dop
        b = a * (1.0 - dop) / (2.0 * dop)
        y = cos2_model(theta, a, 37.0, b) + rng.normal(0.0, 1.5, theta.size)
        fit = fit_polarization(series(theta, y, "polarization"))
        assert fit.params["degree_of_polarization"] == pytest.approx(dop, rel=0.01)
        assert fit.params["axis_deg"] == pytest.approx(37.0, abs=1.0)

    def test_constant_signal_flags_flat(self):
        theta = np.linspace(0.0, 360.0, 37)
        fit = fit_polarization(series(theta, np.full_like(theta, 55.0), "polarization"))
        assert fit.params["degree_of_polarization"] == 0.0
        assert any("flat" in w for w in fit.warnings)

    def test_fully_polarized(self):
        theta = np.linspace(0.0, 270.0, 55)
        y = cos2_model(theta, 450.0, 120.0, 0.0)
        fit = fit_polarization(series(theta, y, "polarization"))
        assert fit.params["degree_of_polarization"] == pytest.approx(1.0, abs=1e-6)

    def test_axis_starting_at_zero(self):
        # the brightest sample sits at 0 degrees, one degree off the axis
        theta = np.linspace(0.0, 360.0, 73)
        y = cos2_model(theta, 700.0, 1.0, 50.0)
        fit = fit_polarization(series(theta, y, "polarization"))
        assert fit.params["axis_deg"] == pytest.approx(1.0, abs=1e-6)
        assert fit.params["degree_of_polarization"] == pytest.approx(700.0 / 800.0, rel=1e-9)

    def test_short_span_rejected(self):
        theta = np.linspace(0.0, 120.0, 25)
        with pytest.raises(SeriesError, match="180"):
            fit_polarization(series(theta, np.cos(theta) ** 2, "polarization"))


class TestZplFraction:
    @staticmethod
    def line(params):
        return FitResult(params, {}, 0.0, 0, True)

    def make_spectrum(self, zpl_share=0.632):
        # line at 565.85 plus a red-shifted band carrying the rest, on the
        # 545-579 nm band that the 580 nm cutoff leaves whole
        x = np.linspace(545.0, 579.0, 681)
        zpl_fwhm = 5.76
        zpl_area_target = 100.0 * zpl_share
        # area of peak-normalized Lorentzian = amplitude * pi * fwhm / 2
        amp = zpl_area_target / (math.pi * zpl_fwhm / 2.0)
        y = lorentzian(x, 565.85, zpl_fwhm, amp, 0.0)
        psb_area = 100.0 - zpl_area_target
        psb_amp = psb_area / (math.pi * 6.0 / 2.0)
        y = y + lorentzian(x, 573.5, 6.0, psb_amp, 0.0)
        return series(x, y), self.line(
            {"center_nm": 565.85, "fwhm_nm": zpl_fwhm, "amplitude": amp})

    def test_split_spectrum(self):
        spect, line = self.make_spectrum(0.632)
        frac = zpl_fraction(spect, line, cutoff_nm=580.0)
        # both lines lose tail weight outside the band; the split survives
        assert frac == pytest.approx(0.632, abs=0.03)

    def test_pure_line_is_unity(self):
        x = np.linspace(500.0, 640.0, 1401)
        amp = 100.0
        y = lorentzian(x, 565.85, 5.76, amp, 0.0)
        frac = zpl_fraction(series(x, y), self.line({"center_nm": 565.85, "fwhm_nm": 5.76,
                                                     "amplitude": amp}),
                            cutoff_nm=640.0)
        assert frac == pytest.approx(1.0, abs=0.02)

    def test_band_excluding_line_is_near_zero(self):
        spect, line = self.make_spectrum()
        x, y = spect.as_arrays()
        frac = zpl_fraction(series(x[x >= 572.0], y[x >= 572.0]), line,
                            cutoff_nm=580.0)
        assert frac < 0.25

    def test_empty_band_rejected(self):
        # a cutoff below the series start leaves no band
        spect, line = self.make_spectrum()
        with pytest.raises(SeriesError, match="empty"):
            zpl_fraction(spect, line, cutoff_nm=540.0)

    def test_default_band_uses_contaminant_cutoff(self):
        spect, line = self.make_spectrum(0.632)
        frac = zpl_fraction(spect, line, cutoff_nm=580.0)
        assert 0.5 < frac < 0.75


# The box of the named linear parameters that the fitters' constraints on
# their coefficients encode; every other one is free.
LINEAR_BOX = {"antibunching_amplitude": (0.0, 2.0), "bunching_amplitude": (0.0, 2.0),
              "normalization": (1e-12, np.inf)}


def pinv_stderr(jac, residual, names) -> dict[str, float]:
    """Standard errors from the pseudo-inverse of the unscaled J^T J, the
    formula that set the scale of the tolerances below."""
    m, n = jac.shape
    s_sq = float(residual @ residual) / max(m - n, 1)
    errs = np.sqrt(np.clip(np.diag(np.linalg.pinv(jac.T @ jac) * s_sq), 0.0, None))
    return dict(zip(names, (float(e) for e in errs)))


def full_model(fit, m: int):
    """The model of a ``Separable`` in its named parameters, m of them nonlinear."""
    if fit is g2fit_module._G2_WITH_BUNCHING:
        return lambda tv, anti, bunch, t1, t2, level: level * g2_model(tv, anti, bunch, t1, t2)
    if fit is g2fit_module._G2_PLAIN:
        return lambda tv, anti, t1, level: level * g2_model(tv, anti, 0.0, t1, 1.0)
    return lambda x, *p: sum(map(np.multiply, p[m:], fit.basis(x, *p[:m])))


def scipy_run_fit(fit, x, y, theta0, weights=None, bounds=None) -> FitResult:
    """Reference solver on the full model in every named parameter: scipy's
    MINPACK 'lm' without bounds and 'trf' with them, at the tolerances and
    scaling the fits used with scipy. It starts from theta0 and the
    coefficients that solve the linear least squares there, within the
    box of theta and of ``LINEAR_BOX``."""
    w = np.ones_like(y) if weights is None else weights
    columns = np.broadcast_arrays(*fit.basis(x, *theta0), y)[:-1]
    coef = np.linalg.lstsq(np.transpose(columns) * w[:, None], y * w, rcond=None)[0]
    p0 = fit.params(np.array([theta0]), coef[None])[0][0]
    lower, upper = (np.array([LINEAR_BOX.get(name, (-np.inf, np.inf))[side] for name in fit.names])
                    for side in (0, 1))
    if bounds is not None:
        at = [list(p0).index(t) for t in theta0]
        lower[at], upper[at] = bounds
    box = None if np.isinf(lower).all() and np.isinf(upper).all() else (lower, upper)

    model = full_model(fit, len(theta0))

    def residuals(p):
        return (model(x, *p) - y) * w

    kwargs = dict(xtol=specfit_module.STEP_TOLERANCE, ftol=1e-12, gtol=1e-12,
                  max_nfev=specfit_module.MAX_ITERATIONS * (len(p0) + 1))
    if box is None:
        result = least_squares(residuals, p0, method="lm", x_scale="jac", **kwargs)
    else:
        result = least_squares(residuals, np.clip(p0, lower, upper), method="trf", bounds=box,
                               x_scale=1.0, **kwargs)
    assert result.success, result.message
    return FitResult(
        params=dict(zip(fit.names, (float(v) for v in result.x))),
        stderr=pinv_stderr(result.jac, result.fun, fit.names),
        residual_norm=float(np.linalg.norm(result.fun)),
        n_evaluations=int(result.nfev),
        converged=True,
    )


def scipy_polarization(scan) -> tuple:
    """Reference polarization fit: scipy's MINPACK 'lm' on the cos^2 model
    from the brightest sample; (parameters with the DOP, stderr, norm)."""
    theta, y = scan.as_arrays()
    result = least_squares(lambda p: cos2_model(theta, *p) - y,
                           [np.ptp(y), theta[np.argmax(y)] % 180.0, y.min()], method="lm",
                           x_scale="jac", xtol=specfit_module.STEP_TOLERANCE, ftol=1e-12,
                           gtol=1e-12)
    assert result.success, result.message
    names = ["amplitude", "axis_deg", "offset"]
    a, axis, b = result.x
    if a < 0.0:  # the same curve, with the axis a quarter turn on
        a, axis, b = -a, axis + 90.0, b + a
    params = {"amplitude": a, "axis_deg": axis % 180.0, "offset": b,
              "degree_of_polarization": a / (a + 2.0 * max(b, 0.0))}
    return (params, pinv_stderr(result.jac, result.fun, names),
            float(np.linalg.norm(result.fun)))


def one_by_one(run_fit):
    """A stand-in for ``specfit._run_fit_batch`` that solves each problem of
    the batch alone with ``run_fit``; a pooled problem's pure error is
    added to its residual norm."""
    def run_batch(fit, x, y, theta0, weights=None, bounds=None, constraints=None, pooled=None,
                  uncertainties=True):
        x, y, theta0 = (np.asarray(v, dtype=float) for v in (x, y, theta0))
        outcomes = []
        for i in range(len(y)):
            w = None if weights is None else np.broadcast_to(weights, y.shape)[i]
            box = None if bounds is None else tuple(
                np.broadcast_to(np.asarray(b, dtype=float), theta0.shape)[i] for b in bounds)
            outcomes.append(run_fit(fit, x if x.ndim == 1 else x[i], y[i], list(theta0[i]),
                                    w, box))
            if pooled is not None:
                outcomes[-1] = outcomes[-1]._replace(residual_norm=math.hypot(
                    outcomes[-1].residual_norm, math.sqrt(pooled[0][i])))
        return outcomes
    return run_batch


G2_PARAMETERS = ("antibunching_amplitude", "bunching_amplitude", "antibunching_time_ps",
                 "bunching_time_ps", "normalization")


def fit_draw(kind, draw):
    """Fit one round-trip draw of ``kind``: (parameters, stderr, residual norm, model)."""
    if kind == "spectrum":
        fit = fit_lorentzian(draw["spectrum"][0], None)
    elif kind == "decay":
        fit = fit_decay_with_irf(*draw["decay"][:2])
    elif kind == "polarization":
        fit = fit_polarization(draw["polarization"][0])
    else:
        fit = fit_g2(draw["correlation"][0])
        return ({k: fit.params[k] for k in G2_PARAMETERS}, fit.stderr, fit.residual_norm,
                fit.model)
    return fit.params, fit.stderr, fit.residual_norm, fit.model


@pytest.fixture(scope="module")
def roundtrip_draws():
    return fit_roundtrip_draws(range(20))


class TestSolverMatchesScipy:
    """The numpy Levenberg-Marquardt solver lands where scipy's does on the
    reproduction's seeded round-trip draws of every series kind."""

    @pytest.mark.parametrize("kind", ["spectrum", "decay", "correlation", "polarization"])
    def test_same_fit_as_scipy(self, monkeypatch, roundtrip_draws, kind):
        # the separable fits against scipy on the full model; the closed-form
        # polarization fit against scipy's Levenberg-Marquardt one
        for draw in roundtrip_draws:
            params, _, norm, model = fit_draw(kind, draw)
            if kind == "polarization":
                ref_params, ref_stderr, ref_norm = scipy_polarization(draw["polarization"][0])
                ref_model = None
                assert params["degree_of_polarization"] == pytest.approx(
                    ref_params["degree_of_polarization"], rel=1e-9)
            else:
                solved = []

                def counted_scipy_run_fit(*args):
                    solved.append(args[0].names)
                    return scipy_run_fit(*args)

                with monkeypatch.context() as patch:
                    patch.setattr(specfit_module, "_run_fit_batch",
                                  one_by_one(counted_scipy_run_fit))
                    ref_params, ref_stderr, ref_norm, ref_model = fit_draw(kind, draw)
                # the reference ran once per fit: a g2 fit fits two models
                assert len(solved) == (2 if kind == "correlation" else 1)
            assert norm == pytest.approx(ref_norm, rel=1e-9)
            assert model == ref_model
            for name, ref in ref_params.items():
                # relative, or a small share of the standard error for a
                # parameter the data leave near zero (a Lorentzian offset)
                tolerance = 1e-5 * abs(ref) + 1e-4 * ref_stderr.get(name, 0.0)
                assert abs(params[name] - ref) <= tolerance, (name, params[name], ref)

    @settings(max_examples=60, deadline=None)
    @given(amp=st.floats(0.1, 10.0), tau=st.floats(0.2, 5.0),
           amp_box=st.tuples(st.floats(0.05, 10.0), st.floats(0.0, 5.0)),
           tau_box=st.tuples(st.floats(0.05, 5.0), st.floats(0.0, 5.0)),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_bounded_fit_stays_in_bounds(self, amp, tau, amp_box, tau_box, start):
        x = np.linspace(0.0, 5.0, 40)
        y = amp * np.exp(-x / tau)
        lower = np.array([amp_box[0], tau_box[0]])
        upper = lower + np.array([amp_box[1], tau_box[1]])
        p0 = lower + np.array(start) * (upper - lower)

        try:
            # tau is the nonlinear parameter, the amplitude box C c >= d
            params = specfit_module._one(specfit_module._run_fit_batch(
                EXP_DECAY, x, y[None], [p0[1:]], bounds=(lower[1:], upper[1:]),
                constraints=([[1.0], [-1.0]], [lower[0], -upper[0]]))).params
        except FitError as exc:
            params = exc.last_params
        values = np.array([params["amp"], params["tau"]])
        assert np.all(values >= lower) and np.all(values <= upper), (values, lower, upper)


def decay_with_offset(xv, amp, tau, off):
    return amp * np.exp(-xv / tau) + off


# amp and off are the coefficients of exp(-x/tau) and 1
DECAY_WITH_OFFSET = specfit_module.Separable(
    lambda xv, tau: (np.exp(-xv / tau), 1.0), EXP_DECAY.derivatives, ["tau", "amp", "off"])


# c (cos s, sin s) fitted to (1, 0), s = max(theta, 1)^2: the cost sin^2 s,
# flat below theta = 1, with column norms 2 theta growing in theta
ROTATION = specfit_module.Separable(
    lambda xv, theta: (np.cos(np.maximum(theta, 1.0) ** 2 - xv * np.pi / 2.0),),
    lambda xv, cols, theta: ((0, -np.sin(np.maximum(theta, 1.0) ** 2 - xv * np.pi / 2.0)
                              * np.where(theta > 1.0, 2.0 * theta, 0.0)),),
    ["theta", "c"])


class TestSecantCurvature:
    """A fit of one nonlinear parameter takes the secant slope of J^T r
    between its last two accepted points in place of J^T J."""

    def test_plain_g2_fit_of_draw_1_takes_fewer_evaluations(self, monkeypatch,
                                                             roundtrip_draws):
        run = specfit_module._run_fit_batch
        plain = []

        def recorded(fit, *args, **kwargs):
            outcomes = run(fit, *args, **kwargs)
            if fit is g2fit_module._G2_PLAIN:
                plain.extend(outcomes)
            return outcomes

        monkeypatch.setattr(specfit_module, "_run_fit_batch", recorded)
        fit_g2_batch([roundtrip_draws[1]["correlation"][0]])
        # J's own singular value: the Gauss-Newton curvature
        monkeypatch.setattr(lsq, "_secant_curvature", lambda h, scale, sv: sv)
        fit_g2_batch([roundtrip_draws[1]["correlation"][0]])
        secant, gauss_newton = plain
        assert secant.n_evaluations < gauss_newton.n_evaluations
        # within the tolerance of TestSolverMatchesScipy
        for name, ref in gauss_newton.params.items():
            tolerance = 1e-5 * abs(ref) + 1e-4 * gauss_newton.stderr[name]
            assert abs(secant.params[name] - ref) <= tolerance, name
        assert secant.residual_norm == pytest.approx(gauss_newton.residual_norm, rel=1e-9)

    def test_a_restart_clears_the_secant_pair(self):
        # from theta = 1.25 the fit descends into the flat region, its last
        # secant pair taken near theta = 1, and restarts from the best of its
        # samples far above, where a stale pair would give a positive secant
        # slope; from there it goes on as a fresh fit does, whose scale is the
        # same, the column norm there exceeding every earlier one
        seen = []

        def fit(theta0):
            return specfit_module._one(specfit_module._run_fit_batch(
                ROTATION._replace(basis=lambda xv, theta: seen.append(float(theta))
                                  or ROTATION.basis(xv, theta)),
                np.array([0.0, 1.0]), [[1.0, 0.0]], [[theta0]], bounds=([0.1], [100.0])))

        restarted = fit(1.25)
        flat = next(theta for theta in seen if theta < 1.0)
        samples = [min(max(flat * 4.0 ** k, 0.1), 100.0) for k in range(-6, 7) if k]
        start = min(samples, key=lambda theta: math.sin(max(theta, 1.0) ** 2) ** 2)
        assert start > 50.0
        fresh = fit(start)
        assert (restarted.params, restarted.residual_norm) == (fresh.params, fresh.residual_norm)


class TestLockstepSolver:
    """A problem solved in a batch gets the bits it gets alone."""

    @staticmethod
    def problems():
        x = np.linspace(0.0, 6.0, 60)
        truths = [(3.0, 1.5, 0.2), (2.0, 0.7, -0.1), (5.0, 2.5, 0.0), (1.0, 1.0, 0.5),
                  (4.0, 0.3, 0.1), (2.5, 4.0, 0.3)]
        rng = np.random.default_rng(17)
        y = np.array([decay_with_offset(x, *truth) + rng.normal(0.0, 0.01, x.size)
                      for truth in truths])
        # problem 1 starts at tau = 3, where amp and off are both held on
        # their bounds 0 and the projected cost does not depend on tau
        p0 = np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 0.0], [9.0, 0.5, 1.0], [0.5, 0.5, 0.0],
                       [0.2, 8.0, -1.0], [1.0, 1.0, 0.0]])
        # per-problem boxes: problem 1 ends with its offset on the lower
        # bound 0, problem 3 on its own upper bound 0.4
        lower = np.array([[0.0, 0.1, -1.0], [0.0, 0.1, 0.0], [0.0, 0.1, -1.0],
                          [0.0, 1.2, -1.0], [0.0, 0.1, -1.0], [0.0, 0.1, -1.0]])
        upper = np.array([[10.0, 10.0, 1.0]] * 6)
        upper[3, 2] = 0.4
        return x, y, p0, 1.0 / (0.05 + np.abs(y)), lower, upper

    @pytest.mark.parametrize("max_iterations,failing", [(200, set()), (16, {1})])
    def test_shuffled_batches_equal_each_problem_alone(self, monkeypatch, max_iterations,
                                                       failing):
        # at 16 evaluations problem 1 runs out of budget while its
        # neighbours converge
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", max_iterations)
        x, y, p0, w, lower, upper = self.problems()
        # tau is the nonlinear parameter; the boxes of amp and off are
        # C c >= d on the coefficients (amp, off)
        theta0, bounds = p0[:, 1:2], (lower[:, 1:2], upper[:, 1:2])
        cons = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        floor = np.column_stack([lower[:, 0], -upper[:, 0], lower[:, 2], -upper[:, 2]])
        alone = [specfit_module._run_fit_batch(
            DECAY_WITH_OFFSET, x, y[i:i + 1], theta0[i:i + 1], weights=w[i:i + 1],
            bounds=(bounds[0][i:i + 1], bounds[1][i:i + 1]), constraints=(cons, floor[i:i + 1]))[0]
            for i in range(len(y))]
        for seed in (0, 1, 3):
            order = np.random.default_rng(seed).permutation(len(y))
            batch = specfit_module._run_fit_batch(DECAY_WITH_OFFSET, x, y[order], theta0[order],
                                                  weights=w[order],
                                                  bounds=(bounds[0][order], bounds[1][order]),
                                                  constraints=(cons, floor[order]))
            for got, i in zip(batch, order):
                assert isinstance(got, FitError) == (i in failing)
                assert type(got) is type(alone[i])
                if i in failing:
                    assert got.last_params == alone[i].last_params
                    continue
                assert got.params == alone[i].params
                assert got.stderr == alone[i].stderr
                assert (got.n_evaluations, got.residual_norm) == (alone[i].n_evaluations,
                                                                  alone[i].residual_norm)
        if not failing:
            assert alone[1].params["off"] == 0.0 and alone[3].params["off"] == 0.4
            # from tau = 3 problem 1 reaches the optimum it reaches from tau = 1
            ref = specfit_module._run_fit_batch(
                DECAY_WITH_OFFSET, x, y[1:2], [[1.0]], weights=w[1:2],
                bounds=(bounds[0][1:2], bounds[1][1:2]), constraints=(cons, floor[1:2]))[0]
            assert alone[1].residual_norm == pytest.approx(ref.residual_norm, rel=1e-9)
            assert alone[1].params["tau"] == pytest.approx(ref.params["tau"], rel=1e-5)

    def test_non_finite_start_cost_fails_the_fit(self):
        # at tau = 1e-4 the column exp(-x/tau) underflows to 0 on x >= 0.1:
        # the normal equations are singular and the start cost is NaN
        x = np.linspace(0.1, 5.0, 50)
        y = 3.0 * np.exp(-x / 1.5)
        fit = EXP_DECAY
        (outcome,) = lsq.levenberg_marquardt(fit.basis, fit.derivatives, x, y[None], [[1e-4]],
                                            1.0, (-np.inf, np.inf), specfit_module.MAX_ITERATIONS,
                                            specfit_module.STEP_TOLERANCE,
                                            (np.zeros((0, 1)), np.zeros(0)), np.zeros(1))
        assert outcome[0] is False
        with pytest.raises(FitError, match="non-finite cost"):
            specfit_module._one(specfit_module._run_fit_batch(fit, x, y[None], [[1e-4]]))
        # a neighbour in the batch still gets the fit it gets alone
        batch = specfit_module._run_fit_batch(fit, x, np.stack([y, y]), [[1e-4], [1.0]])
        assert isinstance(batch[0], FitError)
        assert batch[1] == specfit_module._run_fit_batch(fit, x, y[None], [[1.0]])[0]
        assert batch[1].params["tau"] == pytest.approx(1.5)

    def test_stacked_svd_gives_each_matrix_its_own_bits(self):
        # the solver and the covariance each take the singular values and V
        # of every problem's R factor by lsq._jacobi on the stack, whatever
        # its free mask; a problem's bits must not depend on its neighbours
        rng = np.random.default_rng(23)
        for n_prob, n_cols in [(2, 1), (6, 2), (12, 2), (5, 3), (12, 5)]:
            stack = rng.normal(size=(n_prob, n_cols, n_cols)) * 10.0 ** rng.uniform(
                -6.0, 6.0, (n_prob, n_cols, 1))
            s, vt = lsq._jacobi(stack)
            for i in range(n_prob):
                alone = lsq._jacobi(stack[i:i + 1])
                assert np.array_equal(alone[0][0], s[i]), (n_prob, n_cols, i)
                assert np.array_equal(alone[1][0], vt[i]), (n_prob, n_cols, i)

    def test_stacked_qr_gives_each_matrix_its_own_bits(self):
        # R of the stack of Jacobians, (problems, n, N), at the shapes of a
        # reproduce chunk of 12: g2 with and without bunching, the decay,
        # the Lorentzian, and the covariance's 5 columns of g2 with bunching
        rng = np.random.default_rng(29)
        for n_prob, n_rows, n_cols in [(12, 1601, 2), (12, 1601, 1), (12, 750, 1), (12, 301, 2),
                                       (12, 1601, 5)]:
            stack = rng.normal(size=(n_prob, n_cols, n_rows)) * 10.0 ** rng.uniform(
                -6.0, 6.0, (n_prob, n_cols, 1))
            r = lsq._r_factor(stack.copy())
            for i, matrix in enumerate(stack):
                assert np.array_equal(lsq._r_factor(matrix[None].copy())[0], r[i]), (n_rows, i)

    def test_batch_fitters_equal_single_fits(self, roundtrip_draws):
        draws = roundtrip_draws[:10]
        # the batch fits skip the uncertainties, the one field that differs
        for draw, fits in zip(draws, fit_roundtrip_fits(draws)):
            assert fits["spectrum"] == fit_lorentzian(
                draw["spectrum"][0], None)._replace(stderr={})
            assert fits["decay"] == fit_decay_with_irf(*draw["decay"][:2])._replace(stderr={})
            assert fits["correlation"] == fit_g2(draw["correlation"][0])._replace(stderr={})
            assert fits["polarization"] == fit_polarization(
                draw["polarization"][0])._replace(stderr={})

    def test_summary_does_not_depend_on_the_chunk(self, monkeypatch):
        # 13 draws: full chunks and partial ones, batches of every kind, g2
        # included, of 1, 5 and 13
        expected = fit_roundtrip_summary(13)
        for chunk in (1, 5, 13):
            monkeypatch.setattr(reproduce_module, "FIT_CHUNK", chunk)
            assert fit_roundtrip_summary(13) == expected, chunk

    def test_chunk_fits_stay_within_their_memory_budget(self):
        # the fits of one reproduce chunk, without uncertainties as
        # reproduce runs them, traced after a first untraced pass: 1.68 MB
        # with numpy 2.4, set by the g2 fits on their 801 distinct delays
        # at the chunk's full width of 17, in the Jacobian's product with
        # the weighted columns; the budget of 1.72 MB left 5 % on top of
        # the 1.63 MB of the draws of numpy's generator
        chunk = fit_roundtrip_draws(range(reproduce_module.FIT_CHUNK))
        fit_roundtrip_fits(chunk)
        tracemalloc.start()
        try:
            fit_roundtrip_fits(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_720_000, peak

    def test_fit_error_surfaces_from_the_summary(self, monkeypatch):
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", 1)
        with pytest.raises(FitError) as first:
            fit_lorentzian(fit_roundtrip_draws([0])[0]["spectrum"][0], None)
        with pytest.raises(FitError) as excinfo:
            fit_roundtrip_summary(3)
        assert excinfo.value.last_params == first.value.last_params


class TestKernels:
    """The numpy kernels of module ``lsq`` against numpy.linalg as the
    oracle, and each problem of a stack equal bit for bit to it alone."""

    @staticmethod
    def rows(rng, size, m, n, rank, zero):
        """A stack (size, m, N) of rows with scales 1e-3 to 1e3 whose last
        m - rank rows are combinations of the first rank ones (exactly
        rank-deficient), and whose last row is zero if ``zero``."""
        rows = rng.normal(size=(size, m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (size, m, 1))
        if rank < m:
            rows[:, rank:] = (rng.normal(size=(size, m - rank, rank)) @ rows[:, :rank]
                              if rank else 0.0)
        if zero:
            rows[:, -1] = 0.0
        return rows

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(2, 900), size=st.integers(1, 4),
           rank=st.integers(0, 5), zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_r_factor_and_jacobi_give_the_svd(self, m, n, size, rank, zero, seed):
        # R^T R = A^T A and the singular values and V of R are those of the
        # matrix A whose columns are the rows, within 1e-12 of |A|^2 and
        # |A| (measured worst over 400 draws: 1.5e-15 and 1.3e-15)
        rows = self.rows(np.random.default_rng(seed), size, m, max(n, m), min(rank, m), zero)
        a = rows.transpose(0, 2, 1)
        r = lsq._r_factor(rows.copy())
        sigma, vt = lsq._jacobi(r)
        ref = np.linalg.svd(a, compute_uv=False)
        top = np.maximum(ref[:, :1], 1e-300)
        gram = np.einsum("bik,bjk->bij", r, r)  # R^T R: the rows of r are R's columns
        assert (np.abs(gram - a.transpose(0, 2, 1) @ a) <= 1e-12 * top[:, :, None] ** 2).all()
        assert (np.abs(np.sort(sigma)[:, ::-1] - ref) <= 1e-12 * top).all()
        assert (np.abs(vt @ vt.transpose(0, 2, 1) - np.eye(m)) <= 1e-13).all()
        # each right singular vector v_j takes A to a vector of length sigma_j
        assert (np.abs(np.linalg.norm(a @ vt.transpose(0, 2, 1), axis=1) - sigma)
                <= 1e-12 * top).all()
        for i in range(size):
            alone = lsq._r_factor(rows[i:i + 1].copy())
            assert np.array_equal(alone[0], r[i])
            assert all(np.array_equal(x[0], y[i]) for x, y in zip(lsq._jacobi(alone), (sigma, vt)))

    @staticmethod
    def constrained_one_set_at_a_time(gram, rhs, cons, floor):
        """``lsq._constrained`` as a loop over the active sets, keeping the
        first strictly lower cost: the reference for the stacked form."""
        best, least = np.full(rhs.shape, np.nan), np.full(len(rhs), np.inf)
        which = np.full(len(rhs), -1)
        for s, (t, e) in enumerate(lsq._active_sets(lsq._rows(cons))):
            cand = lsq._dot(floor[:, None], e)
            u = lsq._solve(lsq._mm(lsq._mm(t.T, gram), t),
                           lsq._dot((rhs - lsq._dot(gram, cand[:, None]))[:, None], t.T))
            cand += lsq._dot(t, u[:, None])
            cost = lsq._dot(cand, lsq._dot(gram, cand[:, None])) - 2.0 * lsq._dot(rhs, cand)
            better = (lsq._dot(cand[:, None], cons) >= floor).all(axis=1) & (cost < least)
            best[better], least[better], which[better] = cand[better], cost[better], s
        return best, which

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 8), plain=st.booleans(), singular=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_constrained_sets_of_one_size_solve_together(self, size, plain, singular, seed):
        # the g2 box's 23 active sets (7 for the plain fit) stacked by size
        # give each problem the bits and the set of the loop over the sets,
        # a singular Gram matrix included
        cons, floor = g2fit_module._G2_BOX
        if plain:
            cons, floor = cons[:3, :2], floor[:3]
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(size, cons.shape[1], 40)) * 10.0 ** rng.uniform(
            -3.0, 3.0, (size, cons.shape[1], 1))
        if singular:
            cols[0, -1] = cols[0, 0]
        gram = np.einsum("pin,pjn->pij", cols, cols)
        rhs = rng.normal(size=(size, cons.shape[1])) * 10.0 ** rng.uniform(-3.0, 3.0, (size, 1))
        floor = np.broadcast_to(floor, (size, len(floor)))
        stacked = lsq._constrained(gram, rhs, cons, floor)
        looped = self.constrained_one_set_at_a_time(gram, rhs, cons, floor)
        assert stacked[0].tobytes() == looped[0].tobytes()
        assert stacked[1].tolist() == looped[1].tolist()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 5), size=st.integers(1, 4), rhs=st.integers(1, 3),
           singular=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_solve_is_the_linalg_solve(self, m, size, rhs, singular, seed):
        # Gram matrices of m columns of 8 samples, one per problem, against
        # rhs vectors each: within 1e-13 cond(a) of the largest entry of
        # the solution (measured worst 2.1e-16 cond); a zero column makes a
        # problem's system singular and only its solution NaN
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(size, m, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, (size, m, 1))
        if singular and m:
            cols[0, -1] = 0.0
        a, b = np.einsum("bki,bji->bkj", cols, cols), rng.normal(size=(size, rhs, m))
        x = lsq._solve(a[:, None], b)
        assert x.shape == (size, rhs, m)
        for i in range(size):
            alone = lsq._solve(a[i:i + 1, None], b[i:i + 1])
            assert np.array_equal(alone[0], x[i], equal_nan=True)
            if singular and m and i == 0:
                assert np.isnan(x[i]).all()
            elif m:
                ref = np.linalg.solve(a[i], b[i].T).T
                assert (np.abs(x[i] - ref)
                        <= 1e-13 * np.linalg.cond(a[i]) * np.abs(ref).max()).all()

    def test_fits_have_the_same_bits_under_every_blas_kernel(self):
        # the BLAS kernels of ROADMAP item 12, each set in a child's
        # environment only: one reproduce chunk of fits, one fit of each
        # kind with its uncertainties and the hemisphere fit of check_fab
        # call no BLAS or LAPACK routine
        from test_config_cli import _child_env  # which imports this module
        code = ("import hashlib\n"
                "import math\n"
                "from spskit import fab, reproduce, specfit\n"
                "draws = reproduce.fit_roundtrip_draws(range(reproduce.FIT_CHUNK))\n"
                "d = draws[0]\n"
                "fits = [reproduce.fit_roundtrip_fits(draws), specfit.fit_lorentzian(\n"
                "    d['spectrum'][0], None), specfit.fit_decay_with_irf(*d['decay'][:2]),\n"
                "    specfit.fit_g2(d['correlation'][0]),\n"
                "    specfit.fit_polarization(d['polarization'][0])]\n"
                "h = 0.5 * math.sqrt(3.0)\n"
                "profile = fab.synthetic_hemisphere_profile(\n"
                "    2.7, 2.4, 301, reproduce._ranged(reproduce.MAX_DRAWS, 0, -h, h, 301))\n"
                "fits.append(fab.fit_hemisphere_profile(profile, edge_exclusion_fraction=0.1))\n"
                "print(hashlib.sha256(repr(fits).encode()).hexdigest())\n")
        digests = []
        for coretype in (None, "Haswell", "Prescott"):
            env = _child_env()
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            digests.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True, env=env).stdout)
        assert len(digests[0]) == 65 and digests[1:] == digests[:1] * 2


def columns_at(model, x, theta):
    """The stacked basis columns (1, k, N) of a ``Separable`` at theta."""
    return lsq._columns(model.basis, x, np.array([theta], dtype=float),
                        np.empty((1, np.shape(x)[-1])))


def assert_central_differences(function, theta, analytic, rel=1e-6, step=1e-7):
    """``analytic`` (n, ...) against central differences of ``function`` at
    theta, steps ``step`` |theta_j|, within rel of each derivative's largest value."""
    for j, got in enumerate(analytic):
        h = step * abs(theta[j])
        up, down = (function(np.add(theta, sign * h * np.eye(len(theta))[j]))
                    for sign in (1.0, -1.0))
        central = (up - down) / (2.0 * h)
        scale = np.abs(central).max()
        assert scale > 0.0
        assert np.abs(np.broadcast_to(got, central.shape) - central).max() <= rel * scale, j


def check_model_slopes(model, x, theta, step=1e-7):
    """Each theta_j moves its one column k, by the model's dphi_k/dtheta_j,
    against central differences of steps ``step`` |theta_j|."""
    cols = columns_at(model, x, theta)
    analytic = []
    for k, slope in model.derivatives(x, cols, *theta):
        analytic.append(np.zeros_like(cols[0]))
        analytic[-1][k] = slope
    assert len(analytic) == len(theta)
    assert_central_differences(lambda q: columns_at(model, x, q)[0], theta, analytic, step=step)


class TestJacobians:
    """The closed-form derivative columns of every model, and the solver's
    Jacobian of the projected residual, against central differences."""

    @settings(max_examples=25, deadline=None)
    @given(center=st.floats(563.0, 569.0), fwhm=st.floats(0.3, 5.0), sign=st.sampled_from([-1, 1]),
           scan_range=st.one_of(st.none(), st.floats(0.5, 5.0)))
    @example(center=566.0, fwhm=0.224, sign=1, scan_range=3.0)
    def test_lorentzian(self, center, fwhm, sign, scan_range):
        # with and without the instrument; the basis takes |fwhm|
        x = np.linspace(560.0, 572.0, 241)
        check_model_slopes(specfit_module._lorentzian_model(scan_range), x, [center, sign * fwhm])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(20, 1500), log_ratio=st.floats(math.log(0.5), math.log(5000.0)),
           sign=st.sampled_from([-1, 1]), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1000, log_ratio=math.log(2.0), sign=1, seed=1)  # blocks of 16 samples
    @example(n=1000, log_ratio=math.log(600.0), sign=-1, seed=2)  # blocks of 256
    @example(n=21, log_ratio=math.log(5000.0), sign=-1, seed=9)  # window short against tau
    def test_decay(self, n, log_ratio, sign, seed):
        # tau/dt from 0.5 to 5000: the short-block and the 256-block
        # recursions; the basis takes |lifetime|. Steps of 1e-5 tau: over a
        # window short against tau the columns stay near 1 while the slope
        # falls to ~1e-3/tau, and at 1e-7 tau the rounding of the columns
        # alone puts the central difference 1.1e-6 of the slope off (the
        # slope agrees with a 40-digit sum to 2e-16); at 1e-5 tau the
        # difference is within 1.4e-8 over the whole range
        dt = 16.0
        t = dt * np.arange(n)
        irf = np.random.default_rng(seed).random(n)
        check_model_slopes(specfit_module._decay_model(t, dt), irf,
                           [sign * dt * math.exp(log_ratio)], step=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(t1=st.floats(50.0, 5000.0), t2=st.floats(500.0, 50000.0), plain=st.booleans())
    def test_g2(self, t1, t2, plain):
        tau = np.linspace(-30000.0, 30000.0, 601)
        model = g2fit_module._G2_PLAIN if plain else g2fit_module._G2_WITH_BUNCHING
        check_model_slopes(model, tau, [t1] if plain else [t1, t2])

    @staticmethod
    def point(model, x, y, w, theta, constraints):
        """The solver's point at theta: (q, c, residuals, columns, Gram
        matrices of the weighted columns and their factors, active sets),
        one problem."""
        q = np.array([theta], dtype=float)
        cols = lsq._columns(model.basis, x, q, y[None])
        phi = cols * w
        c, gram, factor, held = lsq._coefficients(phi, (y * w)[None], constraints)
        return q, c, (c[:, None] @ phi)[:, 0] - y * w, cols, gram, factor, held

    @pytest.mark.parametrize("plain", [False, True])
    def test_solver_jacobian_is_the_derivative_of_the_projected_residual(self, plain):
        # Kaufman's projected columns plus the second Golub-Pereyra term, on
        # weighted counts, against the residual with c solved at each theta
        tau = np.linspace(-30000.0, 30000.0, 601)
        y = np.random.default_rng(3).poisson(
            300.0 * g2_model(tau, 0.8, 0.2, 900.0, 8000.0)).astype(float)
        w = specfit_module.poisson_weights(y)
        model = g2fit_module._G2_PLAIN if plain else g2fit_module._G2_WITH_BUNCHING
        theta = [700.0] if plain else [700.0, 12000.0]
        # no constraint: C c >= d with no rows
        cons = (np.zeros((0, len(model.names) - len(theta))), np.zeros((1, 0)))
        jac, _ = lsq._jacobian(model.derivatives, tau, w[None],
                               self.point(model, tau, y, w, theta, cons),
                               lsq._active_sets(lsq._rows(cons[0])))
        assert_central_differences(lambda q: self.point(model, tau, y, w, q, cons)[2][0], theta,
                                   jac[0])

    def test_held_coefficient_gives_an_exactly_zero_column(self):
        # data whose bunching term is negative: B >= 0 holds level B at 0, and
        # the column of the bunching time is exactly zero
        tau = np.linspace(-30000.0, 30000.0, 601)
        y = 140.0 * g2_model(tau, 0.9, -0.05, 700.0, 6000.0)
        model, (cons, floor) = g2fit_module._G2_WITH_BUNCHING, g2fit_module._G2_BOX
        point = self.point(model, tau, y, np.ones_like(y), [700.0, 6000.0], (cons, floor[None]))
        assert point[1][0, 2] == 0.0 and point[-1][0] >= 0
        jac, _ = lsq._jacobian(model.derivatives, tau, np.ones((1, len(tau))), point,
                               lsq._active_sets(lsq._rows(cons)))
        assert not jac[0, 1].any() and jac[0, 0].any()


def curve_fit_reference(kind, draw) -> tuple:
    """scipy's ``curve_fit`` on the full model in the named parameters from
    the fitted ones: (names, fitted stderr, curve_fit's standard errors)."""
    series, weights = draw[kind][0], None
    if kind == "correlation":
        g = fit_g2(series)
        fit = g2fit_module._G2_PLAIN if g.model == "plain" else g2fit_module._G2_WITH_BUNCHING
        names, model = fit.names, full_model(fit, 1 if g.model == "plain" else 2)
        params, stderr = g.params, g.stderr
        weights = g2fit_module._g2_start(series)[2]
    else:
        if kind == "decay":
            irf = draw["decay"][1]
            result = fit_decay_with_irf(series, irf)
            weights = specfit_module.poisson_weights(series.y)

            def model(t, lifetime, amplitude):
                return amplitude * convolve_decay(t, abs(lifetime), irf.y)
        elif kind == "spectrum":
            result = fit_lorentzian(series, None)
            model = full_model(specfit_module._lorentzian_model(None), 2)
        else:
            result, model = fit_polarization(series), cos2_model
        params, stderr = result.params, result.stderr
        names = list(stderr)
    _, pcov = curve_fit(model, series.x, series.y, p0=[params[name] for name in names],
                        sigma=None if weights is None else 1.0 / weights, method="trf",
                        jac="3-point", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return names, stderr, np.sqrt(np.diag(pcov))


class TestUncertainties:
    """Standard errors from the exact Jacobian in (theta, c), carried to the
    named parameters."""

    @pytest.mark.parametrize("kind", ["spectrum", "decay", "correlation", "polarization"])
    def test_same_stderr_as_curve_fit(self, roundtrip_draws, kind):
        # curve_fit takes a central-difference Jacobian in the named
        # parameters; measured agreement is within 1e-5 relative
        for draw in roundtrip_draws:
            names, stderr, reference = curve_fit_reference(kind, draw)
            for name, ref in zip(names, reference):
                assert stderr[name] == pytest.approx(ref, rel=1e-4), (kind, name)

    def test_fits_without_uncertainties_equal_the_default_but_for_them(self, roundtrip_draws):
        def column(kind, i=0):
            return [draw[kind][i] for draw in roundtrip_draws]
        for batch, series in ((specfit_module.fit_lorentzian_batch, [column("spectrum"), None]),
                              (specfit_module.fit_decay_with_irf_batch,
                               [column("decay"), column("decay", 1)]),
                              (fit_g2_batch, [column("correlation")]),
                              (specfit_module.fit_polarization_batch, [column("polarization")])):
            for on, off in zip(batch(*series), batch(*series, uncertainties=False), strict=True):
                assert on.stderr and off.stderr == {}
                assert off == on._replace(stderr={}), batch.__name__

    def test_bunching_time_uncertainty_of_reproduce_draw_13(self):
        # a weak bunching that the fit keeps: under the numpy generator the
        # reproduction's 28th draw, a bunching time of 9.19 ns, for which the
        # unscaled pseudo-inverse gave 0.0025 ps; here draw 13, 2.45 ns
        # at an amplitude of 0.0068
        fit = fit_g2(fit_roundtrip_draws([13])[0]["correlation"][0])
        assert fit.model == "with_bunching"
        assert fit.params["bunching_time_ps"] == pytest.approx(2449.2, rel=1e-3)
        assert 1e3 <= fit.stderr["bunching_time_ps"] < 1e4


def test_evaluations_of_the_first_twelve_draws():
    # trial points only: the forward-difference Jacobian and the uncertainty
    # pass of an earlier solver took these fits to 924 evaluations, and the
    # fixed decay and bunching-time starts with Gauss-Newton curvature alone
    # for one parameter to 407; 286 on the draws of numpy's generator
    fits = fit_roundtrip_fits(fit_roundtrip_draws(range(12)))
    total = sum(fit.n_evaluations for draw in fits for fit in draw.values())
    assert total == 287 and total < 924


def test_rounds_and_evaluations_of_a_hundred_draws(monkeypatch):
    # reproduce's 100 draws of each kind, 17 at a time: a round evaluates
    # every problem of a batch still searching in one basis call, so a
    # batch of one kind takes the rounds of its longest fit. The g2 fits
    # run on the 801 distinct delays of the 1,601-sample grid. With the g2
    # fits six at a time and on every sample, 3,296 evaluations took 597
    # rounds, 457 of them g2; 12 at a time the same evaluations took 396,
    # and 17 at a time 3,302 took 276 before the moment starts of the decay
    # and bunching times and the secant curvature of one-parameter fits,
    # and 2,354 took 177 on the draws of numpy's generator (58 g2 with
    # bunching). reproduce reads no uncertainty, so it runs no covariance pass
    kinds = {(301, 2): "lorentzian", (750, 1): "decay", (801, 2): "g2 with bunching",
             (801, 1): "g2 plain", (73, 0): "polarization"}
    rounds, evaluations = collections.Counter(), collections.Counter()
    solve = lsq.levenberg_marquardt

    def counted(basis, derivatives, x, y, p0, *args):
        kind = kinds[np.shape(y)[1], np.shape(p0)[1]]

        def counted_basis(*columns_args):
            rounds[kind] += 1
            return basis(*columns_args)
        outcomes = solve(counted_basis, derivatives, x, y, p0, *args)
        evaluations[kind] += sum(outcome[-1] for outcome in outcomes)
        return outcomes

    def no_covariance(*args, **kwargs):
        raise AssertionError("covariance_factors called")

    monkeypatch.setattr(lsq, "levenberg_marquardt", counted)
    monkeypatch.setattr(lsq, "covariance_factors", no_covariance)
    fit_roundtrip_summary(100)
    assert evaluations == {"lorentzian": 504, "decay": 441, "g2 with bunching": 665,
                           "g2 plain": 663, "polarization": 100}
    assert rounds == {"lorentzian": 33, "decay": 30, "g2 with bunching": 83, "g2 plain": 47,
                      "polarization": 6}
    assert sum(rounds.values()) <= 199
