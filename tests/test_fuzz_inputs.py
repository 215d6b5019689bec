"""Hypothesis fuzzing of the data loader and the config file through the CLI.

Whatever the generated CSV text or JSON config, ``report`` either stops
with exit 1 and an ``error:`` message or gets as far as the grid (stubbed
here, so nothing is fitted); it never raises.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowfit import (DataError, ObservedSeries, YearGrid, generate, load_series, run_cli,
                     selection, write_series)

from _scenarios import recovery_scenario

FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

COLUMNS = ["year", "bachelors", "masters", "phd", "phd_intl"]
# Hypothesis favours the first element of sampled_from, so these lean False.
ONE_IN_FOUR = st.sampled_from([False, False, False, True])
ONE_IN_TEN = st.sampled_from([False] * 9 + [True])


class _ReachedGrid(Exception):
    """Raised by the stubbed grid: every setting passed its checks."""


def _stub_grid(*args, **kwargs):
    raise _ReachedGrid


def _run_report(data: Path, extra=()) -> tuple[object, str]:
    """``report`` with the grid stubbed: (exit code or "grid", stderr)."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryFile("w+") as err:
        mp.setattr(selection, "run_grid", _stub_grid)
        mp.setattr("sys.stderr", err)
        try:
            code = run_cli(["report", "--data", str(data), "--out", str(data.parent / "out"),
                            *extra])
        except _ReachedGrid:
            code = "grid"
        err.seek(0)
        return code, err.read()


def _check_outcome(code, err: str) -> None:
    assert code in (1, "grid"), (code, err)
    if code == 1:
        assert err.startswith("error:") or "usage:" in err, err
    assert "Traceback" not in err


# Cells that are numbers, near-numbers and junk; years near a plausible window.
cells = st.one_of(
    st.integers(1960, 2025).map(str),
    st.integers(-10**6, 10**12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-0", "1e999", "0x10", "1,000", '"', "\x00"]),
    st.text(max_size=6),
)
headers = st.one_of(
    st.just(COLUMNS[:4]),
    st.just(COLUMNS),
    st.permutations(COLUMNS),
    st.lists(st.sampled_from(COLUMNS + ["Year", "extra", ""]), max_size=7),
)


@st.composite
def csv_texts(draw):
    header = draw(headers)
    rows = draw(st.lists(st.lists(cells, min_size=0, max_size=len(header) + 1), max_size=8))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join(",".join(row) for row in [header] + rows) + draw(st.sampled_from(["", sep]))


@st.composite
def valid_ish_csv(draw):
    """A well-formed file, sometimes with one fuzzed year or value."""
    start = draw(st.integers(1975, 1995))
    n = draw(st.integers(0, 30))
    years = [start + i for i in range(n)]
    values = [[draw(st.floats(1.0, 1e6)) for _ in range(3)] for _ in years]
    if n and draw(ONE_IN_FOUR):
        years[draw(st.integers(0, n - 1))] += draw(st.integers(-3, 10**9))
    if n and draw(ONE_IN_FOUR):
        values[draw(st.integers(0, n - 1))][draw(st.integers(0, 2))] = draw(
            st.sampled_from([0.0, -1.0, float("inf"), float("nan")]))
    lines = ["year,bachelors,masters,phd"]
    lines += [",".join([str(y)] + [repr(v) for v in row]) for y, row in zip(years, values)]
    return "\n".join(lines) + "\n"


def _loads_or_data_error(path: Path) -> None:
    try:
        assert isinstance(load_series(path), ObservedSeries)
    except DataError:
        pass


@FUZZ
@given(text=st.one_of(csv_texts(), valid_ish_csv(), st.text(max_size=200)))
def test_load_series_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        _loads_or_data_error(path)
        _check_outcome(*_run_report(path))


@FUZZ
@given(raw=st.binary(max_size=120))
def test_load_series_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(b"year,bachelors,masters,phd\n" + raw)
        _loads_or_data_error(path)


def test_wide_year_span_is_rejected_without_listing_every_year(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("year,bachelors,masters,phd\n0,1,1,1\n1000000000000,1,1,1\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match="gaps: 1-999999999999"):
        load_series(path)


def test_non_utf8_file_is_a_data_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"year,bachelors,masters,phd\n2000,1,1,\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_series(path)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)
years = st.lists(st.integers(1980, 2010) | st.integers(-10**12, 10**12), max_size=4)
# Values of the right JSON type (often out of range), per key.
TYPED = {
    "data": st.sampled_from(["missing.csv", "", "."]),
    "out": st.sampled_from(["out", ""]),
    "spec": st.sampled_from(["2,2,none", "0,0,intl", "1,2,yes", "9,9,none", "2,2", "a,b,c"]),
    "formats": st.sampled_from(["csv", "json", "csv,json", "xml", "", ["csv"], ["json", "x"], []]),
    "jobs": st.integers(-2, 4),
    "use_n_eff": st.booleans(),
    "optimizer": st.fixed_dictionaries({}, optional={
        "n_starts": st.integers(-1, 3), "seed": st.integers(-5, 5),
        "gtol": st.floats(allow_nan=True), "ftol_rel": st.floats(allow_nan=True),
        "max_iter": st.integers(-1, 50)}),
    "uncertainty": st.fixed_dictionaries({}, optional={
        "n_draws": st.integers(-1, 10**4), "level": st.floats(-0.5, 1.5) | st.just(float("nan")),
        "seed": st.integers(-5, 5)}),
    "robustness": st.fixed_dictionaries({}, optional={
        "truncation_starts": years, "cutoffs": years,
        "rescale": st.sampled_from(["window", "full", "sideways"])}),
    "other": json_values,
}


@st.composite
def configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(TYPED)), unique=True, max_size=6))
    # One value in four is of any JSON type.
    return {key: draw(json_values if draw(ONE_IN_FOUR) else TYPED[key]) for key in keys}


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "degrees.csv"
    obs, _ = generate(recovery_scenario(grid=YearGrid(1985, 2004)))
    write_series(obs, path)
    return path


@FUZZ
@given(cfg=configs(), cut=ONE_IN_TEN)
def test_config_file(data_csv, cfg, cut):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        text = json.dumps(cfg)
        # A file cut short is not valid JSON.
        config.write_text(text[:-1] if cut else text, encoding="utf-8")
        _check_outcome(*_run_report(data_csv, ["--config", str(config)]))
