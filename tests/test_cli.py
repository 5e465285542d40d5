"""End-to-end command-line checks: ingestion, each subcommand against the
library route, file outputs, seeds, and error signaling."""

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fdpkit import cli
from fdpkit.cli import (
    _METHODS, RunSpec, _envelope_grid, _ingest_lines, _parser, ingest, main, read_envelope_csv, run,
)
from fdpkit.datasets import EXAMPLE1_PVALUES, EXAMPLE2_SCENARIO
from fdpkit.envelopes import (
    asymptotic_envelope,
    confidence_thresholds,
    exact_confidence_set,
    exact_envelope,
)
from fdpkit.simulation import ScenarioConfig, generate_sample, run_validation


@pytest.fixture
def pfile(tmp_path):
    path = tmp_path / "pvals.txt"
    path.write_text("".join(f"{v}\n" for v in EXAMPLE1_PVALUES))
    return str(path)


@pytest.fixture
def pcsv(tmp_path):
    path = tmp_path / "pvals.csv"
    rows = ["pvalue,label"] + [f"{v},x" for v in EXAMPLE1_PVALUES]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_text(out):
    rec = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" ")
        rec[key] = val
    return rec


class TestIngest:
    def test_lines_with_blanks(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n\n0.25\n")
        np.testing.assert_array_equal(ingest(str(f)), [0.5, 0.25])

    def test_csv_first_column_header_skipped(self, pcsv):
        np.testing.assert_array_equal(ingest(pcsv, "csv"), np.asarray(EXAMPLE1_PVALUES))

    def test_parse_error_names_the_line(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.1\n0.2\nbogus\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest(str(f))

    def test_empty_inputs_rejected(self, tmp_path):
        empty = tmp_path / "e.txt"
        empty.write_text("\n\n")
        with pytest.raises(ValueError, match="no p-values"):
            ingest(str(empty))
        headonly = tmp_path / "h.csv"
        headonly.write_text("pvalue\n")
        with pytest.raises(ValueError, match="no p-values"):
            ingest(str(headonly), "csv")

    @pytest.mark.parametrize("fmt, text", [("lines", "0.5\n0.01\n0.2\n"),
                                           ("csv", "p,id\n0.5,a\n0.01,b\n0.2,c\n")])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, fmt, text):
        # spreadsheet exports often start the file with the UTF-8 mark
        f = tmp_path / "p.txt"
        f.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for reader in (ingest, _ingest_lines):
            np.testing.assert_array_equal(reader(str(f), fmt), [0.5, 0.01, 0.2])

    def test_unknown_format(self, pfile):
        with pytest.raises(ValueError, match="format"):
            ingest(pfile, "tsv")

    _number = st.one_of(
        st.sampled_from(["1", "-0", "+.5", "1e-3", "2.5E-300", "5e-324", "2e-320", "1e400",
                         "inf", "-Infinity", "nan", "NaN", "-nan", "\t0.75 "]),
        st.floats().map(repr),
        st.floats(0.0, 1.0).map("{:.6g}".format),
    )
    _junk = st.sampled_from(["0.1 0.2", "1_0", "0x1p-3", "", " ", "x", "# 0.5", '"0.5"', "0.5#"])
    _cell = st.one_of(_number, _number, _number, _junk)
    _row = st.one_of(_cell, _cell, st.lists(_cell, min_size=2, max_size=3).map(",".join))

    @given(rows=st.lists(_row, max_size=8), fmt=st.sampled_from(["lines", "csv"]),
           newline=st.sampled_from(["\n", "\r\n"]), last=st.booleans())
    @example(rows=[], fmt="lines", newline="\n", last=True)
    @example(rows=["p,id"], fmt="csv", newline="\n", last=True)
    @example(rows=["0.1 0.2"], fmt="lines", newline="\n", last=True)
    @example(rows=["p", "0.5,", "0.25,1,2", "0.125"], fmt="csv", newline="\r\n", last=False)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_floats_or_error_as_the_line_reader(self, tmp_path, rows, fmt, newline, last):
        # Blank lines, CRLF, exponents, subnormals, inf/nan, trailing commas,
        # two tokens on a line, '#' and quoted fields, ragged rows, empty
        # files and a header-only CSV.
        f = tmp_path / "p.txt"
        f.write_bytes((newline.join(rows) + (newline if last else "")).encode())
        try:
            want = _ingest_lines(str(f), fmt)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ingest(str(f), fmt)
            assert str(got.value) == str(exc)
        else:
            got = ingest(str(f), fmt)
            want += 0.0   # where ingest writes a -0 as 0
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestThresholdCommand:
    def test_step_up_json(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "threshold", "--input", pfile, "--json")
        assert rc == 0
        rec = json.loads(out)
        assert rec["t"] == pytest.approx(0.0095)
        assert rec["rejected"] == 4
        assert rec["method"] == "bh"

    def test_negative_zero_is_read_as_zero(self, capsys, tmp_path):
        # a p-value written -0 came out as a threshold of -0 (and the a*
        # bound's argmax at -0); both readers now give +0
        lines, csv = tmp_path / "p.txt", tmp_path / "p.csv"
        lines.write_text("-0\n0.5\n0.7\n0.9\n")
        csv.write_text("p\n-0,\n0.5,1,2\n0.7\n0.9\n")   # ragged, so read line by line
        for path, fmt in ((lines, "lines"), (csv, "csv")):
            assert ingest(str(path), fmt).tobytes() == np.array([0.0, 0.5, 0.7, 0.9]).tobytes()
        for method in ("bh", "plugin"):
            rc, out, _ = run_cli(capsys, "threshold", "--method", method, "--input", str(lines))
            assert rc == 0 and parse_text(out)["t"] == "0"
            rc, out, _ = run_cli(capsys, "threshold", "--method", method, "--input", str(lines), "--json")
            assert '"t": 0.0,' in out and json.loads(out)["rejected"] == 1
        rc, out, _ = run_cli(capsys, "estimate", "--method", "astar", "--alpha", "0.9", "--input", str(lines), "--json")
        assert '"diag_argmax_t": 0.0,' in out

    def test_text_format_ten_significant_digits(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "threshold", "--input", pfile)
        rec = parse_text(out)
        assert rec["t"] == "0.0095"
        assert rec["rejected"] == "4"

    def test_plugin_matches_library(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "threshold", "--input", pfile,
                             "--method", "plugin", "--json")
        rec = json.loads(out)
        assert rec["t"] == pytest.approx(0.0459, abs=1e-12)
        assert rec["rejected"] == 9
        assert rec["diag_ahat"] == pytest.approx(7 / 15, abs=1e-12)

    def test_csv_input_and_output_file(self, capsys, pcsv, tmp_path):
        outfile = tmp_path / "thr.csv"
        rc, out, _ = run_cli(capsys, "threshold", "--input", pcsv, "--format", "csv",
                             "--method", "bonferroni", "--output", str(outfile))
        assert rc == 0
        header, row = outfile.read_text().strip().splitlines()
        assert header == "method,t,rejected,z,alpha"
        cells = row.split(",")
        assert cells[0] == "bonferroni"
        assert float(cells[1]) == pytest.approx(0.05 / 15, abs=1e-15)
        assert cells[2] == "3"

    def test_fixed_and_first_r_args(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "threshold", "--input", pfile,
                             "--method", "fixed", "--t", "0.05", "--json")
        assert json.loads(out)["rejected"] == 9
        rc, out, _ = run_cli(capsys, "threshold", "--input", pfile,
                             "--method", "first-r", "--r", "2", "--json")
        assert json.loads(out)["rejected"] == 2

    def test_missing_required_arg_exits_one(self, capsys, pfile):
        rc, out, err = run_cli(capsys, "threshold", "--input", pfile, "--method", "fixed")
        assert rc == 1
        assert "error" in json.loads(err)


class TestEnvelopeCommand:
    def test_min_rate_text_pins(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "envelope", "--input", pfile, "--min-rate")
        assert rc == 0
        rec = parse_text(out)
        assert rec["T"] == "0.324"
        assert rec["Z"] == "0.1111111111"  # ten significant digits
        assert rec["rejected"] == "9"
        assert rec["inclusive"] == "false"

    def test_ceiling_value(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "envelope", "--input", pfile,
                             "--ceiling", "0.25", "--json")
        rec = json.loads(out)
        assert rec["T"] == pytest.approx(0.4262, abs=1e-12)
        assert rec["envelope"] == "exact"

    def test_csv_round_trip_is_exact(self, capsys, pfile, tmp_path):
        outfile = tmp_path / "env.csv"
        rc, _, _ = run_cli(capsys, "envelope", "--input", pfile, "--output", str(outfile))
        assert rc == 0
        cols = read_envelope_csv(str(outfile))
        p = np.asarray(EXAMPLE1_PVALUES)
        env = exact_envelope(exact_confidence_set(p, 0.05), p)
        ts = env.ghat.base.knots
        assert np.array_equal(cols["t"], ts)
        assert np.array_equal(cols["gamma_bar"], np.asarray(env.gamma_bar(ts)))
        assert np.array_equal(cols["v"], np.asarray(env.v_fn(ts)))
        assert np.array_equal(cols["count_bound"], np.asarray(env.count_bound_at(ts)))

    @pytest.mark.parametrize("span", [None, 7], ids=["one-span", "spans-of-7"])
    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_csv_bytes_are_the_repr_of_each_cell(self, capsys, tmp_path, monkeypatch, method, span):
        # the writer's rows come a span at a time; at 7 rows a span the file
        # crosses dozens of span boundaries and still matches one pass's bytes
        if span is not None:
            monkeypatch.setattr(cli, "_SPAN", span)
        p = generate_sample(ScenarioConfig(m=400, a=0.25, params={"theta": 3.0}, seed=2), 0).pvalues
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{float(v)!r}\n" for v in p))
        outfile = tmp_path / "env.csv"
        rc, _, _ = run_cli(capsys, "envelope", "--input", str(f), "--method", method,
                           "--t-min", "0.001", "--no-floor-check", "--output", str(outfile))
        assert rc == 0
        if method == "exact":
            env = exact_envelope(exact_confidence_set(p, 0.05), p)
        else:
            env = asymptotic_envelope(p, t_min=0.001, enforce_floor=False)
        ts = _envelope_grid(env)
        cols = (ts, env.gamma_bar(ts), env.v_fn(ts), env.count_bound_at(ts))
        want = "t,gamma_bar,v,count_bound\n" + "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in zip(*cols))
        assert len(ts) > 100
        assert outfile.read_bytes() == want.encode()

    @pytest.mark.parametrize("rounded, budget", [(False, {"exact": 5.4, "asymptotic": 6.3}),
                                                 (True, {"exact": 0.105, "asymptotic": 0.105})],
                             ids=["distinct", "rounded"])
    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_csv_writer_memory_budget(self, traced_memory, tmp_path, method, rounded, budget):
        # traced peak in input sizes over 2e5 p-values, a fifth crowded
        # towards 0: a span of rows' four lists of Python floats, dropped
        # before the next span's are built.  Keeping the last span's columns
        # while building the next took 8.2 (exact) and 9.1 (band) on the
        # distinct file, and whole columns 16.0 and 15.3; the rounded file's
        # 1001 rows are one span either way
        g = np.random.default_rng(3)
        p = np.where(g.random(200_000) < 0.2, g.random(200_000) ** 6, g.random(200_000))
        p = np.round(p, 3) if rounded else p
        assert np.unique(p).size == (1001 if rounded else p.size)
        if method == "exact":
            env = exact_envelope(exact_confidence_set(p, 0.05), p)
        else:
            env = asymptotic_envelope(p, t_min=0.01, enforce_floor=False)
        path = str(tmp_path / "env.csv")
        held, peak = traced_memory(lambda: cli._write_envelope_csv(path, env))
        assert held <= 0.01 * p.nbytes
        assert peak <= budget[method] * p.nbytes

    @pytest.mark.parametrize("p, t_min", [
        (np.r_[0.002, 0.01, 0.3, 0.3, 0.8], 0.01),
        (np.r_[0.0, 0.002, 0.01, 0.5, 1.0, 1.0], 0.05),
        (np.r_[0.002, 0.01, 0.3], 0.9),
        (np.r_[0.002, 0.01, 0.3, 0.99], 1e-3),
    ], ids=["t_min-is-a-pvalue", "largest-pvalue-is-1", "every-pvalue-below-t_min", "t_min-below-the-first-knot"])
    def test_band_grid_is_the_sorted_distinct_union(self, p, t_min):
        # the slice of the knots above t_min, between t_min and 1, against a
        # sort of the points with the duplicates dropped
        env = asymptotic_envelope(p, t_min=t_min, enforce_floor=False)
        knots = env.ghat.base.knots
        want = np.unique(np.r_[t_min, knots[np.searchsorted(knots, t_min, "right"):], 1.0])
        assert _envelope_grid(env).tobytes() == want.tobytes()

    def test_read_back_rejects_foreign_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_envelope_csv(str(f))

    def test_read_back_rejects_a_short_row(self, tmp_path):
        # a row of 2 cells used to shift the cells of the rows after it
        f = tmp_path / "short.csv"
        f.write_text("t,gamma_bar,v,count_bound\n0.0,0.0,0.0,0.0\n0.5,0.1\n1.0,0.2,0.3,4\n")
        with pytest.raises(ValueError, match=r"^envelope CSV line 3 holds 2 cells, not 4$"):
            read_envelope_csv(str(f))

    def test_min_rate_and_ceiling_conflict(self, capsys, pfile):
        rc, _, err = run_cli(capsys, "envelope", "--input", pfile,
                             "--min-rate", "--ceiling", "0.2")
        assert rc == 1
        assert "choose one" in json.loads(err)["error"]

    def test_conflict_writes_no_output(self, capsys, pfile, tmp_path):
        outfile = tmp_path / "env.csv"
        rc, _, _ = run_cli(capsys, "envelope", "--input", pfile, "--min-rate",
                           "--ceiling", "0.2", "--output", str(outfile))
        assert rc == 1
        assert not outfile.exists()

    def test_asymptotic_method(self, capsys, tmp_path):
        g = np.random.default_rng(3)  # content irrelevant, determinism unneeded
        p = np.clip(g.random(800) * 0.8, 1e-9, 1.0)
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{float(v)!r}\n" for v in p))
        rc, out, _ = run_cli(capsys, "envelope", "--input", str(f),
                             "--method", "asymptotic", "--t-min", "0.001",
                             "--no-floor-check", "--ceiling", "0.3", "--json")
        assert rc == 0
        rec = json.loads(out)
        assert rec["envelope"] == "asymptotic"
        env = asymptotic_envelope(p, t_min=0.001, enforce_floor=False)
        want = confidence_thresholds(env, 0.3)
        assert rec["T"] == pytest.approx(want.t, rel=1e-12)

    @pytest.mark.parametrize("rule", [["--ceiling", "0.3"], ["--min-rate"]], ids=["ceiling", "min-rate"])
    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_rules_write_inclusive_as_a_json_boolean(self, capsys, tmp_path, method, rule):
        # a NumPy bool in the record would make --json raise
        p = generate_sample(ScenarioConfig(m=400, a=0.25, params={"theta": 3.0}, seed=2), 0).pvalues
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{float(v)!r}\n" for v in p))
        rc, out, err = run_cli(capsys, "envelope", "--input", str(f), "--method", method,
                               "--t-min", "0.001", "--no-floor-check", *rule, "--json")
        assert rc == 0, err
        rec = json.loads(out)
        assert type(rec["inclusive"]) is bool and rec["envelope"] == method

    def test_ceiling_of_one_rejects_everything(self, capsys, tmp_path):
        p = np.random.default_rng(5).uniform(size=50)
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{float(v)!r}\n" for v in p))
        asym = ["--method", "asymptotic", "--t-min", "0.01", "--no-floor-check"]
        for extra in ([], asym):
            rc, out, _ = run_cli(capsys, "envelope", "--input", str(f), *extra,
                                 "--ceiling", "1", "--json")
            assert rc == 0
            rec = json.loads(out)
            assert (rec["T"], rec["rejected"], rec["inclusive"]) == (1.0, 50, True)

    def test_unmet_ceiling_rejects_nothing(self, capsys, tmp_path):
        # no t meets the ceiling, and the p-values of exactly 0 are not
        # certified either: t = 0, exclusive
        f = tmp_path / "p.txt"
        f.write_text("0\n0\n0\n1\n1\n.5\n.9\n.8\n.7\n.6\n")
        asym = ["--method", "asymptotic", "--t-min", "0.1", "--no-floor-check"]
        for extra in ([], asym):
            rc, out, _ = run_cli(capsys, "envelope", "--input", str(f), *extra,
                                 "--ceiling", "0.01", "--json")
            assert rc == 0
            rec = json.loads(out)
            assert (rec["T"], rec["rejected"], rec["inclusive"]) == (0.0, 0, False)

    def test_asymptotic_text_names_the_quantile_source(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{v!r}\n" for v in np.linspace(0.001, 0.999, 300).tolist()))
        base = ["envelope", "--input", str(f), "--method", "asymptotic", "--t-min", "0.01",
                "--no-floor-check"]
        rc, out, _ = run_cli(capsys, *base)
        rec = parse_text(out)
        assert rc == 0 and rec["meta_w_source"] == "table"
        assert float(rec["meta_w_se"]) > 0.0
        rc, out, _ = run_cli(capsys, *base, "--alpha", "0.03")
        assert rc == 0 and parse_text(out)["meta_w_source"] == "table"
        rc, out, err = run_cli(capsys, *base, "--alpha", "1e-4")   # below the table's levels
        assert (rc, out) == (1, "")
        assert "w=" in json.loads(err)["error"]

    def test_floor_violation_surfaces_as_error(self, capsys, pfile, tmp_path):
        rc, _, err = run_cli(capsys, "envelope", "--input", pfile,
                             "--method", "asymptotic", "--t-min", "0.001")
        assert rc == 1
        assert "floor" in json.loads(err)["error"]
        one = tmp_path / "one.txt"
        one.write_text("0.3\n")
        rc, out, err = run_cli(capsys, "envelope", "--input", str(one), "--method", "asymptotic")
        assert rc == 1 and out == ""
        assert "small-t floor (log m)^4 / m = 0.0 " in json.loads(err)["error"]

    def test_non_finite_ceiling_exits_one(self, capsys, pfile, tmp_path):
        asym = ["--method", "asymptotic", "--t-min", "0.01", "--no-floor-check"]
        out_csv = tmp_path / "env.csv"
        for extra, c in itertools.product(([], asym), ("nan", "inf")):
            rc, out, err = run_cli(capsys, "envelope", "--input", pfile, *extra,
                                   "--ceiling", c, "--json", "--output", str(out_csv))
            assert rc == 1 and out == ""
            assert "must be finite" in json.loads(err)["error"]
            assert not out_csv.exists()


class TestEstimateCommand:
    def test_exceedance_estimate(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "estimate", "--input", pfile, "--json")
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(7 / 15, abs=1e-12)
        assert rec["t0"] == 0.5

    def test_lower_bound_estimate(self, capsys, pfile):
        rc, out, _ = run_cli(capsys, "estimate", "--input", pfile,
                             "--method", "astar", "--json")
        rec = json.loads(out)
        assert rec["method"] == "astar-lower"
        assert 0.0 <= rec["value"] <= 1.0

    def test_kernel_estimate(self, capsys, tmp_path):
        cfg = ScenarioConfig(m=5000, a=0.4, family="one-sided-normal",
                             params={"theta": 3.0}, seed=31)
        p = generate_sample(cfg, 0).pvalues
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{float(v)!r}\n" for v in p))
        rc, out, _ = run_cli(capsys, "estimate", "--input", str(f),
                             "--method", "kernel", "--json")
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(0.4, abs=0.1)

    @pytest.mark.parametrize("cmd,method", [("estimate", "kernel"), ("threshold", "bayes")])
    def test_non_finite_bandwidth_exits_one(self, capsys, pfile, cmd, method):
        for h in ("nan", "inf"):
            rc, out, err = run_cli(capsys, cmd, "--input", pfile, "--method", method,
                                   "--bandwidth", h)
            assert rc == 1 and out == ""
            assert "bandwidth must be positive" in json.loads(err)["error"]

    @pytest.mark.parametrize("cmd,method", [("estimate", "kernel"), ("threshold", "bayes")])
    def test_kernel_density_needs_ten_pvalues(self, capsys, tmp_path, cmd, method):
        f = tmp_path / "one.txt"
        f.write_text("0.3\n")
        rc, out, err = run_cli(capsys, cmd, "--input", str(f), "--method", method)
        assert rc == 1 and out == ""
        assert json.loads(err) == {"error": "need at least 10 p-values for the kernel estimate"}


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestSimulateCommand:
    def test_prints_json_without_flag(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--target", "qinv-kernel-identity")
        assert rc == 0
        rec = json.loads(out)
        assert rec["passed"] is True and rec["target"] == "qinv-kernel-identity"

    def test_reps_flag_flows_into_config(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--target", "fdp-mean",
                             "--reps", "500")
        rec = json.loads(out)
        assert rc == 0 and rec["reps"] == 500 and rec["passed"] is True

    def test_config_file_and_output(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 25, "m": 200}))
        outfile = tmp_path / "report.json"
        rc, out, _ = run_cli(capsys, "simulate", "--target", "projection-bound",
                             "--config", str(cfg), "--output", str(outfile))
        assert rc == 0
        assert json.loads(out) == json.loads(outfile.read_text())
        assert json.loads(out)["reps"] == 25
        # a JSON integer for a float setting is read, and reported, as a
        # float; alpha, which simulate has no flag for, comes from the config
        cfg.write_text(json.dumps({"gate": 1, "reps": 20, "alpha": 0.2}))
        rc, out, err = run_cli(capsys, "simulate", "--target", "label-set-coverage",
                               "--config", str(cfg))
        # a gate of 1.0 fails the check: exit 1, with the report printed
        # and no error line
        assert rc == 1 and err == "" and json.loads(out)["passed"] is False
        assert '"gate": 1.0' in out and json.loads(out)["reps"] == 20
        assert json.loads(out)["alpha"] == 0.2

    @pytest.mark.parametrize("reps", ["0", "1", "-3"])
    def test_reps_below_two_exits_one(self, capsys, reps):
        rc, out, err = run_cli(capsys, "simulate", "--target", "projection-bound",
                               "--reps", reps)
        assert rc == 1 and out == ""
        assert "reps must be an integer >= 2" in json.loads(err)["error"]

    def test_reps_is_refused_where_nothing_is_sampled(self, capsys):
        rc, out, err = run_cli(capsys, "simulate", "--target", "qinv-kernel-identity",
                               "--reps", "100")
        assert rc == 1 and out == ""
        assert "takes no key 'reps'" in json.loads(err)["error"]

    def test_bad_config_and_target(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "simulate", "--target", "nope")
        assert rc == 1
        assert "unknown validation target" in json.loads(err)["error"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run_cli(capsys, "simulate", "--target", "fdp-mean",
                             "--config", str(cfg))
        assert rc == 1
        assert "JSON object" in json.loads(err)["error"]

    def test_reports_are_strict_json(self, capsys, tmp_path):
        # equal replicates at m = 1 give se = 0 and a mean off a0: an
        # infinite z-score, which the report file and stdout write as null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 1, "reps": 2, "seed": 0}))
        outfile = tmp_path / "report.json"
        rc, out, err = run_cli(capsys, "simulate", "--target", "storey-clt",
                               "--config", str(cfg), "--output", str(outfile))
        assert rc == 1 and err == ""  # the check fails; the report is still written
        for text in (out, outfile.read_text()):
            rec = json.loads(text, parse_constant=_refuse_constant)
            assert rec["mean_zscore"] is None and rec["passed"] is False
        assert run_validation({"m": 1, "reps": 2, "seed": 0}, "storey-clt")["mean_zscore"] == np.inf

    def test_target_required_at_run_level(self):
        with pytest.raises(ValueError, match="target"):
            run(RunSpec(command="simulate"))


class TestReproduceExamples:
    def test_example_one_record(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce-example", "1", "--json")
        assert rc == 0
        rec = json.loads(out)
        assert rec["bh_t"] == pytest.approx(0.0095)
        assert rec["bh_rejected"] == 4
        assert rec["bonferroni_rejected"] == 3
        assert rec["uncorrected_rejected"] == 9
        assert rec["min_rate_T"] == pytest.approx(0.324)
        assert rec["min_rate_Z"] == pytest.approx(1 / 9, abs=1e-12)
        assert rec["min_rate_rejected"] == 9

    def test_example_two_matches_library_route(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce-example", "2", "--json")
        assert rc == 0
        rec = json.loads(out)
        scen = ScenarioConfig(m=EXAMPLE2_SCENARIO.m, a=EXAMPLE2_SCENARIO.a,
                              family=EXAMPLE2_SCENARIO.family,
                              params=EXAMPLE2_SCENARIO.params, seed=0)
        p = generate_sample(scen, 0).pvalues
        env_e = exact_envelope(exact_confidence_set(p, 0.05), p)
        env_a = asymptotic_envelope(p, t_min=1e-4, enforce_floor=False)
        assert rec["exact_ceiling_t"] == pytest.approx(
            confidence_thresholds(env_e, 0.05).t, rel=1e-12)
        assert rec["asymptotic_ceiling_t"] == pytest.approx(
            confidence_thresholds(env_a, 0.05).t, rel=1e-12)
        assert rec["min_rate_Z"] == pytest.approx(
            confidence_thresholds(env_e, None).z, rel=1e-12)
        # magnitudes the construction is supposed to deliver at this scale
        assert 1e-4 < rec["exact_ceiling_t"] < 1e-2
        assert 1e-4 < rec["asymptotic_ceiling_t"] < 1e-2
        assert rec["min_rate_Z"] < 0.05

    def test_seed_env_var_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("FDP_SEED", "3")
        rc, out, _ = run_cli(capsys, "reproduce-example", "2", "--json")
        assert json.loads(out)["seed"] == 3
        monkeypatch.setenv("FDP_SEED", "zebra")
        rc, _, err = run_cli(capsys, "reproduce-example", "2", "--json")
        assert rc == 1
        assert "FDP_SEED" in json.loads(err)["error"]

    def test_seed_env_var_read_only_where_a_seed_is(self, capsys, monkeypatch, pfile):
        monkeypatch.setenv("FDP_SEED", "x")
        for command in ("threshold", "estimate", "envelope"):
            rc, out, err = run_cli(capsys, command, "--input", pfile)
            assert rc == 0 and err == "" and out
        rc, out, err = run_cli(capsys, "simulate", "--target", "qinv-kernel-identity")
        assert rc == 1 and out == ""
        assert json.loads(err) == {"error": "FDP_SEED must be an integer"}


class TestCommandLine:
    @pytest.mark.parametrize("argv, flag", [
        (["threshold", "--seed", "3"], "--seed"),
        (["estimate", "--seed", "3"], "--seed"),
        (["envelope", "--grid", "64"], "--grid"),
        (["envelope", "--reps", "10000"], "--reps"),
        (["envelope", "--seed", "3"], "--seed"),
        (["estimate", "--output", "OUT"], "--output"),
        (["reproduce-example", "1", "--output", "OUT"], "--output"),
        (["simulate", "--target", "label-set-coverage", "--reps", "20", "--alpha", "0.2"], "--alpha"),
    ])
    def test_flags_no_subcommand_reads_are_refused(self, capsys, tmp_path, argv, flag):
        # the input file does not exist: the flag is refused before it is read
        missing = str(tmp_path / "missing.txt")
        outfile = tmp_path / "out"
        argv = [str(outfile) if a == "OUT" else a for a in argv]
        if argv[0] in ("threshold", "estimate", "envelope"):
            argv += ["--input", missing]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith(f"unrecognized arguments: {flag}")
        assert not outfile.exists()

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["threshold", "--method", "nope"], "argument --method: invalid choice: 'nope'"),
        (["estimate", "--alpha", "abc"], "argument --alpha: invalid float value: 'abc'"),
        (["envelope", "--json"], "the following arguments are required: --input"),
        (["simulate"], "the following arguments are required: --target"),
        (["reproduce-example", "3"], "argument example: invalid choice: 3"),
    ])
    def test_bad_command_line_is_a_json_error(self, capsys, pfile, argv, message):
        if argv[:1] in (["threshold"], ["estimate"]):
            argv = argv + ["--input", pfile]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["envelope", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: fdpkit" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, spec", [
        (["threshold"], {}),
        (["envelope"], {}),
        (["estimate"], {}),
        (["simulate", "--target", "fnp-mean", "--reps", "200"], {"target": "fnp-mean", "reps": 200}),
        (["reproduce-example", "1"], {"example": 1}),
        (["reproduce-example", "2"], {"example": 2}),
    ])
    def test_default_flags_give_the_run_spec_defaults(self, capsys, pfile, argv, spec):
        # the parser holds no defaults: main and run read the same ones
        if argv in (["threshold"], ["envelope"], ["estimate"]):
            argv, spec = argv + ["--input", pfile], {"input": pfile}
        argv = argv + ["--json"]
        assert vars(_parser().parse_args(argv)) == {"command": argv[0], **spec, "as_json": True}
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert out == json.dumps(run(RunSpec(command=argv[0], **spec)), sort_keys=True) + "\n"


class TestMethodTables:
    @pytest.mark.parametrize("command, default, key", [
        ("threshold", "bh", "method"), ("estimate", "storey", "method"), ("envelope", "exact", "envelope"),
    ])
    def test_each_table_feeds_argparse_and_the_default(self, tmp_path, pfile, command, default, key):
        sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices[command]._actions if a.dest == "method")
        assert method.choices == list(_METHODS[command])
        assert next(iter(_METHODS[command])) == default
        # a method of None runs the table's first entry
        rec = run(RunSpec(command=command, input=pfile))
        assert rec[key] == default
        assert rec == run(RunSpec(command=command, input=pfile, method=default))
        with pytest.raises(ValueError, match=f"^unknown {command} method: 'nope'$"):
            run(RunSpec(command=command, input=pfile, method="nope"))
        # the file is read first, so a missing one reports its own error
        with pytest.raises(FileNotFoundError):
            run(RunSpec(command=command, input=str(tmp_path / "missing.txt"), method="nope"))


class TestProcessLevel:
    def test_missing_file_exits_one(self, capsys):
        rc, _, err = run_cli(capsys, "threshold", "--input", "/no/such/file")
        assert rc == 1
        assert "error" in json.loads(err)

    def test_module_entry_point(self, pfile):
        proc = subprocess.run(
            [sys.executable, "-m", "fdpkit.cli", "threshold", "--input", pfile, "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rejected"] == 4

    def test_import_leaves_out_scipy_stats(self):
        # scipy.special alone takes about 0.3 s to import; the calls that
        # need it import it themselves
        for module in ("fdpkit", "fdpkit.cli"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys, {module}; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module

    def test_import_leaves_out_the_quantile_table(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fdpkit.cli; "
             "print('fdpkit._brownian_table' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_numpy_only_calls_run_without_scipy(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{v:.6g}\n" for v in rng.random(400) ** 2))
        csv = tmp_path / "exact.csv"
        calls = [
            ["threshold", "--method", "bh"],
            ["threshold", "--method", "plugin"],
            ["threshold", "--method", "plugin", "--variant", "floor"],
            ["threshold", "--method", "plugin", "--variant", "lcm"],
            ["threshold", "--method", "bayes"],
            ["estimate", "--method", "storey"],
            ["estimate", "--method", "astar"],
            ["estimate", "--method", "kernel"],
            # the asymptotic envelope reads its Brownian quantile from the table
            ["envelope", "--method", "asymptotic", "--t-min", "0.01", "--no-floor-check",
             "--ceiling", "0.5"],
            ["envelope", "--method", "asymptotic", "--t-min", "0.01", "--no-floor-check",
             "--min-rate"],
            # the exact envelope solves for its Beta(2, k - 1) critical values
            ["envelope", "--ceiling", "0.1"],
            ["envelope", "--min-rate"],
            ["envelope", "--min-rate", "--output", str(csv)],
        ]
        calls = [c + ["--input", str(f)] for c in calls] + [["reproduce-example", "1"]]
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from fdpkit.cli import main\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        rc = main(argv)\n"
            "    out.append([rc, buf.getvalue()])\n"
            "print(json.dumps(out))\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blocked = json.loads(proc.stdout)
        blocked_csv = csv.read_text()
        for argv, (rc, out) in zip(calls, blocked):
            want_rc, want_out, _ = run_cli(capsys, *argv)
            assert rc == want_rc == 0, argv
            assert out == want_out, argv
        assert csv.read_text() == blocked_csv

    def test_console_script(self, pfile, tmp_path):
        # Run the declared [project.scripts] entry through the wrapper that an
        # installer writes for it, so no prior install is needed.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["fdpkit"]
        module, attr = entry.split(":")
        script = tmp_path / "fdpkit"
        script.write_text(
            "import re\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({attr}())\n")

        def run_script(*argv):
            return subprocess.run([sys.executable, str(script), *argv],
                                  capture_output=True, text=True)

        proc = run_script("estimate", "--input", pfile, "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == pytest.approx(7 / 15, abs=1e-12)
        # The callable's return value is the script's exit status.
        proc = run_script("estimate", "--input", str(tmp_path / "missing.txt"))
        assert proc.returncode == 1
        assert "error" in json.loads(proc.stderr)
