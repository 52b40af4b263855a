"""Tests for the command line interface and its file formats."""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mtdr.cli
from mtdr.cli import (
    IngestResult,
    _checked_row,
    cli,
    ingest,
    load_model,
    loocv,
    save_model,
    write_long_csv,
)
from mtdr.fitting import DataSet, FitConfig, MtdrModel, Subject, fit, predict
from mtdr.monotone_map import MonotoneMap, NodeGrid
from mtdr.quantile_core import (
    CLAMP_REL,
    Domain,
    ProbGrid,
    QuantileGrid,
    frechet_mean,
    quantile_from_samples,
)
from mtdr.simulation import _DESIGNS, generate_dataset, mortality_like_samples, scenario
from mtdr.solvers import SimplexWeights

UNIT = Domain(0.0, 1.0)
REPO = Path(__file__).resolve().parents[1]


def write_rows(path, rows, header=("subject_id", "variable", "value")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def small_samples(n=5, m=10, p=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, p, m)), rng.random((n, m))


def sample_csv(path, n=5, m=10, p=1, seed=0):
    pred, resp = small_samples(n, m, p, seed)
    write_long_csv(path, pred, resp)
    return pred, resp


def _file_bytes(doc) -> bytes:
    """A JSON file's bytes: bytes as given, text encoded, anything else dumped."""
    if isinstance(doc, bytes):
        return doc
    return (doc if isinstance(doc, str) else json.dumps(doc)).encode()


def identity_model(t=25):
    grid = ProbGrid(t)
    reference = QuantileGrid(UNIT, grid, grid.levels.copy())
    node_grid = NodeGrid(UNIT, t)
    maps = tuple(MonotoneMap(node_grid, node_grid.nodes.copy()) for _ in range(2))
    return MtdrModel(reference, maps, SimplexWeights.of([0.0, 1.0]))


class TestWriteIngestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            scenario("single", (0.5, 0.5), n=5, m=12, reps=1, seed=11),
            scenario("multi", (0.3, 0.35, 0.35), n=5, m=12, reps=1, seed=11),
        ],
        ids=["single", "multi"],
    )
    def test_pipeline_identity(self, tmp_path, spec):
        gen = generate_dataset(spec, np.random.default_rng(11), t=40)
        path = tmp_path / "long.csv"
        write_long_csv(path, gen.samples.predictors, gen.samples.responses)
        grid = ProbGrid(40)
        res = ingest(str(path), UNIT, grid, p=spec.p)
        n_total = gen.samples.predictors.shape[0]
        assert len(res.subject_ids) == n_total
        for i, subject in enumerate(res.dataset.subjects):
            for j in range(spec.p):
                pred = quantile_from_samples(gen.samples.predictors[i, j], UNIT, grid)
                assert np.array_equal(subject.predictors[j].values, pred.values)
            resp = quantile_from_samples(gen.samples.responses[i], UNIT, grid)
            assert np.array_equal(subject.response.values, resp.values)
        # the training grids were built from the same raw draws
        for trained, parsed in zip(gen.train.subjects, res.dataset.subjects):
            for j in range(spec.p):
                assert np.array_equal(
                    trained.predictors[j].values, parsed.predictors[j].values
                )
            assert np.array_equal(trained.response.values, parsed.response.values)

    def test_default_subject_ids(self, tmp_path):
        pred, resp = small_samples(n=4, m=3)
        path = tmp_path / "long.csv"
        write_long_csv(path, pred, resp)
        res = ingest(str(path), UNIT, ProbGrid(6), p=1)
        assert res.subject_ids == ("s001", "s002", "s003", "s004")

    def test_predictors_only(self, tmp_path):
        pred, _ = small_samples(n=3, m=5)
        path = tmp_path / "preds.csv"
        write_long_csv(path, pred)
        res = ingest(
            str(path), UNIT, ProbGrid(8), p=1, require_response=False
        )
        assert res.dataset.n == 3
        assert all(s.response is None for s in res.dataset.subjects)

    def test_padded_fields_group_with_unpadded(self, tmp_path):
        plain = [["a", "pred1", "0.25"], ["a", "response", "0.5"],
                 ["a", "pred1", "0.75"], ["a", "response", "0.125"]]  # fmt: skip
        padded = [["a", "pred1", "0.25"], [" a ", "response", "0.5 "],
                  ["a\t", " pred1", " 0.75"], ["a", "response ", "\t0.125"]]  # fmt: skip
        results = []
        for name, rows in (("plain.csv", plain), ("padded.csv", padded)):
            write_rows(tmp_path / name, rows)
            results.append(ingest(str(tmp_path / name), UNIT, ProbGrid(5), p=1))
        expected, got = results
        assert got.subject_ids == expected.subject_ids == ("a",)
        for mine, theirs in zip(got.dataset.subjects, expected.dataset.subjects):
            assert np.array_equal(mine.predictors[0].values, theirs.predictors[0].values)
            assert np.array_equal(mine.response.values, theirs.response.values)

    def test_interleaved_subjects_keep_first_appearance_order(self, tmp_path):
        rng = np.random.default_rng(44)
        draws = {sid: rng.random((2, 6)) for sid in ("b", "a", "c")}
        rows = [
            [sid, var, repr(float(draws[sid][k, i]))]
            for i in range(6)
            for sid in ("b", "a", "c")
            for k, var in enumerate(("pred1", "response"))
        ]
        path = tmp_path / "interleaved.csv"
        write_rows(path, rows)
        grid = ProbGrid(7)
        res = ingest(str(path), UNIT, grid, p=1)
        assert res.subject_ids == ("b", "a", "c")
        for sid, subject in zip(res.subject_ids, res.dataset.subjects):
            pred = quantile_from_samples(draws[sid][0], UNIT, grid)
            resp = quantile_from_samples(draws[sid][1], UNIT, grid)
            assert np.array_equal(subject.predictors[0].values, pred.values)
            assert np.array_equal(subject.response.values, resp.values)

    def test_custom_subject_ids_preserved(self, tmp_path):
        pred, resp = small_samples(n=2, m=4)
        path = tmp_path / "long.csv"
        write_long_csv(path, pred, resp, subject_ids=["DK", "SE"])
        res = ingest(str(path), UNIT, ProbGrid(5), p=1)
        assert res.subject_ids == ("DK", "SE")


class TestIngestErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1", "0.5"]], header=("id", "var", "val"))
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "expected header subject_id,variable,value"

    def test_unknown_variable_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1", "0.5"], ["a", "pred2", "0.5"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 3: unknown variable 'pred2'"

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1", "abc"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 2: non-numeric value 'abc'"

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "response", "inf"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 2: non-finite value"

    def test_out_of_domain_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1", "1.5"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 2: value 1.5 outside domain [0.0, 1.0]"

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 2: expected 3 fields"

    def test_missing_variable_names_subject(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["s7", "pred1", "0.25"], ["s7", "pred1", "0.75"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "subject 's7' is missing variable 'response'"

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_rows(path, [])
        with pytest.raises(ValueError, match="no data rows"):
            ingest(str(path), UNIT, ProbGrid(4), p=1)

    def test_blank_lines_count_toward_row_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("subject_id,variable,value\n\na,pred1,oops\n")
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 3: non-numeric value 'oops'"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["a", "pred1", "oops"], ["a", "pred2", "0.5"]],
             "row 3: non-numeric value 'oops'"),
            ([["a", "pred1", "1.5"], ["a", "pred1", "x"]],
             "row 3: value 1.5 outside domain [0.0, 1.0]"),
            ([["a", "pred1", "nan"], ["a", "pred1"]], "row 3: non-finite value"),
            ([["a", "pred1", "0.5", "0.75"], ["a", "pred1", "2.0"]],
             "row 3: expected 3 fields"),
        ],
        ids=["non_numeric", "out_of_domain", "non_finite", "field_count"],
    )  # fmt: skip
    def test_first_bad_row_wins(self, tmp_path, rows, message):
        # the first row of each case is a valid row of the pair the bad row
        # repeats, so the bad row is read as a known pair
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1", "0.5"], *rows])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == message

    def test_unknown_variable_named_before_its_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [["a", "pred1", "0.5"], ["a", "pred9", "abc"]])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 3: unknown variable 'pred9'"

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_after_valid_rows_of_its_pair(self, tmp_path, raw):
        path = tmp_path / "bad.csv"
        rows = [["a", "pred1", "0.5"], ["a", "pred1", "0.25"], ["a", "pred1", raw]]
        write_rows(path, rows)
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 4: non-finite value"

    def test_csv_error_after_bad_row_reports_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        huge = ["a", "pred1", "1" * (csv.field_size_limit() + 1)]
        write_rows(path, [["a", "pred1", "0.5"], ["a", "pred1", "oops"], huge])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        assert str(err.value) == "row 3: non-numeric value 'oops'"
        write_rows(path, [["a", "pred1", "0.5"], huge])
        with pytest.raises(ValueError) as err:
            ingest(str(path), UNIT, ProbGrid(4), p=1)
        limit = csv.field_size_limit()
        assert str(err.value) == f"row 3: field larger than field limit ({limit})"

    def test_clamp_band_admits_roundoff(self, tmp_path):
        path = tmp_path / "edge.csv"
        write_rows(
            path,
            [
                ["a", "pred1", repr(1.0 + 1e-10)],
                ["a", "response", "0.5"],
            ],
        )
        res = ingest(str(path), UNIT, ProbGrid(3), p=1)
        assert float(res.dataset.subjects[0].predictors[0].values[-1]) <= 1.0


def reference_ingest(path, domain, grid, p, require_response=True):
    """ingest's result, or its error, with every row read by _checked_row and
    every sample list estimated alone."""
    band = CLAMP_REL * domain.width
    low, high = domain.lo - band, domain.hi + band
    allowed = {f"pred{j}" for j in range(1, p + 1)} | {"response"}
    samples: dict = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != [
                "subject_id",
                "variable",
                "value",
            ]:
                raise ValueError("expected header subject_id,variable,value")
            for row_no, row in enumerate(reader, start=2):
                checked = _checked_row(row, row_no, allowed, domain, low, high)
                if checked is not None:
                    sid, var, value = checked
                    samples.setdefault(sid, {}).setdefault(var, []).append(value)
        except csv.Error as exc:
            raise ValueError(f"row {reader.line_num}: {exc}") from None
    if not samples:
        raise ValueError("no data rows")
    needed = [f"pred{j}" for j in range(1, p + 1)] + ["response"] * require_response
    subjects = []
    for sid, got in samples.items():
        for var in needed:
            if var not in got:
                raise ValueError(f"subject {sid!r} is missing variable {var!r}")
        estimated = {var: quantile_from_samples(x, domain, grid) for var, x in got.items()}
        preds = tuple(estimated[f"pred{j}"] for j in range(1, p + 1))
        subjects.append(Subject(preds, estimated.get("response")))
    return IngestResult(DataSet(tuple(subjects)), tuple(samples))


# subject ids that need quoting, or that ingest strips, or that are not ASCII
ODD_IDS = ["a,b", 'say "hi"', "cr\rid", "lf\nid", " padded ", "ünï", ""]
BAD_VALUES = ["abc", "1.5", "-0.5", "nan", "-inf", ""]


@st.composite
def long_files(draw):
    """(file text, p, require_response) of a long CSV with awkward rows.

    Sample counts differ between lists, and a pair's rows come in chunks
    that may be shuffled apart.  The file may hold blank lines, padded
    fields, CRLF line ends, a byte-order mark, a missing variable and one
    bad row.
    """
    rnd = draw(st.randoms(use_true_random=True))
    p = draw(st.integers(0, 2))
    n = draw(st.integers(1, 8) | st.integers(30, 48))  # the latter fill blocks
    require_response = draw(st.booleans())
    names = [f"pred{j}" for j in range(1, p + 1)] + ["response"]
    ids = [rnd.choice(ODD_IDS) + str(i) for i in range(n)]
    if rnd.random() < 0.3:
        ids[rnd.randrange(n)] = ""

    def pad(field):
        if rnd.random() < 0.8:
            return field
        return rnd.choice(["", " ", "\t"]) + field + rnd.choice(["", " "])

    chunks = []
    for sid in ids:
        for var in names:
            values = [rnd.choice([0.0, 1.0, 1.0 + 1e-10, -1e-10, rnd.random()])
                      for _ in range(rnd.choice([1, 3, 3, 3, 5]))]  # fmt: skip
            cut = rnd.randint(0, len(values))
            chunks += [[[pad(sid), pad(var), pad(repr(x))] for x in part]
                       for part in (values[:cut], values[cut:]) if part]  # fmt: skip
    if draw(st.integers(0, 9)) == 0:
        chunks.pop(rnd.randrange(len(chunks)))  # a subject may lose a variable
    if draw(st.booleans()):
        rnd.shuffle(chunks)
    rows = [row for chunk in chunks for row in chunk]
    for _ in range(rnd.randint(0, 3)):
        rows.insert(rnd.randint(0, len(rows)), rnd.choice([[], [" "]]))
    if draw(st.booleans()):
        sid, var = pad(rnd.choice(ids)), pad(rnd.choice(names))
        bad = rnd.choice([[sid, var, rnd.choice(BAD_VALUES)], [sid, "pred9", "0.5"],
                          [sid, var], [sid, var, "0.5", "0.5"]])  # fmt: skip
        rows.insert(rnd.randint(0, len(rows)), bad)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in [["subject_id", "variable", "value"]] + rows:
        buf = io.StringIO()  # quoted as in a CRLF file, so fields keep their CR and LF
        csv.writer(buf).writerow(row)
        lines.append(buf.getvalue()[:-2] + eol)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(lines), p, require_response


def _ingested(read, path, p, require_response):
    """The subject ids and every grid's bytes read from path, or the error text."""
    try:
        res = read(path, UNIT, ProbGrid(7), p, require_response)
    except ValueError as err:
        return str(err)
    grids = [(*s.predictors, s.response) for s in res.dataset.subjects]
    return res.subject_ids, [[g and g.values.tobytes() for g in gs] for gs in grids]


class TestIngestMatchesReference:
    @given(long_files())
    def test_same_dataset_or_same_error(self, case):
        text, p, require_response = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "long.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = _ingested(ingest, path, p, require_response)
            assert got == _ingested(reference_ingest, path, p, require_response)

    def test_blocks_of_equal_sample_counts(self, tmp_path):
        # 70 lists of 4 samples and 10 of 3: blocks of 32, 32, 6 and 10
        rng = np.random.default_rng(52)
        rows = [[f"s{i}", var, repr(float(x))]
                for i in range(40) for var in ("pred1", "response")
                for x in rng.random(3 if i % 8 == 0 else 4)]  # fmt: skip
        path = tmp_path / "blocks.csv"
        write_rows(path, rows)
        args = (str(path), UNIT, ProbGrid(9), 1)
        got, expected = ingest(*args), reference_ingest(*args)
        assert got.subject_ids == expected.subject_ids
        for mine, theirs in zip(got.dataset.subjects, expected.dataset.subjects):
            assert mine.predictors[0].values.tobytes() == theirs.predictors[0].values.tobytes()
            assert mine.response.values.tobytes() == theirs.response.values.tobytes()


class TestCsvWriters:
    """The CSV writers give csv.writer's bytes for subject ids that need quoting."""

    @pytest.mark.parametrize("with_responses", [True, False])
    def test_long_csv_equals_csv_writer(self, tmp_path, with_responses):
        rng = np.random.default_rng(53)
        n = len(ODD_IDS)
        pred = rng.random((n, 2, 4))
        resp = [rng.random(k + 1) for k in range(n)] if with_responses else None
        path = tmp_path / "long.csv"
        write_long_csv(path, pred, resp, subject_ids=ODD_IDS)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "variable", "value"])
            for i, sid in enumerate(ODD_IDS):
                if with_responses:
                    writer.writerows([sid, "response", repr(float(x))] for x in resp[i])
                for j in range(2):
                    writer.writerows([sid, f"pred{j + 1}", repr(float(x))] for x in pred[i, j])
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_predict_equals_csv_writer(self, fitted, tmp_path):
        _, model, _ = fitted
        model_path = tmp_path / "model.json"
        save_model(str(model_path), model)
        # 40 subjects, more than one block, with unequal sample counts
        rng = np.random.default_rng(54)
        ids = ODD_IDS + [f"{ODD_IDS[i % len(ODD_IDS)]}{i}" for i in range(33)]
        rows = [[sid, "pred1", repr(float(x))] for k, sid in enumerate(ids)
                for x in rng.random(3 + k % 5)]  # fmt: skip
        data = tmp_path / "data.csv"
        write_rows(data, rows)
        out = tmp_path / "preds.csv"
        argv = ["predict", "--model", str(model_path), "--data", str(data), "--out", str(out)]
        assert cli(argv) == 0
        res = ingest(str(data), UNIT, model.prob_grid, p=1, require_response=False)
        assert res.subject_ids == tuple(sid.strip() for sid in ids)
        levels = [repr(level) for level in model.prob_grid.levels.tolist()]
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "p", "quantile"])
            for sid, subject in zip(res.subject_ids, res.dataset.subjects):
                values = predict(model, subject.predictors).values.tolist()
                writer.writerows([sid, level, repr(v)] for level, v in zip(levels, values))
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestMortalityLikeScript:
    SCRIPT = REPO / "scripts" / "make_mortality_like.py"

    def run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip

    def test_default_file_bytes(self, tmp_path):
        # the sha256 of the file as the row-by-row csv.writer wrote it
        out = tmp_path / "mortality_like.csv"
        assert self.run("--out", str(out)).returncode == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "9fc76017bacec4996ab29f3a5e8d10339bfcb6c4697e91c61b62b13d85f81757"

    @pytest.mark.parametrize(
        "args, message",
        [(["--n", "0"], "must be"), (["--m", "0"], "must be"),
         (["--seed", "-1"], "must be"), (["--lo", "5", "--hi", "5"], "lo < hi")],
    )  # fmt: skip
    def test_bad_size_or_domain_is_usage_error(self, tmp_path, args, message):
        proc = self.run(*args, "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()


@pytest.fixture(scope="module")
def fitted():
    spec = scenario("single", (0.5, 0.5), n=6, m=15, reps=1, seed=21)
    gen = generate_dataset(spec, np.random.default_rng(21), t=30)
    grid = gen.train.prob_grid
    reference = QuantileGrid(UNIT, grid, grid.levels.copy())
    model, report = fit(gen.train, 1, reference)
    return gen, model, report


class TestModelFile:
    def test_round_trip_bit_exact(self, fitted, tmp_path):
        _, model, report = fitted
        first = tmp_path / "model.json"
        second = tmp_path / "again.json"
        save_model(str(first), model, report)
        loaded, loaded_report = load_model(str(first))
        assert np.array_equal(loaded.weights.values, model.weights.values)
        assert np.array_equal(
            loaded.reference.values, model.reference.values
        )
        for ours, theirs in zip(model.maps, loaded.maps):
            assert np.array_equal(ours.values, theirs.values)
        assert np.array_equal(loaded_report.trajectory, report.trajectory)
        assert loaded_report.converged == report.converged
        save_model(str(second), loaded, loaded_report)
        assert first.read_bytes() == second.read_bytes()

    def test_predictions_preserved(self, fitted, tmp_path):
        gen, model, report = fitted
        path = tmp_path / "model.json"
        save_model(str(path), model, report)
        loaded, _ = load_model(str(path))
        for subject in gen.test.subjects:
            before = predict(model, subject.predictors).values
            after = predict(loaded, subject.predictors).values
            assert np.array_equal(before, after)

    def test_unknown_grid_kind_is_rejected(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(str(model_path), identity_model(t=4))
        valid = json.loads(model_path.read_text())
        assert valid["prob_grid"] == {"kind": "midpoint", "size": 4}
        assert valid["node_grid"] == {"kind": "uniform", "size": 4}
        data = tmp_path / "d.csv"
        sample_csv(data, n=2, m=4, seed=43)
        levels = [0.125, 0.375, 0.625, 0.875]
        for key, spec in [
            ("prob_grid", {"kind": "explicit", "levels": levels}),
            ("prob_grid", {"kind": "uniform", "size": 4}),
            (
                "node_grid",
                {"kind": "explicit", "nodes": levels,
                 "edges": [0.0, 0.25, 0.5, 0.75, 1.0]},
            ),  # fmt: skip
            ("node_grid", {"kind": "midpoint", "size": 4}),
            ("node_grid", {"kind": "bogus", "size": 4}),
        ]:
            model_path.write_text(json.dumps({**valid, key: spec}))
            code = cli(
                ["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(tmp_path / "p.csv")]
            )  # fmt: skip
            assert code == 1
            assert f"error: {key} kind {spec['kind']!r}" in capsys.readouterr().err

    def test_report_optional(self, fitted, tmp_path):
        _, model, _ = fitted
        path = tmp_path / "bare.json"
        save_model(str(path), model)
        _, loaded_report = load_model(str(path))
        assert loaded_report is None

    def test_format_version_rejected(self, fitted, tmp_path):
        _, model, _ = fitted
        path = tmp_path / "model.json"
        save_model(str(path), model)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_model(str(path))


class TestCliFitPredictEvaluate:
    def test_fit_writes_loadable_model(self, tmp_path):
        data = tmp_path / "train.csv"
        sample_csv(data, seed=31)
        out = tmp_path / "model.json"
        code = cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "40",
                "--out", str(out),
            ]
        )
        assert code == 0
        model, report = load_model(str(out))
        assert model.p == 1
        assert report is not None and report.trajectory.size >= 1

    def test_fit_reads_byte_order_mark(self, tmp_path):
        # spreadsheet tools and editors save UTF-8 files with a byte-order mark
        def marked(path):
            out = path.with_name("marked_" + path.name)
            out.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            return out

        def fitted(data, reference):
            out = tmp_path / "model.json"
            code = cli(
                ["fit", "--data", str(data), "--p", "1", "--domain", "0,1",
                 "--t", "20", "--reference", str(reference), "--out", str(out)]
            )  # fmt: skip
            assert code == 0
            return out.read_bytes()

        data, reference = tmp_path / "train.csv", tmp_path / "reference.json"
        sample_csv(data, seed=39)
        levels = (np.arange(20) + 0.5) / 20
        reference.write_text(json.dumps({"quantiles": (levels**1.5).tolist()}))
        model = fitted(data, reference)
        assert fitted(marked(data), reference) == model
        assert fitted(data, marked(reference)) == model
        predictions = []
        for path in (tmp_path / "model.json", marked(tmp_path / "model.json")):
            out = tmp_path / "predictions.csv"
            code = cli(
                ["predict", "--model", str(path), "--data", str(data),
                 "--out", str(out)]
            )  # fmt: skip
            assert code == 0
            predictions.append(out.read_bytes())
        assert predictions[0] == predictions[1]

    def test_fit_on_domain_whose_grid_end_rounds(self, tmp_path):
        # lo + width * t / t misses hi by rounding for this domain and t, but
        # the knots end at lo and hi themselves
        domain = Domain(-1.0, 0.9)
        pred, resp = small_samples(n=4, m=10, seed=38)
        data = tmp_path / "train.csv"
        write_long_csv(data, domain.lo + domain.width * pred,
                       domain.lo + domain.width * resp)
        out = tmp_path / "model.json"
        code = cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain=-1,0.9",
                "--t", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        model, _ = load_model(str(out))
        assert model.node_grid.knots[0] == -1.0
        assert model.node_grid.knots[-1] == 0.9

    def test_fixed_weights_respected(self, tmp_path):
        data = tmp_path / "train.csv"
        sample_csv(data, seed=32)
        out = tmp_path / "model.json"
        code = cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "30",
                "--fixed-weights", "0.3,0.7",
                "--out", str(out),
            ]
        )
        assert code == 0
        model, _ = load_model(str(out))
        assert np.array_equal(model.weights.values, [0.3, 0.7])

    def test_reference_file_escape_hatch(self, tmp_path):
        data = tmp_path / "train.csv"
        sample_csv(data, seed=33)
        grid = ProbGrid(30)
        ref_path = tmp_path / "reference.json"
        quantiles = 0.1 + 0.8 * grid.levels
        ref_path.write_text(json.dumps({"quantiles": quantiles.tolist()}))
        out = tmp_path / "model.json"
        code = cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "30",
                "--reference", str(ref_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        model, _ = load_model(str(out))
        assert np.allclose(model.reference.values, quantiles, atol=1e-15)

    def test_frechet_reference_is_training_mean(self, tmp_path):
        data = tmp_path / "train.csv"
        sample_csv(data, seed=34)
        out = tmp_path / "model.json"
        code = cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "30",
                "--reference", "frechet",
                "--out", str(out),
            ]
        )
        assert code == 0
        model, _ = load_model(str(out))
        res = ingest(str(data), UNIT, ProbGrid(30), p=1)
        responses = [s.response for s in res.dataset.subjects]
        lam = np.full(len(responses), 1.0 / len(responses))
        expected = frechet_mean(responses, lam)
        assert np.array_equal(model.reference.values, expected.values)

    def test_predict_csv_matches_api(self, tmp_path):
        data = tmp_path / "train.csv"
        sample_csv(data, seed=35)
        model_path = tmp_path / "model.json"
        cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "30",
                "--out", str(model_path),
            ]
        )
        preds_path = tmp_path / "preds.csv"
        code = cli(
            [
                "predict",
                "--model", str(model_path),
                "--data", str(data),
                "--out", str(preds_path),
            ]
        )
        assert code == 0
        model, _ = load_model(str(model_path))
        res = ingest(str(data), UNIT, model.prob_grid, p=1, require_response=False)
        by_subject: dict = {}
        with open(preds_path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["subject_id", "p", "quantile"]
            for sid, level, value in reader:
                by_subject.setdefault(sid, []).append(
                    (float(level), float(value))
                )
        for sid, subject in zip(res.subject_ids, res.dataset.subjects):
            got = np.asarray(by_subject[sid], dtype=float)
            expected = predict(model, subject.predictors)
            assert np.array_equal(got[:, 0], model.prob_grid.levels)
            assert np.array_equal(got[:, 1], expected.values)

    def test_predict_quotes_subject_ids(self, tmp_path):
        model_path = tmp_path / "model.json"
        save_model(str(model_path), identity_model(t=4))
        data = tmp_path / "data.csv"
        pred, _ = small_samples(n=2, m=5, seed=37)
        write_long_csv(data, pred, subject_ids=["Smith, J", "plain"])
        out = tmp_path / "preds.csv"
        code = cli(
            ["predict", "--model", str(model_path), "--data", str(data),
             "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 4
        assert all(line.startswith('"Smith, J",') for line in lines[1:5])
        assert lines[1].startswith('"Smith, J",0.125,')
        assert all(line.startswith("plain,") for line in lines[5:])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ["Smith, J"] * 4 + ["plain"] * 4

    def test_evaluate_perfect_predictions_prints_zero(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(str(model_path), identity_model(t=25))
        rng = np.random.default_rng(36)
        rows = []
        for i in range(3):
            draws = rng.random(8)
            for x in draws:
                rows.append([f"u{i}", "pred1", repr(float(x))])
            for x in draws:
                rows.append([f"u{i}", "response", repr(float(x))])
        data = tmp_path / "self.csv"
        write_rows(data, rows)
        for metric in ("rmse", "awd"):
            code = cli(
                [
                    "evaluate",
                    "--model", str(model_path),
                    "--data", str(data),
                    "--metric", metric,
                ]
            )
            assert code == 0
            assert capsys.readouterr().out == "0.0\n"

    def test_evaluate_writes_json(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        sample_csv(data, seed=37)
        model_path = tmp_path / "model.json"
        cli(
            [
                "fit",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "30",
                "--out", str(model_path),
            ]
        )
        out = tmp_path / "score.json"
        code = cli(
            [
                "evaluate",
                "--model", str(model_path),
                "--data", str(data),
                "--metric", "awd",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = float(capsys.readouterr().out)
        doc = json.loads(out.read_text())
        assert doc["metric"] == "awd"
        assert doc["value"] == printed
        assert doc["format_version"] == 1


class TestCliSimulate:
    def test_smoke_and_outputs(self, tmp_path):
        out = tmp_path / "study"
        code = cli(
            [
                "simulate",
                "--scenario", "single",
                "--alpha", "0.5",
                "--n", "6",
                "--m", "5",
                "--reps", "1",
                "--seed", "3",
                "--t", "40",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["format_version"] == 1
        assert doc["alpha_star"] == [0.5, 0.5]
        assert doc["t"] == 40
        assert set(doc["metrics"]) >= {"pred_seminorm_err", "weight_err", "rmse"}
        [rep] = doc["replications"]
        assert set(rep) == {"iterations", "converged"}
        assert isinstance(rep["converged"], bool)
        assert 1 <= rep["iterations"] <= FitConfig().max_outer_iter
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["scenario", "p", "alpha_star"]
        assert len(rows) == 1 + len(doc["metrics"])

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--scenario", "single",
            "--alpha", "0.5",
            "--n", "6",
            "--m", "5",
            "--reps", "2",
            "--seed", "9",
            "--t", "40",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli(args + ["--out", str(out1)]) == 0
        assert cli(args + ["--out", str(out2)]) == 0
        for name in ("summary.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_multi_scenario_weights(self, tmp_path):
        out = tmp_path / "multi"
        code = cli(
            [
                "simulate",
                "--scenario", "multi",
                "--alpha", "0.2,0.4,0.4",
                "--n", "8",
                "--m", "5",
                "--reps", "1",
                "--seed", "4",
                "--t", "30",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["p"] == 2
        assert doc["alpha_star"] == [0.2, 0.4, 0.4]

    def test_single_pair_is_used_as_given(self, tmp_path):
        # not rebuilt as (1 - 0.7, 0.7), which is (0.30000000000000004, 0.7)
        out = tmp_path / "pair"
        code = cli(
            ["simulate", "--scenario", "single", "--alpha", "0.3,0.7", "--n", "6",
             "--m", "5", "--reps", "1", "--t", "30", "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["alpha_star"] == [0.3, 0.7]
        with open(out / "summary.csv", newline="") as fh:
            header, first = list(csv.reader(fh))[:2]
        assert first[header.index("alpha_star")] == "0.3;0.7"

    def test_study_script_writes_simulate_format(self, tmp_path):
        sim = tmp_path / "sim"
        assert cli(
            ["simulate", "--scenario", "single", "--alpha", "0.5", "--n", "6",
             "--m", "5", "--reps", "1", "--t", "30", "--out", str(sim)]
        ) == 0  # fmt: skip
        keys = set(json.loads((sim / "summary.json").read_text()))
        out = tmp_path / "study"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        subprocess.run(
            [sys.executable, str(REPO / "scripts" / "run_simulation_study.py"),
             "--quick", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )  # fmt: skip
        studies = sorted(path.stem for path in out.glob("*.csv"))
        assert len(studies) == 6
        assert sorted(path.name for path in out.glob("*.json")) == sorted(
            [f"{name}.json" for name in studies] + ["overview.json"]
        )
        for name in studies:
            doc = json.loads((out / f"{name}.json").read_text())
            assert set(doc) >= keys
            assert doc["scenario"] == name
        doc = json.loads((out / "transport_equivalence.json").read_text())
        assert set(doc["fixed_weight_metrics"]) == set(doc["metrics"])

    @pytest.mark.parametrize("flag, value", [("--t", "1"), ("--reps", "0")])
    def test_study_script_size_is_usage_error(self, tmp_path, flag, value):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "run_simulation_study.py"),
             "--quick", flag, value, "--out", str(tmp_path / "study")],
            env=env, capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        assert proc.returncode == 2
        assert "must be at least" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_noise_orders(self, tmp_path, capsys):
        args = ["simulate", "--scenario", "single", "--alpha", "0.5", "--n", "4",
                "--m", "4", "--reps", "1", "--t", "20", "--out", str(tmp_path)]  # fmt: skip
        assert cli(args + ["--noise-orders=-2,0,2"]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["noise_orders"] == [-2, 0, 2]
        assert cli(args + ["--noise-orders=1,2"]) == 1
        assert "symmetric about zero" in capsys.readouterr().err
        assert cli(args + ["--include-zero-order"]) == 2

    @pytest.mark.parametrize("design", list(_DESIGNS))
    def test_every_design_runs(self, tmp_path, design):
        p = len(_DESIGNS[design][1])
        out = tmp_path / design
        equal = ",".join([repr(1 / (p + 1))] * (p + 1))
        code = cli(
            ["simulate", "--scenario", design, "--alpha", equal, "--n", "6", "--m", "5",
             "--reps", "1", "--t", "20", "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["p"] == p
        assert doc["alpha_star"] == [1 / (p + 1)] * (p + 1)

    def test_new_design_needs_only_its_row(self, tmp_path, monkeypatch, capsys):
        def wide(p):  # warp orders and Beta ranges of the wide design family
            orders = (4, 3, -5, 2, -2, 5, -3, 1, -1, 6, -4)[: p + 1]
            ranges = tuple(
                ((1.0 + j % 3, 5.0 + j % 3), (1.0 + j % 2, 5.0 + j % 2)) for j in range(p)
            )
            return orders, ranges

        assert (wide(1), wide(2)) == (_DESIGNS["single"], _DESIGNS["multi"])
        monkeypatch.setitem(_DESIGNS, "triple", wide(3))
        args = ["simulate", "--scenario", "triple", "--n", "6", "--m", "5", "--reps", "1",
                "--t", "20"]  # fmt: skip
        out = tmp_path / "triple"
        assert cli([*args, "--alpha", "0.25,0.25,0.25,0.25", "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert (doc["scenario"], doc["p"], doc["alpha_star"]) == ("triple", 3, [0.25] * 4)
        assert cli([*args, "--alpha", "0.5,0.5", "--out", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err == "error: triple scenario takes 4 alpha values\n"
        assert not (tmp_path / "bad").exists()

    def test_wrong_alpha_count_is_runtime_error(self, tmp_path, capsys):
        # three values for one predictor, and a pair off the simplex
        for alpha in ("0.1,0.2,0.7", "0.3,0.5"):
            code = cli(
                [
                    "simulate",
                    "--scenario", "single",
                    "--alpha", alpha,
                    "--n", "4",
                    "--m", "4",
                    "--reps", "1",
                    "--out", str(tmp_path / "x"),
                ]
            )
            assert code == 1
            assert "error:" in capsys.readouterr().err

    def test_weight_errors_name_the_flag(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        sample_csv(data, n=3, m=4, seed=47)
        fit_args = ["fit", "--data", str(data), "--p", "1", "--domain", "0,1"]
        single = ["simulate", "--scenario", "single", "--n", "4", "--m", "4", "--reps", "1"]
        multi = ["simulate", "--scenario", "multi", "--n", "4", "--m", "4", "--reps", "1"]
        off_sum, negative = "weights must sum to one", "weights must be finite and nonnegative"
        for argv, message in [
            (fit_args + ["--fixed-weights", "0.5,0.4"], f"--fixed-weights: {off_sum}"),
            (fit_args + ["--fixed-weights=-0.5,1.5"], f"--fixed-weights: {negative}"),
            (single + ["--alpha", "0.3,0.5"], f"--alpha: {off_sum}"),
            (single + ["--alpha", "1.5"], f"--alpha: {negative}"),
            (multi + ["--alpha", "0.2,0.2,0.2"], f"--alpha: {off_sum}"),
        ]:
            code = cli([*argv, "--out", str(tmp_path / "out")])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestCliLoocv:
    def run_loocv(self, tmp_path, name, reference="uniform"):
        data = tmp_path / "train.csv"
        if not data.exists():
            sample_csv(data, n=5, m=8, seed=41)
        out = tmp_path / name
        code = cli(
            [
                "loocv",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "30",
                "--reference", reference,
                "--out", str(out),
            ]
        )
        return code, out

    def test_report_structure_and_exact_mean(self, tmp_path):
        code, out = self.run_loocv(tmp_path, "report.json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        assert [f["subject_id"] for f in doc["folds"]] == [
            "s001", "s002", "s003", "s004", "s005",
        ]
        distances = [f["distance"] for f in doc["folds"]]
        assert all(d >= 0.0 for d in distances)
        assert all(len(f["alpha"]) == 2 for f in doc["folds"])
        assert doc["awd"] == float(np.mean(distances))
        for f in doc["folds"]:
            assert type(f["iterations"]) is int and type(f["converged"]) is bool
            assert 1 <= f["iterations"] <= FitConfig().max_outer_iter
            assert f["converged"] or f["iterations"] == FitConfig().max_outer_iter

    def test_reference_file_matches_uniform(self, tmp_path):
        ref_path = tmp_path / "reference.json"
        levels = ProbGrid(30).levels
        ref_path.write_text(json.dumps({"quantiles": levels.tolist()}))
        _, uniform = self.run_loocv(tmp_path, "uniform.json")
        code, from_file = self.run_loocv(tmp_path, "file.json", str(ref_path))
        assert code == 0
        a, b = json.loads(uniform.read_text()), json.loads(from_file.read_text())
        assert b.pop("reference") == str(ref_path)
        assert a.pop("reference") == "uniform"
        assert a == b

    def test_reference_file_read_once(self, tmp_path, monkeypatch):
        # a file reference cannot depend on the fold, so 5 folds read it once
        ref_path = tmp_path / "reference.json"
        ref_path.write_text(json.dumps({"quantiles": ProbGrid(30).levels.tolist()}))
        reads = []

        def recording_read(path, what):
            reads.append(path)
            return read_json(path, what)

        read_json = mtdr.cli._read_json
        monkeypatch.setattr(mtdr.cli, "_read_json", recording_read)
        code, _ = self.run_loocv(tmp_path, "file.json", str(ref_path))
        assert code == 0
        assert reads == [str(ref_path)]

    def test_fold_reference_never_sees_held_out_response(self, monkeypatch):
        grid = ProbGrid(30)
        pred, resp = small_samples(n=5, m=8, seed=41)
        data = DataSet(
            tuple(
                Subject((quantile_from_samples(x[0], UNIT, grid),),
                        quantile_from_samples(y, UNIT, grid))
                for x, y in zip(pred, resp)
            )
        )  # fmt: skip
        calls = []

        def recording_mean(measures, weights):
            calls.append((list(measures), np.asarray(weights)))
            return frechet_mean(measures, weights)

        monkeypatch.setattr(mtdr.cli, "frechet_mean", recording_mean)
        loocv(data, [f"s{i}" for i in range(data.n)], "frechet")
        assert len(calls) == data.n
        for i, (measures, weights) in enumerate(calls):
            rest = [s.response for j, s in enumerate(data.subjects) if j != i]
            assert len(measures) == len(rest)
            assert all(a is b for a, b in zip(measures, rest))
            assert np.array_equal(weights, np.full(data.n - 1, 1.0 / (data.n - 1)))

    def test_byte_identical_reruns(self, tmp_path):
        _, first = self.run_loocv(tmp_path, "a.json")
        _, second = self.run_loocv(tmp_path, "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_data_fitted_exactly(self, tmp_path):
        # each response equals its predictor, so identity maps with all the
        # weight on pred1 fit every fold to rounding level
        pred = np.random.default_rng(1).beta(2, 3, (20, 1, 200)) * 100
        data = tmp_path / "exact.csv"
        write_long_csv(data, pred, pred[:, 0, :])
        out = tmp_path / "report.json"
        code = cli(
            ["loocv", "--data", str(data), "--p", "1", "--domain", "0,100",
             "--t", "100", "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        assert all(f["converged"] for f in json.loads(out.read_text())["folds"])

    def test_frechet_reference_of_binned_data(self, tmp_path):
        # ages recorded in 5-year bands, as in abridged life tables: the
        # Frechet reference then has flat stretches, and fits as any other
        pred, resp = mortality_like_samples(n=34, m=500, seed=7)
        data = tmp_path / "binned.csv"
        write_long_csv(data, 5.0 * np.round(pred / 5.0), 5.0 * np.round(resp / 5.0))
        reports = {}
        for reference in ("uniform", "frechet"):
            out = tmp_path / f"loocv_{reference}.json"
            code = cli(
                ["loocv", "--data", str(data), "--p", "2", "--domain", "0,100",
                 "--t", "300", "--reference", reference, "--out", str(out)]
            )  # fmt: skip
            assert code == 0
            reports[reference] = json.loads(out.read_text())
        assert all(f["converged"] for f in reports["frechet"]["folds"])
        # criterion 10's window between the two references
        assert abs(reports["uniform"]["awd"] - reports["frechet"]["awd"]) < 5e-3

    def test_needs_two_subjects(self, tmp_path, capsys):
        data = tmp_path / "solo.csv"
        sample_csv(data, n=1, m=6, seed=42)
        code = cli(
            [
                "loocv",
                "--data", str(data),
                "--p", "1",
                "--domain", "0,1",
                "--t", "20",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "at least two subjects" in capsys.readouterr().err


class TestWorkerPool:
    """loocv folds and simulate replications run on one worker per usable CPU."""

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path):
        # the same commands pinned to one CPU, which runs them serially, and
        # free to use every CPU; on a one-CPU machine both sides are serial
        sample_csv(tmp_path / "d.csv", n=6, m=12, seed=45)
        code = """if True:
            import os, sys
            from mtdr.cli import cli

            if sys.argv[1] == "pinned":
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            os.makedirs(sys.argv[1])
            os.chdir(sys.argv[1])
            assert cli(["loocv", "--data", "../d.csv", "--p", "1", "--domain", "0,1",
                        "--t", "20", "--reference", "frechet", "--out", "loocv.json"]) == 0
            assert cli(["simulate", "--scenario", "single", "--alpha", "0.5",
                        "--n", "8", "--m", "10", "--reps", "3", "--seed", "5",
                        "--t", "20", "--out", "study"]) == 0
        """
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        for side in ("pinned", "free"):
            proc = subprocess.run(
                [sys.executable, "-c", code, side],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )  # fmt: skip
            assert proc.returncode == 0, proc.stderr
        for name in ("loocv.json", "study/summary.csv", "study/summary.json"):
            pinned = (tmp_path / "pinned" / name).read_bytes()
            assert pinned == (tmp_path / "free" / name).read_bytes(), name

    def test_no_process_left_behind(self, tmp_path):
        sample_csv(tmp_path / "d.csv", n=4, m=8, seed=46)
        code = cli(
            ["loocv", "--data", str(tmp_path / "d.csv"), "--p", "1",
             "--domain", "0,1", "--t", "20", "--out", str(tmp_path / "r.json")]
        )  # fmt: skip
        assert code == 0
        assert multiprocessing.active_children() == []

    def test_fold_error_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        # the third fold fails inside whichever process fits it; workers fork
        # after the patch, so they run the failing fold too
        sample_csv(tmp_path / "d.csv", n=5, m=8, seed=47)
        fold = mtdr.cli._fold

        def failing_fold(state, i):
            if i == 2:
                raise ValueError("fold 3 failed")
            return fold(state, i)

        monkeypatch.setattr(mtdr.cli, "_fold", failing_fold)
        code = cli(
            ["loocv", "--data", str(tmp_path / "d.csv"), "--p", "1",
             "--domain", "0,1", "--t", "20", "--out", str(tmp_path / "r.json")]
        )  # fmt: skip
        assert code == 1
        assert capsys.readouterr().err == "error: fold 3 failed\n"
        assert not (tmp_path / "r.json").exists()
        assert multiprocessing.active_children() == []


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        code = cli(["fit", "--bogus", "1"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        code = cli(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_no_arguments_is_usage_error(self, capsys):
        code = cli([])
        capsys.readouterr()
        assert code == 2

    def test_bad_domain_is_usage_error(self, tmp_path, capsys):
        code = cli(
            [
                "fit",
                "--data", "x.csv",
                "--p", "1",
                "--domain", "zero,one",
                "--out", "m.json",
            ]
        )
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "domain, message",
        [
            ("1,0", "domain requires lo < hi"),
            ("nan,1", "domain endpoints must be finite"),
            ("0,inf", "domain endpoints must be finite"),
            ("-1e308,1e308", "domain width must be finite"),
        ],
    )
    def test_invalid_domain_names_the_problem(self, capsys, domain, message):
        # "--domain=" lets a value start with "-"
        argv = ["fit", "--data", "x.csv", "--p", "1", f"--domain={domain}"]
        code = cli([*argv, "--out", "m.json"])
        assert code == 2
        assert f"argument --domain: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "loocv"])
    def test_negative_p_is_usage_error(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        sample_csv(data, n=3, m=4, seed=45)
        code = cli(
            [command, "--data", str(data), "--p", "-1", "--domain", "0,1",
             "--out", str(tmp_path / "out.json")]
        )  # fmt: skip
        assert code == 2
        assert "argument --p: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--t", "1"], "argument --t: must be at least 2, not 1"),
            (["fit", "--t", "-3"], "argument --t: must be at least 2, not -3"),
            (["loocv", "--t", "1"], "argument --t: must be at least 2, not 1"),
            (["simulate", "--t", "1"], "argument --t: must be at least 2, not 1"),
            (["simulate", "--n", "0"], "argument --n: must be at least 1, not 0"),
            (["simulate", "--m", "0"], "argument --m: must be at least 1, not 0"),
            (["simulate", "--reps", "0"], "argument --reps: must be at least 1, not 0"),
            (["simulate", "--seed", "-1"], "argument --seed: must be at least 0, not -1"),
            (["simulate", "--reps", "two"], "argument --reps: invalid int value: 'two'"),
        ],
    )
    def test_out_of_range_count_is_usage_error(self, tmp_path, capsys, argv, message):
        command, *count = argv
        if command == "simulate":
            rest = ["--scenario", "single", "--alpha", "0.5"]
        else:
            data = tmp_path / "d.csv"
            sample_csv(data, n=3, m=4, seed=45)
            rest = ["--data", str(data), "--p", "1", "--domain", "0,1"]
        code = cli([command, *rest, *count, "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--alpha", "0.3,,0.7"], "argument --alpha: expected comma"),
            (["simulate", "--alpha", "0.3,0.7,"], "argument --alpha: expected comma"),
            (["simulate", "--alpha", "0.5", "--noise-orders=-2,,2"],
             "argument --noise-orders: expected comma-separated integers"),
            (["fit", "--fixed-weights", "0.2,,0.5,0.3"],
             "argument --fixed-weights: expected comma-separated numbers"),
        ],
    )  # fmt: skip
    def test_empty_list_entry_is_usage_error(self, tmp_path, capsys, argv, message):
        # an empty entry is not dropped: 0.3,,0.7 is no weight vector
        command, *values = argv
        if command == "simulate":
            rest = ["--scenario", "single"]
        else:
            data = tmp_path / "d.csv"
            sample_csv(data, n=3, m=4, seed=45)
            rest = ["--data", str(data), "--p", "2", "--domain", "0,1"]
        code = cli([command, *rest, *values, "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--t", "1000000000000"],
            ["simulate", "--n", "1000000000000", "--reps", "1"],
        ],
    )
    def test_absurd_size_is_runtime_error(self, tmp_path, capsys, argv):
        # numpy refuses the terabytes at once, before anything is allocated;
        # --reps is left out: its seeds are spawned one at a time
        command, *size = argv
        if command == "simulate":
            rest = ["--scenario", "single", "--alpha", "0.5"]
        else:
            data = tmp_path / "d.csv"
            sample_csv(data, n=3, m=4, seed=45)
            rest = ["--data", str(data), "--p", "1", "--domain", "0,1"]
        before = sorted(tmp_path.iterdir())
        code = cli([command, *rest, *size, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")
        assert sorted(tmp_path.iterdir()) == before

    def test_zero_p_fits_the_intercept(self, tmp_path):
        _, resp = small_samples(n=4, m=8, seed=46)
        data = tmp_path / "responses.csv"
        write_long_csv(data, np.empty((4, 0, 8)), resp)
        args = ["--data", str(data), "--p", "0", "--domain", "0,1", "--t", "6"]
        model = str(tmp_path / "m.json")
        assert cli(["fit", *args, "--out", model]) == 0
        assert cli(["loocv", *args, "--out", str(tmp_path / "r.json")]) == 0
        predict_args = ["--model", model, "--data", str(data)]
        assert cli(["predict", *predict_args, "--out", str(tmp_path / "p.csv")]) == 0

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = cli(
            [
                "fit",
                "--data", str(tmp_path / "absent.csv"),
                "--p", "1",
                "--domain", "0,1",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_model_is_runtime_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(str(model_path), identity_model(t=4))
        valid = json.loads(model_path.read_text())
        ref, maps = valid["reference_quantiles"], valid["maps"]
        report = {"trajectory": [1.0, 0.5], "converged": False}
        cases = [
            ({"format_version": 99}, "format_version"),
            # format_version is the JSON integer 1, not true or 1.0
            ({**valid, "format_version": True}, "format_version must be an integer"),
            ({**valid, "format_version": 1.0}, "format_version must be an integer"),
            ([valid], "model file must be a JSON object"),
            ("[" * 100000, f"model file {model_path}: nested too deeply"),
            ({**valid, "maps": 5}, "maps must be an array of numbers"),
            ({**valid, "maps": [{}, {}]}, "maps must be an array of numbers"),
            ({**valid, "domain": [0, 100]}, "domain must be a JSON object"),
            (
                {**valid, "domain": {"s0": [0], "s1": 1}},
                "domain s0 must be a number",
            ),
            ({**valid, "prob_grid": "midpoint"}, "prob_grid must be a JSON object"),
            (
                {**valid, "prob_grid": {"kind": "midpoint", "size": float("inf")}},
                "prob_grid size must be an integer",
            ),
            ({**valid, "fit_report": 3}, "fit_report must be a JSON object"),
            (
                {**valid, "domain": {"s0": 0, "s1": 10**400}},
                "domain s1 is out of float range",
            ),
            (
                {**valid, "domain": {"s0": -1e308, "s1": 1e308}},
                "domain width must be finite",
            ),
            (
                {**valid, "alpha": [10**400, 0, 0]},
                "alpha holds a number out of float range",
            ),
            # weights off the simplex, or one too many, are named as alpha
            ({**valid, "alpha": [0.2, 0.3, 0.5]}, "alpha: one weight per map required"),
            (
                {**valid, "alpha": [-0.5, 1.5]},
                "alpha: weights must be finite and nonnegative",
            ),
            ({**valid, "alpha": []}, "alpha: weights must be nonempty"),
            ({**valid, "alpha": [0.5, 0.4]}, "alpha: weights must sum to one"),
            # sizes checked against the arrays before any grid is built
            (
                {**valid, "prob_grid": {"kind": "midpoint", "size": 10**12}},
                "prob_grid size 1000000000000 does not match",
            ),
            (
                {**valid, "node_grid": {"kind": "uniform", "size": 10**12}},
                "node_grid size 1000000000000 does not match",
            ),
            ({**valid, "maps": [0.1, 0.2]}, "maps must be an array of equal-length"),
            # an array that breaks the quantile or map invariant is named
            (
                {**valid, "maps": [maps[0], maps[1][::-1]]},
                "maps[1]: map values must be nondecreasing",
            ),
            (
                {**valid, "maps": [[*maps[0][:-1], 2.0], maps[1]]},
                "maps[0]: map values must lie inside the domain",
            ),
            (
                {**valid, "reference_quantiles": ref[::-1]},
                "reference_quantiles: quantile values must be nondecreasing",
            ),
            (
                {**valid, "reference_quantiles": [-1.0, *ref[1:]]},
                "reference_quantiles: quantile values must lie inside the domain",
            ),
            # nested arrays where flat ones belong, and a converged flag that
            # is a string, each named before any model is built
            (
                {**valid, "alpha": [[0.5], [0.5]]},
                "alpha must be a flat array of numbers",
            ),
            (
                {**valid, "reference_quantiles": [[q] for q in ref]},
                "reference_quantiles must be a flat array of numbers",
            ),
            (
                {**valid, "fit_report": {**report, "trajectory": [[1.0], [0.5]]}},
                "fit_report trajectory must be a flat array of numbers",
            ),
            (
                {**valid, "fit_report": {**report, "converged": "false"}},
                "fit_report converged must be true or false",
            ),
            # strings and booleans where numbers belong, which a float cast
            # would read as numbers
            ({**valid, "alpha": ["0", "1"]}, "alpha must be an array of numbers"),
            ({**valid, "alpha": [False, True]}, "alpha must be an array of numbers"),
            ({**valid, "alpha": [0.0, True]}, "alpha must be an array of numbers"),
            (
                {**valid, "maps": [maps[0], maps[1][:2] + ["0.625"] + maps[1][3:]]},
                "maps must be an array of numbers",
            ),
            (
                {**valid, "domain": {"s0": False, "s1": 1}},
                "domain s0 must be a number",
            ),
            (
                {**valid, "prob_grid": {"kind": "midpoint", "size": True}},
                "prob_grid size must be an integer",
            ),
            (
                {**valid, "fit_report": {**report, "trajectory": [1.0, True]}},
                "fit_report trajectory must be an array of numbers",
            ),
            # a missing field is named with the file that lacks it
            *[
                (
                    {k: v for k, v in valid.items() if k != key},
                    f'model file lacks "{key}"',
                )
                for key in (
                    "domain", "reference_quantiles", "maps", "prob_grid",
                    "node_grid", "alpha",
                )
            ],  # fmt: skip
            ({**valid, "domain": {"s1": 1.0}}, 'model file lacks "domain.s0"'),
            ({**valid, "domain": {"s0": 0.0}}, 'model file lacks "domain.s1"'),
            (
                {**valid, "prob_grid": {"size": 4}},
                'model file lacks "prob_grid.kind"',
            ),
            (
                {**valid, "node_grid": {"kind": "uniform"}},
                'model file lacks "node_grid.size"',
            ),
            (
                {**valid, "fit_report": {"converged": False}},
                'model file lacks "fit_report.trajectory"',
            ),
            (
                {**valid, "fit_report": {"trajectory": [1.0, 0.5]}},
                'model file lacks "fit_report.converged"',
            ),
            # fields restating the model must agree with it
            ({**valid, "t": 5}, "t 5 does not match the map length (4)"),
            ({**valid, "t": 4.0}, "t must be an integer"),
            (
                {**valid, "fit_report": {**report, "iterations": 999}},
                "fit_report iterations 999 does not match the trajectory (1)",
            ),
            (
                {**valid, "fit_report": {**report, "final_objective": -1.0}},
                "fit_report final_objective -1.0 does not match the trajectory (0.5)",
            ),
            # the report's own checks name the field too
            (
                {**valid, "fit_report": {**report, "trajectory": [1.0, float("nan")]}},
                "error: fit_report: trajectory must be nonempty and finite",
            ),
            (
                {**valid, "fit_report": {**report, "trajectory": [0.5, 1.0]}},
                "error: fit_report: objective trajectory increased beyond slack",
            ),
            # a file that is not JSON, or not UTF-8, is named with its kind and path
            ('{"format_version": 1, "alpha": [0.5,', f"model file {model_path}: Expecting"),
            (
                b'\xff\xfe{"format_version": 1}',
                f"model file {model_path}: 'utf-8' codec can't decode byte 0xff",
            ),
        ]
        data = tmp_path / "d.csv"
        sample_csv(data, n=2, m=4, seed=43)
        for doc, message in cases:
            model_path.write_bytes(_file_bytes(doc))
            code = cli(
                ["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(tmp_path / "p.csv")]
            )
            assert code == 1
            assert message in capsys.readouterr().err

    def test_malformed_reference_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        sample_csv(data, n=3, m=4, seed=44)
        ref_path = tmp_path / "reference.json"
        for doc, message in [
            ([1, 2], "reference file must be a JSON object"),
            ("[" * 100000, f"reference file {ref_path}: nested too deeply"),
            ({"quantiles": "0.5"}, "reference quantiles must be an array of numbers"),
            (
                {"quantiles": [0.1, 10**400, 0.5, 0.9]},
                "reference quantiles holds a number out of float range",
            ),
            (
                {"quantiles": [[0.1], [0.3], [0.6], [0.9]]},
                "reference quantiles must be a flat array of numbers",
            ),
            (
                {"quantiles": [0.1, "0.3", 0.6, 0.9]},
                "reference quantiles must be an array of numbers",
            ),
            (
                {"quantiles": [0.1, 0.3, 0.6, True]},
                "reference quantiles must be an array of numbers",
            ),
            ({"values": [0.1, 0.3, 0.6, 0.9]}, 'reference file lacks "quantiles"'),
            # a quantile vector that breaks the invariant is named with its file
            (
                {"quantiles": [0.1, 0.5, 0.9]},
                f"reference file {ref_path}: quantile vector length 3 does not"
                " match grid size 4",
            ),
            (
                {"quantiles": [0.9, 0.6, 0.3, 0.1]},
                f"reference file {ref_path}: quantile values must be nondecreasing",
            ),
            (
                {"quantiles": [0.1, 0.3, 0.6, 1.5]},
                f"reference file {ref_path}: quantile values must lie inside the domain",
            ),
            # so is a file that is not JSON, or not UTF-8
            ('{"quantiles": [0.1,', f"reference file {ref_path}: Expecting value"),
            (
                b'\xff\xfe{"quantiles": []}',
                f"reference file {ref_path}: 'utf-8' codec can't decode byte 0xff",
            ),
        ]:
            ref_path.write_bytes(_file_bytes(doc))
            code = cli(
                ["fit", "--data", str(data), "--p", "1", "--domain", "0,1",
                 "--t", "4", "--reference", str(ref_path),
                 "--out", str(tmp_path / "m.json")]
            )
            assert code == 1
            assert message in capsys.readouterr().err

    def test_oversized_csv_field_is_runtime_error(self, tmp_path, capsys):
        # longer than the csv module's field limit of 131072 characters
        data = tmp_path / "d.csv"
        write_rows(data, [["a", "pred1", "0." + "5" * 131072]])
        code = cli(
            ["fit", "--data", str(data), "--p", "1", "--domain", "0,1",
             "--out", str(tmp_path / "m.json")]
        )  # fmt: skip
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: row 2: field larger than field limit (131072)\n"

    def test_domain_without_distinct_nodes_is_runtime_error(self, tmp_path, capsys):
        # the 102 knots of t = 100 on [1e16, 1e16 + 64] hold 33 distinct floats
        lo, hi = 1e16, 1.0000000000000064e16
        pred, resp = small_samples(n=4, m=10, seed=43)
        data = tmp_path / "train.csv"
        write_long_csv(data, lo + (hi - lo) * pred, lo + (hi - lo) * resp)
        model_path = tmp_path / "model.json"
        save_model(str(model_path), identity_model(t=100))
        doc = json.loads(model_path.read_text())
        doc["domain"] = {"s0": lo, "s1": hi}
        ref = doc["reference_quantiles"]
        doc["reference_quantiles"] = [lo + (hi - lo) * v for v in ref]
        doc["maps"] = [[lo + (hi - lo) * v for v in z] for z in doc["maps"]]
        model_path.write_text(json.dumps(doc))
        message = f"error: domain [{lo}, {hi}] cannot hold 100 distinct nodes\n"
        for argv in (
            ["fit", "--data", str(data), "--p", "1", "--domain", f"{lo!r},{hi!r}",
             "--t", "100", "--out", str(tmp_path / "fitted.json")],
            ["predict", "--model", str(model_path), "--data", str(data),
             "--out", str(tmp_path / "predictions.csv")],
        ):  # fmt: skip
            assert cli(argv) == 1
            assert capsys.readouterr().err == message
        assert not (tmp_path / "fitted.json").exists()
        assert not (tmp_path / "predictions.csv").exists()

    def test_python_dash_m_runs_without_warnings(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "mtdr", "fit", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: mtdr fit")

    def test_console_script_installed(self):
        # Runs the declared `mtdr` entry point as pip's wrapper would, so the
        # check needs no install; an installed script is run as well.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: read the installed metadata
            from importlib.metadata import entry_points

            found = list(entry_points(group="console_scripts", name="mtdr"))
            if not found:
                pytest.skip("needs tomllib (Python 3.11+) or an installed mtdr")
            target = found[0].value
        else:
            with open(REPO / "pyproject.toml", "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["mtdr"]
        module, attr = (part.strip() for part in target.split(":"))
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'mtdr'; sys.exit({attr}())"
        )
        runs = [
            ([sys.executable, "-c", wrapper],
             dict(os.environ, PYTHONPATH=str(REPO / "src"))),
        ]  # fmt: skip
        installed = shutil.which("mtdr")
        if installed is not None:
            runs.append(([installed], None))
        for command, env in runs:
            proc = subprocess.run(
                [*command, "fit", "--help"],
                env=env, capture_output=True, text=True, timeout=60,
            )  # fmt: skip
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stderr == ""
            assert proc.stdout.startswith("usage: mtdr fit")
