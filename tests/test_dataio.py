import itertools
import json
import math
import re
import shutil
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aligndet import dataio
from aligndet.datasets import Dataset, check_id
from aligndet.dataio import (
    BOX_HEADER,
    DETECTION_HEADER,
    GT_HEADER,
    RunConfig,
    SynthShiftSpec,
    bounded_rotation,
    canonical_json,
    config_echo,
    generate_synthetic,
    load_config,
    load_annotations,
    load_dataset,
    load_detectors,
    load_states,
    read_detections_csv,
    save_dataset,
    save_detectors,
    save_states,
    write_boxes_csv,
    write_detections_csv,
    write_features,
)
from aligndet.detection import BBox, LinearDetector
from aligndet.errors import DataError
from oracles import (
    Detection,
    Image,
    dataset_of,
    detections_from_rows,
    gt_rows,
    image_gt,
    images_of,
    per_line_box_rows,
    read_boxes_csv,
    read_gt_csv,
    rows_of,
    rowwise_write_boxes_csv,
    rowwise_write_detections_csv,
    rowwise_write_gt_csv,
    sequential_load_dataset,
)

# Every character ``str.splitlines`` ends a line at.  The readers would
# split an id holding one, so ``Dataset`` rejects such ids when built,
# before any file is written.
LINE_BREAKS = [
    "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]


def tiny_dataset(labeled=True):
    rng = np.random.default_rng(0)
    images = [
        Image(
            image_id=f"img{k}",
            features=rng.normal(size=(3, 4)),
            boxes=[(10.0 * i, 0.0, 10.0 * i + 8.0, 8.0) for i in range(3)],
        )
        for k in range(2)
    ]
    gt = [("cat", BBox(0.0, 0.0, 8.0, 8.0))] if labeled else None
    return dataset_of("tiny", ["cat"], images, [gt, gt])


def one_row_each(*image_ids, classes=(), dim=2, boxes=None):
    """Dataset ``d`` of one proposal per image, all features 1, each box
    (0, 0, 1, 1) unless ``boxes`` are given."""
    n = len(image_ids)
    if boxes is None:
        boxes = np.tile([0.0, 0.0, 1.0, 1.0], (n, 1))
    return Dataset("d", list(classes), image_ids, [1] * n, np.ones((n, dim)), boxes)


class TestContainers:
    def test_box_rows_must_match_feature_rows(self):
        with pytest.raises(DataError) as info:
            Dataset("d", [], ["a"], [2], np.ones((2, 3)), np.zeros((3, 4)))
        assert str(info.value) == "dataset 'd': boxes must be an (2, 4) array, got shape (3, 4)"

    @pytest.mark.parametrize("shape", [(2, 3), (2, 4, 1), (8,)])
    def test_boxes_must_be_n_by_4(self, shape):
        with pytest.raises(DataError, match=re.escape(f"got shape {shape}")):
            Dataset("d", [], ["a"], [2], np.ones((2, 3)), np.zeros(shape))

    @pytest.mark.parametrize(
        "bad_row",
        [
            (0.0, math.nan, 1.0, 1.0),
            (0.0, 0.0, math.inf, 1.0),
            (-math.inf, 0.0, 1.0, 1.0),
            (2.0, 0.0, 1.0, 1.0),
            (0.0, 1.5, 1.0, 1.0),
        ],
    )
    def test_bad_box_row_gets_the_bbox_message(self, bad_row):
        with pytest.raises(DataError) as expected:
            BBox(*bad_row)
        # The first bad row is reported; the last row is bad in another way.
        boxes = [(0, 0, 1, 1), bad_row, (3, 0, 1, 1)]
        with pytest.raises(DataError) as info:
            one_row_each("a", "b", "c", boxes=boxes)
        assert str(info.value) == str(expected.value)

    def test_duplicate_image_ids(self):
        with pytest.raises(DataError, match="duplicate image id 'a'"):
            one_row_each("a", "a")

    def test_duplicate_class_ids(self):
        with pytest.raises(DataError, match="duplicate class id 'cat'"):
            one_row_each(classes=["cat", "dog", "cat"])

    @pytest.mark.parametrize(
        "bad", ["im,0", "im\n0", "im\r0", ""] + [f"im{c}0" for c in LINE_BREAKS[2:]]
    )
    def test_image_id_that_breaks_the_csv_files(self, bad):
        with pytest.raises(DataError, match=f"image id {re.escape(repr(bad))}"):
            one_row_each(bad)

    @pytest.mark.parametrize(
        "bad", ["cls,a", "cls\na", "cls\ra", ""] + [f"cls{c}a" for c in LINE_BREAKS[2:]]
    )
    def test_class_id_that_breaks_the_csv_files(self, bad):
        with pytest.raises(DataError, match=f"class id {re.escape(repr(bad))}"):
            one_row_each(classes=["cat", bad])

    def test_unknown_gt_class(self):
        img = Image("a", np.ones((1, 2)), [(0, 0, 1, 1)])
        with pytest.raises(DataError, match="unknown"):
            dataset_of("d", ["cat"], [img], [[("dog", BBox(0, 0, 1, 1))]])

    def test_sizes_must_count_each_images_rows(self):
        with pytest.raises(DataError, match="^dataset 'd': sizes must hold one row count"):
            Dataset("d", [], ["a", "b"], [2], np.ones((2, 3)), np.zeros((2, 4)))
        with pytest.raises(DataError, match=re.escape("C-contiguous float64 (3, D) array")):
            Dataset("d", [], ["a", "b"], [2, 1], np.ones((2, 3)), np.zeros((2, 4)))

    def test_image_without_proposals_is_rejected_by_name(self):
        with pytest.raises(DataError) as info:
            Dataset("d", [], ["a", "b"], [1, 0], np.ones((1, 3)), [(0, 0, 1, 1)])
        assert str(info.value) == "features[b] must be at least 1x1, got 0x3"

    def test_non_finite_feature_names_its_image_row_and_column(self):
        ds = tiny_dataset()
        for value in (np.nan, np.inf, -np.inf):
            F = ds.features.copy()
            F[4, 2] = value
            with pytest.raises(DataError) as info:
                Dataset("d", ["cat"], ds.image_ids, ds.sizes, F, ds.boxes)
            assert str(info.value) == (
                "features[img1] has a non-finite entry at row 1, column 2"
            )

    def test_derived_columns(self):
        ds = tiny_dataset()
        assert len(ds.boxes) == 6 and ds.feature_dim == 4
        assert ds.features.shape == (6, 4) and ds.boxes.shape == (6, 4)
        assert ds.image_ids == ("img0", "img1")
        npt.assert_array_equal(ds.sizes, [3, 3])
        npt.assert_array_equal(ds.image_index, [0, 0, 0, 1, 1, 1])
        npt.assert_array_equal(ds.features[3:], images_of(ds)[1].features)
        assert len(ds.ground_truths) == 2
        assert ds.labeled


def one_image_dataset(tmp_path, n, D):
    """A saved dataset of one image with ``n`` proposals of ``D`` features:
    its manifest and its image's feature file."""
    image = Image("img0", np.zeros((n, D)), [(0.0, 0.0, 1.0, 1.0)] * n)
    manifest = save_dataset(dataset_of("one", ["cat"], [image]), tmp_path)
    return manifest, tmp_path / "features" / "img0.fmx"


class TestFeatureFiles:
    def test_round_trip_bytes(self, tmp_path):
        X = np.random.default_rng(1).normal(size=(5, 3))
        m, p = one_image_dataset(tmp_path, 5, 3)
        write_features(p, X)
        loaded = load_dataset(m).features
        p2 = tmp_path / "y.fmx"
        write_features(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()
        npt.assert_allclose(loaded, X, atol=1e-6)  # float32 storage

    def test_bad_magic(self, tmp_path):
        m, p = one_image_dataset(tmp_path, 1, 1)
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(DataError, match="header"):
            load_dataset(m)

    def test_truncated(self, tmp_path):
        X = np.ones((4, 4))
        m, p = one_image_dataset(tmp_path, 4, 4)
        write_features(p, X)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_dataset(m)

    def test_non_finite_cites_row(self, tmp_path):
        X = np.ones((4, 2))
        X[2, 1] = np.inf
        m, p = one_image_dataset(tmp_path, 4, 2)
        write_features(p, X)
        with pytest.raises(DataError, match="row 2"):
            load_dataset(m)

    def test_missing_file(self, tmp_path):
        m, p = one_image_dataset(tmp_path, 1, 1)
        p.unlink()
        with pytest.raises(DataError, match="does not exist"):
            load_dataset(m)

    def test_float32_overflow_is_written_as_inf(self, tmp_path):
        # What save_dataset guards against: the cast makes the value inf.
        m, p = one_image_dataset(tmp_path, 2, 2)
        with pytest.warns(RuntimeWarning):
            write_features(p, [[1.0, 1e39], [2.0, 3.0]])
        with pytest.raises(DataError, match="non-finite value at row 0"):
            load_dataset(m)

    def test_save_rejects_features_beyond_float32_before_writing(self, tmp_path):
        ds = tiny_dataset()
        images_of(ds)[1].features[2, 3] = -1e39
        with pytest.raises(
            DataError,
            match=r"^image 'img1': feature row 2 is too large for float32, "
            "the type of feature files$",
        ):
            save_dataset(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        ds = tiny_dataset()
        top = float(np.finfo(np.float32).max)
        ds.features[0] = [top, -top, np.finfo(np.float32).tiny, 0.0]
        loaded = load_dataset(save_dataset(ds, tmp_path))
        npt.assert_array_equal(loaded.features[0], ds.features[0])


class TestCsvFiles:
    def test_boxes_round_trip(self, tmp_path):
        boxes = np.array([[0.5, 1.25, 10.125, 20.0625]])
        p = tmp_path / "b.csv"
        write_boxes_csv(p, "img0", boxes)
        ids, back = read_boxes_csv(p)
        assert ids == ("img0",)
        assert bits(back) == bits(boxes)
        p2 = tmp_path / "b2.csv"
        write_boxes_csv(p2, "img0", back)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x_min,y_min\n")
        with pytest.raises(DataError, match="must start with"):
            read_boxes_csv(p)

    def test_bad_number_cites_line(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("image_id,x_min,y_min,x_max,y_max\nimg0,a,0,1,1\n")
        with pytest.raises(DataError, match=":2"):
            read_boxes_csv(p)

    def test_detections_round_trip(self, tmp_path):
        dets = [
            Detection("img0", BBox(0, 0, 5, 5), "cat", 0.875),
            Detection("img1", BBox(1, 1, 6, 6), "dog", -1.5),
        ]
        p = tmp_path / "d.csv"
        write_detections_csv(p, detections_from_rows(dets))
        assert rows_of(read_detections_csv(p)) == dets


# reader, "<kind> file" prefix of its messages, header, one valid row.
CSV_KINDS = [
    (read_boxes_csv, "boxes file", "image_id,x_min,y_min,x_max,y_max", "img0,0,0,1,1"),
    (
        read_gt_csv,
        "gt file",
        "image_id,x_min,y_min,x_max,y_max,class",
        "img0,0,0,1,1,cat",
    ),
    (
        read_detections_csv,
        "detections file",
        "image_id,x_min,y_min,x_max,y_max,class,score",
        "img0,0,0,1,1,cat,0.5",
    ),
]


@pytest.mark.parametrize("reader, kind, header, row", CSV_KINDS)
@pytest.mark.parametrize(
    "defect",
    [
        "missing", "header", "columns", "not_a_number", "non_finite", "order",
        "non_utf8", "nul_in_path", "directory",
    ],
)
def test_malformed_csv_names_file_or_line(tmp_path, reader, kind, header, row, defect):
    p = tmp_path / "rows.csv"
    cells = row.split(",")
    if defect == "columns":
        bad = row + ",9"
    elif defect == "not_a_number":
        bad = ",".join(cells[:1] + ["a"] + cells[2:])
    elif defect == "order":
        bad = ",".join(cells[:1] + ["2"] + cells[2:])  # x_min 2 > x_max 1
    else:
        # The last numeric column: the score of a detection, else y_max.
        col = 6 if reader is read_detections_csv else 4
        bad = ",".join(cells[:col] + ["inf"] + cells[col + 1 :])
    if defect == "header":
        p.write_text(header.replace("x_min", "xmin") + "\n" + row + "\n")
    elif defect == "non_utf8":
        p.write_bytes(f"{header}\n{row}\n".encode() + b"\xff\n")
    elif defect == "nul_in_path":
        p = tmp_path / "ro\0ws.csv"
    elif defect == "directory":
        p.mkdir()
    elif defect != "missing":
        p.write_text(f"{header}\n{row}\n{bad}\n")
    expected = {
        "missing": f"{kind} '{p}' does not exist",
        "nul_in_path": f"{kind} '{p}' does not exist",
        "directory": f"{kind} '{p}' cannot be read: Is a directory",
        "non_utf8": f"{kind} '{p}' is not UTF-8 text",
        "header": f"{kind} '{p}' must start with '{header}'",
        "columns": f"{p}:3: expected {len(cells)} columns, got {len(cells) + 1}",
        "not_a_number": f"{p}:3: 'a' is not a number",
        "non_finite": f"{p}:3: non-finite value",
        "order": f"{p}:3: degenerate box ordering: (2.0, 0.0, 1.0, 1.0)",
    }[defect]
    with pytest.raises(DataError) as info:
        reader(p)
    assert str(info.value) == expected


# Floats at the edges of what repr and float round-trip: signed zeros, the
# smallest subnormal and values near the largest double.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 2.5]
edge_or_any = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
def _accepted(value: str) -> bool:
    try:
        check_id("id", value)
    except DataError:
        return False
    return True


# Ids the CSV files can carry: drawn from an alphabet that holds ',' and
# every line break too, kept when ``check_id`` accepts them.
csv_id = st.text(
    alphabet=st.sampled_from(list("ab_-. 0é") * 3 + [","] + LINE_BREAKS),
    min_size=1,
    max_size=4,
).filter(_accepted)


@st.composite
def detection_rows(draw):
    """``Detection`` rows of a few images and classes: edge floats, tied
    scores and repeated rows are likely; zero rows give a header-only file."""
    images = draw(st.lists(csv_id, min_size=1, max_size=3, unique=True))
    classes = draw(st.lists(csv_id, min_size=1, max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        x0, x1 = sorted([draw(edge_or_any), draw(edge_or_any)])
        y0, y1 = sorted([draw(edge_or_any), draw(edge_or_any)])
        row = Detection(
            draw(st.sampled_from(images)),
            BBox(x0, y0, x1, y1),
            draw(st.sampled_from(classes)),
            draw(st.one_of(st.sampled_from([0.5, -0.0, 0.0]), edge_or_any)),
        )
        rows += [row] * draw(st.integers(1, 2))
    return rows


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


codec_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(rows=detection_rows())
@codec_settings
def test_detections_csv_round_trip_keeps_every_bit(tmp_path, rows):
    dets = detections_from_rows(rows)
    p, p2 = tmp_path / "d.csv", tmp_path / "d2.csv"
    write_detections_csv(p, dets)
    back = read_detections_csv(p)
    assert bits(back.boxes) == bits(dets.boxes)
    assert bits(back.scores) == bits(dets.scores)
    assert [(d.image_id, d.class_id) for d in rows_of(back)] == [
        (d.image_id, d.class_id) for d in rows
    ]
    write_detections_csv(p2, back)
    assert p2.read_bytes() == p.read_bytes()
    if not rows:
        assert p.read_text() == DETECTION_HEADER + "\n"


# Rows whose floats are the signed zeros, the smallest subnormal and a
# float near the largest, each written as its ``repr``; and no rows.
EDGE_ROWS = [
    Detection("a", BBox(-0.0, 0.0, 5e-324, 1e308), "c", -0.0),
    Detection("b", BBox(-1e308, -5e-324, 0.0, -0.0), "c", 5e-324),
    Detection("a", BBox(0.0, -0.0, 0.0, 0.0), "d", 1e308),
]


@pytest.mark.parametrize("chunk", [1, 2, 3, dataio.CSV_CHUNK_ROWS])
@given(rows=detection_rows())
@example(rows=EDGE_ROWS)
@example(rows=[])
@codec_settings
def test_detections_csv_is_the_row_by_row_text(tmp_path, rows, chunk):
    # Chunks of one to three rows put chunk boundaries inside the file;
    # the default chunk holds every row drawn here.
    dets = detections_from_rows(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "CSV_CHUNK_ROWS", chunk)
        write_detections_csv(tmp_path / "d.csv", dets)
    rowwise_write_detections_csv(tmp_path / "o.csv", dets)
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, dataio.CSV_CHUNK_ROWS])
@given(rows=detection_rows())
@example(rows=EDGE_ROWS)
@example(rows=[])
@settings(codec_settings, max_examples=50)  # a dataset of files per example
def test_boxes_and_gt_csvs_are_the_row_by_row_text(tmp_path, rows, chunk):
    # Each drawn image's rows are its proposals and, with their classes, its
    # ground truth; a last image has one zero box and no GT rows.  All rows
    # also go to one boxes file, which has none when none are drawn.
    groups = {}
    for d in rows:  # the prefix keeps '.' and '..' out of the file names
        groups.setdefault(f"i{d.image_id}", []).append(d)
    images = [
        (i, np.zeros((len(g), 1)), [d.box.as_tuple() for d in g])
        for i, g in groups.items()
    ] + [("empty", np.zeros((1, 1)), [(0.0, -0.0, 0.0, 0.0)])]
    gts = [[(d.class_id, d.box) for d in g] for g in groups.values()] + [[]]
    classes = list(dict.fromkeys(["c", *(d.class_id for d in rows)]))
    ds = dataset_of("d", classes, images, gts)
    with tempfile.TemporaryDirectory(dir=tmp_path) as out:
        out = Path(out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "CSV_CHUNK_ROWS", chunk)
            save_dataset(ds, out / "ds")
            write_boxes_csv(out / "all.csv", "all", detections_from_rows(rows).boxes)
        rowwise_write_boxes_csv(out / "o.csv", "all", [d.box.as_tuple() for d in rows])
        assert (out / "all.csv").read_bytes() == (out / "o.csv").read_bytes()
        for (image_id, _, boxes), gt in zip(images, gts):
            rowwise_write_boxes_csv(out / "b.csv", image_id, boxes)
            rowwise_write_gt_csv(
                out / "g.csv", image_id, [b.as_tuple() for _, b in gt], [c for c, _ in gt]
            )
            written = out / "ds" / "boxes" / f"{image_id}.csv"
            assert written.read_bytes() == (out / "b.csv").read_bytes()
            written = out / "ds" / "gt" / f"{image_id}.csv"
            assert written.read_bytes() == (out / "g.csv").read_bytes()


def test_detections_csv_keeps_zero_signs_apart(tmp_path):
    # Coordinates are formatted once per bit pattern, not per value.
    rows = [Detection("img0", BBox(0.0, -0.0, -0.0, 0.0), "c", -0.0)]
    write_detections_csv(tmp_path / "d.csv", detections_from_rows(rows))
    assert (tmp_path / "d.csv").read_text().splitlines()[1] == (
        "img0,0.0,-0.0,-0.0,0.0,c,-0.0"
    )


# reader -> kind and header of its files.
READERS = {
    read_boxes_csv: ("boxes", BOX_HEADER),
    read_gt_csv: ("gt", GT_HEADER),
    read_detections_csv: ("detections", DETECTION_HEADER),
}
# A text replacing one numeric cell: accepted by ``float`` or not.
CELL_MUTATIONS = ["inf", "-inf", "nan", "1_5", " 1.5", "1.5 ", "a", "", "1e999", "-0"]
LINE_MUTATIONS = ["cell", "more_columns", "fewer_columns", "blank", "swap", "non_utf8"]
# A lone surrogate in text that is encoded with ``surrogateescape`` becomes
# the byte 0xFF, which is not UTF-8.
NOT_UTF8 = "\udcff"


def _oracle_result(reader, path) -> str:
    """The per-line oracle's rows for ``reader``'s kind, shaped as the
    reader returns them, or its error message."""
    kind, header = READERS[reader]
    try:
        rows = per_line_box_rows(path, kind, header)
    except DataError as exc:
        return str(exc)
    if reader is read_boxes_csv:
        return repr([(parts[0], box) for parts, _, box, _ in rows])
    if reader is read_gt_csv:
        return repr([(parts[0], parts[5], box) for parts, _, box, _ in rows])
    return repr(
        [Detection(parts[0], box, parts[5], nums[4]) for parts, nums, box, _ in rows]
    )


def _reader_result(reader, path) -> str:
    try:
        if reader is read_boxes_csv:  # ids and a box array: one BBox per row
            ids, boxes = reader(path)
            return repr([(i, BBox(*b)) for i, b in zip(ids, boxes.tolist())])
        got = reader(path)
        return repr(rows_of(got) if reader is read_detections_csv else got)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("reader", list(READERS))
@given(rows=detection_rows(), data=st.data())
@codec_settings
def test_mutated_lines_read_as_the_per_line_reader_does(tmp_path, reader, rows, data):
    kind, header = READERS[reader]
    n_columns = header.count(",") + 1
    numeric = [k for k in (1, 2, 3, 4, 6) if k < n_columns]
    lines = [
        ",".join([d.image_id, *map(repr, d.box.as_tuple()), d.class_id, repr(d.score)][
            :n_columns
        ])
        for d in rows
    ]
    for _ in range(data.draw(st.integers(0, 3))):
        mutation = data.draw(st.sampled_from(LINE_MUTATIONS))
        if mutation == "blank":
            lines.insert(data.draw(st.integers(0, len(lines))), "")
            continue
        filled = [k for k, line in enumerate(lines) if line]
        if not filled:
            continue
        k = data.draw(st.sampled_from(filled))
        cells = lines[k].split(",")
        if mutation == "cell":
            present = [c for c in numeric if c < len(cells)]
            cells[data.draw(st.sampled_from(present))] = data.draw(
                st.sampled_from(CELL_MUTATIONS)
            )
        elif mutation == "more_columns":
            cells.append("9")
        elif mutation == "fewer_columns":
            cells.pop()
        elif mutation == "non_utf8":
            cells[0] += NOT_UTF8
        elif len(cells) > 3:  # x_min and x_max swapped: out of order unless equal
            cells[1], cells[3] = cells[3], cells[1]
        lines[k] = ",".join(cells)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    p = tmp_path / "rows.csv"
    p.write_bytes(newline.join([header, *lines, ""]).encode(errors="surrogateescape"))
    assert _reader_result(reader, p) == _oracle_result(reader, p)


KINDS = {BOX_HEADER: "boxes", GT_HEADER: "gt", DETECTION_HEADER: "detections"}
# Number cells that only ``float`` reads ('_', digits of other scripts),
# that only numpy reads (U+001F, which it strips as whitespace), that
# neither reads, or that are not finite.
ODD_NUMBERS = [
    "1_5", "١", "１", "\x1f1", "1\x1f", "nan", "inf", "-inf", "1e400", "", "a",
]
# Whitespace ``float`` strips around a number.
PADDING = ["", " ", "\t", "\xa0", "　"]
id_cell = st.text(alphabet=list("ab #\"'\x00\xa0\t"), max_size=3)


@st.composite
def box_csv_texts(draw):
    """A box-CSV header and file text: rows of ``repr`` floats, mostly in
    box order, some cells whitespace-padded or odd (``ODD_NUMBERS``), some
    rows ragged and some lines blank."""
    header = draw(st.sampled_from(list(KINDS)))
    n_columns = header.count(",") + 1
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        x0, x1 = sorted([draw(edge_or_any), draw(edge_or_any)])
        y0, y1 = sorted([draw(edge_or_any), draw(edge_or_any)])
        cells = [draw(id_cell), *map(repr, (x0, y0, x1, y1))]
        cells += [draw(id_cell), repr(draw(edge_or_any))][: n_columns - 5]
        numeric = [k for k in (1, 2, 3, 4, 6) if k < n_columns]
        for k in draw(st.lists(st.sampled_from(numeric), max_size=2)):
            pad = draw(st.sampled_from(PADDING))
            cells[k] = pad + cells[k] + draw(st.sampled_from(PADDING))
        if draw(st.integers(0, 14)) == 0:
            cells[draw(st.sampled_from(numeric))] = draw(st.sampled_from(ODD_NUMBERS))
        if draw(st.integers(0, 19)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "1"]
        lines.append(",".join(cells))
    return header, "\n".join(lines) + "\n"


def _per_row_tables(paths, kind, header):
    """``_box_tables`` without the C-level read: split rows parsed by
    ``float``, and the walk to the first bad row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_parse_lines", lambda lines, n_columns: None)
        return dataio._box_tables(paths, kind, header)


@given(case=box_csv_texts())
@example(case=(BOX_HEADER, f"{BOX_HEADER}\na,\x1f1,0,2,2\n"))
@example(case=(GT_HEADER, f"{GT_HEADER}\na, 1,-0.0,2\t,5e-324,c\n\nb,1_5,0,2,2,c\n"))
@example(case=(DETECTION_HEADER, f"{DETECTION_HEADER}\n\x00#,0,0,1,1,\"c,1e400\n"))
@settings(codec_settings, max_examples=200)
def test_c_level_parse_equals_the_per_row_parse(tmp_path, case):
    header, text = case
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    columns, numbers, sizes, fault = dataio._box_tables([p], KINDS[header], header)
    columns_r, numbers_r, sizes_r, fault_r = _per_row_tables([p], KINDS[header], header)
    assert columns == columns_r
    assert numbers.shape == numbers_r.shape and bits(numbers) == bits(numbers_r)
    assert sizes == sizes_r
    assert str(fault) == str(fault_r)


def test_the_package_files_are_read_without_the_per_row_parse(tmp_path, monkeypatch):
    # A silent fallback to the per-row parse would undo the C-level read's
    # speed; every file the package writes must parse without it.  The
    # second image's GT file and one detections file hold only the header.
    ds = dataset_of(
        "tiny", ["cat"], images_of(tiny_dataset()),
        [[("cat", BBox(-0.0, 0.0, 5e-324, 1e308))], []],
    )
    manifest = save_dataset(ds, tmp_path / "ds")
    write_detections_csv(tmp_path / "d.csv", detections_from_rows(EDGE_ROWS))
    write_detections_csv(tmp_path / "e.csv", detections_from_rows([]))

    def per_row(rows, n_columns):
        raise AssertionError("the per-row parse ran")

    monkeypatch.setattr(dataio, "_parse_rows", per_row)
    dets = read_detections_csv(tmp_path / "d.csv")
    assert rows_of(dets) == EDGE_ROWS
    assert rows_of(read_detections_csv(tmp_path / "e.csv")) == []
    loaded = load_dataset(manifest)
    assert bits(loaded.boxes) == bits(ds.boxes)
    for gt in (loaded.ground_truths, load_annotations(manifest).ground_truths):
        assert gt_rows(gt) == gt_rows(ds.ground_truths)
        assert gt.image_ids == ds.ground_truths.image_ids
        assert bits(gt.boxes) == bits(ds.ground_truths.boxes)


class TestDatasetRoundTrip:
    def test_save_load_save_identical(self, tmp_path):
        ds = tiny_dataset()
        m1 = save_dataset(ds, tmp_path / "a")
        loaded = load_dataset(m1)
        m2 = save_dataset(loaded, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for rel in ["features/img0.fmx", "boxes/img0.csv", "gt/img0.csv"]:
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    @pytest.mark.parametrize(
        "bad_id", ["a/b", "../../escaped", "..", ".", "a\\b", "a\0b"]
    )
    def test_path_like_image_id_is_rejected_before_writing(self, tmp_path, bad_id):
        tiny = tiny_dataset()
        good, gt = images_of(tiny)[0], image_gt(tiny)[0]
        ds = dataset_of("tiny", ["cat"], [good, good._replace(image_id=bad_id)], [gt, gt])
        with pytest.raises(DataError, match=re.escape(repr(bad_id))):
            save_dataset(ds, tmp_path / "deep" / "out")
        # Nothing is written at all, so nothing outside the output directory.
        assert list(tmp_path.rglob("*")) == []

    def test_unlabeled_round_trip(self, tmp_path):
        ds = tiny_dataset(labeled=False)
        loaded = load_dataset(save_dataset(ds, tmp_path / "u"))
        assert not loaded.labeled
        assert image_gt(loaded)[0] is None

    def test_missing_feature_file(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "x")
        (tmp_path / "x" / "features" / "img0.fmx").unlink()
        with pytest.raises(DataError, match="does not exist"):
            load_dataset(m)

    def test_feature_file_that_is_a_directory_cannot_be_read(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "x")
        p = tmp_path / "x" / "features" / "img0.fmx"
        p.unlink()
        p.mkdir()
        with pytest.raises(DataError) as info:
            load_dataset(m)
        assert str(info.value).endswith(
            f"is malformed: feature file '{p}' cannot be read: Is a directory"
        )

    def test_row_count_mismatch_names_both_counts(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "y")
        boxes_file = tmp_path / "y" / "boxes" / "img0.csv"
        lines = boxes_file.read_text().splitlines()
        boxes_file.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="2 rows.*3 rows"):
            load_dataset(m)

    def test_box_out_of_order_cites_boxes_file_and_line(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "o")
        boxes_file = tmp_path / "o" / "boxes" / "img1.csv"
        lines = boxes_file.read_text().splitlines()
        lines[2] = "img1,2.0,1.0,1.0,2.0"
        boxes_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as info:
            load_dataset(m)
        assert str(info.value) == (
            f"manifest '{m}' is malformed: {boxes_file}:3: "
            "degenerate box ordering: (2.0, 1.0, 1.0, 2.0)"
        )

    def test_foreign_image_id_cites_its_line_after_blank_lines(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "f")
        boxes_file = tmp_path / "f" / "boxes" / "img0.csv"
        lines = boxes_file.read_text().splitlines()
        lines.insert(1, "")  # line 2 is blank, the first row moves to line 3
        lines[3] = lines[3].replace("img0", "imgX")
        boxes_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as info:
            load_dataset(m)
        assert str(info.value) == (
            f"manifest '{m}' is malformed: {boxes_file}:4: image id 'imgX' "
            "does not match manifest entry 'img0'"
        )

    def test_nan_feature_cites_row(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "z")
        feat = tmp_path / "z" / "features" / "img1.fmx"
        raw = bytearray(feat.read_bytes())
        raw[16 + 4 * 4 : 16 + 4 * 5] = np.float32("nan").tobytes()
        feat.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="row 1"):
            load_dataset(m)

    def test_unknown_class_in_gt(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "w")
        gt = tmp_path / "w" / "gt" / "img0.csv"
        gt.write_text(gt.read_text().replace("cat", "dog"))
        with pytest.raises(DataError, match="unknown class 'dog'"):
            load_dataset(m)

    def test_file_of_another_width_names_its_image(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path)
        write_features(tmp_path / "features" / "img1.fmx", np.ones((3, 3)))
        with pytest.raises(DataError) as info:
            load_dataset(m)
        assert str(info.value) == (
            f"manifest '{m}' is malformed: image 'img1' has feature dim 3, "
            "dataset declares 4"
        )

    @pytest.mark.parametrize("width", [4, 3])
    def test_image_without_proposals_is_rejected_by_name(self, tmp_path, width):
        # A header-only boxes file and a feature file of no rows: the image
        # is rejected, in its place in the fault order, whatever its width.
        m = save_dataset(tiny_dataset(), tmp_path)
        write_features(tmp_path / "features" / "img1.fmx", np.ones((0, width)))
        write_boxes_csv(tmp_path / "boxes" / "img1.csv", "img1", np.ones((0, 4)))
        with pytest.raises(DataError) as info:
            load_dataset(m)
        assert str(info.value) == (
            f"manifest '{m}' is malformed: features[img1] must be at least 1x1, "
            f"got 0x{width}"
        )
        assert str(info.value) == _load_outcome(sequential_load_dataset, m)

    @pytest.mark.parametrize(
        "value, message",
        [
            (0, "feature_dim must be >= 1, got 0"),
            (-3, "feature_dim must be >= 1, got -3"),
            (2.5, "feature_dim must be an integer, got 2.5"),
            (True, "feature_dim must be an integer, got True"),
        ],
    )
    def test_feature_dim_must_be_an_integer_of_at_least_one(self, tmp_path, value, message):
        m = save_dataset(tiny_dataset(), tmp_path)
        data = json.loads(m.read_text())
        data["feature_dim"] = value
        m.write_text(canonical_json(data))
        with pytest.raises(DataError) as info:
            load_dataset(m)
        assert str(info.value) == f"manifest '{m}' is malformed: {message}"
        # A value below 1 is rejected after every per-image fault, as the
        # dataset's other checks are; a value of another type first.
        (tmp_path / "features" / "img1.fmx").unlink()
        with pytest.raises(DataError) as info:
            load_dataset(m)
        first = "does not exist" if type(value) is int else message
        assert str(info.value).endswith(first)

    @pytest.mark.parametrize("field", ["image_id", "feature_file", "boxes_file", "gt_file"])
    def test_malformed_entry_keeps_its_place_in_the_fault_order(self, tmp_path, field):
        m = save_dataset(tiny_dataset(), tmp_path)
        data = json.loads(m.read_text())
        data["images"][1][field] = 5
        m.write_text(canonical_json(data))
        loaders = [load_dataset] + [load_annotations] * (field in ("image_id", "gt_file"))
        for load in loaders:
            with pytest.raises(DataError, match=r"image id 5|join\(\) argument"):
                load(m)
        gt = tmp_path / "gt" / "img0.csv"
        gt.write_text(gt.read_text().replace("cat", "dog"))
        for load in loaders:
            with pytest.raises(DataError, match="unknown class 'dog'"):
                load(m)

    @pytest.mark.parametrize("load", [load_dataset, load_annotations])
    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("classes", "ab", "str"),
            ("classes", {"a": 0, "b": 1}, "dict"),
            ("classes", None, "NoneType"),
            ("images", {}, "dict"),
            ("images", "img0", "str"),
            ("images", 5, "int"),
        ],
    )
    def test_classes_and_images_must_be_json_arrays(self, tmp_path, load, key, value, kind):
        # Iterated, a string gives its characters and an object its keys: on
        # an unlabeled dataset, classes "ab" would load as ['a', 'b'] and
        # images {} as a dataset without images.
        m = save_dataset(tiny_dataset(labeled=False), tmp_path)
        data = json.loads(m.read_text())
        data[key] = value
        m.write_text(canonical_json(data))
        with pytest.raises(DataError) as info:
            load(m)
        assert str(info.value) == (
            f"manifest '{m}' is malformed: '{key}' must be a JSON array, got {kind}"
        )

    def test_manifest_missing_key(self, tmp_path):
        m = save_dataset(tiny_dataset(), tmp_path / "k")
        data = json.loads(m.read_text())
        del data["classes"]
        m.write_text(canonical_json(data))
        with pytest.raises(DataError, match="classes"):
            load_dataset(m)


class TestBoundedRotation:
    def test_zero_budget_is_identity(self):
        npt.assert_array_equal(
            bounded_rotation(6, 0.0, np.random.default_rng(0)), np.eye(6)
        )

    def test_orthogonal_with_unit_determinant(self):
        R = bounded_rotation(8, 0.7, np.random.default_rng(1))
        npt.assert_allclose(R @ R.T, np.eye(8), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)

    def test_every_plane_rotates_by_budget(self):
        budget = 0.6
        R = bounded_rotation(10, budget, np.random.default_rng(2))
        # rotation angles are the arguments of the eigenvalue pairs e^{+-i t}
        angles = np.abs(np.angle(np.linalg.eigvals(R)))
        npt.assert_allclose(np.sort(angles), budget, atol=1e-10)


class TestSynthGenerator:
    def test_determinism_byte_for_byte(self, tmp_path):
        spec = SynthShiftSpec(samples_per_class=20, n_classes=2)
        a_src, a_tgt, _ = generate_synthetic(spec)
        b_src, b_tgt, _ = generate_synthetic(spec)
        for a, b in [(a_src, b_src), (a_tgt, b_tgt)]:
            assert a.image_ids == b.image_ids
            npt.assert_array_equal(a.sizes, b.sizes)
            npt.assert_array_equal(a.features, b.features)
            npt.assert_array_equal(a.boxes, b.boxes)
        m1 = save_dataset(a_src, tmp_path / "r1")
        m2 = save_dataset(b_src, tmp_path / "r2")
        assert m1.read_bytes() == m2.read_bytes()
        assert (tmp_path / "r1" / "features" / a_src.image_ids[0]
                ).with_suffix(".fmx").read_bytes() == (
            tmp_path / "r2" / "features" / b_src.image_ids[0]
        ).with_suffix(".fmx").read_bytes()

    def test_object_proposals_meet_iou_floor(self):
        from aligndet.detection import iou

        spec = SynthShiftSpec(samples_per_class=30, n_classes=2)
        src, _, _ = generate_synthetic(spec)
        for img, gt in zip(images_of(src), image_gt(src)):
            (class_id, gt_box), = gt
            object_boxes = img.boxes[: -spec.neg_per_image]
            background = img.boxes[-spec.neg_per_image :]
            assert all(
                iou(BBox(*b), gt_box) >= spec.min_object_iou
                for b in object_boxes.tolist()
            )
            assert all(iou(BBox(*b), gt_box) == 0.0 for b in background.tolist())

    def test_oracle_rotation_reproduces_plane_angles(self):
        spec = SynthShiftSpec(samples_per_class=20, n_classes=3)
        _, _, oracle = generate_synthetic(spec)
        R = oracle["rotation"]
        for c, A in oracle["class_directions"].items():
            target_plane = R @ A
            cos_direct = np.linalg.svd(A.T @ target_plane, compute_uv=False)
            cos_from_rotation = np.linalg.svd(A.T @ R @ A, compute_uv=False)
            npt.assert_allclose(cos_direct, cos_from_rotation, atol=1e-6)
            # equal-angle rotation: no plane angle exceeds the budget
            assert np.all(np.arccos(np.clip(cos_direct, 0, 1)) <= spec.rotation_budget + 1e-9)

    def test_pca_recovers_rotated_class_plane(self):
        from aligndet.linalg import normalize, pca, principal_angle_cosines

        spec = SynthShiftSpec(
            samples_per_class=150,
            n_classes=2,
            noise_scale=0.0,
            mean_drift=0.0,
            target_spread=1.0,
            rotation_budget=0.8,
        )
        src, tgt, oracle = generate_synthetic(spec)
        R = oracle["rotation"]
        A = oracle["class_directions"]["class00"]
        rows = np.vstack(
            [
                img.features[: spec.pos_per_image]
                for img, gt in zip(images_of(tgt), image_gt(tgt))
                if gt[0][0] == "class00"
            ]
        )
        sub = pca(normalize(rows)[0], spec.latent_dim)
        # z-scoring rescales axes, so demand generous but real alignment
        cos = principal_angle_cosines(sub.basis, R @ A)
        assert np.mean(cos) > 0.9

    def test_zero_shift_target_matches_source_distribution(self):
        spec = SynthShiftSpec(
            samples_per_class=40,
            n_classes=2,
            rotation_budget=0.0,
            noise_scale=0.0,
            mean_drift=0.0,
            target_spread=1.0,
        )
        src, tgt, oracle = generate_synthetic(spec)
        npt.assert_array_equal(oracle["rotation"], np.eye(spec.feature_dim))
        mu_s = oracle["source_means"]["class00"]
        mu_t = oracle["target_means"]["class00"]
        npt.assert_allclose(mu_s, mu_t, atol=1e-12)

    def test_infeasible_spec(self):
        with pytest.raises(DataError, match="infeasible"):
            SynthShiftSpec(latent_dim=40, feature_dim=30)
        with pytest.raises(DataError):
            SynthShiftSpec(n_classes=0)
        with pytest.raises(DataError):
            SynthShiftSpec(corrupt_classes=(9,))

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            SynthShiftSpec(seed=-1)
        assert SynthShiftSpec(seed=0).seed == 0


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = load_config(None)
        assert cfg.adaptation.gamma == 0.7
        assert cfg.adaptation.sigma == 0.4
        assert cfg.adaptation.d == 100
        assert cfg.adaptation.mode == "class-specific"

    def test_parse_overrides_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# thresholds\n"
            "gamma = 0.8\n"
            "sigma=0.1\n"
            "d = 12\n"
            "mode = full-image\n"
            "\n"
            "seed = 3\n"
            "synth_corrupt = 1,2\n"
        )
        cfg = load_config(p)
        assert cfg.adaptation.gamma == 0.8
        assert cfg.adaptation.sigma == 0.1
        assert cfg.adaptation.d == 12
        assert cfg.adaptation.mode == "full-image"
        assert cfg.synth.seed == 3
        assert cfg.synth.corrupt_classes == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("gama = 0.7\n")
        with pytest.raises(DataError, match="unknown config key"):
            load_config(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("gamma 0.7\n")
        with pytest.raises(DataError, match="key=value"):
            load_config(p)

    def test_invalid_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("gamma = high\n")
        with pytest.raises(DataError, match="cannot parse"):
            load_config(p)

    def test_gamma_above_one_rejected_at_parse(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("gamma = 1.0001\n")
        with pytest.raises(DataError, match="gamma"):
            load_config(p)

    def test_key_set_twice_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("d = 3\n# again\nd = 4\n")
        with pytest.raises(DataError, match=r"bad.cfg:3: config key 'd' already set on line 1"):
            load_config(p)

    @pytest.mark.parametrize(
        "key, name",
        [
            ("synth_separation", "class_separation"),
            ("synth_rotation", "rotation_budget"),
            ("synth_noise", "noise_scale"),
            ("synth_drift", "mean_drift"),
            ("synth_spread", "target_spread"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_synth_value_rejected(self, tmp_path, key, name, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(DataError, match=f"{name} must be finite"):
            load_config(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_weak_ratio_must_be_finite_and_nonnegative(self, tmp_path, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"weak_ratio = {value}\n")
        with pytest.raises(DataError, match="weak_ratio"):
            load_config(p)
        p.write_text("weak_ratio = 0\n")
        assert load_config(p).weak_ratio == 0.0

    def test_relative_manifest_resolved_against_config_dir(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("source_manifest = data/manifest.json\ntarget_manifest = t/m.json\n")
        cfg = load_config(p)
        assert cfg.source_manifest == str(tmp_path / "data" / "manifest.json")

    def test_echo_is_json_serializable(self):
        json.dumps(config_echo(load_config(None)))


# Every config key, a value unlike its default (as written in the file and
# as echoed), and the RunConfig attribute path it sets.
CONFIG_CASES = {
    "gamma": ("0.8", 0.8, "adaptation.gamma"),
    "sigma": ("0.1", 0.1, "adaptation.sigma"),
    "d": ("7", 7, "adaptation.d"),
    "mode": ("full-image", "full-image", "adaptation.mode"),
    "nms_thresh": ("0.45", 0.45, "adaptation.nms_thresh"),
    "neg_lambda": ("0.2", 0.2, "adaptation.neg_lambda"),
    "detect_thresh": ("-0.5", -0.5, "adaptation.detect_thresh"),
    "reg_lambda": ("0.002", 0.002, "adaptation.train.reg_lambda"),
    "train_iterations": ("123", 123, "adaptation.train.iterations"),
    "hard_neg_rounds": ("4", 4, "adaptation.train.max_hard_rounds"),
    "seed": ("3", 3, "synth.seed"),
    "source_manifest": ("src/m.json", "src/m.json", "source_manifest"),
    "target_manifest": ("tgt/m.json", "tgt/m.json", "target_manifest"),
    "synth_classes": ("3", 3, "synth.n_classes"),
    "synth_dim": ("20", 20, "synth.feature_dim"),
    "synth_samples": ("50", 50, "synth.samples_per_class"),
    "synth_separation": ("7.5", 7.5, "synth.class_separation"),
    "synth_rotation": ("0.5", 0.5, "synth.rotation_budget"),
    "synth_noise": ("0.2", 0.2, "synth.noise_scale"),
    "synth_drift": ("0.5", 0.5, "synth.mean_drift"),
    "synth_spread": ("1.5", 1.5, "synth.target_spread"),
    "synth_latent": ("6", 6, "synth.latent_dim"),
    "synth_pos_per_image": ("4", 4, "synth.pos_per_image"),
    "synth_neg_per_image": ("6", 6, "synth.neg_per_image"),
    "synth_min_iou": ("0.8", 0.8, "synth.min_object_iou"),
    "synth_corrupt": ("1,2", [1, 2], "synth.corrupt_classes"),
    "hist_bins": ("10", 10, "hist_bins"),
    "hist_lo": ("-2", -2.0, "hist_lo"),
    "hist_hi": ("2.5", 2.5, "hist_hi"),
    "weak_ratio": ("0.5", 0.5, "weak_ratio"),
}


def _config_default(path: str):
    obj = RunConfig()
    for name in path.split("."):
        obj = getattr(obj, name)
    return list(obj) if isinstance(obj, tuple) else obj


class TestConfigTable:
    def test_every_key_round_trips(self, tmp_path):
        p = tmp_path / "all.cfg"
        p.write_text("".join(f"{k} = {v[0]}\n" for k, v in CONFIG_CASES.items()))
        expected = {k: value for k, (_, value, _) in CONFIG_CASES.items()}
        for key in ("source_manifest", "target_manifest"):
            expected[key] = str(tmp_path / expected[key])
        assert config_echo(load_config(p)) == expected
        for key, (_, value, path) in CONFIG_CASES.items():
            assert value != _config_default(path), key

    def test_defaults_are_the_dataclass_defaults(self):
        assert config_echo(load_config(None)) == {
            k: _config_default(path) for k, (_, _, path) in CONFIG_CASES.items()
        }


def _transpose_bases(bundle: dict) -> dict:
    """The bundle with each basis reference's shape read as d x D."""
    for pair in bundle["pairs"].values():
        for sub in pair.values():
            sub["basis"]["shape"].reverse()
    return bundle


def _detector_field(bundle: dict, key: str, value) -> dict:
    """The detector bundle with ``key`` of its detector 'cat' set to ``value``."""
    bundle["detectors"]["cat"][key] = value
    return bundle


def _state_entry(bundle: dict, key: str, value) -> dict:
    """The bundle with ``key`` of its first state's entry set to ``value``;
    ``bias`` is the key of that state's detector."""
    entry = next(iter(bundle["states"].values()))
    (entry["adapted_detector"] if key == "bias" else entry)[key] = value
    return bundle


class TestBundles:
    def test_detector_bundle_round_trip(self, tmp_path):
        dets = {
            "cat": LinearDetector("cat", np.array([0.5, -1.25]), 0.375, "raw"),
        }
        p = tmp_path / "det.json"
        save_detectors(p, dets, warnings=["note"])
        loaded = load_detectors(p)
        npt.assert_array_equal(loaded["cat"].weights, dets["cat"].weights)
        assert loaded["cat"].weights.flags.writeable
        p2 = tmp_path / "det2.json"
        save_detectors(p2, loaded, warnings=["note"])
        assert p.read_bytes() == p2.read_bytes()
        assert p.with_suffix(".f8").read_bytes() == p2.with_suffix(".f8").read_bytes()

    @pytest.fixture(scope="class")
    def runs(self):
        """The target of a small synthetic pair, and its states for each
        kind of run: each adaptation mode (d = 5), and class-specific mode
        with d = 28, which downgrades class01 (28 target positives, below
        d + 1) and adapts class00."""
        from aligndet.pipeline import MODES, AdaptationConfig
        from aligndet.detection import TrainConfig
        from reference import adapt_from_scratch

        spec = SynthShiftSpec(samples_per_class=30, n_classes=2)
        src, tgt, _ = generate_synthetic(spec)
        train = TrainConfig(reg_lambda=0.001, iterations=500)
        cfgs = {mode: AdaptationConfig(d=5, mode=mode, train=train) for mode in MODES}
        cfgs["downgraded"] = AdaptationConfig(d=28, train=train)
        return tgt, {name: adapt_from_scratch(src, tgt, cfg) for name, cfg in cfgs.items()}

    @pytest.fixture(scope="class")
    def adapted(self, runs):
        return runs[1]

    def test_state_bundle_round_trip(self, tmp_path, runs):
        from aligndet.pipeline import MODES, AdaptationConfig, detect, frame_tag

        target, adapted = runs
        for mode in MODES:
            assert {s.mode for s in adapted[mode].values()} == {mode}
        assert [s.mode for s in adapted["downgraded"].values()] == ["class-specific", "none"]
        assert [s.downgraded for s in adapted["downgraded"].values()] == [False, True]
        for name, states in adapted.items():
            p = tmp_path / f"{name}.json"
            save_states(p, states, warnings=[])
            loaded = load_states(p)
            assert set(loaded) == set(states)
            for c in states:
                a, b = loaded[c], states[c]
                tag = frame_tag(b.adapted_detector.frame)
                assert (a.class_id, a.mode, frame_tag(a.adapted_detector.frame)) == (
                    c, b.mode, tag,
                )
                assert (a.n_pos_src, a.n_pos_tgt, a.downgraded, a.note) == (
                    b.n_pos_src, b.n_pos_tgt, b.downgraded, b.note,
                )
                npt.assert_array_equal(a.adapted_detector.weights, b.adapted_detector.weights)
                assert a.adapted_detector.bias == b.adapted_detector.bias
                for side in ("source_subspace", "target_subspace"):
                    sa, sb = getattr(a, side), getattr(b, side)
                    assert (sa is None) == (sb is None) == (tag is None)
                    if sb is not None:
                        npt.assert_array_equal(sa.basis, sb.basis)
                        npt.assert_array_equal(sa.eigenvalues, sb.eigenvalues)
                        npt.assert_array_equal(sa.stats.mean, sb.stats.mean)
                        npt.assert_array_equal(sa.stats.scale, sb.stats.scale)
                        assert sa.basis.flags.writeable
            if name == "full-image":
                for side in ("source_subspace", "target_subspace"):
                    assert len({id(getattr(s, side)) for s in loaded.values()}) == 1
            cfg = AdaptationConfig(d=5)
            live, back = detect(target, states, cfg), detect(target, loaded, cfg)
            for column in ("boxes", "scores", "image_index", "class_index"):
                x, y = getattr(live, column), getattr(back, column)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            p2 = tmp_path / f"{name}2.json"
            save_states(p2, loaded, warnings=[])
            assert p.read_bytes() == p2.read_bytes()
            f8, f8_2 = p.with_suffix(".f8"), p2.with_suffix(".f8")
            assert f8.read_bytes() == f8_2.read_bytes()

    def test_bundle_json_does_not_name_its_array_file(self, tmp_path, adapted):
        states = adapted["class-specific"]
        save_states(tmp_path / "a.json", states)
        save_states(tmp_path / "b.json", states)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.f8").read_bytes() == (tmp_path / "b.f8").read_bytes()

    def test_state_bundle_layout(self, tmp_path, adapted):
        """Read a state bundle's arrays back by the documented layout alone:
        sorted-key order, offsets, and the array file's length and CRC-32."""
        states = adapted["class-specific"]
        p = tmp_path / "states.json"
        save_states(p, states)
        doc = json.loads(p.read_text())
        blob = (tmp_path / "states.f8").read_bytes()
        assert doc["array_file"] == {"bytes": len(blob), "crc32": zlib.crc32(blob)}

        def arrays(v):  # the array references in sorted-key order
            if isinstance(v, dict):
                if v.keys() == {"f8_offset", "shape"}:
                    return [v]
                return [r for k in sorted(v) for r in arrays(v[k])]
            return []

        classes = ["class00", "class01"]
        expected = [  # pairs/<tag>/{source,target}/..., then states/<c>/...
            a
            for c in classes
            for S in (states[c].source_subspace, states[c].target_subspace)
            for a in (S.basis, S.eigenvalues, S.stats.mean, S.stats.scale)
        ] + [states[c].adapted_detector.weights for c in classes]
        refs = arrays(doc)
        assert doc["pairs"]["class01"]["target"]["stats"]["scale"] == refs[15]
        assert doc["states"]["class00"]["adapted_detector"]["weights"] == refs[16]
        offset = 0
        for ref, a in zip(refs, expected, strict=True):
            assert ref == {"f8_offset": offset, "shape": list(a.shape)}
            n = math.prod(a.shape)
            npt.assert_array_equal(
                np.frombuffer(blob, "<f8", n, offset).reshape(a.shape), a
            )
            offset += 8 * n
        assert offset == len(blob)

    def test_state_bundle_stores_each_pair_once(self, tmp_path, adapted):
        from aligndet.pipeline import frame_tag

        for name, states in adapted.items():
            p = tmp_path / f"{name}.json"
            save_states(p, states)
            bundle = json.loads(p.read_text())
            tags = {frame_tag(st.adapted_detector.frame) for st in states.values()}
            expected = {
                "class-specific": {"class00", "class01"},
                "full-image": {"__full__"},
                "none": set(),
                "downgraded": {"class00"},
            }[name]
            assert set(bundle["pairs"]) == tags - {None} == expected
            for pair in bundle["pairs"].values():
                assert pair.keys() == {"source", "target"}
            for entry in bundle["states"].values():
                assert entry.keys() == {
                    "adapted_detector", "n_pos_src", "n_pos_tgt", "downgraded", "note"
                }

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda b: "not json", "not valid JSON"),
            (lambda b: json.dumps({"warnings": []}), "missing key 'states'"),
            (lambda b: json.dumps({k: v for k, v in b.items() if k != "pairs"}),
             "rerun 'adapt'"),
            (lambda b: json.dumps({**b, "pairs": {}}), "missing key 'class00'"),
            (lambda b: json.dumps({**b, "pairs": {**b["pairs"], "zzz": b["pairs"]["class00"]}}),
             "is malformed: no state's frame names the pair 'zzz'"),
            (lambda b: json.dumps({**b, "states": []}), "malformed"),
            (lambda b: json.dumps(_transpose_bases(b)), "eigenvalues must have length d"),
            # Fields are checked, never coerced.
            (lambda b: json.dumps(_state_entry(b, "downgraded", "no")),
             "is malformed: 'downgraded' must be a JSON boolean, got str"),
            (lambda b: json.dumps(_state_entry(b, "downgraded", 0)),
             "is malformed: 'downgraded' must be a JSON boolean, got int"),
            (lambda b: json.dumps(_state_entry(b, "n_pos_src", 2.7)),
             "is malformed: 'n_pos_src' must be a non-negative JSON integer, got float"),
            (lambda b: json.dumps(_state_entry(b, "n_pos_tgt", True)),
             "is malformed: 'n_pos_tgt' must be a non-negative JSON integer, got bool"),
            (lambda b: json.dumps(_state_entry(b, "n_pos_src", -1)),
             "is malformed: 'n_pos_src' must be a non-negative JSON integer, got -1"),
            (lambda b: json.dumps(_state_entry(b, "note", None)),
             "is malformed: 'note' must be a JSON string, got NoneType"),
            (lambda b: json.dumps(_state_entry(b, "bias", "1.5")),
             "is malformed: 'bias' must be a JSON number, got str"),
        ],
        ids=[
            "invalid-json",
            "missing-key",
            "old-layout",
            "unknown-pair",
            "unnamed-pair",
            "wrong-type",
            "transposed-basis",
            "downgraded-string",
            "downgraded-int",
            "count-float",
            "count-bool",
            "count-negative",
            "note-null",
            "bias-string",
        ],
    )
    def test_malformed_state_bundle_is_data_error(self, tmp_path, adapted, edit, match):
        p = tmp_path / "states.json"
        save_states(p, adapted["class-specific"])
        p.write_text(edit(json.loads(p.read_text())))
        with pytest.raises(DataError, match=re.escape(match)) as info:
            load_states(p)
        assert str(p) in str(info.value)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda b: "not json", "not valid JSON"),
            (lambda b: '{"warnings": []}', "missing key 'detectors'"),
            (lambda b: '{"detectors": {"cat": {"class_id": "cat"}}}', "missing key 'weights'"),
            # Fields are checked, never coerced.
            (lambda b: json.dumps(_detector_field(b, "bias", "1.5")),
             "is malformed: 'bias' must be a JSON number, got str"),
            (lambda b: json.dumps(_detector_field(b, "bias", True)),
             "is malformed: 'bias' must be a JSON number, got bool"),
            (lambda b: json.dumps(_detector_field(b, "frame", 0)),
             "is malformed: 'frame' must be a JSON string, got int"),
            # A detector bundle holds raw-frame detectors only.
            (lambda b: json.dumps(_detector_field(b, "frame", "aligned:cat")),
             "is malformed: detector 'cat' has frame 'aligned:cat', not 'raw'"),
        ],
        ids=["invalid-json", "missing-key", "missing-weights", "bias-string", "bias-bool",
             "frame-int", "frame-aligned"],
    )
    def test_malformed_detector_bundle_is_data_error(self, tmp_path, edit, match):
        p = tmp_path / "det.json"
        save_detectors(p, {"cat": LinearDetector("cat", np.array([0.5, -1.25]), 0.375, "raw")})
        p.write_text(edit(json.loads(p.read_text())))
        with pytest.raises(DataError, match=re.escape(match)) as info:
            load_detectors(p)
        assert str(p) in str(info.value)


# Faults a saved dataset's files can get; each is applied to one file of
# the kind it concerns.
TEXT_MUTATIONS = ["header", "cell", "columns", "swap", "blank", "foreign_id", "non_utf8"]
FEATURE_MUTATIONS = ["magic", "version", "truncated", "non_finite", "dim"]
LOADER_MUTATIONS = (
    TEXT_MUTATIONS + FEATURE_MUTATIONS + ["unknown_class", "missing", "row_count"]
)


@st.composite
def small_datasets(draw):
    """1-4 images of 1-3 proposals on a small grid, 1-3 feature columns;
    each image labeled with 0-2 GT boxes (three times in four), or
    unlabeled."""
    dim = draw(st.integers(1, 3))
    images, gts = [], []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 3))
        values = draw(
            st.lists(st.floats(-4, 4, width=32), min_size=n * dim, max_size=n * dim)
        )
        boxes = []
        for _ in range(n):
            x0, y0 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
            w, h = draw(st.integers(0, 3)), draw(st.floats(0, 3))
            boxes.append((x0, y0, x0 + w, y0 + h))
        gt = None
        if draw(st.integers(0, 3)):
            gt = [
                (draw(st.sampled_from(["cat", "dog"])), BBox(0.0, 0.0, 2.0, 2.5))
                for _ in range(draw(st.integers(0, 2)))
            ]
        images.append(Image(f"img{k}", np.reshape(values, (n, dim)), boxes))
        gts.append(gt)
    return dataset_of("h", ["cat", "dog"], images, gts)


def _mutate(data, root, mutation, kinds=None) -> None:
    """Apply ``mutation`` to one file under ``root`` that it concerns, and
    whose kind (``features``, ``boxes`` or ``gt``) is among ``kinds`` when
    given."""
    kinds = [
        kind
        for kind in {
            "unknown_class": ["gt"],
            "empty_gt_file": ["gt"],
            "missing": ["features", "boxes", "gt"],
            "row_count": ["boxes"],
            **{m: ["features"] for m in FEATURE_MUTATIONS},
            **{m: ["boxes", "gt"] for m in TEXT_MUTATIONS},
        }[mutation]
        if kinds is None or kind in kinds
    ]
    files = sorted((root / data.draw(st.sampled_from(kinds))).glob("*"))
    if mutation in ("cell", "columns", "swap", "foreign_id", "unknown_class"):
        files = [p for p in files if len(_text(p).splitlines()) > 1]  # has rows
    if not files:
        return
    path = data.draw(st.sampled_from(files))
    if mutation == "missing":
        path.unlink()
    elif path.suffix == ".fmx":
        raw = bytearray(path.read_bytes())
        n, D = struct.unpack("<II", raw[8:16]) if len(raw) >= 16 else (0, 0)
        if mutation == "magic":
            raw[:4] = b"FMX2"
        elif mutation == "version":
            raw[4:8] = struct.pack("<I", 2)
        elif mutation == "truncated":
            del raw[len(raw) - data.draw(st.integers(1, min(len(raw), 20))) :]
        elif mutation == "non_finite" and n * D:
            k = 16 + 4 * data.draw(st.integers(0, n * D - 1))
            value = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
            raw[k : k + 4] = np.float32(value).tobytes()
        elif mutation == "dim":
            write_features(path, np.ones((n, D + 1)))
            return
        path.write_bytes(bytes(raw))
    else:
        lines = _text(path).splitlines()
        rows = [k for k in range(1, len(lines)) if lines[k]]
        if mutation == "header":
            lines[0] = lines[0].replace("x_min", "xmin")
        elif mutation == "empty_gt_file":
            del lines[1:]
        elif mutation == "blank":
            lines.insert(data.draw(st.integers(1, len(lines))), "")
        elif mutation == "non_utf8":
            k = data.draw(st.integers(0, len(lines) - 1))
            at = data.draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + NOT_UTF8 + lines[k][at:]
        elif mutation == "row_count":
            if rows and data.draw(st.booleans()):
                del lines[data.draw(st.sampled_from(rows))]
            else:
                lines.append(lines[-1] if rows else "img0,0,0,1,1")
        elif rows:
            k = data.draw(st.sampled_from(rows))
            cells = lines[k].split(",")
            if mutation == "cell":
                present = [c for c in (1, 2, 3, 4) if c < len(cells)]
                if present:
                    cells[data.draw(st.sampled_from(present))] = data.draw(
                        st.sampled_from(["a", "inf", "nan", "1_5", ""])
                    )
            elif mutation == "columns":
                if data.draw(st.booleans()):
                    cells.append("9")
                else:
                    cells.pop()
            elif mutation == "swap" and len(cells) > 3:
                cells[1], cells[3] = cells[3], cells[1]
            elif mutation == "foreign_id":
                cells[0] = "zz"
            elif mutation == "unknown_class" and len(cells) > 5:
                cells[5] = "emu"
            lines[k] = ",".join(cells)
        path.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))


def _text(path) -> str:
    """The text of ``path``, a byte that is not UTF-8 kept as a surrogate."""
    return path.read_bytes().decode(errors="surrogateescape")


def _mutate_manifest(data, manifest, mutation) -> None:
    """Repeat one entry of ``manifest`` at a drawn place (``duplicate_id``),
    or give one an image id that ``check_id`` rejects (``bad_id``)."""
    doc = json.loads(manifest.read_text())
    entries = doc["images"]
    k = data.draw(st.integers(0, len(entries) - 1))
    if mutation == "duplicate_id":
        entries.insert(data.draw(st.integers(0, len(entries))), dict(entries[k]))
    else:
        entries[k]["image_id"] = data.draw(st.sampled_from(["", "a,b", 7, None]))
    manifest.write_text(canonical_json(doc))


def _load_outcome(load, manifest):
    """What ``load`` makes of ``manifest``: its error message, or the
    dataset's ids, features, boxes and GT."""
    try:
        ds = load(manifest)
    except DataError as exc:
        return str(exc)
    return (
        ds.name,
        ds.classes,
        ds.feature_dim,
        [
            (img.image_id, img.features.shape, bits(img.features), bits(img.boxes), gt)
            for img, gt in zip(images_of(ds), image_gt(ds))
        ],
    )


@pytest.mark.parametrize("first", [None, *LOADER_MUTATIONS])
@given(ds=small_datasets(), data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_load_dataset_reads_as_the_sequential_loader(tmp_path, first, ds, data):
    """0-2 faults: ``first``, when given, then drawn ones."""
    count = data.draw(st.integers(0, 1 if first else 2))
    mutations = [first] * bool(first) + data.draw(
        st.lists(st.sampled_from(LOADER_MUTATIONS), min_size=count, max_size=count)
    )
    with tempfile.TemporaryDirectory(dir=tmp_path) as out:
        manifest = save_dataset(ds, out)
        for mutation in mutations:
            _mutate(data, manifest.parent, mutation)
        expected = _load_outcome(sequential_load_dataset, manifest)
        assert _load_outcome(load_dataset, manifest) == expected


def _annotations_outcome(load, manifest):
    """What ``load`` makes of ``manifest``'s annotations: its error
    message, or its name and, when every image is labeled, its class ids,
    image ids and ground-truth rows."""
    try:
        ds = load(manifest)
    except DataError as exc:
        return str(exc)
    if isinstance(ds, Dataset):
        names = tuple(ds.classes), ds.image_ids
        truths = ds.ground_truths if ds.labeled else None
    else:
        truths = ds.ground_truths
        names = None if truths is None else (truths.class_ids, truths.image_ids)
    return ds.name, None if truths is None else (*names, gt_rows(truths))


GT_MUTATIONS = [*TEXT_MUTATIONS, "unknown_class", "missing", "empty_gt_file"]


@pytest.mark.parametrize("first", [None, *GT_MUTATIONS, "duplicate_id", "bad_id"])
@given(ds=small_datasets(), data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_load_annotations_reads_the_ground_truth_of_load_dataset(
    tmp_path, first, ds, data
):
    """A GT fault, when ``first`` is given, is reported with the message of
    ``load_dataset``; the feature and boxes files are never opened, so
    removing them changes nothing.  A repeated entry or a bad image id in
    the manifest comes with a drawn GT fault or none, so the two loaders
    must agree on which comes first."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as out:
        manifest = save_dataset(ds, out)
        if first in ("duplicate_id", "bad_id"):
            _mutate_manifest(data, manifest, first)
            first = data.draw(st.sampled_from([None, *GT_MUTATIONS]))
        if first:
            _mutate(data, manifest.parent, first, kinds=["gt"])
        expected = _annotations_outcome(load_dataset, manifest)
        for kind in ("features", "boxes"):
            shutil.rmtree(manifest.parent / kind)
        assert _annotations_outcome(load_annotations, manifest) == expected


# Faults of each kind that ``load_dataset`` checks, made in one image's files
# (3 proposals of 2 features and one GT box): rows 0, 1 and 2 are lines
# 2, 3 and 4 of the boxes file.
ORDER_FAULTS = [
    "feature_header", "non_finite", "width", "box_header", "cell", "foreign_id",
    "row_count", "unknown_class",
]


def _make_fault(root, kind: str, k: int) -> None:
    if kind in ("feature_header", "non_finite", "width"):
        path = root / "features" / f"img{k}.fmx"
        raw = bytearray(path.read_bytes())
        if kind == "feature_header":
            raw[:4] = b"FMX2"
        elif kind == "non_finite":
            raw[16 + 4 * 3 : 16 + 4 * 4] = np.float32("nan").tobytes()  # row 1
        else:
            write_features(path, np.ones((3, 3)))
            return
        path.write_bytes(bytes(raw))
        return
    path = root / ("gt" if kind == "unknown_class" else "boxes") / f"img{k}.csv"
    lines = path.read_text().splitlines()
    if kind == "box_header":
        lines[0] = lines[0].replace("x_min", "xmin")
    elif kind == "cell":
        lines[2] = lines[2].replace(",", ",a", 1)  # row 1
    elif kind == "foreign_id":
        lines[1] = "zz" + lines[1][lines[1].index(",") :]  # row 0
    elif kind == "row_count":
        del lines[-1]
    else:
        lines[1] = lines[1].rsplit(",", 1)[0] + ",emu"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("a, b", list(itertools.product(ORDER_FAULTS, repeat=2)))
def test_first_fault_across_kinds_and_images_is_the_sequential_loaders(tmp_path, a, b):
    """Fault ``a`` in image 0 and ``b`` in image 1, then both in image 0:
    ``load_dataset`` reports what the per-image loader reports first."""
    images = [
        Image(f"img{k}", np.arange(6.0).reshape(3, 2), [(0.0, 0.0, 1.0, 1.0)] * 3)
        for k in range(2)
    ]
    gts = [[("cat", BBox(0.0, 0.0, 1.0, 1.0))]] * 2
    for where in ((0, 1), (0, 0)):
        with tempfile.TemporaryDirectory(dir=tmp_path) as out:
            manifest = save_dataset(dataset_of("pair", ["cat"], images, gts), out)
            for kind, k in zip((a, b), where):
                _make_fault(manifest.parent, kind, k)
            expected = _load_outcome(sequential_load_dataset, manifest)
            assert isinstance(expected, str)
            assert _load_outcome(load_dataset, manifest) == expected


class TestFeatureArray:
    """A dataset holds one feature array and one box table, each image's
    rows consecutive."""

    @staticmethod
    def assert_columns(ds, dtype=np.float64):
        F = ds.features
        assert F.flags.c_contiguous and F.dtype == dtype
        assert F.shape == (ds.sizes.sum(), ds.feature_dim)
        assert ds.boxes.dtype == np.float64 and ds.boxes.shape == (F.shape[0], 4)
        assert (ds.sizes >= 1).all() and len(ds.sizes) == len(ds.image_ids)
        npt.assert_array_equal(
            ds.image_index, np.repeat(np.arange(len(ds.image_ids)), ds.sizes)
        )

    def test_image_rows_view_the_one_array(self):
        ds = tiny_dataset()
        self.assert_columns(ds)
        images_of(ds)[1].features[0, 0] = 7.0
        assert ds.features[3, 0] == 7.0

    def test_generated_dataset_adopts_its_array(self):
        for ds in generate_synthetic(SynthShiftSpec(samples_per_class=15, n_classes=2))[:2]:
            self.assert_columns(ds)

    def test_loaded_dataset_adopts_its_array(self, tmp_path):
        # The .fmx payload is the array: float32, as stored.
        ds = load_dataset(save_dataset(tiny_dataset(), tmp_path))
        self.assert_columns(ds, np.float32)

    def test_load_peaks_under_its_float32_array(self, tmp_path):
        # 1024-dim features: each payload is read into its rows of the one
        # float32 array, with no float64 copy and no per-file bytes.
        rng = np.random.default_rng(4)
        images = [
            Image(f"img{k}", rng.normal(size=(150, 1024)), [(0.0, 0.0, 8.0, 8.0)] * 150)
            for k in range(6)
        ]
        gts = [[("cat", BBox(0.0, 0.0, 8.0, 8.0))]] * 6
        manifest = save_dataset(dataset_of("wide", ["cat"], images, gts), tmp_path)
        tracemalloc.start()
        try:
            ds = load_dataset(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.dtype == np.float32
        assert peak < 1.25 * ds.features.nbytes

    def test_features_must_be_one_c_contiguous_array_and_are_adopted(self):
        ds = tiny_dataset()
        columns = ds.image_ids, ds.sizes
        with pytest.raises(DataError, match=r"C-contiguous float64 \(6, D\) array"):
            Dataset("d", ["cat"], *columns, np.asfortranarray(ds.features), ds.boxes)
        with pytest.raises(DataError, match=r"C-contiguous float64 \(6, D\) array"):
            Dataset("d", ["cat"], *columns, ds.features.astype(np.float16), ds.boxes)
        again = Dataset("e", ["cat"], *columns, ds.features, ds.boxes)
        assert again.features is ds.features and again.boxes is ds.boxes
