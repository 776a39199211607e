"""The labeled cache copies each ingested row's detection cells from its file.

``reference_cache`` writes a cache the way ``write_labeled_cache`` wrote one
before it copied: every detection cell from its float (``repr``), through
``csv.writer``.  Given a row's cells as its detection file holds them, it
writes those instead, as the copy must.  Rows the copy must not take (the
file changed or is gone, the line needs quoting) are written from floats.
"""

import csv
import os
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reach_al.config import default_config
from reach_al.dataset import (
    DETECTION_COLUMNS,
    LABELED_COLUMNS,
    SceneConfig,
    generate_scene,
    ingest_detections,
    label_with_oracle,
    read_labeled_cache,
    write_detections,
    write_labeled_cache,
)

CFG = default_config()
W = CFG.cam.rgb_width
POOL = generate_scene(SceneConfig(n_images=160, seed=5), CFG.cam)
NUMERIC = ("u", "v", "bbox_w", "bbox_h", "confidence")
FEATURES_AT = LABELED_COLUMNS.index("label") - len(DETECTION_COLUMNS)
# A row that ingests and labels: the pixel is in frame and every depth valid.
VALID_ROW = ["img0", "100.0", "120.0", "30.0", "28.0", "0.9"] + ["1.2"] * 25


def label(path):
    det = ingest_detections(path, CFG.cam)
    return label_with_oracle(det, CFG.cam, CFG.ext, CFG.arm)


def reference_cache(path, result, texts=None):
    """The cache's bytes with each detection cell written from its float,
    or, for a record whose image id ``texts`` maps to cells, those cells."""
    texts = texts or {}
    rec = result.records
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        for i, (features, y) in enumerate(zip(result.samples.X.tolist(), result.samples.y.tolist())):
            cells = texts.get(rec.image_id[i])
            if cells is None:
                cells = [rec.image_id[i], *(float(getattr(rec, n)[i]) for n in NUMERIC), *rec.patches[i].tolist()]
            features.insert(FEATURES_AT, y)
            writer.writerow(list(cells) + features)
    return path.read_bytes()


def detection_lines(path):
    """The data lines of a detection file, without their line ends."""
    with open(path, newline="") as fh:
        return fh.read().split("\r\n")[1:-1]


def write_lines(path, lines):
    header = ",".join(DETECTION_COLUMNS)
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{line}\r\n" for line in [header, *lines]))


def padded(line):
    """A line with a space before every cell but the image id: each cell
    reads back as the same float, but is not that float's ``repr``."""
    return line.replace(",", ", ")


# A row taken from the pool, and what is done to it before the file is written.
KINDS = ("plain", "quoted_id", "no_depth", "out_of_frame", "edge_of_frame")
# Lines put between the rows: too few or too many cells, a cell that is no number.
EXTRA = ("", "x,1,2", ",".join(VALID_ROW + ["1.0"]), ",".join(["bad", "oops"] + VALID_ROW[2:]))


@st.composite
def detection_files(draw):
    """Pool rows of each kind, extra lines to put at some line indices, and
    whether to pad the cells."""
    rows = draw(
        st.lists(st.tuples(st.integers(0, len(POOL) - 1), st.sampled_from(KINDS)), min_size=1, max_size=30)
    )
    extras = draw(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(EXTRA)), max_size=6))
    return rows, extras, draw(st.booleans())


def build(rows):
    """Detections of the pool rows, each made into its kind, with unique ids."""
    det = POOL.take(np.array([i for i, _ in rows]))
    ids = [(f'a,"{k}' if kind == "quoted_id" else f"r{k}") for k, (_, kind) in enumerate(rows)]
    u, patches = det.u.copy(), det.patches.copy()
    for k, (_, kind) in enumerate(rows):
        if kind == "no_depth":
            patches[k] = 0.0
        elif kind == "out_of_frame":
            u[k] = float(W)
        elif kind == "edge_of_frame":
            u[k] = W - 1e-9
    return replace(det, image_id=np.array(ids, dtype=object), u=u, depth_cells=patches)


@settings(max_examples=60, deadline=None)
@given(spec=detection_files())
@example(spec=([(0, "plain")], [], False))
@example(spec=([(k, kind) for k, kind in enumerate(KINDS * 3)], [(0, EXTRA[1]), (4, EXTRA[3]), (30, "")], True))
def test_cache_equals_the_reference_writer(tmp_path_factory, spec):
    """Across wrong-width and non-numeric lines, rows that ingestion skips
    and rows that labeling drops, each kept row's cells are the file's own
    when its line needs no quoting, and its floats' otherwise."""
    rows, extras, pad = spec
    tmp = tmp_path_factory.mktemp("copy")
    path = tmp / "detections.csv"
    write_detections(path, build(rows))
    lines = detection_lines(path)
    if pad:
        lines = [line if '"' in line else padded(line) for line in lines]
    texts = {line.split(",")[0]: line.split(",") for line in lines if '"' not in line}
    for at, extra in sorted(extras, reverse=True):
        lines.insert(min(at, len(lines)), extra)
    write_lines(path, lines)

    result = label(path)
    write_labeled_cache(tmp / "labeled.csv", result)
    cache = (tmp / "labeled.csv").read_bytes()
    assert cache == reference_cache(tmp / "reference.csv", result, texts)
    if not pad:
        # write_detections wrote every cell as its float's repr.
        assert cache == reference_cache(tmp / "floats.csv", result)


def padded_file(tmp_path, n=40):
    path = tmp_path / "detections.csv"
    ids = np.array([f"p{k}" for k in range(n)], dtype=object)
    write_detections(path, replace(POOL.take(np.arange(n)), image_id=ids))
    write_lines(path, [padded(line) for line in detection_lines(path)])
    assert len(label(path).samples) > n // 2
    return path, {line.split(",")[0]: line.split(",") for line in detection_lines(path)}


class TestSourceChanged:
    """Padded cells tell a copied row from one written from floats."""

    def test_unchanged_source_is_copied(self, tmp_path):
        """Several chunks of rows, each copied."""
        path, texts = padded_file(tmp_path, n=1200)
        result = label(path)
        write_labeled_cache(tmp_path / "labeled.csv", result)
        assert (tmp_path / "labeled.csv").read_bytes() == reference_cache(tmp_path / "ref.csv", result, texts)

    def test_rewritten_deleted_or_output_source_writes_floats(self, tmp_path):
        other = tmp_path / "other.csv"
        write_detections(other, POOL.take(np.arange(40, 80)))
        cases = {
            "other values": lambda path: os.replace(other, path),
            "same values as repr": lambda path: write_detections(path, ingest_detections(path, CFG.cam)),
            "deleted": os.remove,
        }
        for name, change in cases.items():
            path, _ = padded_file(tmp_path)
            result = label(path)
            change(path)
            write_labeled_cache(tmp_path / "labeled.csv", result)
            expected = reference_cache(tmp_path / "ref.csv", result)
            assert (tmp_path / "labeled.csv").read_bytes() == expected, name
        for name in ("source", "hard link"):
            path, _ = padded_file(tmp_path)
            result = label(path)
            out = path
            if name == "hard link":
                out = tmp_path / "link.csv"
                if out.exists():
                    out.unlink()
                os.link(path, out)
            write_labeled_cache(out, result)
            assert out.read_bytes() == reference_cache(tmp_path / "ref.csv", result), name

    def test_one_changed_row_alone_writes_floats(self, tmp_path):
        path, texts = padded_file(tmp_path)
        result = label(path)
        lines = detection_lines(path)
        changed = result.records.image_id[3]
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{changed},"))
        lines[at] = lines[at].replace(", ", ",", 1)
        write_lines(path, lines)
        write_labeled_cache(tmp_path / "labeled.csv", result)
        del texts[changed]
        assert (tmp_path / "labeled.csv").read_bytes() == reference_cache(tmp_path / "ref.csv", result, texts)

    def test_unreadable_row_ends_the_copy(self, tmp_path):
        """Rows after one that csv cannot read (a cell past its field size
        limit) are written from floats; rows before it are still copied."""
        path, texts = padded_file(tmp_path)
        result = label(path)
        lines = detection_lines(path)
        cut = result.records.image_id[10]
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{cut},"))
        lines.insert(at, "x" * 200_000)
        write_lines(path, lines)
        write_labeled_cache(tmp_path / "labeled.csv", result)
        kept = {k: texts[k] for k in result.records.image_id[:10]}
        assert (tmp_path / "labeled.csv").read_bytes() == reference_cache(tmp_path / "ref.csv", result, kept)

    def test_records_out_of_file_order(self, tmp_path):
        """The file is read once: a record whose row comes before the one
        before it is written from floats."""
        path, texts = padded_file(tmp_path)
        result = label(path)
        order = np.arange(len(result.samples))[::-1]
        backwards = replace(result, samples=result.samples[::-1], records=result.records.take(order))
        write_labeled_cache(tmp_path / "labeled.csv", backwards)
        first = backwards.records.image_id[0]
        expected = reference_cache(tmp_path / "ref.csv", backwards, {first: texts[first]})
        assert (tmp_path / "labeled.csv").read_bytes() == expected


def test_cells_as_written_read_back_as_the_same_floats(tmp_path):
    """Cells written ``1.50``, `` 1.5`` or ``1E0`` are copied and read back
    bitwise equal; a cell quoted with a newline inside is written as its float."""
    rows = [list(VALID_ROW) for _ in range(4)]
    rows[0][3] = "30.50"
    rows[1][4] = " 28.0"
    rows[2][5] = "1E0"
    rows[3][6] = "1.2\n"
    for k, row in enumerate(rows):
        row[0] = f"img{k}"
    path = tmp_path / "detections.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([DETECTION_COLUMNS, *rows])
    result = label(path)
    assert len(result.samples) == 4
    write_labeled_cache(tmp_path / "labeled.csv", result)
    with open(tmp_path / "labeled.csv", newline="") as fh:
        text = fh.read()
    assert "img0,100.0,120.0,30.50," in text and ", 28.0," in text and ",1E0," in text
    assert '"' not in text and "img3,100.0,120.0,30.0,28.0,0.9,1.2,1.2," in text

    loaded = read_labeled_cache(tmp_path / "labeled.csv")
    assert loaded.samples.X.tobytes() == result.samples.X.tobytes()
    assert loaded.samples.y.tobytes() == result.samples.y.tobytes()
    assert loaded.records.image_id.tolist() == result.records.image_id.tolist()
    for name in (*NUMERIC, "patches"):
        assert getattr(loaded.records, name).tobytes() == getattr(result.records, name).tobytes(), name
