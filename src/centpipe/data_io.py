"""Tensor files, dataset manifests, synthetic image generation, Markov-chain
sampling for the data-processing check, activation dumps (`extract
--dump-out` writes one, `extract --dump` reads one) and the features CSV.

A tensor file is a framed file (see framing) whose body is one tensor record:
magic "CENTTNSR", u32 version, u32 rank, u64 dims[rank], float32 payload,
trailing u32 CRC32 of everything before it. stack_tensors is the one reader
of per-image tensor files into arrays: load_dataset reads a dataset's images
through it, and extract --dump each chunk of a dump's activations. Manifests
and the features CSV are UTF-8 text, read through _text_lines.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .framing import FramedReader, tensor_record, write_framed, write_text
from .net import forward_collect  # noqa: F401 - unused, but the benchmark's tracer wraps it

TENSOR_MAGIC = b"CENTTNSR"
TENSOR_VERSION = 1


def save_tensor(path, tensor) -> None:
    if np.ndim(tensor) == 0:
        raise ValueError("rank-0 tensors are not supported")
    write_framed(path, TENSOR_MAGIC, TENSOR_VERSION, tensor_record(tensor))


def load_tensor(path) -> np.ndarray:
    """A tensor file's tensor; a bad file raises a framing.FramedFileError."""
    reader = FramedReader(path, TENSOR_MAGIC, TENSOR_VERSION, "tensor file")
    tensor = reader.tensor()
    reader.finish()
    return tensor


MANIFEST_HEADER = "image_id,path,label"


def _parse(texts: list, kind, spell, field: str) -> list:
    """kind() of each text, accepted only when spell() of it gives the text
    back: the writers' own spelling (str of an int label, repr of a float
    value), so underscores, spaces, signs and non-ASCII digits that int() and
    float() take are refused. repr, about 1 us a value, is most of a features
    file's read, so both steps map over the whole list."""
    values = list(map(kind, texts))
    spelled = list(map(spell, values))
    if spelled != texts:
        text, back = next((t, b) for t, b in zip(texts, spelled) if t != b)
        raise ValueError(f"{field} {text!r} is not written as {back!r}")
    return values


def write_manifest(path, rows, class_names) -> None:
    """rows: (image_id, relative path, label index) triples."""
    lines = [f"# classes: {','.join(class_names)}", MANIFEST_HEADER]
    lines += [f"{image_id},{rel},{label}" for image_id, rel, label in rows]
    write_text(path, "\n".join(lines) + "\n")


# The longest file name most file systems take (255 bytes) less ".tnsr.tmp":
# the dataset writer names a tensor file <image_id>.tnsr, and the atomic
# writer first writes it as <image_id>.tnsr.tmp.
MAX_ID_BYTES = 246


def _require_plain_id(value: str, source, field: str = "image_id") -> None:
    """The one check of a text field in a manifest or features CSV, shared
    by their writers and readers: no empty value, '.' or '..', no path
    separator or NUL and at most MAX_ID_BYTES of UTF-8 (the dataset and dump
    writers make an image_id a file name), and no ',' or line break (the
    readers split on them)."""
    seps = {"/", os.sep, os.altsep, "\0", ",", "\n", "\r"} - {None}
    if value in ("", ".", "..") or any(sep in value for sep in seps):
        raise ValueError(f"{source}: {field} {value!r} is not a plain file name")
    if len(value.encode()) > MAX_ID_BYTES:
        raise ValueError(f"{source}: {field} {value!r} is longer than {MAX_ID_BYTES} "
                         "bytes of UTF-8")


def _require_plain_fields(values, source, field: str, seen=None) -> None:
    """_require_plain_id on each value in order, refusing a repeated one,
    also one already in `seen`, to which each value is added."""
    seen = set() if seen is None else seen
    for value in values:
        _require_plain_id(value, source, field)
        if value in seen:
            raise ValueError(f"{source}: duplicate {field} {value!r}")
        seen.add(value)


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file without their line ends; a file that is
    not UTF-8 raises ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return [ln.rstrip("\n") for ln in f]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def read_manifest(path):
    """Returns (rows, class_names); validates class names unique, ids unique
    plain file names, and labels in range."""
    lines = _text_lines(path)
    if not lines or not lines[0].startswith("# classes: "):
        raise ValueError(f"{path}: missing '# classes:' header line")
    class_names = tuple(lines[0][len("# classes: "):].split(","))
    _require_plain_fields(class_names, path, "class name")
    if len(lines) < 2 or lines[1] != MANIFEST_HEADER:
        raise ValueError(f"{path}: expected header '{MANIFEST_HEADER}'")
    rows = []
    for no, ln in enumerate(lines[2:], 3):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}, line {no}: malformed row {ln!r}")
        try:
            image_id, rel, (label,) = parts[0], parts[1], _parse(parts[2:], int, str, "label")
        except ValueError as exc:
            raise ValueError(f"{path}, line {no}: {exc}") from None
        if not 0 <= label < len(class_names):
            raise ValueError(f"{path}, line {no}: label {label} outside class table "
                             f"of {len(class_names)}")
        rows.append((image_id, rel, label))
    _require_plain_fields([row[0] for row in rows], path, "image_id")
    return rows, class_names


@dataclass
class LabeledDataset:
    images: np.ndarray  # (n, channels, *spatial) float32
    labels: np.ndarray  # (n,) int64
    class_names: tuple
    image_ids: tuple = ()

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ValueError(f"{len(self.images)} images but {len(self.labels)} labels")
        if not ((0 <= self.labels) & (self.labels < len(self.class_names))).all():
            raise ValueError("labels outside class-name table")
        _require_plain_fields(self.class_names, "dataset", "class name")
        if not self.image_ids:
            self.image_ids = tuple(f"img_{i:04d}" for i in range(len(self.images)))
        if len(self.image_ids) != len(self.images):
            raise ValueError("image_ids length mismatch")
        _require_plain_fields(self.image_ids, "dataset", "image_id")


def save_dataset(dataset: LabeledDataset, out_dir) -> int:
    """Writes out_dir/manifest.csv plus one TensorFile per image under
    tensors/; returns the bytes written. Refuses an empty one, as its loader would."""
    if not len(dataset.images):
        raise ValueError(f"{out_dir}: a dataset with no images is not saved")
    tensor_dir = os.path.join(out_dir, "tensors")
    os.makedirs(tensor_dir, exist_ok=True)
    rows = []
    for i, image_id in enumerate(dataset.image_ids):
        rel = f"tensors/{image_id}.tnsr"
        save_tensor(os.path.join(out_dir, rel), dataset.images[i])
        rows.append((image_id, rel, int(dataset.labels[i])))
    write_manifest(os.path.join(out_dir, "manifest.csv"), rows, dataset.class_names)
    return sum(os.path.getsize(os.path.join(out_dir, rel))
               for rel in ["manifest.csv", *(row[1] for row in rows)])


def _manifest_rows(path):
    """(rows, class_names, base directory) of the manifest in a dataset or
    dump directory, or at a manifest.csv path; refuses a manifest with no
    rows."""
    manifest = os.path.join(path, "manifest.csv") if os.path.isdir(path) else path
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"manifest not found: {manifest}")
    rows, class_names = read_manifest(manifest)
    if not rows:
        raise ValueError(f"{manifest}: no image rows")
    return rows, class_names, os.path.dirname(manifest)


def stack_tensors(image_ids, paths, shapes=None) -> list[np.ndarray]:
    """One (n, *shape) float32 array per column of `paths`, whose row i
    lists image i's tensor files; each image is read into the arrays and
    freed before the next. The first image fixes the shapes unless `shapes`
    is given; an image whose tensors differ, or that names a directory,
    raises ValueError naming it."""
    n = len(paths)
    stacks = None if shapes is None else [np.empty((n, *s), np.float32) for s in shapes]
    for i, (image_id, files) in enumerate(zip(image_ids, paths)):
        try:
            tensors = [load_tensor(path) for path in files]
        except IsADirectoryError as exc:
            raise ValueError(f"image {image_id!r}: {exc.filename} is a directory, "
                             "not a tensor file") from None
        if stacks is None:
            stacks = [np.empty((n, *t.shape), np.float32) for t in tensors]
        if len(tensors) != len(stacks):
            raise ValueError(f"image {image_id!r} has {len(tensors)} tensors, "
                             f"expected {len(stacks)}")
        for stack, tensor in zip(stacks, tensors):
            if tensor.shape != stack.shape[1:]:
                raise ValueError(f"image {image_id!r} has shape {tensor.shape}, "
                                 f"expected {stack.shape[1:]}")
            stack[i] = tensor
        del tensors, tensor  # freed before the next image is read
    return stacks


def load_dataset(path) -> LabeledDataset:
    """Accepts a dataset directory or a manifest.csv path. The images go
    into one array, whose shape the first image fixes."""
    rows, class_names, base = _manifest_rows(path)
    ids, rels, labels = zip(*rows)
    images, = stack_tensors(ids, [[os.path.join(base, rel)] for rel in rels])
    return LabeledDataset(images, np.array(labels), class_names, ids)


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-class texture parameters for the synthetic image generator.

    Classes must differ in at least one parameter unless null_generator is
    set (the null mode deliberately makes classes indistinguishable).
    """
    class_count: int = 2
    extent: int = 32
    per_class: int = 50
    seed: int = 0
    noise_scale: tuple = (0.1, 0.4)
    spatial_frequency: tuple = (0.0, 6.0)
    blob_density: tuple = (0.5, 0.1)
    null_generator: bool = False

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.extent < 4:
            raise ValueError(f"extent must be >= 4, got {self.extent}")
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        for name in ("noise_scale", "spatial_frequency", "blob_density"):
            values = getattr(self, name)
            if len(values) != self.class_count:
                raise ValueError(f"{name} needs {self.class_count} entries")
            if not all(0 <= v < np.inf for v in values):  # nan fails both
                raise ValueError(f"{name} must be finite and >= 0, got {list(values)}")
        triples = list(zip(self.noise_scale, self.spatial_frequency, self.blob_density))
        if not self.null_generator and len(set(triples)) != len(triples):
            raise ValueError("class parameters must be distinct unless null_generator")


def _blob_field(rng, extent: int, density: float) -> np.ndarray:
    count = round(density * extent / 4)
    if count == 0:
        return np.zeros((extent, extent))
    yy, xx = np.mgrid[0:extent, 0:extent].astype(np.float64)
    sigma = extent / 8.0
    field = np.zeros((extent, extent))
    centers = rng.uniform(0, extent, size=(count, 2))
    for cy, cx in centers:
        field += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma * sigma))
    return field


def _grating(rng, extent: int, frequency: float) -> np.ndarray:
    if frequency <= 0:
        return np.zeros((extent, extent))
    theta = rng.uniform(0, np.pi)
    yy, xx = np.mgrid[0:extent, 0:extent].astype(np.float64)
    phase = rng.uniform(0, 2 * np.pi)
    proj = xx * np.cos(theta) + yy * np.sin(theta)
    return np.sin(2 * np.pi * frequency * proj / extent + phase)


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Blobby/grating/Laplace-noise images whose texture statistics separate
    the classes; no per-image normalization. Deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.class_count * spec.per_class
    images = np.empty((n, 1, spec.extent, spec.extent), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    i = 0
    for c in range(spec.class_count):
        for _ in range(spec.per_class):
            img = (_blob_field(rng, spec.extent, spec.blob_density[c])
                   + _grating(rng, spec.extent, spec.spatial_frequency[c])
                   + rng.laplace(0.0, spec.noise_scale[c], size=(spec.extent, spec.extent)))
            images[i, 0] = img.astype(np.float32)
            labels[i] = c
            i += 1
    names = tuple(f"class_{c}" for c in range(spec.class_count))
    return LabeledDataset(images, labels, names)


@dataclass(frozen=True)
class ChainSamples:
    """Draws from X -> Y -> C (stored as x, y, c integer codes)."""
    x: np.ndarray
    y: np.ndarray
    c: np.ndarray


def generate_markov_chain(n: int, noise_levels: int, quantizer_levels: int | None,
                          classes: int = 2, seed: int = 0) -> ChainSamples:
    """c uniform; x = class signal + integer noise; y = quantization of x only.

    y is computed from x alone (never from c), so X -> Y -> C holds by
    construction. noise_levels=1 makes x noiseless; quantizer_levels None is
    the identity channel, 1 collapses y to a constant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_levels < 1:
        raise ValueError("noise_levels must be >= 1")
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if quantizer_levels is not None and quantizer_levels < 1:
        raise ValueError("quantizer_levels must be >= 1 or None")
    rng = np.random.default_rng(seed)
    c = rng.integers(0, classes, size=n)
    step = max(1, noise_levels // 2)  # < noise_levels so class ranges overlap
    x = c * step + rng.integers(0, noise_levels, size=n)
    x_span = (classes - 1) * step + noise_levels  # theoretical code count
    if quantizer_levels is None:
        y = x.copy()
    else:
        y = np.floor(x / x_span * quantizer_levels).astype(np.int64)
        y = np.clip(y, 0, quantizer_levels - 1)
    return ChainSamples(x.astype(np.int64), y.astype(np.int64), c.astype(np.int64))


class ActivationDumpWriter:
    """Writes an activation dump chunk by chunk, in any process (a forked
    copy checks repeated ids within its own chunks), and its manifest last.
    A manifest already in out_dir is removed first, so a run cut short leaves
    a dump that import_activation_dump refuses, never one that mixes two
    runs' tensors under the old manifest."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = set()  # the image ids of every chunk so far
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "manifest.csv"))

    def write_chunk(self, image_ids, activations) -> None:
        """Row i of each read point's array (forward_collect's arrays for
        these images) goes to activations/<image_ids[i]>/layer_00.tnsr, ...
        Refuses, before making any directory, an id that the reader would
        refuse, or one that an earlier chunk wrote."""
        _require_plain_fields(image_ids, self.out_dir, "image_id", self.written)
        for i, image_id in enumerate(image_ids):
            img_dir = os.path.join(self.out_dir, "activations", image_id)
            os.makedirs(img_dir, exist_ok=True)
            for li, act in enumerate(activations):
                save_tensor(os.path.join(img_dir, f"layer_{li:02d}.tnsr"), act[i])

    def finish(self, image_ids, labels, class_names) -> None:
        """The manifest: its path column names each image's directory.
        Refuses, before writing it, what import_activation_dump would refuse
        in it: no images, a class name that is not plain or is repeated, or
        a label outside the class table."""
        if not len(image_ids):
            raise ValueError(f"{self.out_dir}: a dump with no images is not saved")
        _require_plain_fields(class_names, self.out_dir, "class name")
        if not all(0 <= label < len(class_names) for label in labels):
            raise ValueError(f"{self.out_dir}: label outside class table of {len(class_names)}")
        rows = [(image_id, f"activations/{image_id}", int(label))
                for image_id, label in zip(image_ids, labels)]
        write_manifest(os.path.join(self.out_dir, "manifest.csv"), rows, class_names)


def import_activation_dump(path):
    """(image_ids, labels int64, class_names, layer files) of
    ActivationDumpWriter's dump; stack_tensors reads the files. Each image's
    layer_NN.tnsr files are listed in read-point order, refusing, naming the
    image, a missing directory, no layer file and numbers NN not 0 to L-1."""
    rows, class_names, base = _manifest_rows(path)
    files = []
    for image_id, rel, _ in rows:
        img_dir = os.path.join(base, rel)
        if not os.path.isdir(img_dir):
            raise FileNotFoundError(f"image {image_id!r}: activation directory missing ({img_dir})")
        names = [f for f in os.listdir(img_dir) if f.startswith("layer_") and f.endswith(".tnsr")]
        if not names:
            raise ValueError(f"image {image_id!r}: no layer tensors in {img_dir}")
        numbers = [int(d) if d.isdecimal() else -1
                   for d in (f[len("layer_"):-len(".tnsr")] for f in names)]
        if sorted(numbers) != list(range(len(names))):
            raise ValueError(f"image {image_id!r}: layer files {sorted(names)} in {img_dir} "
                             f"are not numbered 0 to {len(names) - 1}")
        files.append([os.path.join(img_dir, f) for _, f in sorted(zip(numbers, names))])
    ids, _, labels = zip(*rows)
    return ids, np.array(labels, dtype=np.int64), class_names, files


def write_features_csv(path, image_ids, labels, matrix) -> None:
    """Refuses, before writing, what read_features_csv would refuse or read
    back otherwise: no row or no column, an id or label per row missing, and
    ids that are no plain file names or repeat."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or 0 in matrix.shape or not len(image_ids) == len(labels) == len(matrix):
        raise ValueError(f"{path}: need a nonempty matrix and one image_id and label per row, "
                         f"got {matrix.shape} with {len(image_ids)} ids, {len(labels)} labels")
    _require_plain_fields(image_ids, path, "image_id")
    lines = ["image_id,label," + ",".join(f"feat_{j}" for j in range(matrix.shape[1]))]
    lines += [f"{image_id},{int(label)}," + ",".join(repr(float(v)) for v in row)
              for image_id, label, row in zip(image_ids, labels, matrix)]
    write_text(path, "\n".join(lines) + "\n")


def read_features_csv(path):
    """Returns (image_ids, labels int64, feature matrix float64); refuses
    what write_features_csv refuses in an image_id, a repeated one too, so
    no image can sit in two cross-validation folds."""
    lines = [(no, ln) for no, ln in enumerate(_text_lines(path), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("image_id,label,"):
        raise ValueError(f"{path}: expected header 'image_id,label,feat_0,...'")
    ids, labels, rows = [], [], []
    width = len(lines[0][1].split(","))
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}, line {no}: row width {len(parts)} != header width {width}")
        ids.append(parts[0])
        try:
            labels += _parse(parts[1:2], int, str, "label")
            rows.append(_parse(parts[2:], float, repr, "value"))
        except ValueError as exc:
            raise ValueError(f"{path}, line {no}: {exc}") from None
    _require_plain_fields(ids, path, "image_id")
    return tuple(ids), np.array(labels, dtype=np.int64), np.array(rows, dtype=np.float64)
