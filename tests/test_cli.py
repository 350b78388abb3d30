"""The repro-label command-line tool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import blobs, write_pnm
from repro.data.pnm import read_pnm
from repro.verify import flood_fill_label


@pytest.fixture
def pbm_image(tmp_path, rng):
    img = blobs((32, 32), density=0.45, seed=77)
    path = tmp_path / "input.pbm"
    write_pnm(path, img)
    return path, img


def test_parser_defaults():
    args = build_parser().parse_args(["in.pbm", "out.npy"])
    assert args.algorithm == "aremsp"
    assert args.connectivity == 8
    assert args.level == 0.5


def test_label_to_npy(pbm_image, tmp_path, capsys):
    path, img = pbm_image
    out = tmp_path / "labels.npy"
    rc = main([str(path), str(out)])
    assert rc == 0
    labels = np.load(out)
    _, n = flood_fill_label(img, 8)
    assert int(labels.max()) == n
    assert "components" in capsys.readouterr().out


def test_label_to_pgm_roundtrip(pbm_image, tmp_path):
    path, img = pbm_image
    out = tmp_path / "labels.pgm"
    assert main([str(path), str(out)]) == 0
    labels = read_pnm(out)
    _, n = flood_fill_label(img, 8)
    assert int(labels.max()) == n


def test_grayscale_input_binarized(tmp_path):
    gray = (np.random.default_rng(0).random((16, 16)) * 255).astype(np.uint8)
    path = tmp_path / "gray.pgm"
    write_pnm(path, gray)
    out = tmp_path / "labels.npy"
    assert main([str(path), str(out), "--level", "0.5"]) == 0
    labels = np.load(out)
    from repro.data import im2bw

    _, n = flood_fill_label(im2bw(gray, 0.5), 8)
    assert int(labels.max()) == n


def test_npy_input(tmp_path, rng):
    img = (rng.random((12, 12)) < 0.5).astype(np.uint8)
    path = tmp_path / "input.npy"
    np.save(path, img)
    out = tmp_path / "labels.npy"
    assert main([str(path), str(out)]) == 0
    _, n = flood_fill_label(img, 8)
    assert int(np.load(out).max()) == n


def test_min_area_filter(pbm_image, tmp_path):
    path, img = pbm_image
    out_all = tmp_path / "all.npy"
    out_big = tmp_path / "big.npy"
    main([str(path), str(out_all)])
    main([str(path), str(out_big), "--min-area", "20"])
    assert np.load(out_big).max() <= np.load(out_all).max()


def test_preprocessing_flags(tmp_path):
    ring = np.ones((6, 6), dtype=np.uint8)
    ring[2:4, 2:4] = 0
    path = tmp_path / "ring.pbm"
    write_pnm(path, ring)
    out = tmp_path / "labels.npy"
    main([str(path), str(out), "--fill-holes"])
    assert (np.load(out) > 0).all()
    main([str(path), str(out), "--clear-border"])
    assert np.load(out).max() == 0


def test_vectorized_engine_flag(pbm_image, tmp_path):
    path, img = pbm_image
    out = tmp_path / "labels.npy"
    assert main([str(path), str(out), "--engine", "vectorized"]) == 0
    _, n = flood_fill_label(img, 8)
    assert int(np.load(out).max()) == n


@pytest.mark.parametrize(
    "name", ["auto", "itequiv", "coarse2fine", "block2x2"]
)
def test_engine_flag_rejects_registry_names(pbm_image, tmp_path, capsys, name):
    path, _ = pbm_image
    out = tmp_path / "labels.npy"
    with pytest.raises(SystemExit) as exc:
        main([str(path), str(out), "--engine", name])
    assert exc.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err
    assert not out.exists()


def test_stats_output(pbm_image, tmp_path, capsys):
    path, _ = pbm_image
    out = tmp_path / "labels.npy"
    main([str(path), str(out), "--stats"])
    text = capsys.readouterr().out
    assert "area" in text
    assert "centroid" in text


def test_ppm_output_is_colorized(pbm_image, tmp_path):
    from repro.analysis import colorize_labels
    from repro.verify import flood_fill_label

    path, img = pbm_image
    out = tmp_path / "labels.ppm"
    assert main([str(path), str(out)]) == 0
    rgb = read_pnm(out)
    assert rgb.ndim == 3 and rgb.shape[-1] == 3
    labels, _ = flood_fill_label(img, 8)
    assert np.array_equal(rgb, colorize_labels(labels))


def test_missing_input(tmp_path, capsys):
    rc = main([str(tmp_path / "nope.pbm"), str(tmp_path / "o.npy")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_many_components_use_16bit_pgm(tmp_path):
    # > 255 isolated pixels
    img = np.zeros((40, 40), dtype=np.uint8)
    img[::2, ::2] = 1
    path = tmp_path / "dots.pbm"
    write_pnm(path, img)
    out = tmp_path / "labels.pgm"
    assert main([str(path), str(out)]) == 0
    labels = read_pnm(out)
    assert labels.dtype == np.uint16
    assert int(labels.max()) == 400

def test_hosts_flags_require_shards(pbm_image, tmp_path, capsys):
    path, _ = pbm_image
    out = tmp_path / "labels.npy"
    rc = main([str(path), str(out), "--virtual-hosts", "2"])
    assert rc == 2
    assert "--hosts/--virtual-hosts require --shards" in capsys.readouterr().err
    rc = main([
        str(path), str(out), "--shards", "2",
        "--hosts", "127.0.0.1:1", "--virtual-hosts", "2",
    ])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_virtual_hosts_label_matches_serial(pbm_image, tmp_path, capsys):
    path, img = pbm_image
    out = tmp_path / "labels.npy"
    rc = main([
        str(path), str(out), "--shards", "2",
        "--virtual-hosts", "2", "--tile-shape", "8x8",
    ])
    assert rc == 0
    _, n = flood_fill_label(img, 8)
    assert int(np.load(out).max()) == n
    assert "over 2 host(s)" in capsys.readouterr().out
