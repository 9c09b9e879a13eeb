"""The reference CLI commands give the same bytes as before.

Each command of mosaic enumerate|table|render|tree, density
empirical|compare|eval|support and verify lattice|tables runs at small
parameters, and the SHA-256 of its output is compared with the digest
recorded while polygons still stored Fraction vertices, on outputs that
had been compared byte for byte with every earlier version.  A change
that is meant to keep every output as it is must keep these digests.
"""

import hashlib

import pytest

from fareymosaics.cli import main

D5 = ["--c", "1", "--d", "5"]
EVAL = ["density", "eval", *D5, "--max-order", "10", "--kernel-cap", "60"]

# (name, argv, sha256 of the output); "{hist}" is the empirical histogram
REFERENCE = [
    ("enumerate-d5",
     ["mosaic", "enumerate", *D5, "--max-order", "10", "--kernel-cap", "12"],
     "97b17275c9101c41a9e554b1199cf028"
     "17ad7692426fadf7cd6e905f4374ad70"),
    ("enumerate-d12",
     ["mosaic", "enumerate", "--c", "3", "--d", "12", "--max-order", "14",
      "--kernel-cap", "15"],
     "9425b5b023b1cdeeea61ef91fa20bb05"
     "37312c6eede33cd0518d407cc14d56e2"),
    ("table-d5",
     ["mosaic", "table", *D5, "--kernels", "1..9", "--max-order", "16"],
     "476bfa8b3b3e30443770b595b9436606"
     "f047b367d25238040f1f8e5db44c9110"),
    ("table-d12",
     ["mosaic", "table", "--c", "3", "--d", "12", "--kernels",
      "3,9,15,21,27", "--max-order", "30", "--format", "json"],
     "f15dc3dfb34b21a66f47fdcc3e7611d1"
     "46219b7a837d013becc035cf6193cbf1"),
    ("render",
     ["mosaic", "render", *D5, "--kernel", "7", "--root", "2,2,3",
      "--max-order", "12", "--labels"],
     "2e9445e0250c39bf21717321f8e87d8a"
     "5880991e670817bfb2131bdc9c1ec2b0"),
    ("tree",
     ["mosaic", "tree", *D5, "--kernel", "7", "--root", "2,2,3",
      "--max-order", "12"],
     "922f1d141ba95dcac79e873df48ed78c"
     "b79034608fab43ae155c2ada859e2c9f"),
    ("empirical",
     ["density", "empirical", "--q", "600", *D5, "--bins", "20"],
     "030ae6e93867ed75a1737200d38c9c93"
     "e52f76c64de4513da5810a58a7f869b6"),
    ("compare",
     ["density", "compare", "--hist", "{hist}", "--max-order", "10",
      "--kernel-cap", "60"],
     "e6ee93c485f40adc1c50a8b7015f558f"
     "86fe69d53e1c85cd690694c1dba9ce9a"),
    ("eval-generic", [*EVAL, "--x", "3/5", "--y", "7/10"],
     "6c5209c59fc325e8dbd9156afc321b20"
     "f190aeea184a1e7e1f7d38cbe582e68f"),
    ("eval-vertex", [*EVAL, "--x", "1/4", "--y", "1/4"],
     "dac3da57ec3fc958bb2b1303c493d918"
     "bbb1cbcec6c8ac5005d1ce620b4bc785"),
    ("eval-corner", [*EVAL, "--x", "1", "--y", "1"],
     "e6e5f7968f40f441dbb16bdab8225437"
     "d2d1235996d497f32dcff7fb2139f741"),
    ("eval-edge", [*EVAL, "--x", "25/154", "--y", "27/77"],
     "83cf62296b682a2ca9b6fa073e7328d0"
     "6a53415bf688a0cfe8e1a40dc4389173"),
    ("support",
     ["density", "support", "--q", "600", *D5, "--max-order", "12",
      "--kernel-cap", "120"],
     "b43dddd45d212f67e47ec455ee27fa99"
     "6dc84998991e29d6803ddcb0ba1f9c24"),
    ("lattice", ["verify", "lattice", "--random", "10", "--seed", "3"],
     "b84b6cac998968810941a1a1b45898ee"
     "f83b54371e8f5c8a639b6fca6d4eb635"),
    ("tables",
     ["verify", "tables", *D5, "--kernels", "1..9", "--max-order", "16"],
     "b6ab9482f2cc5d038ee184d91ee8bf6c"
     "a0f8338cf963a3f352705b4ac523f8b7"),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each reference command's exit code and output bytes, by name."""
    tmp = tmp_path_factory.mktemp("reference")
    hist = str(tmp / "empirical.json")
    out = {}
    for name, argv, _ in REFERENCE:
        path = hist if name == "empirical" else str(tmp / f"{name}.out")
        argv = [hist if a == "{hist}" else a for a in argv]
        code = main([*argv, "--out", path])
        with open(path, "rb") as fh:
            out[name] = code, fh.read()
    return out


@pytest.mark.parametrize("name, digest",
                         [(name, digest) for name, _, digest in REFERENCE])
def test_output_digest(outputs, name, digest):
    code, data = outputs[name]
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == digest
