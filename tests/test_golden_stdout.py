"""Pinned stdout of the `verify` and spectral `corr` reports.

Each case runs the CLI in-process and compares the sha256 of its stdout,
and its exit code, with a digest recorded from an earlier release.  Any
change to a report's bytes, intended or not, shows up here; an intended
one replaces the digest in the same change.
"""

import hashlib

import pytest

from gkasami import cli

GOLDEN = {
    "verify --n 4 --k 1": "16ccd3b651bb0826eef66fbb84b087035d1030f6398c6416a1bf1e3e0131c062",
    "verify --n 4 --k 3": "94a2e0ae4b543ce8f247a7030ff7f7107823fb5950b3a7537c0a79b5840af98d",
    "verify --n 6 --k 2": "bf0ccaee5913d54e73ef35e21f576be8aaa0837a820486c243b040c8c3acf286",
    "verify --n 6 --k 4": "0b8186d00907d63a4ec02dcef50bb34fe7afeb66816eb3d96cd2c1f6603caee4",
    "verify --n 8 --k 1": "0cd9ab921e5846aba87e0e43e28737cb16119d174f060ce2cc3d063302eb8e17",
    "corr --engine spectral --kind fk --n 4":
        "b4659afcbcfd3c171f69ca4783133345caeff54371f4baee072d08b7e9687d37",
    "corr --engine spectral --kind small-kasami --n 4":
        "ec68d87daa6861e9438ee7bc430ed61535de4e2fae5366329e5556325ad71452",
    "corr --engine spectral --kind large-kasami --n 4":
        "8a85ab6943b8215da8cfd92fcbb5fa40a63915e3d5562bc163c22c2b64d9eb2d",
    "corr --engine spectral --kind fk --n 6":
        "31671e8c134ade99f4be8a0bbc7c34be8bd6e624d91852cf84dcd37da92de55b",
    "corr --engine spectral --kind small-kasami --n 6":
        "d8d7941737e05442c68c36e0b2ef6ac92dcd868a21ab2edc4a3bf33f155aa973",
    "corr --engine spectral --kind large-kasami --n 6":
        "569afb8e907c4de5f257242d3e8aa59f530a4a86b02d89d555489aba6a568385",
    "corr --engine spectral --kind fk --n 8":
        "9ab75279d0897d07e7f17b7471991b9a4fb91cbc911e0b96b38d6c6de8d20d60",
    "corr --engine spectral --kind small-kasami --n 8":
        "fdee5f1c85847758963b821fa32254d1395ef5230b9b3fff02af11926a7a1f30",
    "corr --engine spectral --kind large-kasami --n 8":
        "644f619fb0591c6bed42b5eece7f5a4a696f92121426839c96a6c9dfc2b2b39a",
    "corr --engine spectral --kind fk --n 10":
        "68a547f4d252a3ca4ffb6f06cd8cda27da05e99c68755f565ffd6534b94d32f4",
    "corr --engine spectral --kind small-kasami --n 10":
        "258a06768d9742be9b1e42ee0b472fbb6367146723abcc93c1c1a644c9ad8b53",
    "corr --engine spectral --kind large-kasami --n 10":
        "96b63004d3e89ddc6a707a368b0ce485c981178f78c8e995bfa1d976dc2d5457",
    "corr --engine spectral --kind fk --n 12":
        "36d2b68507d7ed1a1280fcf02831757ac13b043b340d4cfb847a37fa1c10d8e8",
    "corr --engine spectral --kind small-kasami --n 12":
        "7e36ca17d1d2d3253f87352fdc6d13c806fd25cb3828ff768a9c8e631f6c0e76",
    "corr --engine spectral --kind large-kasami --n 12":
        "9ea29dad97d16675c71fe78af9a16604f49aac9aa622b284832ef46b525f87a7",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(capsys, command):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
