"""Pinned stdout of the `verify`, `corr`, `code weights` and `census` reports
and of `family gen`.

Each case runs the CLI in-process and compares the sha256 of its stdout,
and its exit code, with a digest recorded from an earlier release.  Any
change to a report's bytes, intended or not, shows up here; an intended
one replaces the digest in the same change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkasami import cli, verify

GOLDEN = {
    "verify --n 4 --k 1": "552bb8227a54a9a6fa625f53ad6b39b0a01db5bb6b58623bb9a10f6326d3f832",
    "verify --n 4 --k 3": "58992dd8bea11899f4321f825a06c32b86c1298c4488b2843cc4a4acc0b810d9",
    "verify --n 6 --k 2": "87843bd2f4a3591db008b5aecd1f47f7315e518c64118ecd5f7b11117e5163a2",
    "verify --n 6 --k 4": "4e3d0c04561a72df92d1dbd663740c11d3786efde4843790d41c3de86715127a",
    "verify --n 8 --k 1": "bccfba5a38b53ccbe66d1173802ddb43b4d33c0bf0920b873da478c035b25531",
    "verify --n 10 --k 2": "64dddc81baed0fbf51e929e316028a72ea52dc3492cd36df9fa8b4a6fcd01fc8",
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
    "corr --engine spectral --kind fk --n 14 --k 4":
        "81b67fff260a1fe4c997b7eae94b014926d80db2a0197d317db763fbfdeb2d0c",
    "corr --engine spectral --kind small-kasami --n 14":
        "c9fb7357bd29257c4135f1faa9e758a2979a939a8884aed5558a6ba106ad2998",
    "corr --engine spectral --kind large-kasami --n 14":
        "d1295acc1147333fdc0ac3f699005b4743771c356cc336f7cfdee2ac98a3746b",
    "corr --engine spectral --kind fk --n 16 --k 3":
        "e6d3033e531b6a7cad3f2b2e7dad175a156caaef4b3f91d062d87db6951fb95a",
    "corr --engine spectral --kind small-kasami --n 16":
        "4d08cab7ab2c8c55fd8ecace2be7a08148f0cdeaff956dcd99b465181b05a3e8",
    "corr --engine spectral --kind large-kasami --n 16":
        "aa36d17f8b160b00a42ffa0a238db2a66120b41cd4e0ff39952053836a692dd7",
    "family gen --n 4 --k 1 --kind fk --format bits":
        "0a1945b7125405a34427dcc8dc041660f790a11c5f34102bce37a28092f6e736",
    "family gen --n 4 --k 3 --kind fk --format bits":
        "b99551aa0f8d0d979d6aef324d56f8b125088984ba8536166158bb0d8617b03a",
    "family gen --n 4 --k 1 --kind small-kasami --format bits":
        "337579f0addd4e0abe4957ee95fd7ef3df055dec5c69293331972c67aedfac70",
    "family gen --n 4 --k 3 --kind small-kasami --format bits":
        "337579f0addd4e0abe4957ee95fd7ef3df055dec5c69293331972c67aedfac70",
    "family gen --n 4 --kind large-kasami --format bits":
        "b99551aa0f8d0d979d6aef324d56f8b125088984ba8536166158bb0d8617b03a",
    "family gen --n 4 --k 1 --kind fk --format hex":
        "52c0aa78f8b02e20f4a99b462bd1607b25c163a9633ad0a4a8c51adb5dd7da5e",
    "family gen --n 4 --k 3 --kind fk --format hex":
        "964bbe7860bc41e0f8e9a31e7410c357e9be0f49ba184469ebb4da007a52054c",
    "family gen --n 4 --k 1 --kind small-kasami --format hex":
        "19e8a68a34a2a32f76ebc1d92f1d744c940cfbb9385efc1c13505f5a3587e7f3",
    "family gen --n 4 --k 3 --kind small-kasami --format hex":
        "19e8a68a34a2a32f76ebc1d92f1d744c940cfbb9385efc1c13505f5a3587e7f3",
    "family gen --n 4 --kind large-kasami --format hex":
        "964bbe7860bc41e0f8e9a31e7410c357e9be0f49ba184469ebb4da007a52054c",
    "family gen --n 4 --k 1 --kind fk --format json":
        "5b5cc4b63e51ef5196322e9eff6f2c5da9b46f37dea5e075b55563368867ad20",
    "family gen --n 4 --k 3 --kind fk --format json":
        "7fdd066c6c8fc332e4834ff91121b225d7e5faad0e431b04dcab73e9b014f1e3",
    "family gen --n 4 --k 1 --kind small-kasami --format json":
        "815614160a5b61d81ff3ba14a73d2c85ae667bc96fbed3e91eea742f2b69f248",
    "family gen --n 4 --k 3 --kind small-kasami --format json":
        "815614160a5b61d81ff3ba14a73d2c85ae667bc96fbed3e91eea742f2b69f248",
    "family gen --n 4 --kind large-kasami --format json":
        "7fdd066c6c8fc332e4834ff91121b225d7e5faad0e431b04dcab73e9b014f1e3",
    "family gen --n 6 --k 2 --kind fk --format bits":
        "8e96ccc10b4557a5cd6bb741323093242cede023a185b2d3ef6032a04af57c31",
    "family gen --n 6 --k 4 --kind fk --format bits":
        "09ae171e77c12c4a8ff56ffb51662d12933574c2c1f220d1fc52d5e34c96bb14",
    "family gen --n 6 --k 2 --kind small-kasami --format bits":
        "a5f61008dcbd32125cf48d2c724537d36c91750f13ad6b6389c29af37131dda2",
    "family gen --n 6 --k 4 --kind small-kasami --format bits":
        "a5f61008dcbd32125cf48d2c724537d36c91750f13ad6b6389c29af37131dda2",
    "family gen --n 6 --kind large-kasami --format bits":
        "09ae171e77c12c4a8ff56ffb51662d12933574c2c1f220d1fc52d5e34c96bb14",
    "family gen --n 6 --k 2 --kind fk --format hex":
        "acf0dfa84120d94fb0f3ea6905caebcd0e3864a93bd1f38ff1997f9d96e79c87",
    "family gen --n 6 --k 4 --kind fk --format hex":
        "ba2a7603a27893e5ead89e91e84bb4bd5bd4972cf31a8ae2ac03603f09c0bf32",
    "family gen --n 6 --k 2 --kind small-kasami --format hex":
        "a5ddb03ac4d17127a6c69aee53bd83035eec14236f4269792bdadf4ab91b570e",
    "family gen --n 6 --k 4 --kind small-kasami --format hex":
        "a5ddb03ac4d17127a6c69aee53bd83035eec14236f4269792bdadf4ab91b570e",
    "family gen --n 6 --kind large-kasami --format hex":
        "ba2a7603a27893e5ead89e91e84bb4bd5bd4972cf31a8ae2ac03603f09c0bf32",
    "family gen --n 6 --k 2 --kind fk --format json":
        "60969a3d87e3854c2918cb210d721883e2d24f84777b272c83f5ed49624411ab",
    "family gen --n 6 --k 4 --kind fk --format json":
        "1390210f15420247062130cf3c64180a162d09ae54d225f5a053b8b904abebbc",
    "family gen --n 6 --k 2 --kind small-kasami --format json":
        "e846c8c193aa434aa64218841291ed14869343350189a8b6c79b60cd0e76054d",
    "family gen --n 6 --k 4 --kind small-kasami --format json":
        "e846c8c193aa434aa64218841291ed14869343350189a8b6c79b60cd0e76054d",
    "family gen --n 6 --kind large-kasami --format json":
        "1390210f15420247062130cf3c64180a162d09ae54d225f5a053b8b904abebbc",
    "family gen --n 8 --k 1 --kind fk --format bits":
        "c84007062c7a000d47f8caac9e5eff2b75f8cf28a4d22a1d322047b5fecf30a5",
    "family gen --n 8 --k 3 --kind fk --format bits":
        "80e936423f826261335e89eba1213e1ce48df4f1ea8ce1316381d4824d29c351",
    "family gen --n 8 --k 5 --kind fk --format bits":
        "8fd85fe87bee4f0c559225715ce02b04133dbd43d62db315a08d6e1f7207e5e1",
    "family gen --n 8 --k 7 --kind fk --format bits":
        "6322a7fa115422ce10c0e7766df20f17a41894473d746338988b6c91acc7d720",
    "family gen --n 8 --k 1 --kind small-kasami --format bits":
        "d9a56c6c92ae7df021b7ea26f83addb13eac6b7370ed583c2659897dd4188dec",
    "family gen --n 8 --k 3 --kind small-kasami --format bits":
        "d9a56c6c92ae7df021b7ea26f83addb13eac6b7370ed583c2659897dd4188dec",
    "family gen --n 8 --k 5 --kind small-kasami --format bits":
        "d9a56c6c92ae7df021b7ea26f83addb13eac6b7370ed583c2659897dd4188dec",
    "family gen --n 8 --k 7 --kind small-kasami --format bits":
        "d9a56c6c92ae7df021b7ea26f83addb13eac6b7370ed583c2659897dd4188dec",
    "family gen --n 8 --kind large-kasami --format bits":
        "8fd85fe87bee4f0c559225715ce02b04133dbd43d62db315a08d6e1f7207e5e1",
    "family gen --n 8 --k 1 --kind fk --format hex":
        "a2c70db9ad5c19d3f58c255de479511ce6c1ba1780999f0f8688fe8d2f2bf430",
    "family gen --n 8 --k 3 --kind fk --format hex":
        "f51fd828c39630f65312a67af0217dc9c16fda8ffab16063d8cd843b982d2c92",
    "family gen --n 8 --k 5 --kind fk --format hex":
        "49bbc55505dc58caa8197d4685d9dd5e798c226d397d0f076c889434425d5d30",
    "family gen --n 8 --k 7 --kind fk --format hex":
        "2ac444a77c9c9f2980745c3d99b4c4efb1c106d4a2b4132c99d1a7966529fd14",
    "family gen --n 8 --k 1 --kind small-kasami --format hex":
        "39bcda53d49bd283b016903aadb4600c2ece29fa3e5db573b13ff0c06d92fb27",
    "family gen --n 8 --k 3 --kind small-kasami --format hex":
        "39bcda53d49bd283b016903aadb4600c2ece29fa3e5db573b13ff0c06d92fb27",
    "family gen --n 8 --k 5 --kind small-kasami --format hex":
        "39bcda53d49bd283b016903aadb4600c2ece29fa3e5db573b13ff0c06d92fb27",
    "family gen --n 8 --k 7 --kind small-kasami --format hex":
        "39bcda53d49bd283b016903aadb4600c2ece29fa3e5db573b13ff0c06d92fb27",
    "family gen --n 8 --kind large-kasami --format hex":
        "49bbc55505dc58caa8197d4685d9dd5e798c226d397d0f076c889434425d5d30",
    "family gen --n 8 --k 1 --kind fk --format json":
        "5fd20c264821f239f0dfa8be24433f050dc03eaad23f236b65054bd0958a035f",
    "family gen --n 8 --k 3 --kind fk --format json":
        "0a329c082cde9c2fa8580ec2999d9203af5317379b5c72ab6928c67efc9f0fd8",
    "family gen --n 8 --k 5 --kind fk --format json":
        "aa448b0abc80d9a62df093c4c2749121472d08cd252e9b983985be57aad79b17",
    "family gen --n 8 --k 7 --kind fk --format json":
        "1cb89b1763b0131a24102fab01b590a1a7a6b2c29d92174ec567fefaf9073299",
    "family gen --n 8 --k 1 --kind small-kasami --format json":
        "5a311eabdb1c6675be7e639a89b57b545a01d0ac4d991ffbd34174f9249f5cc1",
    "family gen --n 8 --k 3 --kind small-kasami --format json":
        "5a311eabdb1c6675be7e639a89b57b545a01d0ac4d991ffbd34174f9249f5cc1",
    "family gen --n 8 --k 5 --kind small-kasami --format json":
        "5a311eabdb1c6675be7e639a89b57b545a01d0ac4d991ffbd34174f9249f5cc1",
    "family gen --n 8 --k 7 --kind small-kasami --format json":
        "5a311eabdb1c6675be7e639a89b57b545a01d0ac4d991ffbd34174f9249f5cc1",
    "family gen --n 8 --kind large-kasami --format json":
        "aa448b0abc80d9a62df093c4c2749121472d08cd252e9b983985be57aad79b17",
    "family gen --n 10 --k 2 --kind fk --format hex":
        "81b83009ca9167e0256dc4383faafba32e24b05a948f3bc992d3b1c392e851cf",
    "family gen --n 10 --k 2 --kind fk --format json":
        "54bb7898956c99f72f87e10c9f278ee19b92345c93bd2969eb460fe8d16d954f",
    "family gen --n 10 --k 2 --kind fk --format bits":
        "595ce0b80f29527401b6b0de6f181c2666980e3da8d6e10d1bc6937b6b6f561d",
    "code weights --n 4 --k 1":
        "38d6f3ca7456402cdc08779c77d2733c28f6fe4068a9833d610720b77d62c4b1",
    "code weights --n 4 --k 3":
        "76a14a066d0561caef5cc8753d8163c674bc7474867c66449aed5647892201a6",
    "code weights --n 6 --k 2":
        "3e6083adea1c70cb16faa3acb247332837377282bfffb40e68574fc959292f44",
    "code weights --n 6 --k 4":
        "97a935be17f56a986b688818261eac7233ccd68565d0438d47250bbce13f3a76",
    "code weights --n 8 --k 1":
        "f5b405e3640e5c1d669bda188d2b932923b8fd937d1a4a97ba59ca7a26acf482",
    "code weights --n 8 --k 3":
        "fa8e9f4b96699efcaafb18dc9aef5197f350cd58ad87554f44428ad754e57ca5",
    "code weights --n 10 --k 2":
        "0350705d9665c8d0293375de9576c6afba355187dbc15db845d5bad4849a9102",
    "code weights --n 10 --k 4":
        "36709b8482604a90614770c309c319a1e47a0563ec005d3fbd72f7e815a11491",
    "census --n 4 --k 1":
        "bf6ff70544cf6f32f577f81b01ac7711df3a80fa554711dc529529e6e37a4d7f",
    "census --n 4 --k 3":
        "edcaec8f4d24be61cf7072dba604ea199023e8f62e9b665f4ddfc53fe0ea4a1b",
    "census --n 6 --k 2":
        "8343fec014778979956f8e4ca021b9bac69d8a963daf2a4f5e8c9efee6b0621d",
    "census --n 6 --k 4":
        "5362e16cb29885a7ccd82579cb5caf25e3c89afd3b6b94b5062cd7485c0a17f5",
    "census --n 8 --k 1":
        "4b33e6c29a4879b16907e1ffba4b9598b5244f439aae379e187de7c3ffcacef9",
    "census --n 8 --k 3":
        "1a8af6024f91e8c558a3f92dfe0447e7fab1a8a643d35853361af0374d133711",
    "census --n 10 --k 2":
        "b8e57cb2cef41b4d8c953844ef7657dd57687c203cbe13a438d4ab34d755548d",
    "census --n 10 --k 4":
        "0d26793b4f297f02bfcdb5802318deca8b384fb36089a33c974535e59f50680e",
    "corr --engine brute --kind fk --n 4":
        "c0db2a327c199ddfcef09fb44922d90ffc8ad7474ee9a4139998a590ffda7232",
    "corr --engine brute --kind small-kasami --n 4":
        "af422052c01bb6eab70a00e59f3ce2517a4f996c16b2c6f2cb607b655cb6aea3",
    "corr --engine brute --kind large-kasami --n 4":
        "3c0fd01d2a1f27bbcf3d6b900471becb43e26da209b2ddcdd56d4112ab72324f",
    "corr --engine brute --kind fk --n 6":
        "e1f32d117349bdfc03a9f7762901f158e913638ca239e47794cf744477e4c5e7",
    "corr --engine brute --kind small-kasami --n 6":
        "0fee9b27dd0b7ee3def431b1b6defb5abbb3b9e55cfaa19a85d87e765a47b308",
    "corr --engine brute --kind large-kasami --n 6":
        "9c73c9adb792906b16c3b0b7f5c23216887dd9b92240b10eee4f17c4c7877f09",
}


# the spectral engine at the largest fields, up to about 1 s a case.  Past
# n = 20 no other engine runs: those digests were recorded by the elimination
# engine, and exit 0 shows that each report equals its closed form
GOLDEN_SLOW = {
    "corr --engine spectral --kind fk --n 18":
        "9dff664026df7b2ee6e9aa37f67b34ebd6113bc841454bb7b2e8102b31760163",
    "corr --engine spectral --kind fk --n 18 --k 4":
        "212c61f188ce476e75634e574a6f379287de49fcbf95e382c038664d0c5c34c9",
    "corr --engine spectral --kind small-kasami --n 18":
        "4b38382d451f7cc79aa84d454793456d1da77c1048061b1d042110f84043e613",
    "corr --engine spectral --kind large-kasami --n 18":
        "03a785bfa5fa826793e12d59d418c6ac1e401c8b917a8d976106d529a265f5a4",
    "corr --engine spectral --kind fk --n 20":
        "8deba80233d16a9d2bb4d5e687962aa2f291573d9f398da53072fe555ba23c5e",
    "corr --engine spectral --kind fk --n 20 --k 3":
        "74e6516603571f2f62b278aad8b0f93aa38144c5d9e39a098df48032714f0a3d",
    "corr --engine spectral --kind small-kasami --n 20":
        "1ab8cf45e3fa3a4bb4d6120a28bf130ad701572799b3be083ee37925cc66532c",
    "corr --engine spectral --kind large-kasami --n 20":
        "65c9c5a246ee290b5253da05f0607650c5e50bc85770772e1c57173c811ba4f6",
    "corr --engine spectral --kind fk --n 22":
        "cb784979b2d4e84b13a7b13e5f628eb5e50c3e5733edead213967aba7ae19194",
    "corr --engine spectral --kind small-kasami --n 22":
        "9fc876c18fd5649018e25cc37dd94f3b5ac912e15782bd7b14d46c3c9de1c9d1",
    "corr --engine spectral --kind large-kasami --n 22":
        "6c613e096896d54991a1be8705d068744e8f5f8d99636a2826220d0231821447",
    "corr --engine spectral --kind fk --n 24":
        "e7eaa0762b641ccad4aca027f0812eda5d4826091c07e8cb1e8ab4f8f58b67d9",
    "corr --engine spectral --kind small-kasami --n 24":
        "aaf48b87c977973d34ab05acaacc27361def85f60113e30ae7d9f171e20c3e77",
    "corr --engine spectral --kind large-kasami --n 24":
        "7f4dc2dd4600090fa2cac95fa3a42d3d36496efa03dd7670429677000f363b98",
    "corr --engine spectral --kind fk --n 26":
        "fc5b0824325ea9e7a44bd7169e1af9d741e2415b0a59be029721c4afc89bcf20",
    "corr --engine spectral --kind small-kasami --n 26":
        "00b403b10ce79bd186959f73cdf97502865803d9d0d4d50e8057683a21389aeb",
    "corr --engine spectral --kind large-kasami --n 26":
        "5c2f8d9a3e80474f35ad9df6cbacaec977758c7c460de4de9ba0f21dcc671fcf",
    "corr --engine spectral --kind fk --n 28":
        "d3c56e85fdd0859d04f71e771c65ed531606e7dba854be9e09298b82677bb893",
    "corr --engine spectral --kind small-kasami --n 28":
        "1335319ae231f74ad32c3831ba0c0338bea633ceaf696061ef604603139dd7bd",
    "corr --engine spectral --kind large-kasami --n 28":
        "5f6414d1474ab5cdc78e59176dbd23d94d1c562b9c710bef9554a6e920c641a2",
    "corr --engine spectral --kind fk --n 30":
        "a35854f465626fa5b2f91eed467341d40e32634f27a20cab99500746bd120e52",
    "corr --engine spectral --kind small-kasami --n 30":
        "5be705517c3d6874d04fb57c6d713e5dd44178894d80401a1f886086dd6b3a1f",
    "corr --engine spectral --kind large-kasami --n 30":
        "7953b34a49e1170bae7e2654b6d29b0ece50199493d2e1f811086c4c58ba12f1",
    "corr --engine spectral --kind fk --n 32":
        "95b2f31faf73a67b0508fa08d3e18785a685b743f7146e1110dbfe18f49d783d",
    "corr --engine spectral --kind small-kasami --n 32":
        "80f00a00b58c32696d8a7cd876c9792068947995d413cf29d99dbbc20d8cb5ec",
    "corr --engine spectral --kind large-kasami --n 32":
        "38f64083fd74a2a3fb4f852f86c8a2a1984a006aa35105f30f697912b9e9422a",
}


@pytest.mark.parametrize("command", list(GOLDEN)
                         + [pytest.param(c, marks=pytest.mark.slow) for c in GOLDEN_SLOW])
def test_stdout_digest(capsys, command):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == {**GOLDEN, **GOLDEN_SLOW}[command]


# the verify digests before the whole-spectra and code-weight claims ran on
# Frobenius classes of the orbit representatives: only their note differs
VERIFY_BEFORE_CLASSES = {
    "verify --n 4 --k 1": "5060ac0ee6def331007801469952a6670d86c642d35d4ac9c99f97aaa6c0e146",
    "verify --n 4 --k 3": "a4aaeec0769096d078f405e862ebcb10063416e11d752df3657d9aa8bb667e46",
    "verify --n 6 --k 2": "7bac8acf5bd29253436813c44264e5051228b758cda3328aafe900763bf5f492",
    "verify --n 6 --k 4": "45a88d60fa43bddc61f781ec7015698f5abf57a4175722566ffa9cb1fa2298c7",
    "verify --n 8 --k 1": "3436a965e6a75784a54a571fd1f3b718b1e11295a1e65d5008c97898fd9014c7",
    "verify --n 10 --k 2": "de562c1f36fb03918879f2187c7a0bb38fb4ebc3e3c0a8177b0c5c65ed74019c",
}


@pytest.mark.parametrize("command", list(VERIFY_BEFORE_CLASSES))
def test_verify_digest_changed_only_in_its_note(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out.replace(verify._ORBIT_NOTE,
                                          "exhaustive over orbit representatives of x -> u*x")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_BEFORE_CLASSES[command]


# runs the CLI with its arguments in a child and prints [exit code, stdout
# sha256, the child's peak RSS in KiB].  Linux counts a process's RSS at
# its exec in the peak of the program it execs, so the CLI is started by
# this small launcher, not by the test process itself
_LAUNCH = """
import hashlib, json, os, subprocess, sys
cli = "import sys; from gkasami import cli; sys.exit(cli.main(sys.argv[1:]))"
with subprocess.Popen([sys.executable, "-c", cli, *sys.argv[1:]], stdout=subprocess.PIPE) as proc:
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss]))
"""


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["fk", "large-kasami"])
def test_cold_corr_n32_stays_small(kind):
    """`corr --n 32` in a fresh process prints the golden report and peaks
    below 80 MB of RSS: no LinearMap table has more than 256 rows (two
    tables of 2^16 rows a map held about 96 MB, for a 149 MB peak)."""
    command = f"corr --engine spectral --kind {kind} --n 32"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    launched = subprocess.run([sys.executable, "-c", _LAUNCH, *command.split()], env=env,
                              capture_output=True, text=True, check=True)
    code, digest, peak_kib = json.loads(launched.stdout)
    assert code == 0
    assert digest == GOLDEN_SLOW[command]
    assert peak_kib < 80 << 10  # Linux reports KiB
