"""The `expo --k k` realization and `weak2str` strings, files and stdout,
pinned by their SHA-256 digests for k = 1..10.

The digests for k = 1..8 were taken before `topology` moved to one pass
over the edge curve pairs and `_pick_scale` to a pruned clearance search,
those for k = 9 and 10 before the vertex points joined that pass and that
search; every such change must leave every byte as it was.
"""

import hashlib

import pytest

from stringsep.cli import main

# k: (realization file, expo stdout, strings file, weak2str stdout)
DIGESTS = {
    1: (
        "44cc821e85fe57149faafa7a4da7f86ce652033aa6fe0a1315d0bedbfd72d2e4",
        "dcb037e007ee71039c302b27c59437d42145794afc580ce84e71df9edaf37cb1",
        "eff1e6e46f7c6cf7f4c6c036ea1dddd3404984261efa2c5300702b0d7c5fcae6",
        "1121632d44184dda32e9be4b33ee05f180d2349fde9cdd1ae302f2534c8e502c",
    ),
    2: (
        "c3cc2a01d17101499fa91212bdec1855f5cb64db2e707f5212d4b42190ddd80f",
        "b7d16278a3f1abdbc9c377065a8b2f803aef6e6e9c67080b3cd404894cad8dcd",
        "19d633cac9461981702e16538238820ed1e239c8d551c0417970f473a7fed577",
        "bdd131a3f6ec59d32afec832eaf21e4439cc11f1df498319c367c8b5c49a5f92",
    ),
    3: (
        "25a9c267fe9497435396000661d9e2a5a78a8a4b39dbd7769537a53addf904ef",
        "e230b897860978fc97d3d035ab6528d5dc3d1875be9cebe72c0e980fb684df12",
        "1197d667284d96f3450435888793c2ccb3a506f7d9d189c5305573fa2160844b",
        "40fcf9b51903f8574cc70d65287b6fdb2a22674f8424865de814a2752ef95ffe",
    ),
    4: (
        "46819737d794cad01e60f65149c672dcc84d84a86e91aa917dcf76fc5d537e71",
        "f3847ef75f32ba16b248bcddfd06aa855a135effcc1ccec488980457d9ae4a1e",
        "ca4f99ce1c5b852f011719327f88655060270d68fd021ca1a5e0d6f802fff4eb",
        "30f92b23b0479dc185fd3455ba4a95b172a64a2d4e8650e80645f8038de7053d",
    ),
    5: (
        "65775733f8627c040f90eb1a0dd69d691a35455342eadd432f054a3543383974",
        "ad02137872868fc9b026e4e7d3b668c58ba800e06df90fdc3eceb4adec28aa85",
        "07c7044651c632b9c1f41c5d24259a9abc2894207f3ec674f0fb260bc5283c46",
        "8493eed23aac6714fbc2e0fbc9c18d89810c49a213a43e9154c73192789b1bb0",
    ),
    6: (
        "83b80c6dfd3b7731357f9eb53893acd57924ca70e820c222c2c8e29f501194b9",
        "2654c699512ae65256eac566ee905e362fb5c22f930b3d7e43a849aca1a08867",
        "f455943143783a31d4e2ae818683aaa67f7158fd00aa489d3bdf3401f7578cc7",
        "645548b45974d1e01142a3703cccb6ca6ccebc4dccdadcfd9174a1291f313496",
    ),
    7: (
        "2aa89f3ebece8ad2a4456b57b36a63fc189d9e4ca46ebb1e24ba05e498e5f8c6",
        "06bdc2a1ebe53b1c2f7114a7b3f9de33b097a58738e1f3dba9da77e552916f17",
        "876462cf5f9afe9c7ac798b1b0decafd8e5c37575cb4168b97ea26186cc79a76",
        "a84959c95f5ba332c3840751ed86056ec0d7dfb565e14377451b9d9523fda59d",
    ),
    8: (
        "78dbf9125a1c4df3d737aa39257faeeaaab96a4fad2239a82c6246e8e2ea8679",
        "3190dfd3cd45d57ca1025bc81b4707c683aed333cdeb6b08d7c4ea4cef0806bd",
        "3e90bad6075ab4b5eb5b5cba6999dc6fe4fbb89a922d163871e81a5a8d95ac49",
        "9cfddbbf9d36d0e3b9c73e418a38d32df4ee6467c71750a2196eb6ac546d3669",
    ),
    9: (
        "f4e45fe6829e13427e52195772077ed61c91f4b1e66e39cc836f845d799513e3",
        "43fe953e6c58cb95bec7606966b63db4db318f5b03ccb45a13ae463c38a7ac14",
        "33f04c1dac0d245ea9e308b82702a525d67ebb58adb09b96e2aaf0fcc5de0b07",
        "a6ca13798d4a378c71bea19ea1c41d5325f2dbb23eca9ff7ca860743c5ee2a11",
    ),
    10: (
        "38aeb301b6e18c9758e174915ac4dfa5573bc3b6eeb7b38967fd2c72f5065961",
        "b193284e3709caa0d9babb4c516cee212575b62f5a80f4ece165b28b0c2020b5",
        "ca9dc0fa4576270cba6cd7d4b051b72ccaf195b86abdf925973ef7a26006d23a",
        "5a7f5784a3385c03d764c936fe2d4221c9cf49d388efdca6df7577ef03069fc6",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k", sorted(DIGESTS))
def test_expo_weak2str_bytes_unchanged(k, tmp_path, capsys):
    real, strings = tmp_path / "real.txt", tmp_path / "strings.txt"
    assert main(["expo", "--k", str(k), "--out", str(real)]) == 0
    expo_out = capsys.readouterr().out
    assert main(["weak2str", "--realization", str(real), "--out", str(strings)]) == 0
    weak_out = capsys.readouterr().out
    got = (_sha(real.read_text()), _sha(expo_out), _sha(strings.read_text()), _sha(weak_out))
    assert got == DIGESTS[k]
