"""Every suite workload's generated row stream, pinned by value.

``tests/traces/test_roundtrip.py::RECORD_DIGESTS`` pins two recordings
byte for byte. This pins the first 20,000 rows of each of the 36 suite
workloads at seed 1 in their value form: ``srcs`` as a list and the
opclass as an int, so a row's values are pinned but not whether its
``srcs`` list or the row itself is shared with other rows. A change to a
kernel's rows or to the order of its RNG draws moves a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads.suite import SUITE

ROWS = 20_000

#: sha256 over ``repr`` of each row's value form, in stream order.
ROW_DIGESTS = {
    "GemsFDTD": "9b31a05152590370136753c8f4ac940ee3a5ea35fea5d2ef8b541d5d0b4357a5",
    "ammp": "9c0bcc3d20ab6c6e8c8d6f97d1a0aa596caba777e71e7a87a2920929282a90dd",
    "applu": "117e934e06eb4672178f041f6c3d41f9f5b979aefb5543aeb63bd4a4ff98b3f1",
    "art": "45922a86a20cf36887f43d4b1f67eca99307f4d9e05a78017d0f8758f59fc464",
    "astar": "30edb66143ddf1335c26122d6b2e88a8cd4ba557fad95a7b26a4c047e13d88ba",
    "bzip2": "3ff870c868295806b423b0c99b64026fa39cd290d71f02030fa3f35566650467",
    "crafty": "8cda7b84f7b8962731dbf6212cbbaa2410b1bf5989ff9c7bf923515ef327e60a",
    "equake": "b6b5deb7a079eeb62dad1e9eec6446ecd730631beb6535cbc0e912421b15861a",
    "gamess": "1c2b47dcb213f74df0d576c19f4cfc2cc3e5a84043dee6684590191c034ed685",
    "gcc": "78812984f57034465104d51af4aa963564b508339171c5c49597dc748ca455b7",
    "gobmk": "4f2eefd01cef6f7274d69dce463ef7aaac345506d61fc7c0eccfbddd8f0f63c4",
    "gromacs": "2cef8abd3ccb87556c128da50b288c743bd46406afd3d202bb7f3878f2ff42a5",
    "gzip": "df37dab1c57a8b90c2f7384f548be01d59de9c99854956541c17a90ee4976066",
    "h264ref": "a74659c64d20fc21ca91984a3e74bbe54e3df74872306d42fc87c2c462ac5d95",
    "hmmer": "32bbe27d69ca7f866ce706348d164b7aa5e4c88ebae7149dbc01c66c88fdb332",
    "lbm": "366b1512b414a957835ba0782198be63a0e0a38c1a2d054dbcefe81ee93a62f9",
    "leslie3d": "c748c48aa005ca16da6c7583372c727a3fe6f4ed870ff064e3306c02e108cff1",
    "libquantum": "cdfe1b25e60338ce3ecda33b6692c6fd78a4f130891333256571fa89b7cf4b45",
    "mcf": "eb279bf82ab90ee18a86c80bb7720519b404435148a44e92b8e433477d28b4b3",
    "mesa": "f358b7448c708dfbf17e897cc5f07328c64b9ba865a597243547c8957a36ecf3",
    "mgrid": "ee65da0e56a034642271bd40ae8fc54fe54841a00eb726e5e56bb3c3cfadd4ab",
    "milc": "6efea61a04e4a9f3401f96d5aa729304e11e8f21e93075669b41202b22b985c8",
    "namd": "e55214675c2eae981cc095e216997d7c63ca5139947377bdff78ba0c1c80b270",
    "omnetpp": "4508b7a4ba5372d445963765f039bc2ce6cf40d00330b7550345cbe0af18d742",
    "parser": "30c77fce8c966818cd4e6d3f087b2136d9575c31250d80f1f453bca5fcde0ad4",
    "perlbench": "85d9b3cbdb8aa4f2cee0cff7b32d9820d1e3d38baebe65191adc362072d8cdd7",
    "povray": "ce0baff138d95e0811788784df7df27f25d756f38558c734338f956f76604bb8",
    "sjeng": "d0b0d2cddbae178f1d387b92e8f3477b5204e6403a966f3159882ba3d54180f3",
    "soplex": "c535782f200ee964e9576dd4cb1613b76d5062b2e6a60d5abd178d37413acfde",
    "sphinx3": "df787757730f442a7942f7893a0627678cfb00fa756a45a6e377df93a8b8bb1d",
    "swim": "5b0d096fdbb813fee8e0d4e5be1d55ea2029358a7351ac4e49c0133eb78fce50",
    "twolf": "0b25237213763b1bf5122d5faca25af769198d0da24cfd8d5d762da2a5a1bc8d",
    "vortex": "66e520651e5a7a7f0bcf22261358456714d3a8f0df49c7e41d34c6c876534668",
    "vpr": "9686c454eac68559b7c11ce16fdcd790e9da05568f6bbd29f113107210e9c65d",
    "wupwise": "99ea5b566609294c801ab8a81494267ca7b071512c026eb42069d90770f4f512",
    "xalancbmk": "d577a33dda92443fb99141481f50f4a42f8c3686abd0b4f710af1cd62004e2c9",
}


def row_stream_digest(name: str, seed: int = 1, rows: int = ROWS) -> str:
    trace = SUITE[name].build_trace(seed)
    digest = hashlib.sha256()
    for _ in range(rows):
        pc, opclass, srcs, *rest = trace.next_row()
        digest.update(repr((pc, int(opclass), list(srcs), *rest)).encode())
    return digest.hexdigest()


def test_every_suite_workload_is_pinned():
    assert sorted(ROW_DIGESTS) == sorted(SUITE)
    assert len(ROW_DIGESTS) == 36


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_row_stream_digest_pinned(name):
    assert row_stream_digest(name) == ROW_DIGESTS[name]
