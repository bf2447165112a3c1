"""The bundled RV32I kernel corpus.

Five small hand-written kernels, checked in under ``examples/rv32i/`` as
assembled ``.hex`` images next to their ``.s`` source listings. The
table below is the registry of record: names resolve through the
workload registry (``repro run ptr-chase SpecSched_4`` just works).
``scripts/asm_corpus.py`` writes the images, and the tier-1 test
``tests/rv32i/test_goldens.py::test_images_match_listings`` fails when
one differs from its re-assembled listing.

The corpus directory resolves, in order: the repo-relative
``examples/rv32i`` next to this package's source tree, and
``examples/rv32i`` under the current directory. When neither exists the
corpus is simply absent (``bundled_programs()`` is empty) — explicit
image paths and ``REPRO_WORKLOAD_PATH`` discovery keep working.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from repro.isa.rv32i.workload import Rv32iWorkload

#: name -> one-line description of every bundled kernel.
BUNDLED: Dict[str, str] = {
    "dhry-mix": "dhrystone-style mixed loop: ALU, shifts, record "
                "copy, function calls",
    "ptr-chase": "pointer-chasing linked list built then walked with "
                 "a stride-scrambled layout",
    "matmul-inner": "matrix inner product: row-times-column dot "
                    "products over a 8x8 grid",
    "state-machine": "branchy xorshift-driven state machine with a "
                     "dense dispatch ladder",
    "memcpy-stream": "word+byte memcpy passes and a rolling checksum "
                     "over a streamed buffer",
}


def corpus_dir() -> Optional[Path]:
    """The directory holding the bundled images, or ``None``."""
    # src/repro/isa/rv32i/corpus.py -> repo root is four parents up from
    # the package dir; tolerate installs where that layout doesn't hold.
    repo_relative = Path(__file__).resolve().parents[4] / "examples/rv32i"
    if repo_relative.is_dir():
        return repo_relative
    cwd_relative = Path("examples/rv32i")
    if cwd_relative.is_dir():
        return cwd_relative
    return None


def bundled_programs() -> Dict[str, Path]:
    """name -> image path for every bundled program present on disk."""
    directory = corpus_dir()
    if directory is None:
        return {}
    out: Dict[str, Path] = {}
    for name in BUNDLED:
        image = directory / f"{name}.hex"
        if image.is_file():
            out[name] = image
    return out


def bundled_workload(name: str) -> Optional[Rv32iWorkload]:
    """Resolve one bundled kernel by name (``None`` when absent)."""
    image = bundled_programs().get(name)
    if image is None:
        return None
    return Rv32iWorkload(image, name=name, description=BUNDLED[name])

