"""Make the oracle and the corpus assembler importable.

The test tree is package-less (no ``__init__.py``), so the independent
oracle in ``rv32i_reference.py`` is exposed by putting this directory on
``sys.path`` — keeping the oracle a plain module that never ships inside
``src/`` (the point of differential testing is that it stays separate
from the code under test). The assembler that writes the bundled images
lives in ``scripts/asm_corpus.py``, so ``scripts/`` goes on the path too.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).parent
for _path in (str(_HERE), str(_HERE.parents[1] / "scripts")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
