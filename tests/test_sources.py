import warnings
from pathlib import Path

import nildist


def test_sources_compile_without_warnings():
    # an invalid escape such as "\c" is only a warning at compile time, and
    # the cached bytecode hides it on later imports; compile from source
    sources = sorted(Path(nildist.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
