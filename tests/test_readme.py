import re
from pathlib import Path

import fdnoma as fd

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_names() -> list[str]:
    """Every dotted `fd.` name in the README's "Library use" code block."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return sorted(set(re.findall(r"\bfd\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", block)))


def test_library_use_names_resolve():
    names = library_use_names()
    assert "estimate_rates" in names
    for name in names:
        target = fd
        for part in name.split("."):
            assert hasattr(target, part), f"fd.{name} does not resolve after `import fdnoma as fd`"
            target = getattr(target, part)
