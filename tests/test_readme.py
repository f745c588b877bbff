import pathlib
import re

import survtree

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_only_exported_lower_level_pieces():
    # the "Library use" sentence must not name a function the package dropped
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Lower-level pieces are exported too: ([^.]*)\.", text).group(1)
    names = [re.match(r"\w+", span).group() for span in re.findall(r"`([^`]+)`", sentence)]
    assert len(names) >= 5
    assert [name for name in names if name not in survtree.__all__] == []
