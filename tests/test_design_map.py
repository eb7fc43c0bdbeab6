"""DESIGN.md §3 maps every subsystem to its modules; each module it names
must exist under src/repro/."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_map_paths():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    for token in re.findall(r"`([^`\s]+\.py)`", section):
        # `tools/{asmtool,runtool}.py` names one file per alternative.
        braces = re.fullmatch(r"(.*)\{([^}]*)\}\.py", token)
        if braces is None:
            yield token
        else:
            for name in braces.group(2).split(","):
                yield f"{braces.group(1)}{name}.py"


def test_module_map_names_only_existing_files():
    paths = list(module_map_paths())
    assert len(paths) > 50
    missing = [path for path in paths
               if not (ROOT / "src" / "repro" / path).is_file()]
    assert missing == []
