"""List the records that differ between two CLI snapshots.

    python3 tools/snapshot_diff.py BASE HEAD

BASE and HEAD are files written by ``tools/cli_snapshot.py`` with the same
tool, so record i of one is the same run as record i of the other.  Each
differing record is printed as one Markdown list item: its argv, both exit
codes, and which of stdout and stderr moved.  Nothing is printed when the
snapshots agree; the exit code is 0 either way.
"""

from __future__ import annotations

import json
import sys


def differences(base: list[dict], head: list[dict]) -> list[str]:
    out = []
    for old, new in zip(base, head):
        if old == new:
            continue
        moved = [s for s in ("stdout", "stderr") if old[s] != new[s]]
        what = f"{' and '.join(moved)} moved" if moved else "same output"
        out.append(f"- `{' '.join(new['argv'])}`: exit {old['exit']} -> "
                   f"{new['exit']}, {what}")
    return out


def main(base_path: str, head_path: str) -> None:
    with open(base_path) as fb, open(head_path) as fh:
        lines = differences(json.load(fb), json.load(fh))
    for line in lines:
        print(line)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
