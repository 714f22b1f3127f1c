#!/usr/bin/env python
"""Regenerate the shipped group data assets.

Builds every built-in group from its generators (``group_builders.py``,
next to this script) and writes its multiplication table under
src/wordfourier/data/groups/.  No character table is shipped: the
package computes each one exactly when it is first asked for.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from group_builders import build_builtin
from wordfourier._defaults import BUILTIN_NAMES
from wordfourier.groups import save_group

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "wordfourier" / "data"


def main() -> None:
    groups_dir = DATA / "groups"
    groups_dir.mkdir(parents=True, exist_ok=True)
    for name in BUILTIN_NAMES:
        group = build_builtin(name)
        save_group(group, groups_dir / f"{name}.grp")
        print(f"{name:>4}: order {group.order:>3}")


if __name__ == "__main__":
    main()
