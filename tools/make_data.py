#!/usr/bin/env python
"""Regenerate the shipped group and character-table data assets.

Builds every built-in group from its generators (``group_builders.py``,
next to this script), computes its character table from the one fixed
combination of class-sum matrices that ``compute_character_table`` uses,
certifies a tighter-than-shipping tolerance, and writes both files under
src/wordfourier/data/.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from group_builders import build_builtin
from wordfourier._defaults import BUILTIN_NAMES
from wordfourier.chartable import compute_character_table, save_character_table
from wordfourier.groups import save_group

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "wordfourier" / "data"


def main() -> None:
    groups_dir = DATA / "groups"
    tables_dir = DATA / "tables"
    groups_dir.mkdir(parents=True, exist_ok=True)
    tables_dir.mkdir(parents=True, exist_ok=True)

    for name in BUILTIN_NAMES:
        group = build_builtin(name)
        table = compute_character_table(group)
        classes = table.classes

        # certify well below the runtime validation tolerance before shipping
        sizes = np.array(classes.sizes, dtype=np.float64)
        gram = (table.values * sizes) @ table.values.conj().T / group.order
        residual = np.max(np.abs(gram - np.eye(len(classes))))
        assert residual < 1e-11, f"{name}: orthogonality residual {residual:.3e}"

        save_group(group, groups_dir / f"{name}.grp")
        save_character_table(table, tables_dir / f"{name}.chtab")
        degrees = table.degrees.tolist()
        print(
            f"{name:>4}: order {group.order:>3}, {len(classes):>2} classes, "
            f"degrees {degrees}, residual {residual:.2e}"
        )


if __name__ == "__main__":
    main()
