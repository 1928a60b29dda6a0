"""Compare two JSON-lines files value by value, for regenerating a fixture.

    python tests/fixture_diff.py OLD NEW

Walks the two files line by line and each line's JSON value key by key.
Prints every number that changed, with where it is and its relative size
|new - old| / max(|old|, |new|, 1), then every other change: a string, a
bool, a null, a key, a list length, a line count, or the text of a number
that is equal in value (0.0 against -0.0, 1 against 1.0). Exits 1 if there
is any other change or any relative change of at least LIMIT, else 0.

The 1 in the relative size is there for margins: a margin is a spectral
radius less a threshold, so at the threshold it is rounding noise around 0,
and its change is measured against the size of those two quantities.
"""

from __future__ import annotations

import json
import sys

LIMIT = 1e-12


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_values(where: str, old, new, numeric: list, other: list) -> None:
    """Append (where, old, new, relative) to numeric for each number that
    changed, and (where, old, new) to other for each other change."""
    if _is_number(old) and _is_number(new):
        if old != new:
            numeric.append((where, old, new, abs(new - old) / max(abs(old), abs(new), 1)))
        elif json.dumps(old) != json.dumps(new):
            other.append((where, old, new))
    elif isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            other.append((f"{where} keys", list(old), list(new)))
        for key in [key for key in old if key in new]:
            diff_values(f"{where}.{key}", old[key], new[key], numeric, other)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            other.append((f"{where} length", len(old), len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            diff_values(f"{where}[{i}]", a, b, numeric, other)
    elif type(old) is not type(new) or old != new:
        other.append((where, old, new))


def diff_files(old_path: str, new_path: str) -> tuple[list, list]:
    with open(old_path) as old_file, open(new_path) as new_file:
        old_lines, new_lines = old_file.read().splitlines(), new_file.read().splitlines()
    numeric: list = []
    other: list = []
    if len(old_lines) != len(new_lines):
        other.append(("line count", len(old_lines), len(new_lines)))
    for lineno, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        diff_values(f"line {lineno}: $", json.loads(a), json.loads(b), numeric, other)
    return numeric, other


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    numeric, other = diff_files(*argv)
    for where, a, b, relative in numeric:
        print(f"{where}: {a!r} -> {b!r} (relative {relative:.1e})")
    for where, a, b in other:
        print(f"{where}: {a!r} -> {b!r} (not numeric)")
    worst = max((relative for *_, relative in numeric), default=0.0)
    print(f"{len(numeric)} numeric changes, max relative {worst:.1e}; "
          f"{len(other)} other changes")
    return 1 if other or worst >= LIMIT else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
