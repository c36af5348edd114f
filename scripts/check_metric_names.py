#!/usr/bin/env python3
"""Check that no registry metric shadows a row of the service stats table.

Every service quantity has one definition: its row in ECL_SVC_STATS_FIELDS
(src/svc/service.h), which gives its Prometheus family. The metrics registry
holds only event counts and timings that are not rows. A registry name that
sanitizes to a row's family would put the same quantity on /metrics twice,
under one family name, and the exporter does not resolve that.

This scans every "ecl.<...>" string literal in the .cpp/.h files under src/
and tools/, maps it onto the Prometheus charset the way
MetricsExporter::sanitize_name does, and fails if the result is a table
family.

Exit codes: 0 clean, 1 collision found, 2 usage error (table not found).

Usage:
  check_metric_names.py [REPO_ROOT]    # default: the parent of scripts/
"""
import pathlib
import re
import sys

ROW_RE = re.compile(r'X\(\s*\d+\s*,\s*\w+\s*,\s*"([A-Za-z0-9_:]+)"')
LITERAL_RE = re.compile(r'"(ecl\.[^"\\]*)"')


def sanitize(name):
    """MetricsExporter::sanitize_name: bytes outside [a-zA-Z0-9_:] become '_'."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return "_" + out if out[:1].isdigit() else out


def table_families(root):
    """The family of every row: only the table's rows have the X(tag, member,
    "family", ...) shape in service.h."""
    return set(ROW_RE.findall((root / "src" / "svc" / "service.h").read_text()))


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else pathlib.Path(__file__).parent.parent)
    families = table_families(root)
    if not families:
        print(f"error: no ECL_SVC_STATS_FIELDS rows found under {root}", file=sys.stderr)
        return 2
    collisions = []
    names = set()
    for sub in ("src", "tools"):
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".cpp", ".h"):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for literal in LITERAL_RE.findall(line):
                    family = sanitize(literal)
                    if family in families:
                        rel = path.relative_to(root)
                        collisions.append(f"{rel}:{lineno}: \"{literal}\" -> {family}")
                        names.add(literal)
    for c in collisions:
        print(c)
    if collisions:
        print(f"FAIL: {len(names)} registry name(s) shadow a stats-table family "
              f"({', '.join(sorted(names))}); a table row is the only home of its quantity")
        return 1
    print(f"ok: no registry name shadows any of the {len(families)} table families")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
