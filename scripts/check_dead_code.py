#!/usr/bin/env python3
"""Fail on library functions that only tests reach.

The root project compiles with -ffunction-sections -fdata-sections and links
with -Wl,--gc-sections, so an executable keeps only the functions it can
reach. This lists every ecl:: function that a src/ static library defines
out of line, that is linked into some executable under tests/, and that is
linked into no executable under bench/, tools/ or examples/. Such a function
is library code that only a test calls: delete it, or move it into tests/ as
a fixture.

A function may stay only with an ALLOWLIST entry, and every entry names its
reason: a caller outside the root build (the frozen benchmark/ driver), a
caller in the same file that the compiler inlined it into (so no non-test
binary keeps an out-of-line copy), or the test that uses it as an oracle or
to isolate its state.

Exit codes: 0 clean, 1 test-only function found, 2 usage error.

Usage:
  check_dead_code.py BUILD_DIR
"""
import pathlib
import subprocess
import sys

# Demangled name -> the reason it stays. A name without its parameter list
# covers every overload. A same-file caller shows up here only when the
# compiler inlined it (Release); in a Debug build the entry goes unused.
ALLOWLIST = {
    "ecl::count_components":
        "same-file caller compute_stats (src/graph/stats.cpp); "
        "oracle in test_ecl_cc, test_io, test_mst_gpu",
    "ecl::component_sizes":
        "oracle: test_generators' road and web component shapes, test_graph",
    "ecl::minimum_spanning_forest":
        "oracle: test_mst_gpu compares the simulated GPU MST against it",
    "ecl::exec::EventLoop::EventLoop":
        "same-file caller EventLoopPool::EventLoopPool (src/exec/event_loop.cpp)",
    "ecl::exec::EventLoop::join":
        "same-file callers ~EventLoop and EventLoopPool (src/exec/event_loop.cpp)",
    "ecl::exec::EventLoop::request_stop":
        "same-file callers ~EventLoop and EventLoopPool (src/exec/event_loop.cpp)",
    "ecl::fault::Registry::disarm_all":
        "isolation hook: test_checkpoint, test_fault_svc, test_replica and "
        "test_svc disarm the process-wide registry between cases",
    "ecl::obs::percentile_from_buckets":
        "same-file caller Histogram::percentile (src/obs/metrics.cpp)",
    "ecl::obs::JsonWriter::value(bool)":
        "bench_driver (benchmark/driver) calls it, outside the root build",
    "ecl::obs::Tracer::event_count":
        "bench_driver (benchmark/driver) calls it, outside the root build",
    "ecl::svc::Server::conn_stats":
        "bench_driver (benchmark/driver) calls it, outside the root build",
}

TEST_DIRS = ("tests",)
NON_TEST_DIRS = ("bench", "tools", "examples")


def defined_functions(path):
    """Demangled ecl:: functions an ELF file or archive defines out of line.

    Only strong text symbols (T) count: inline functions and template
    instantiations are weak (W) and emitted into every object that uses
    them, so a test can hold its own copy of one that the library never
    needed out of line.
    """
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T" and parts[2].startswith("ecl::"):
            names.add(parts[2])
    return names


def executables(build, subdirs):
    found = []
    for sub in subdirs:
        for path in sorted((build / sub).rglob("*")):
            if not path.is_file() or "CMakeFiles" in path.parts:
                continue
            with open(path, "rb") as f:
                if f.read(4) != b"\x7fELF":
                    continue
            if path.stat().st_mode & 0o111:
                found.append(path)
    return found


def matches(name, key):
    return name == key or name.startswith(key + "(")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    build = pathlib.Path(argv[1])
    archives = sorted((build / "src").rglob("*.a"))
    tests = executables(build, TEST_DIRS)
    others = executables(build, NON_TEST_DIRS)
    if not archives or not tests or not others:
        print(f"error: no src/ archives, test or non-test executables under {build}",
              file=sys.stderr)
        return 2

    library = set().union(*(defined_functions(a) for a in archives))
    in_tests = {}
    for exe in tests:
        for name in defined_functions(exe) & library:
            in_tests.setdefault(name, exe.name)
    reached = set().union(*(defined_functions(exe) for exe in others))

    test_only = sorted(name for name in in_tests if name not in reached)
    unexplained = [name for name in test_only
                   if not any(matches(name, key) for key in ALLOWLIST)]
    unused = sorted(key for key in ALLOWLIST
                    if not any(matches(name, key) for name in test_only))
    for name in unexplained:
        print(f"test-only: {name}  (linked into {in_tests[name]})")
    print(f"{len(library)} ecl:: functions in {len(archives)} src/ archives; "
          f"{len(tests)} test and {len(others)} non-test executables; "
          f"{len(test_only)} test-only, {len(test_only) - len(unexplained)} allowlisted")
    if unused:
        print("allowlist entries a non-test binary reaches in this build: " + ", ".join(unused))
    if unexplained:
        print("delete each function above, move it into tests/, or add it to ALLOWLIST "
              "in scripts/check_dead_code.py with the reason it stays")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
