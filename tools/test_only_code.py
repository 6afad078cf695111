#!/usr/bin/env python3
"""Lists the library functions that only tests link, and checks the list.

Usage, from the repository root:

  python3 tools/test_only_code.py BUILD_DIR SIMBENCH_BINARY [ALLOWLIST]

BUILD_DIR is a build of this repository and SIMBENCH_BINARY the simbench
executable built from simbench/ as its own project. Both must be configured
with

  -DCMAKE_BUILD_TYPE=Debug -DDIABLO_CHECKED=ON
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

so that each function sits in its own section and the linker drops every
function no binary reaches. The script takes the global text (`T`) symbols
in namespace diablo of BUILD_DIR/src/*.a, demangled, with parameter lists and
ABI tags stripped, and subtracts every name that a binary under
BUILD_DIR/{bench,examples,tools}, or simbench, defines. micro_benchmarks is
left out, so that a micro benchmark alone cannot keep code alive.

What is left is code that no binary links. Of it, every name that no test
executable under BUILD_DIR/tests links either is dead code, which the script
names on its own. The rest is code that only tests link, and it must equal
the names in ALLOWLIST (default tools/test_only_code.txt; one name per line,
then whitespace and the reason it stays; '#' starts a comment). The script
exits 1 when there is dead code or when the two differ in either direction,
and names each difference.

What it cannot see:
  - functions defined inline in headers, which are weak (`W`) symbols of
    whichever object uses them, not text symbols of a library;
  - code reachable only through a string-dispatched factory or a virtual
    table: the binaries link the factory, so they link every class it can
    construct, whether or not a chain sheet, spec or flag ever selects it;
  - overloads: names are compared without parameter lists, so one linked
    overload keeps every overload of that name off the list.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY_DIRS = ["bench", "examples", "tools"]
EXCLUDED_BINARIES = {"micro_benchmarks"}
QUALIFIERS = (" const", " volatile", " &&", " &", " noexcept")


def strip_name(demangled):
    """diablo::A::f[abi:cxx11](int) const -> diablo::A::f"""
    name = demangled.strip()
    changed = True
    while changed:
        changed = False
        for q in QUALIFIERS:
            if name.endswith(q):
                name = name[: -len(q)]
                changed = True
    if name.endswith(")"):
        depth = 0
        for i in range(len(name) - 1, -1, -1):
            if name[i] == ")":
                depth += 1
            elif name[i] == "(":
                depth -= 1
                if depth == 0:
                    name = name[:i]
                    break
    while "[abi:" in name:
        start = name.index("[abi:")
        name = name[:start] + name[name.index("]", start) + 1:]
    return name


def symbols(path, types=None):
    """Stripped demangled names of the symbols path defines, only those of
    an nm type in types when it is given."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(strip_name(parts[2]))
    return names


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def binaries(build_dir, subdirs):
    found = []
    for sub in subdirs:
        base = os.path.join(build_dir, sub)
        if not os.path.isdir(base):
            sys.exit(f"test_only_code: no {base}; build the repository first")
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            if entry not in EXCLUDED_BINARIES and is_elf_executable(path):
                found.append(path)
    return found


def linked_by(paths):
    names = set()
    for path in paths:
        names |= symbols(path)
    return names


def load_allowlist(path):
    names = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) < 2:
                sys.exit(f"{path}:{number}: '{parts[0]}' has no reason")
            names[parts[0]] = parts[1]
    return names


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    build_dir, simbench = argv[1], argv[2]
    allowlist = argv[3] if len(argv) == 4 else os.path.join(
        HERE, "test_only_code.txt")

    src_dir = os.path.join(build_dir, "src")
    libs = sorted(os.path.join(src_dir, f) for f in os.listdir(src_dir)
                  if f.endswith(".a"))
    if not libs:
        sys.exit(f"test_only_code: no libraries under {src_dir}")
    library = set()
    for lib in libs:
        library |= {n for n in symbols(lib, {"T"}) if n.startswith("diablo::")}

    bins = binaries(build_dir, BINARY_DIRS)
    if not is_elf_executable(simbench):
        sys.exit(f"test_only_code: {simbench} is not an executable")
    bins.append(simbench)
    tests = binaries(build_dir, ["tests"])
    if not tests:
        sys.exit(f"test_only_code: no test executables under {build_dir}/tests")

    unlinked = library - linked_by(bins)
    dead = unlinked - linked_by(tests)
    test_only = unlinked - dead
    expected = load_allowlist(allowlist)
    print(f"test_only_code: {len(library)} library functions, {len(bins)} "
          f"binaries, {len(tests)} tests, {len(test_only)} linked only by "
          f"tests, {len(dead)} by nothing")

    unlisted = sorted(test_only - expected.keys())
    stale = sorted(expected.keys() - test_only - dead)
    for name in sorted(dead):
        listed = " (listed)" if name in expected else ""
        print(f"  dead, linked by no binary and no test{listed}: {name}")
    for name in unlisted:
        print(f"  not in {os.path.basename(allowlist)}: {name}")
    for name in stale:
        print(f"  listed but linked by a binary or gone: {name}")
    if dead:
        print("test_only_code: delete the dead code and its allowlist entries")
    if unlisted or stale:
        print("test_only_code: delete the unlisted code, or list it with the "
              "reason it stays; drop stale entries")
    return 1 if dead or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
