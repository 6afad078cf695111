#!/usr/bin/env python3
"""Lists the library functions that only tests link, and checks the list.

Usage, from the repository root:

  python3 tools/test_only_code.py BUILD_DIR SIMBENCH_BINARY [ALLOWLIST]

BUILD_DIR is a build of this repository and SIMBENCH_BINARY the simbench
executable built from simbench/ as its own project. Both must be configured
with

  -DCMAKE_BUILD_TYPE=Debug -DDIABLO_CHECKED=ON
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections
                     -fkeep-inline-functions"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

so that each function sits in its own section, every object that includes
a header emits each inline function the header defines, called or not, and
the linker drops every function no binary reaches. The script takes the
functions in namespace diablo that the libraries under BUILD_DIR/src define:
the global text (`T`) symbols, and the weak (`W`) symbols of inline
functions other than constructors, destructors, assignment operators
(mostly compiler-generated) and template instantiations. It subtracts every
function that a binary under BUILD_DIR/{bench,examples,tools}, or simbench,
defines; functions are compared by demangled signature, so each overload
counts on its own. Libraries, binaries and tests are the outputs of the
targets the build is configured with (BUILD_DIR/CMakeFiles/
TargetDirectories.txt, which the Makefile and Ninja generators both write),
so a stale file that a reused build tree still holds, of a target since
deleted, counts for nothing. micro_benchmarks is left out, so that a micro
benchmark alone cannot keep code alive.

What is left is code that no binary links. Of it, every function that no
test executable under BUILD_DIR/tests links either is dead code, which the
script names on its own. The rest is code that only tests link; its names
(signatures without parameter lists and ABI tags) must equal the names in
ALLOWLIST (default tools/test_only_code.txt; one name per line, then at
least two spaces and the reason it stays; '#' starts a comment). A listed
name covers every overload of that name that only tests link. The script
exits 1 when there is dead code or when the two differ in either direction,
and names each difference.

What it cannot see:
  - code reachable only through a string-dispatched factory or a virtual
    table: the binaries link the factory, so they link every class it can
    construct, whether or not a chain sheet, spec or flag ever selects it;
  - inline constructors, destructors and assignment operators, and
    template instantiations;
  - a call a test compiles out: a test body the compiler folds away (code
    after a constant-true early return, such as a skip on a constexpr
    flag) links nothing, so its callees can read as dead.
"""
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY_DIRS = ["bench", "examples", "tools"]
EXCLUDED_BINARIES = {"micro_benchmarks"}
QUALIFIERS = (" const", " volatile", " &&", " &", " noexcept")


def without_abi_tags(signature):
    while "[abi:" in signature:
        start = signature.index("[abi:")
        signature = signature[:start] + signature[signature.index("]", start) + 1:]
    return signature


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
    return without_abi_tags(name)


def defined(path):
    """(nm type, demangled signature) of each symbol path defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            yield parts[1], parts[2]


def is_audited_inline(signature):
    """Whether a weak symbol is an inline function the audit reads: not a
    constructor, destructor or assignment operator, and not a template
    instantiation (whose demangled name carries template arguments, or a
    return type before the name)."""
    name = strip_name(signature)
    # An operator's name may hold '<' and spaces of its own.
    head = name.split("::operator", 1)[0]
    if "<" in head or " " in head or "{lambda" in head:
        return False
    scope, _, last = name.rpartition("::")
    cls = scope.rpartition("::")[2]
    return last not in (cls, "~" + cls, "operator=")


def library_functions(libs):
    functions = set()
    for lib in libs:
        for kind, signature in defined(lib):
            if signature.startswith("diablo::") and (
                    kind == "T" or (kind == "W" and is_audited_inline(signature))):
                functions.add(signature)
    return functions


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def targets(build_dir):
    """(subdirectory, name) of each target the build is configured with:
    the `<sub>/CMakeFiles/<name>.dir` lines of its TargetDirectories.txt."""
    listing = os.path.join(build_dir, "CMakeFiles", "TargetDirectories.txt")
    if not os.path.isfile(listing):
        sys.exit(f"test_only_code: no {listing}; configure the build first")
    root = os.path.realpath(build_dir)
    with open(listing) as f:
        for line in f:
            rel = os.path.relpath(os.path.realpath(line.strip()), root)
            sub, _, target_dir = rel.partition(os.sep + "CMakeFiles" + os.sep)
            if target_dir.endswith(".dir"):
                yield sub, target_dir[:-len(".dir")]


def binaries(build_dir, subdirs):
    """The executables of the configured targets in subdirs."""
    found = []
    for sub, name in targets(build_dir):
        path = os.path.join(build_dir, sub, name)
        if (sub in subdirs and name not in EXCLUDED_BINARIES and
                is_elf_executable(path)):
            found.append(path)
    return sorted(found)


def linked_by(paths):
    signatures = set()
    for path in paths:
        signatures |= {signature for _, signature in defined(path)}
    return signatures


def load_allowlist(path):
    names = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            # A name may hold one space ("operator bool"); two or more
            # spaces, or a tab, end it.
            parts = re.split(r"\s{2,}|\t", line, maxsplit=1)
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
    libs = sorted(os.path.join(src_dir, f"lib{name}.a")
                  for sub, name in targets(build_dir) if sub == "src")
    libs = [lib for lib in libs if os.path.isfile(lib)]
    if not libs:
        sys.exit(f"test_only_code: no libraries under {src_dir}")
    library = library_functions(libs)

    bins = binaries(build_dir, BINARY_DIRS)
    if not is_elf_executable(simbench):
        sys.exit(f"test_only_code: {simbench} is not an executable")
    bins.append(simbench)
    tests = binaries(build_dir, ["tests"])
    if not tests:
        sys.exit(f"test_only_code: no test executables under {build_dir}/tests")

    unlinked = library - linked_by(bins)
    dead = unlinked - linked_by(tests)
    test_only = {strip_name(signature) for signature in unlinked - dead}
    expected = load_allowlist(allowlist)
    print(f"test_only_code: {len(library)} library functions, {len(bins)} "
          f"binaries, {len(tests)} tests, {len(unlinked) - len(dead)} linked "
          f"only by tests, {len(dead)} by nothing")

    unlisted = sorted(test_only - expected.keys())
    stale = sorted(expected.keys() - test_only -
                   {strip_name(signature) for signature in dead})
    for signature in sorted(dead):
        listed = " (listed)" if strip_name(signature) in expected else ""
        print(f"  dead, linked by no binary and no test{listed}: "
              f"{without_abi_tags(signature)}")
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
