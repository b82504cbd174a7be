#!/usr/bin/env python3
"""List the out-of-line src/ functions that no experiment binary links.

    python3 tools/reach_census.py [--build-dir build-reach] [--jobs 4]

Run from the repository root. It builds every bench, example and tool, and
the perfbench program, at -O0 with one section per function, and links
them with --gc-sections, so each binary keeps exactly the functions its
code can reach. A function counts as an out-of-line src/ function when a
src/ object file defines it as a global text symbol (nm type T): inline
functions and templates are weak and stay out of the census.

It prints every such function that no binary keeps. A function that only
tests reach is API no experiment exercises, and the settings rule
(ROADMAP.md) deletes it, together with the tests that check only it. The
few test hooks that stay are listed in ALLOWLIST with the reason each
stays. Exits 1 when a function outside the allowlist is unreached, or when
an allowlist entry no longer names an unreached function (an experiment
now links it, or it is gone); stdlib only.
"""

import argparse
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Demangled signature (after SHORTHAND) -> why the function stays although
# no experiment binary links it.
ALLOWLIST = {
    "mvflow::mpi::Communicator::now() const":
        "tests read a rank's simulated clock from inside its body",
    "mvflow::mpi::Device::debug_flow(int)":
        "the auditor's negative tests plant a credit corruption through it",
    "mvflow::obs::Snapshot::has(std::string_view) const":
        "tests ask whether a metrics snapshot carries a name",
    "mvflow::obs::Snapshot::count_suffix(std::string_view) const":
        "tests count the metrics a snapshot carries under one suffix",
    "mvflow::obs::Snapshot::from_json(std::string_view)":
        "the reference parser of the metrics JSON round-trip test",
}

# Spell the standard library's long demangled types the way source does.
SHORTHAND = [
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("std::basic_ostream<char, std::char_traits<char> >", "std::ostream"),
    (", 18446744073709551615ul>", ">"),
    ("std::chrono::duration<long, std::ratio<1l, 1000000000l> >",
     "std::chrono::nanoseconds"),
    ("[abi:cxx11]", ""),
]

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kw):
    proc = subprocess.run(cmd, stdout=sys.stderr, **kw)
    if proc.returncode != 0:
        sys.exit(f"reach_census: {' '.join(cmd[:3])} ... failed")


def build(source, build_dir, targets, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", source, "-B", build_dir] + FLAGS)
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target"] + targets)


def symbols(path, global_text_only):
    cmd = ["nm", "--defined-only"] + (["-g"] if global_text_only else [])
    out = subprocess.run(cmd + [path], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        if not global_text_only or parts[1] == "T":
            names.add(parts[2])
    return names


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    for long_form, short in SHORTHAND:
        lines = [line.replace(long_form, short) for line in lines]
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-reach"))
    ap.add_argument("--jobs", type=int,
                    default=max(1, min(4, os.cpu_count() or 1)))
    args = ap.parse_args()

    main_build = os.path.join(args.build_dir, "main")
    bench_build = os.path.join(args.build_dir, "perfbench")
    binaries = []
    for sub in ("bench", "examples", "tools"):
        for src in sorted(glob.glob(os.path.join(ROOT, sub, "*.cpp"))):
            name = os.path.splitext(os.path.basename(src))[0]
            binaries.append((name, os.path.join(main_build, sub, name)))
    build(ROOT, main_build, [name for name, _ in binaries], args.jobs)
    build(os.path.join(ROOT, "perfbench"), bench_build, ["perfbench"],
          args.jobs)
    binaries.append(("perfbench", os.path.join(bench_build, "perfbench")))

    defined = set()
    objects = glob.glob(os.path.join(main_build, "src", "**", "*.o"),
                        recursive=True)
    for obj in objects:
        defined |= symbols(obj, global_text_only=True)
    linked = set()
    for _, path in binaries:
        linked |= symbols(path, global_text_only=False)

    # Constructor and destructor variants demangle to one name.
    unreached = sorted(set(demangle(sorted(defined - linked))))
    print(f"reach census: {len(objects)} src/ objects, {len(binaries)} "
          f"binaries, {len(defined)} global text symbols")
    bad = 0
    for fn in unreached:
        reason = ALLOWLIST.get(fn)
        if reason is None:
            bad += 1
            print(f"  UNREACHED  {fn}")
        else:
            print(f"  hook       {fn}  ({reason})")
    stale = sorted(set(ALLOWLIST) - set(unreached))
    for fn in stale:
        print(f"  STALE      {fn}  (allowlisted, but no longer unreached)")
    print(f"reach census: {len(unreached)} functions linked into no "
          f"experiment binary, {len(unreached) - bad} of them allowlisted "
          f"hooks; {len(stale)} stale allowlist entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
