#!/usr/bin/env bash
# Lists the library functions that only tests reach, and fails on any that
# tools/test_only_keep.txt does not keep with a reason.
#
#   tools/test_only_scan.sh [build-dir]     (default: build-scan)
#
# It builds every target of the repository and the tuner benchmark at -O0
# with one section per function, and links with --gc-sections, so a binary
# holds exactly the functions it can reach; -O0 keeps calls out of line, so
# the answer does not depend on the inliner. A function is test-only when
# no bench, example or tuner_bench binary contains it and either
#   - a libilc_*.a defines it (nm type T): out-of-line code, or
#   - a test binary contains it as an ilc:: function: header-inline code
#     (and the test-side references in tests/*.hpp).
# Constructors, destructors, operators and lambdas are left out: the
# compiler writes most of them, and they go with their class.
#
# Exit status: 0 when every test-only function is kept; 1 when one is not,
# when a keep-list entry has no reason, or when an `fn` entry names a
# function that is no longer test-only (delete the entry then); 2 when the
# build fails.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-scan}
keep=$root/tools/test_only_keep.txt
jobs=${SCAN_JOBS:-$(nproc)}

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mkdir -p "$build"
{
  cmake -S "$root" -B "$build/main" "${flags[@]}" &&
  cmake --build "$build/main" -j "$jobs" &&
  cmake -S "$root/tunerbench" -B "$build/tunerbench" "${flags[@]}" &&
  cmake --build "$build/tunerbench" -j "$jobs" --target tuner_bench
} > "$build/build.log" 2>&1 || {
  tail -n 30 "$build/build.log"
  echo "scan: build failed (log: $build/build.log)"
  exit 2
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Defined functions of each binary, by mangled name.
functions_of() {
  while read -r bin; do nm --defined-only "$bin"; done |
    awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u
}

# Demangled, with the standard library's spelled-out defaults shortened,
# so that keep-list entries stay readable.
readable() {
  c++filt | sed -E '
    s/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g
    s/std::basic_string_view<char, std::char_traits<char> >/std::string_view/g
    s/\[abi:cxx11\]//g
    :again
    s/, std::allocator<[^<>]*(<[^<>]*>)?[^<>]*> >/>/
    t again
    s/, std::default_delete<[^<>]*> >/>/g'
}

{
  find "$build/main/bench" "$build/main/examples" -maxdepth 1 -type f -perm -u+x
  echo "$build/tunerbench/tuner_bench"
} | functions_of > "$work/prod"
find "$build/main/tests" -maxdepth 1 -type f -perm -u+x | functions_of > "$work/tests"

find "$build/main/src" -name 'libilc_*.a' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$work/lib"

{
  comm -23 "$work/lib" "$work/prod" | readable
  comm -23 "$work/tests" "$work/prod" | readable |
    grep -E '^ilc::[A-Za-z0-9_:]+\(' | grep -v -e '{lambda' -e 'anonymous namespace' |
    awk '{ name = $0; sub(/\(.*/, "", name); n = split(name, part, "::")
           if (part[n] ~ /^~/ || part[n] == part[n - 1] || part[n] ~ /^operator/) next
           print }'
} | sort -u > "$work/test_only"

# Keep-list lines: `fn <signature as printed below> # <reason>`; `field`
# lines record option fields and are not checked here.
awk '/^(fn|field) / { n = index($0, " # ")
       if (n == 0 || substr($0, n + 3) ~ /^[[:space:]]*$/) {
         print "scan: keep-list entry without a reason: " $0 > "/dev/stderr"; bad = 1; next }
       if ($1 == "fn") print substr($0, 4, n - 4) }
     END { exit bad }' "$keep" | sort -u > "$work/keep"

status=0
while read -r f; do
  echo "test-only, not on the keep-list: $f"; status=1
done < <(comm -23 "$work/test_only" "$work/keep")
while read -r f; do
  echo "on the keep-list, but not test-only: $f"; status=1
done < <(comm -13 "$work/test_only" "$work/keep")

echo "scan: $(wc -l < "$work/test_only") test-only functions," \
     "$(wc -l < "$work/keep") kept"
exit $status
