#!/usr/bin/env bash
# Run the curated clang-tidy gate (.clang-tidy) over the compilation
# database, with a content-addressed per-TU result cache so CI reruns only
# pay for translation units whose inputs actually changed.
#
# Usage:
#   scripts/run_clang_tidy.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build and must contain compile_commands.json
# (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON — the top-level
# CMakeLists.txt sets it unconditionally).
#
# Environment:
#   CLANG_TIDY        clang-tidy binary (default: clang-tidy)
#   PMTE_TIDY_JOBS    parallel TU jobs (default: nproc)
#   PMTE_TIDY_CACHE   cache directory (default: BUILD_DIR/clang-tidy-cache)
#
# Cache key per TU: sha256 over clang-tidy --version, the .clang-tidy
# config, the TU's compile command, and the preprocessed source the TU
# actually sees (so edits to headers invalidate their includers).  A key
# file exists iff that TU passed cleanly; findings always re-run.

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${root}/build"}"
clang_tidy="${CLANG_TIDY:-clang-tidy}"
jobs="${PMTE_TIDY_JOBS:-$(nproc)}"
cache_dir="${PMTE_TIDY_CACHE:-"${build_dir}/clang-tidy-cache"}"

db="${build_dir}/compile_commands.json"
if [ ! -f "${db}" ]; then
  echo "error: ${db} not found — configure cmake first (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default)" >&2
  exit 2
fi
if ! command -v "${clang_tidy}" >/dev/null 2>&1; then
  echo "error: '${clang_tidy}' not found on PATH; install clang-tidy or set CLANG_TIDY" >&2
  exit 2
fi

tidy_version="$("${clang_tidy}" --version | tr -d '\n')"
config_hash="$(sha256sum "${root}/.clang-tidy" | cut -d' ' -f1)"
mkdir -p "${cache_dir}"

# TUs under src/ (the shipped library + apps surface) and under
# tests/support/reference/ (the baselines and checkers the suites and
# benches measure it against; configure with benches on to list them).
# Test suites and benches build under the same -Werror flags but lean on
# gtest macros that trip bugprone checks with no actionable signal.
mapfile -t files < <(python3 - "${db}" "${root}" <<'PY'
import json, sys
db_path, root = sys.argv[1], sys.argv[2]
prefixes = (root + "/src/", root + "/tests/support/reference/")
seen = set()
for entry in json.load(open(db_path)):
    f = entry["file"]
    if f.startswith(prefixes) and f not in seen:
        seen.add(f)
        print(f)
PY
)
if [ "${#files[@]}" -eq 0 ]; then
  echo "error: no src/ or tests/support/reference/ translation units in ${db}" >&2
  exit 2
fi

check_one() {
  # $1 = source file.  Exit 0 on clean (cached or fresh), 1 on findings.
  local src="$1" key keyfile
  key="$(
    {
      printf '%s\n%s\n' "${tidy_version}" "${config_hash}"
      python3 - "${db}" "${src}" <<'PY'
import json, sys
db_path, src = sys.argv[1], sys.argv[2]
for entry in json.load(open(db_path)):
    if entry["file"] == src:
        print(entry.get("command") or " ".join(entry["arguments"]))
        break
PY
      # Preprocess to fold in every header this TU includes; fall back to
      # the raw source if preprocessing fails (still a sound, coarser key).
      g++ -std=c++20 -E -P -I"${root}" "${src}" 2>/dev/null || cat "${src}"
    } | sha256sum | cut -d' ' -f1
  )"
  keyfile="${cache_dir}/${key}"
  if [ -f "${keyfile}" ]; then
    echo "cached  ${src#"${root}"/}"
    return 0
  fi
  if "${clang_tidy}" -p "${build_dir}" --quiet "${src}"; then
    touch "${keyfile}"
    echo "clean   ${src#"${root}"/}"
    return 0
  fi
  echo "FAILED  ${src#"${root}"/}" >&2
  return 1
}
export -f check_one
export db root build_dir cache_dir clang_tidy tidy_version config_hash

echo "clang-tidy gate: ${#files[@]} TUs, ${jobs} jobs (${tidy_version})"
status=0
if ! printf '%s\0' "${files[@]}" \
    | xargs -0 -n1 -P "${jobs}" bash -c 'check_one "$1"' _; then
  status=1
fi

if [ "${status}" -ne 0 ]; then
  echo "clang-tidy gate: FAILED — fix the findings or add a reasoned check disable in .clang-tidy" >&2
  exit 1
fi
echo "clang-tidy gate: clean"
