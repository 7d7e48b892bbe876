#!/usr/bin/env bash
# Profiles one perfbench workload with gprof and prints the flat profile's top lines.
#
# Usage: scripts/profile_perfbench.sh <workload> <seconds> [seed]
#   workload: varmail | fileserver | fleet | tier; seed defaults to 1.
#
# Configures perfbench/ with -pg into .bench_build/gprof (a tree of its own; the
# measuring build in .bench_build/perfbench is untouched), runs the workload there with
# tracing off, and prints `gprof -b -p | head -40`. gprof's SIGPROF sampling covers every
# thread of the process, so the client threads are attributed. A -pg build runs at about
# half speed: read the profile for shares of time, never for throughput.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <workload> <seconds> [seed]" >&2
  exit 2
fi
workload="$1"
seconds="$2"
seed="${3:-1}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/.bench_build/gprof"
jobs="$(nproc)"
jobs=$(( jobs > 4 ? 4 : jobs ))

cmake -S "$repo/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer" -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build" --target arckfs_bench -j "$jobs" >&2

# gmon.out is written to the working directory when the process exits.
cd "$build"
rm -f gmon.out
./arckfs_bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >&2
gprof -b -p ./arckfs_bench gmon.out | head -40
