#!/usr/bin/env bash
# Paired probe: time a base commit's src/ against the working tree's
# src/ in one process, run by run, over campaign_spec's arms and inputs.
#
#   scripts/paired-probe.sh [--base REV] [--rounds N] [--seed S]
#                           [--inputs K] [--jobs J] [--out DIR]
#
# Both library builds are compiled with the same flags (-O3 -DNDEBUG,
# as a CMake Release build), the base with -Dpe=peb and the working
# tree with -Dpe=pev, so their symbols differ and both link into one
# binary.  That binary alternates the two builds job by job, times each
# run on its thread's CPU clock and prints per-arm ratios of base time
# over change time, then whether every RunResult matched.  Separate
# processes run side by side on a shared host can read a pair of
# builds far apart; alternating in one thread on one core cancels most
# of that drift.
#
# Defaults: --base HEAD, --rounds 10, --seed 1, --inputs 12 (benign
# inputs per app, as campaign_spec draws them), --jobs 4 compile jobs,
# --out build-probe (a build tree, ignored by git).  The base build is
# kept per src/ tree; the working tree is rebuilt on every call.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=HEAD
rounds=10
seed=1
inputs=12
jobs=4
out=$root/build-probe
while [ $# -gt 0 ]; do
    case $1 in
        --base) base=$2; shift 2 ;;
        --rounds) rounds=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --inputs) inputs=$2; shift 2 ;;
        --jobs) jobs=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
done

cxx=${CXX:-c++}
flags=(-std=c++20 -O3 -DNDEBUG -pthread)
sha=$(git -C "$root" rev-parse --verify "$base^{commit}")
src_tree=$(git -C "$root" rev-parse "$sha:src")
mkdir -p "$out"

# build_lib TREE NS LIB: compile TREE/src/**/*.cc with -Dpe=NS into LIB.
build_lib() {
    local tree=$1 ns=$2 lib=$3 objs=$1.objs
    rm -rf "$objs"
    mkdir -p "$objs"
    (cd "$tree" && find src -name '*.cc' | sort) |
        xargs -P "$jobs" -I{} sh -c \
            'o="$3/$(echo "$1" | tr / _).o"; "$4" $5 -Dpe="$2" -I"$6" -c "$6/$1" -o "$o"' \
            _ {} "$ns" "$objs" "$cxx" "${flags[*]}" "$tree"
    rm -f "$lib"
    ar rcs "$lib" "$objs"/*.o
}

base_tree=$out/base-$src_tree
if [ ! -f "$base_tree.a" ]; then
    echo "building base $sha ..." >&2
    rm -rf "$base_tree"
    mkdir -p "$base_tree"
    git -C "$root" archive "$sha" src | tar -x -C "$base_tree"
    build_lib "$base_tree" peb "$base_tree.a"
fi

echo "building the working tree ..." >&2
change_tree=$out/change
rm -rf "$change_tree"
mkdir -p "$change_tree"
cp -r "$root/src" "$change_tree/"
build_lib "$change_tree" pev "$change_tree.a"

probe=$root/scripts/paired_probe
"$cxx" "${flags[@]}" -Dpe=peb -I"$base_tree" -c "$probe/side.cc" \
    -o "$out/side_base.o"
"$cxx" "${flags[@]}" -Dpe=pev -I"$change_tree" -c "$probe/side.cc" \
    -o "$out/side_change.o"
"$cxx" "${flags[@]}" -c "$probe/main.cc" -o "$out/main.o"
"$cxx" "${flags[@]}" "$out/main.o" "$out/side_base.o" "$out/side_change.o" \
    "$base_tree.a" "$change_tree.a" -o "$out/paired_probe"

echo "base $sha vs the working tree" >&2
"$out/paired_probe" "$rounds" "$seed" "$inputs"
