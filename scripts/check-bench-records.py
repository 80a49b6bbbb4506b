#!/usr/bin/env python3
"""Check the provenance of every checked-in benchmark record.

    python3 scripts/check-bench-records.py

Run from anywhere inside the repository; it needs the full history
(a clone with fetch-depth 0).  For every BENCH_<n>.json at the root it
checks that

  * sides.parent.git_commit is an ancestor of the commit that added the
    record;
  * the src/ tree of that parent commit equals sides.parent.src_tree;
  * sides.change.src_tree, where present, equals the src/ tree of the
    commit that added the record.

A record that is not committed yet is checked against HEAD for the
ancestry and against the staged src/ tree (git write-tree) for the
change side, so stage the change before checking its new record.

Prints one line per failure, naming the file and the field, and exits
1 if there is any; exits 0 when every record holds.
"""

import glob
import json
import os
import subprocess
import sys


def git(*args, check=True):
    """Run git; return its stripped stdout, or None when it fails."""
    proc = subprocess.run(["git", *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        if check:
            raise RuntimeError(f"git {' '.join(args)} failed")
        return None
    return proc.stdout.strip()


def adding_commit(name):
    """The commit that added @p name, or None when it is uncommitted."""
    log = git("log", "--diff-filter=A", "--format=%H", "--", name)
    return log.splitlines()[-1] if log else None


def check(name):
    """Return the failures of one record, as 'file: field: why' lines."""
    failures = []

    def fail(field, why):
        failures.append(f"{name}: {field}: {why}")

    try:
        with open(name) as f:
            sides = json.load(f).get("sides", {})
    except (OSError, ValueError) as e:
        fail("(file)", f"unreadable: {e}")
        return failures

    added = adding_commit(name)
    host = added or git("rev-parse", "HEAD")
    change_tree = (git("rev-parse", f"{added}:src") if added
                   else git("write-tree", "--prefix=src/"))

    parent = sides.get("parent", {})
    commit = parent.get("git_commit")
    resolved = commit and git("rev-parse", "--verify", "--quiet",
                              f"{commit}^{{commit}}", check=False)
    if not resolved:
        fail("sides.parent.git_commit", f"{commit!r} is not in the history")
    else:
        if git("merge-base", "--is-ancestor", resolved, host,
               check=False) is None:
            fail("sides.parent.git_commit",
                 f"{commit} is not an ancestor of {host[:12]}, the commit "
                 "that adds the record")
        tree = git("rev-parse", f"{resolved}:src")
        if parent.get("src_tree") != tree:
            fail("sides.parent.src_tree",
                 f"{parent.get('src_tree')!r}, but {commit[:12]}'s src "
                 f"tree is {tree}")

    change = sides.get("change", {})
    if "src_tree" in change and change["src_tree"] != change_tree:
        where = f"{added[:12]}'s" if added else "the staged"
        fail("sides.change.src_tree",
             f"{change['src_tree']!r}, but {where} src tree is "
             f"{change_tree}")
    return failures


def main():
    os.chdir(git("rev-parse", "--show-toplevel"))
    records = sorted(glob.glob("BENCH_*.json"),
                     key=lambda n: int(n[len("BENCH_"):-len(".json")]))
    failures = [line for name in records for line in check(name)]
    for line in failures:
        print(line)
    print(f"{len(records)} bench record(s) checked, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
