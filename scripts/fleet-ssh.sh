#!/usr/bin/env bash
# Launch a multi-host exploration fleet over ssh.
#
# Usage:
#   scripts/fleet-ssh.sh [--remote-bin PATH] HOST [HOST...] -- \
#       <explore coordinator command>
#
# Example:
#   scripts/fleet-ssh.sh worker-a worker-b -- \
#       build/examples/explore schedule --listen 10.0.0.1:7777 \
#       --shards 4 --runs 20000 --fleet-checkpoint /var/tmp/fleet.ckpt
#
# The coordinator command runs locally, in the foreground.  The
# worker commands are not hand-written: they are derived from the
# coordinator command via `--print-worker-cmd` (the single source of
# truth for the identity-bearing flags — workload, policy, mode,
# batch, seed, shards) and dealt round-robin over the HOSTs via ssh.
# Workers dial back to the --listen address, so pass an address the
# worker hosts can actually reach (not 0.0.0.0 or 127.0.0.1).
#
#   --remote-bin PATH   explore binary path on the worker hosts
#                       (default: the same path as in the local
#                       command — fine for shared filesystems).
#
# FLEET_SSH_CMD overrides the ssh client (tests use a local shim).

set -euo pipefail

: "${FLEET_SSH_CMD:=ssh}"

usage() {
    echo "usage: fleet-ssh.sh [--remote-bin PATH] HOST [HOST...]" \
         "-- <explore coordinator command>" >&2
    exit 2
}

remote_bin=""
hosts=()
while [ $# -gt 0 ]; do
    case "$1" in
    --remote-bin)
        [ $# -ge 2 ] || usage
        remote_bin="$2"
        shift 2
        ;;
    --)
        shift
        break
        ;;
    -*)
        echo "fleet-ssh: unknown option $1" >&2
        usage
        ;;
    *)
        hosts+=("$1")
        shift
        ;;
    esac
done

[ ${#hosts[@]} -ge 1 ] || usage
[ $# -ge 1 ] || usage

# One worker command per shard, from the coordinator's own mouth.
mapfile -t worker_cmds < <("$@" --print-worker-cmd)
if [ ${#worker_cmds[@]} -eq 0 ]; then
    echo "fleet-ssh: '$1 ... --print-worker-cmd' produced no" \
         "worker commands" >&2
    exit 1
fi

pids=()
cleanup() {
    local pid
    for pid in ${pids[@]+"${pids[@]}"}; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

i=0
for cmd in "${worker_cmds[@]}"; do
    host="${hosts[$((i % ${#hosts[@]}))]}"
    if [ -n "$remote_bin" ]; then
        cmd="$remote_bin ${cmd#* }"
    fi
    echo "[fleet-ssh] worker $i on $host: $cmd" >&2
    $FLEET_SSH_CMD "$host" "$cmd" &
    pids+=("$!")
    i=$((i + 1))
done

# The coordinator's exit status is the session's.  Workers exit on
# their own after the Stop -> Goodbye shutdown; the EXIT trap only
# mops up if the coordinator dies early.
status=0
"$@" || status=$?

for pid in ${pids[@]+"${pids[@]}"}; do
    wait "$pid" || status=$?
done
pids=()
trap - EXIT
exit "$status"
