#!/usr/bin/env bash
# Byte gate on the durable files: runs the qsteer commands below in a
# temporary directory and compares the sha256 of the 21 files they write
# (discovery shards and summary, compile cache, ranker, serving snapshots
# and WALs, fleet replicas) against ci/durable_bytes.sha256. Exits 1 and
# prints the diff when any file differs.
#
#   ci/check_durable_bytes.sh <build-dir>
#
# The hash list goes to stdout. A change meant to alter these bytes
# re-records the golden from it and says why in CHANGES.md:
#   ci/check_durable_bytes.sh build > new.sha256; mv new.sha256 ci/durable_bytes.sha256
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
qsteer="$(cd "$1" && pwd)/tools/qsteer"
golden="$(cd "$(dirname "$0")" && pwd)/durable_bytes.sha256"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/run"
cd "$work/run"

# --workers=1: with two workers the snapshot depends on which worker
# journals first. serve B 3 1.0 turns fault injection on, so the validation
# re-runs' retries are covered.
mkdir -p C W W3
"$qsteer" discover-sharded B 2 --dir=D --shards=3 --max-jobs=12 --cache-out=C/cache.qcc \
  --rank-candidates --compile-budget=20 --ranker-out=C/ranker.qrk > /dev/null
"$qsteer" serve B 2 --wal-dir=W --snapshot-interval=5 --workers=1 > /dev/null
"$qsteer" analyze B 4 2 --discovery-dir=D > /dev/null
"$qsteer" serve B 3 1.0 --wal-dir=W3 --snapshot-interval=5 --workers=1 > /dev/null
"$qsteer" serve-fleet B 4 --kill-every=2 --dir=F > /dev/null

find . -type f | LC_ALL=C sort | sed 's|^\./||' | xargs sha256sum > "$work/hashes"
cat "$work/hashes"
if ! diff -u "$golden" "$work/hashes" >&2; then
  echo "durable bytes differ from $golden" >&2
  exit 1
fi
