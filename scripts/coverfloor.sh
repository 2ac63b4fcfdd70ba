#!/usr/bin/env bash
# coverfloor.sh — run the coverage-gated test subset and enforce
# per-package statement-coverage floors. Writes the merged profile to
# coverage.out (uploaded as a CI artifact) or to the path given as $1.
# Floors sit a few points below the current measurements; raise them as
# coverage grows, never lower them to let a regression pass.
set -euo pipefail
cd "$(dirname "$0")/.."

profile=${1:-coverage.out}

# package<TAB>floor(percent)
floors="
tpccmodel/internal/buffer	85.0
tpccmodel/internal/sim	88.0
tpccmodel/internal/engine/bufmgr	75.0
tpccmodel/internal/engine/shard	83.0
tpccmodel/internal/engine/mvcc	90.0
tpccmodel/internal/engine/db	84.8
tpccmodel/internal/engine/index	93.0
tpccmodel/internal/engine/storage	89.0
tpccmodel/internal/engine/lock	92.0
tpccmodel/internal/engine/keytab	95.0
"

pkgs=$(echo "$floors" | awk 'NF {print $1}' | sed 's|^tpccmodel|.|')
# shellcheck disable=SC2086  # pkgs is a deliberate word list
# A failing test must not end the script silently under set -e: print what
# go test printed, then exit with its status.
status=0
out=$(go test -coverprofile="$profile" $pkgs) || status=$?
echo "$out"
if [ "$status" -ne 0 ]; then
    echo "coverfloor: go test exited $status" >&2
    exit "$status"
fi

fail=0
while read -r pkg floor; do
    [ -z "$pkg" ] && continue
    pct=$(echo "$out" | awk -v p="$pkg" \
        '$2==p {for(i=1;i<=NF;i++) if($i~/%$/){sub(/%/,"",$i); print $i; exit}}')
    if [ -z "$pct" ]; then
        echo "coverfloor: no coverage reported for $pkg" >&2
        fail=1
        continue
    fi
    if awk -v a="$pct" -v b="$floor" 'BEGIN{exit !(a<b)}'; then
        echo "coverfloor: FAIL $pkg coverage $pct% is below floor $floor%" >&2
        fail=1
    else
        echo "coverfloor: ok   $pkg $pct% >= $floor%"
    fi
done <<EOF
$floors
EOF
exit $fail
