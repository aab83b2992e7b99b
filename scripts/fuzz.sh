#!/bin/sh
# Run every Fuzz* target in the module for a short burst each.
#
# Targets are discovered with `$GO test -list`, so adding or renaming a fuzz
# function changes the run automatically — nothing is hard-coded. Zero
# discovered targets is a loud failure: it means the discovery broke or the
# targets were deleted, and silently fuzzing nothing must not look green. So
# is a package whose `-list` fails (its tests do not compile): its targets
# would otherwise drop out of the run unnoticed.
#
# Usage: scripts/fuzz.sh [fuzztime]   (default 30s per target)
set -eu

FUZZTIME="${1:-30s}"
GO="${GO:-go}"
total=0
failed=0

for pkg in $($GO list ./...); do
    # -list compiles the test binary and prints matching identifiers; lines
    # that are not identifiers (e.g. "ok  pkg") are filtered out. A package
    # whose tests do not compile is a failure, not a package without targets.
    if ! listed=$($GO test -list '^Fuzz' "$pkg" 2>&1); then
        failed=$((failed + 1))
        printf '%s\n' "$listed" >&2
        echo "FAIL: $pkg: $GO test -list failed, its fuzz targets cannot be discovered" >&2
        continue
    fi
    targets=$(printf '%s\n' "$listed" | grep '^Fuzz' || true)
    [ -z "$targets" ] && continue
    for t in $targets; do
        total=$((total + 1))
        echo "==> fuzz $pkg $t ($FUZZTIME)"
        if ! $GO test -run '^$' -fuzz "^${t}\$" -fuzztime "$FUZZTIME" "$pkg"; then
            failed=$((failed + 1))
            echo "FAIL: $pkg $t" >&2
        fi
    done
done

if [ "$total" -eq 0 ]; then
    echo "error: no fuzz targets discovered — $GO test -list found nothing matching ^Fuzz" >&2
    exit 1
fi
echo "fuzzed $total target(s), $failed failure(s)"
[ "$failed" -eq 0 ]
