#!/usr/bin/env bash
# Skip ratchet: compares the "--- SKIP" lines of a `go test -v` log with
# .github/skip-allowlist.txt. Usage: check-skips.sh <go-test-v-output>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
skipped="$(sed -nE 's/^[[:space:]]*--- SKIP: ([^[:space:]]+).*/\1/p' "$1" | sort -u)"
allowed="$(sed -E 's/#.*//; s/[[:space:]]+//g; /^$/d' "$here/skip-allowlist.txt" | sort -u)"
unlisted="$(comm -23 <(echo "$skipped") <(echo "$allowed") | sed '/^$/d')"
stale="$(comm -13 <(echo "$skipped") <(echo "$allowed") | sed '/^$/d')"
status=0
if [ -n "$unlisted" ]; then
	echo "tests skipped that .github/skip-allowlist.txt does not allow (make the scenario happen; do not add to the list):"
	echo "$unlisted" | sed 's/^/  /'
	status=1
fi
if [ -n "$stale" ]; then
	echo "tests listed in .github/skip-allowlist.txt that no longer skip (delete their lines):"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
[ "$status" -ne 0 ] || echo "skips: $(echo "$skipped" | sed '/^$/d' | wc -l) skipped, all on the allow-list, none stale"
exit "$status"
