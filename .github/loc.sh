#!/usr/bin/env bash
# Size report: non-test Go lines (wc -l of every tracked *.go that is not a
# _test.go) for the repository without bench/ and for the packages every
# re-anchor and size gate counts. Report only; prints eight numbers.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() { git ls-files -- "$@" | grep '\.go$' | grep -v '_test\.go$' | xargs cat | wc -l; }
printf '%-12s %6d\n' repository "$(count . ':!bench')"
for pkg in core server netproto client flash harness wal; do
	printf '%-12s %6d\n' "$pkg" "$(count "internal/$pkg")"
done
