#!/usr/bin/env bash
# Docs size gate: prints the byte size of DESIGN.md, EXPERIMENTS.md and
# CHANGES.md and their total. Fails if the total exceeds 150 000 bytes, or
# if a CHANGES.md entry (a "- PR N" line plus its indented continuation
# lines) runs over 15 lines or holds a line longer than 120 bytes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
max_total=150000
total=0
for f in DESIGN.md EXPERIMENTS.md CHANGES.md; do
	n=$(wc -c <"$f")
	printf '%-16s %7d\n' "$f" "$n"
	total=$((total + n))
done
printf '%-16s %7d\n' total "$total"
fail=0
if ((total > max_total)); then
	echo "docs-size: the three files total $total bytes, over $max_total"
	fail=1
fi
LC_ALL=C awk -v maxlines=15 -v maxbytes=120 '
	function finish() {
		if (entry != "" && lines > maxlines) {
			printf "docs-size: CHANGES.md l.%d: entry \"%s\" runs %d lines, over %d\n", start, entry, lines, maxlines
			bad = 1
		}
		entry = ""
	}
	/^- PR [0-9]+/ { finish(); entry = $2 " " $3; sub(/:$/, "", entry); start = NR; lines = 0 }
	entry != "" && NR != start && !/^[ \t]+[^ \t]/ { finish() }
	entry != "" {
		lines++
		if (length($0) > maxbytes) {
			printf "docs-size: CHANGES.md l.%d (%s): %d bytes, over %d\n", NR, entry, length($0), maxbytes
			bad = 1
		}
	}
	END { finish(); exit bad }
' CHANGES.md || fail=1
exit "$fail"
