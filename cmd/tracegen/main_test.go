package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"eleos/internal/tpcc"
)

// tracegen runs one command line and returns its exit code and output.
func tracegen(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nosuch"},
		{"gen"},                // -out is required: no trace lands in the working directory by default
		{"gen", "-txns", "50"}, // likewise
		{"gen", "-nosuchflag"},
		{"gen", "-out", filepath.Join(t.TempDir(), "f"), "stray"},
		{"info"},
		{"info", "a", "b"},
	} {
		code, stdout, stderr := tracegen(args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout != "" || !strings.Contains(stderr, "usage: tracegen gen -out FILE") {
			t.Errorf("%q: want the usage line on stderr and nothing on stdout, got stdout %q stderr %q", args, stdout, stderr)
		}
	}
	if code, _, stderr := tracegen("gen", "-h"); code != 0 || !strings.Contains(stderr, "-warehouses") {
		t.Errorf("gen -h: exit %d, stderr %q; want 0 and the flag list", code, stderr)
	}
}

func TestGenInfoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "trace.bin")
	code, stdout, stderr := tracegen("gen", "-out", file, "-txns", "50", "-warehouses", "1")
	if code != 0 {
		t.Fatalf("gen: exit %d, stderr %q", code, stderr)
	}
	var name string
	var wrote int
	var avg float64
	last := stdout[strings.LastIndex(strings.TrimSpace(stdout), "\n")+1:]
	if _, err := fmt.Sscanf(last, "wrote %s %d page writes, avg %f bytes", &name, &wrote, &avg); err != nil || wrote == 0 {
		t.Fatalf("gen's last line %q: %v", last, err)
	}

	// What info must print, worked out from the file itself.
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tpcc.DecodeTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Writes) != wrote {
		t.Fatalf("gen reported %d page writes, the file holds %d", wrote, len(tr.Writes))
	}
	sizes := make([]int, len(tr.Writes))
	pids := map[uint64]bool{}
	for i, w := range tr.Writes {
		sizes[i] = w.Size
		pids[w.PID] = true
	}
	sort.Ints(sizes)
	n := len(sizes)
	want := []string{
		fmt.Sprintf("page size:        %d bytes", tr.PageBytes),
		fmt.Sprintf("page writes:      %d (%d distinct pages)", n, len(pids)),
		fmt.Sprintf("avg size:         %.0f bytes", avg),
		fmt.Sprintf("size percentiles: p10=%d p50=%d p90=%d p99=%d max=%d",
			sizes[n*10/100], sizes[n*50/100], sizes[n*90/100], sizes[n*99/100], sizes[n-1]),
	}
	code, stdout, stderr = tracegen("info", file)
	if code != 0 || stderr != "" {
		t.Fatalf("info: exit %d, stderr %q", code, stderr)
	}
	for _, line := range want {
		if !strings.Contains(stdout, line) {
			t.Errorf("info output lacks %q:\n%s", line, stdout)
		}
	}

	// The same seed writes the same bytes; another seed does not.
	same, other := filepath.Join(dir, "same.bin"), filepath.Join(dir, "other.bin")
	if code, _, stderr := tracegen("gen", "-out", same, "-txns", "50", "-warehouses", "1", "-seed", "1"); code != 0 {
		t.Fatalf("gen again: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := tracegen("gen", "-out", other, "-txns", "50", "-warehouses", "1", "-seed", "2"); code != 0 {
		t.Fatalf("gen -seed 2: exit %d, stderr %q", code, stderr)
	}
	a, _ := os.ReadFile(file)
	b, _ := os.ReadFile(same)
	c, _ := os.ReadFile(other)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("two runs of seed 1 wrote different files (%d and %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 1 and 2 wrote the same file")
	}

	// A truncated file is an error, not a shorter trace.
	cut := filepath.Join(dir, "cut.bin")
	if err := os.WriteFile(cut, a[:len(a)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{cut, filepath.Join(dir, "absent.bin")} {
		code, stdout, stderr = tracegen("info", bad)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "tracegen: ") {
			t.Errorf("info %s: exit %d, stdout %q, stderr %q; want exit 1 and an error", filepath.Base(bad), code, stdout, stderr)
		}
	}
}

func TestInfoOnEmptyTrace(t *testing.T) {
	file := filepath.Join(t.TempDir(), "empty.bin")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&tpcc.Trace{PageBytes: 8192}).Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, stdout, stderr := tracegen("info", file)
	if code != 0 || !strings.Contains(stdout, "page writes:      0 (0 distinct pages)") || !strings.Contains(stdout, "max=0") {
		t.Fatalf("info on an empty trace: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
