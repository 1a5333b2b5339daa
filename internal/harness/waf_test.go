package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWAFRuns executes the experiment at a second scale and seed and
// checks the properties the golden's numbers rest on: every arm
// reconciles (RunWAF fails otherwise), the churn arm amplifies at least as
// much as the sequential arm, GC actually engaged, and each workload runs
// once.
func TestWAFRuns(t *testing.T) {
	res, err := RunWAF(800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 || res.Arms[0].Workload != "sequential" || res.Arms[1].Workload != "btree-churn" {
		t.Fatalf("expected one sequential then one btree-churn arm, got %+v", res.Arms)
	}
	for _, a := range res.Arms {
		if a.WAF < 1 {
			t.Fatalf("%s: WAF %.3f below 1", a.Workload, a.WAF)
		}
		if a.EBlocksFreed == 0 {
			t.Fatalf("%s: GC never reclaimed an EBLOCK — no churn pressure", a.Workload)
		}
		if a.SourceBytes["user"] <= 0 {
			t.Fatalf("%s: no user-attributed programs", a.Workload)
		}
	}
	seq, churn := res.Arms[0], res.Arms[1]
	if churn.WAF < seq.WAF {
		t.Fatalf("churn WAF %.3f below sequential floor %.3f", churn.WAF, seq.WAF)
	}
	if seq.SourceBytes["gc"] != 0 {
		t.Fatalf("sequential arm relocated %d GC bytes; cyclic overwrites should leave victims all-dead",
			seq.SourceBytes["gc"])
	}
	if churn.SourceBytes["gc"] == 0 {
		t.Fatal("churn arm relocated nothing — workload not exercising victim selection")
	}

	var buf bytes.Buffer
	PrintWAF(&buf, res)
	if !strings.Contains(buf.String(), "btree-churn") || !strings.Contains(buf.String(), "sequential") {
		t.Fatalf("unexpected report:\n%s", buf.String())
	}
}

// TestWAFGolden runs the experiment as `benchrunner waf` does and
// requires its result document to equal the committed BENCH_waf.json byte
// for byte. The workload is deterministic, so any difference is a change
// in write amplification, in its per-source split or in GC's work: a
// change that means it rewrites the file with
// `go run ./cmd/benchrunner waf -json BENCH_waf.json`.
func TestWAFGolden(t *testing.T) {
	res, err := RunWAF(1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "waf.json")
	if err := WriteWAFJSON(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_waf.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the waf result document differs from BENCH_waf.json; if the change means it, run\n"+
			"  go run ./cmd/benchrunner waf -json BENCH_waf.json\ngot:\n%s", got)
	}
}
