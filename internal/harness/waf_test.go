package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWAFRuns executes the experiment at test scale and checks the
// properties the CI gate relies on: every arm reconciles (RunWAF fails
// otherwise), the churn arm amplifies at least as much as the
// sequential arm, GC actually engaged, each workload runs once, and the
// gated numbers are the churn arm's WAF and the sequential floor.
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
	if res.GatedWAF != churn.WAF {
		t.Fatalf("gated WAF %.3f is not the churn arm's %.3f", res.GatedWAF, churn.WAF)
	}
	if res.SequentialWAF != seq.WAF {
		t.Fatalf("sequential WAF %.3f is not the sequential arm's %.3f", res.SequentialWAF, seq.WAF)
	}

	var buf bytes.Buffer
	PrintWAF(&buf, res)
	if !strings.Contains(buf.String(), "btree-churn") || !strings.Contains(buf.String(), "gated WAF") {
		t.Fatalf("unexpected report:\n%s", buf.String())
	}

	path := filepath.Join(t.TempDir(), "waf.json")
	if err := WriteWAFJSON(path, res); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "waf"`, `"gated_waf"`, `"sequential_waf"`, `"source_bytes"`} {
		if !strings.Contains(string(doc), want) {
			t.Fatalf("JSON missing %s:\n%s", want, doc)
		}
	}
}

// TestWAFDeterministic pins that the workload replays byte-identically:
// same seed, same accounting, so the recorded EXPERIMENTS.md numbers
// and the CI gate are stable across machines.
func TestWAFDeterministic(t *testing.T) {
	a, err := runWAFArm("btree-churn", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWAFArm("btree-churn", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.FlashBytes != b.FlashBytes || a.UserBytes != b.UserBytes || a.Erases != b.Erases {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
