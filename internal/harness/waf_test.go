package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gcpolicy "eleos/internal/gc"
)

// TestWAFRuns executes the experiment at test scale and checks the
// properties the CI gate relies on: every arm reconciles (RunWAF fails
// otherwise), the churn arm amplifies at least as much as the
// sequential arm, GC actually engaged, the sequential arm runs once, and
// the gated numbers are the default policy's churn WAF and the sequential
// floor.
func TestWAFRuns(t *testing.T) {
	res, err := RunWAF([]gcpolicy.Policy{gcpolicy.MinCostDecline{}, gcpolicy.Greedy{}}, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 3 {
		t.Fatalf("expected 3 arms (one sequential, a churn arm per policy), got %d", len(res.Arms))
	}
	byCell := map[string]WAFArm{}
	for _, a := range res.Arms {
		if a.WAF < 1 {
			t.Fatalf("%s/%s: WAF %.3f below 1", a.Policy, a.Workload, a.WAF)
		}
		if a.EBlocksFreed == 0 {
			t.Fatalf("%s/%s: GC never reclaimed an EBLOCK — no churn pressure", a.Policy, a.Workload)
		}
		if a.SourceBytes["user"] <= 0 {
			t.Fatalf("%s/%s: no user-attributed programs", a.Policy, a.Workload)
		}
		byCell[a.Policy+"/"+a.Workload] = a
	}
	mcdSeq := byCell[gcpolicy.MinCostDecline{}.Name()+"/sequential"]
	mcdChurn := byCell[gcpolicy.MinCostDecline{}.Name()+"/btree-churn"]
	if mcdChurn.WAF < mcdSeq.WAF {
		t.Fatalf("churn WAF %.3f below sequential floor %.3f", mcdChurn.WAF, mcdSeq.WAF)
	}
	if mcdSeq.SourceBytes["gc"] != 0 {
		t.Fatalf("sequential arm relocated %d GC bytes; cyclic overwrites should leave victims all-dead",
			mcdSeq.SourceBytes["gc"])
	}
	if mcdChurn.SourceBytes["gc"] == 0 {
		t.Fatal("churn arm relocated nothing — workload not exercising victim selection")
	}
	if res.GatedWAF != mcdChurn.WAF {
		t.Fatalf("gated WAF %.3f is not the default policy's churn arm %.3f", res.GatedWAF, mcdChurn.WAF)
	}
	if res.SequentialWAF != mcdSeq.WAF {
		t.Fatalf("sequential WAF %.3f is not the sequential arm's %.3f", res.SequentialWAF, mcdSeq.WAF)
	}
	if _, dup := byCell[gcpolicy.Greedy{}.Name()+"/sequential"]; dup {
		t.Fatal("sequential arm ran under a second policy; GC moves nothing there, so the rows are duplicates")
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
	a, err := runWAFArm(gcpolicy.MinCostDecline{}, "btree-churn", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWAFArm(gcpolicy.MinCostDecline{}, "btree-churn", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.FlashBytes != b.FlashBytes || a.UserBytes != b.UserBytes || a.Erases != b.Erases {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
