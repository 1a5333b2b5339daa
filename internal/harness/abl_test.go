package harness

import (
	"bytes"
	"testing"

	gcpolicy "eleos/internal/gc"
)

func TestGCAblationRuns(t *testing.T) {
	results := map[gcpolicy.Policy]*GCAblationResult{}
	for _, p := range []gcpolicy.Policy{gcpolicy.MinCostDecline{}, gcpolicy.Greedy{}, gcpolicy.Oldest{}} {
		res, err := RunGCAblation(GCAblationOptions{Policy: p, GCBuckets: 3, Batches: 900, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.WriteAmp < 1 {
			t.Fatalf("%s: write amp %.2f below 1", p.Name(), res.WriteAmp)
		}
		if res.EBlocksFreed == 0 {
			t.Fatalf("%s: GC never freed anything", p.Name())
		}
		results[p] = res
	}
	// The paper's argument (§VI-A): min-cost-decline should not move more
	// data than oldest-first on a skewed workload.
	mcd, old := results[gcpolicy.MinCostDecline{}], results[gcpolicy.Oldest{}]
	if mcd.GCBytesMoved > old.GCBytesMoved*3/2 {
		t.Fatalf("min-cost-decline moved %d bytes, oldest %d — policy not paying off",
			mcd.GCBytesMoved, old.GCBytesMoved)
	}
	var buf bytes.Buffer
	if err := PrintGCAblation(&buf, 900, 5); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty ablation output")
	}
}
