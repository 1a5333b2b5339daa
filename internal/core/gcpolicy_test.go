package core

import (
	"sync"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	gcpolicy "eleos/internal/gc"
	"eleos/internal/record"
)

// recordingPolicy scores greedily while recording every candidate the
// core offered it, so tests can assert what selection was allowed to
// see.
type recordingPolicy struct {
	mu   sync.Mutex
	seen []gcpolicy.Candidate
}

func (p *recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) Score(c gcpolicy.Candidate) float64 {
	p.mu.Lock()
	p.seen = append(p.seen, c)
	p.mu.Unlock()
	return gcpolicy.Greedy{}.Score(c)
}

func (p *recordingPolicy) candidates() []gcpolicy.Candidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]gcpolicy.Candidate(nil), p.seen...)
}

// TestGCPolicyEnumMapping pins the one policy field's resolution as the
// snapshot reports it: the "gc.policy" label is the Name() of the
// configured implementation, and of the paper's default when none is set.
func TestGCPolicyEnumMapping(t *testing.T) {
	for _, tc := range []struct {
		policy gcpolicy.Policy
		want   string
	}{
		{nil, "min-cost-decline"},
		{gcpolicy.MinCostDecline{}, "min-cost-decline"},
		{gcpolicy.Greedy{}, "greedy"},
		{gcpolicy.Oldest{}, "oldest"},
		{gcpolicy.CostBenefit{}, "cost-benefit"},
		{gcpolicy.WearAware{}, "wear-aware"},
		{&recordingPolicy{}, "recording"},
	} {
		dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
		cfg := testConfig()
		cfg.GCPolicy = tc.policy
		c, err := Format(dev, cfg)
		if err != nil {
			t.Fatalf("Format(%s): %v", tc.want, err)
		}
		if tc.policy != nil && tc.policy.Name() != tc.want {
			t.Errorf("%T.Name() = %q, want %q", tc.policy, tc.policy.Name(), tc.want)
		}
		if got := c.MetricsSnapshot().Label("gc.policy"); got != tc.want {
			t.Errorf("gc.policy label for %T = %q, want %q", tc.policy, got, tc.want)
		}
	}
}

// TestGCPluginRespectsPinnedAndInflight: whatever the policy wants, the
// core must never offer it an EBLOCK with queued programs (inflight) or
// an uninstalled action (pinned) — erasing either loses committed data.
func TestGCPluginRespectsPinnedAndInflight(t *testing.T) {
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	pol := &recordingPolicy{}
	cfg := testConfig()
	cfg.GCPolicy = pol
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}

	// Fill a few EBLOCKs with overwrites so Used EBLOCKs with garbage
	// exist.
	for round := 0; round < 3; round++ {
		for lpid := uint64(1); lpid <= 40; lpid++ {
			data := pageContent(lpid, uint64(round+1), 12000)
			if err := c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(lpid), Data: data}}); err != nil {
				t.Fatalf("WriteBatch: %v", err)
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	used := c.st.UsedEBlocks(0)
	var reclaimable []int
	for _, eb := range used {
		if d, err := c.st.Desc(0, eb); err == nil && d.Stream == record.StreamUser && d.Avail > 0 {
			reclaimable = append(reclaimable, eb)
		}
	}
	if len(reclaimable) < 2 {
		t.Fatalf("need >= 2 reclaimable user EBLOCKs, have %v", reclaimable)
	}

	// Pin one and mark another inflight; selection must skip both.
	pinnedEB, inflightEB := reclaimable[0], reclaimable[1]
	c.pinned[[2]int{0, pinnedEB}]++
	c.inflight[[2]int{0, inflightEB}]++
	defer func() {
		c.pinned[[2]int{0, pinnedEB}]--
		c.inflight[[2]int{0, inflightEB}]--
	}()

	pol.mu.Lock()
	pol.seen = nil
	pol.mu.Unlock()
	victim, ok := c.selectVictimLocked(0, false)
	if ok && (victim == pinnedEB || victim == inflightEB) {
		t.Fatalf("selected victim %d is pinned/inflight", victim)
	}
	for _, cand := range pol.candidates() {
		if cand.EB == pinnedEB || cand.EB == inflightEB {
			t.Fatalf("policy was offered protected EBLOCK %d", cand.EB)
		}
		if cand.CapBytes != uint64(geo.EBlockBytes) {
			t.Fatalf("candidate CapBytes = %d, want %d", cand.CapBytes, geo.EBlockBytes)
		}
		if cand.Age == 0 {
			t.Fatalf("candidate Age = 0, want >= 1")
		}
	}
}

// TestGCSelectionMatchesPolicyRanking drives an identical cold/hot
// overwrite workload under every policy and checks two things: (a) the
// victim selectVictimLocked returns is exactly the argmin of the
// policy's own Score over the eligible candidates (the delegation
// contract), and (b) the policies do not all agree — the layout has a
// young mostly-garbage hot block and an old lightly-dented cold block,
// which provably splits e.g. greedy from oldest.
func TestGCSelectionMatchesPolicyRanking(t *testing.T) {
	policies := []gcpolicy.Policy{gcpolicy.MinCostDecline{}, gcpolicy.Greedy{}, gcpolicy.Oldest{}, gcpolicy.CostBenefit{}, gcpolicy.WearAware{}}
	victims := map[string]int{}
	for _, pol := range policies {
		policy := pol.Name()
		geo := flash.Geometry{
			Channels: 1, EBlocksPerChannel: 48,
			EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
		}
		dev := flash.MustNewDevice(geo, flash.Latency{})
		cfg := testConfig()
		cfg.GCPolicy = pol
		c, err := Format(dev, cfg)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		// Cold extent, closed early; dented slightly so it is a
		// candidate.
		for lpid := uint64(1); lpid <= 25; lpid++ {
			mustWriteSized(t, c, lpid, 1, 12000)
		}
		for lpid := uint64(1); lpid <= 4; lpid++ {
			mustWriteSized(t, c, lpid, 2, 12000)
		}
		// Time filler: unique pages, never invalidated (Avail 0, so the
		// filler blocks are not candidates) — ages the cold block.
		for lpid := uint64(1000); lpid < 1080; lpid++ {
			mustWriteSized(t, c, lpid, 1, 12000)
		}
		// Hot churn at the end: young blocks, mostly garbage.
		for v := uint64(1); v <= 3; v++ {
			for lpid := uint64(100); lpid <= 120; lpid++ {
				mustWriteSized(t, c, lpid, v, 12000)
			}
		}

		c.mu.Lock()
		// Compute the expected victim by replaying the policy over the
		// eligible candidates exactly as selection defines them.
		wantEB, wantScore := -1, 0.0
		for _, eb := range c.st.UsedEBlocks(0) {
			if c.inflight[[2]int{0, eb}] > 0 || c.pinned[[2]int{0, eb}] > 0 {
				continue
			}
			d, err := c.st.Desc(0, eb)
			if err != nil || d.Stream != record.StreamUser || d.Avail == 0 {
				continue
			}
			age := c.updateSeq - d.Timestamp + 1
			score := pol.Score(gcpolicy.Candidate{
				Ch: 0, EB: eb, Avail: d.Avail, CapBytes: uint64(geo.EBlockBytes),
				Age: age, EraseCount: d.EraseCount, Timestamp: d.Timestamp,
			})
			if wantEB == -1 || score < wantScore {
				wantEB, wantScore = eb, score
			}
		}
		victim, ok := c.selectVictimLocked(0, false)
		d, _ := c.st.Desc(0, victim)
		c.mu.Unlock()
		if !ok || wantEB == -1 {
			t.Fatalf("%v: no victim (ok=%v wantEB=%d)", policy, ok, wantEB)
		}
		if victim != wantEB {
			t.Fatalf("%v selected %d, but its own ranking prefers %d", policy, victim, wantEB)
		}
		t.Logf("%v chose eblock %d (avail %d, ts %d)", policy, victim, d.Avail, d.Timestamp)
		victims[policy] = victim
	}
	distinct := map[int]bool{}
	for _, v := range victims {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all policies chose the same victim (%v); layout failed to split any pair", victims)
	}
}

// mustWriteSized writes one page of deterministic content.
func mustWriteSized(t *testing.T, c *Controller, lpid, version uint64, size int) {
	t.Helper()
	if err := c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(lpid), Data: pageContent(lpid, version, size)}}); err != nil {
		t.Fatalf("WriteBatch(%d v%d): %v", lpid, version, err)
	}
}
