package core

import (
	"slices"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
)

// candidate is one EBLOCK victim selection may rank, with its score.
type candidate struct {
	eb    int
	score float64
}

// scoredCandidates returns channel 0's GC candidates as selectVictimLocked
// defines them — unprotected user EBLOCKs with something reclaimable — in
// the order it visits them. Caller holds c.mu.
func scoredCandidates(c *Controller) []candidate {
	var cands []candidate
	for _, eb := range c.st.UsedEBlocks(0) {
		if c.inflight[[2]int{0, eb}] > 0 || c.pinned[[2]int{0, eb}] > 0 {
			continue
		}
		d, err := c.st.Desc(0, eb)
		if err != nil || d.Stream != record.StreamUser || d.Avail == 0 {
			continue
		}
		cands = append(cands, candidate{eb, c.victimScore(d.Avail, c.updateSeq-d.Timestamp+1)})
	}
	return cands
}

// argmin returns the index of the first lowest-scoring candidate, the one
// selection keeps, or -1 for none.
func argmin(cands []candidate) int {
	best := -1
	for i, cd := range cands {
		if best == -1 || cd.score < cands[best].score {
			best = i
		}
	}
	return best
}

// TestGCVictimScore pins the minimum-cost-decline rule on its own:
// the lowest score is collected first.
func TestGCVictimScore(t *testing.T) {
	c := &Controller{geo: flash.Geometry{EBlockBytes: 100}}
	type cand struct{ avail, age uint64 }
	for _, tc := range []struct {
		name  string
		cands []cand
		win   int     // index of the lowest score
		score float64 // the winner's score, or -1 to skip the check
	}{
		// Free space with nothing to move beats a half-empty cold block.
		{"full-garbage-scores-0", []cand{{50, 1000}, {100, 1}}, 1, 0},
		// Avail counts fragmentation and can exceed capacity: E clamps to
		// 1 rather than turning the score negative.
		{"overfull-clamps-to-1", []cand{{250, 10}, {99, 1000}}, 0, 0},
		// Age outweighs raw garbage: a cold block a quarter reclaimable
		// goes before one just closed that is 80 % reclaimable.
		{"old-dented-beats-young-fuller", []cand{{80, 1}, {25, 1000}}, 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var scored []candidate
			for i, cd := range tc.cands {
				scored = append(scored, candidate{i, c.victimScore(cd.avail, cd.age)})
			}
			win := argmin(scored)
			if win != tc.win {
				t.Fatalf("scores %v: candidate %d wins, want %d", scored, win, tc.win)
			}
			if tc.score >= 0 && scored[win].score != tc.score {
				t.Fatalf("winning score = %v, want %v", scored[win].score, tc.score)
			}
		})
	}
}

// TestGCPluginRespectsPinnedAndInflight: the two EBLOCKs victim selection
// would rank first are made protected — one pinned (an uninstalled
// action), one inflight (queued programs) — and selection must pass over
// both, since erasing either loses committed data.
func TestGCPluginRespectsPinnedAndInflight(t *testing.T) {
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	c, err := Format(dev, DefaultConfig())
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
	cands := scoredCandidates(c)
	if len(cands) < 3 {
		t.Fatalf("need >= 3 reclaimable user EBLOCKs, have %v", cands)
	}
	i := argmin(cands)
	pinnedEB := cands[i].eb
	cands = slices.Delete(cands, i, i+1)
	i = argmin(cands)
	inflightEB := cands[i].eb
	cands = slices.Delete(cands, i, i+1)
	c.pinned[[2]int{0, pinnedEB}]++
	c.inflight[[2]int{0, inflightEB}]++
	defer func() {
		c.pinned[[2]int{0, pinnedEB}]--
		c.inflight[[2]int{0, inflightEB}]--
	}()

	victim, ok := c.selectVictimLocked(0, false)
	if ok && (victim == pinnedEB || victim == inflightEB) {
		t.Fatalf("selected victim %d; pinned %d and inflight %d are protected", victim, pinnedEB, inflightEB)
	}
	if want := cands[argmin(cands)].eb; !ok || victim != want {
		t.Fatalf("selected victim %d (ok=%v), want the best unprotected candidate %d", victim, ok, want)
	}
}

// TestGCSelectionMatchesPolicyRanking drives a cold/hot overwrite
// workload — an old lightly-dented cold block and young mostly-garbage
// hot blocks — and checks that the victim selectVictimLocked returns is
// the argmin of victimScore over the eligible candidates.
func TestGCSelectionMatchesPolicyRanking(t *testing.T) {
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 48,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	c, err := Format(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	// Cold extent, closed early; dented slightly so it is a candidate.
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
	cands := scoredCandidates(c)
	victim, ok := c.selectVictimLocked(0, false)
	d, _ := c.st.Desc(0, victim)
	c.mu.Unlock()
	if len(cands) < 2 {
		t.Fatalf("layout left %d candidates, want a cold and a hot one", len(cands))
	}
	if want := cands[argmin(cands)].eb; !ok || victim != want {
		t.Fatalf("selected %d (ok=%v), but the lowest score is %d's: %v", victim, ok, want, cands)
	}
	t.Logf("chose eblock %d (avail %d, ts %d) of %d candidates", victim, d.Avail, d.Timestamp, len(cands))
}

// mustWriteSized writes one page of deterministic content.
func mustWriteSized(t *testing.T, c *Controller, lpid, version uint64, size int) {
	t.Helper()
	if err := c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(lpid), Data: pageContent(lpid, version, size)}}); err != nil {
		t.Fatalf("WriteBatch(%d v%d): %v", lpid, version, err)
	}
}
