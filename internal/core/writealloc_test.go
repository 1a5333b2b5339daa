package core

import (
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
)

// programAndErase programs every WBLOCK of dev with fill and then erases
// its EBLOCK, in one batch: the device's backing arrays exist and hold
// stale bytes, as on a used drive.
func programAndErase(t *testing.T, dev *flash.Device, fill []byte) {
	t.Helper()
	geo := dev.Geometry()
	var cmds []flash.BatchCmd
	for ch := 0; ch < geo.Channels; ch++ {
		for eb := 0; eb < geo.EBlocksPerChannel; eb++ {
			for wb := 0; wb < geo.WBlocksPerEBlock(); wb++ {
				cmds = append(cmds, flash.BatchCmd{Src: flash.SrcUser, Channel: ch, EBlock: eb, WBlock: wb, Data: fill})
			}
			cmds = append(cmds, flash.BatchCmd{Op: flash.OpErase, Channel: ch, EBlock: eb})
		}
	}
	if res := dev.SubmitBatch(cmds).Wait(); len(res.FailedEBlocks) > 0 || res.Attempted != len(cmds) {
		t.Fatalf("program and erase: %+v", res)
	}
}

// TestWriteBatchAllocsIndependentOfPages: what one flush allocates does not
// grow with its page count (DESIGN.md §4.1, init-phase cost). The action's
// records are encoded into controller scratch and appended in one call,
// the planner's scratch lives on the provisioner, a cleared EBLOCK's
// metadata slice serves the next one opened, and the install swaps each
// mapping in place. Warm, a flush of 4, 16 or 64 pages of 1 920 B makes
// at most ten allocations, and the three counts differ by at most one. Not
// meaningful under -race, where sync.Pool drops buffers at random.
func TestWriteBatchAllocsIndependentOfPages(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 10,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	data := make([]byte, 1920)
	counts := map[int]float64{}
	for _, pages := range []int{4, 16, 64} {
		// The simulated NAND keeps a WBLOCK's bytes across an erase, so every
		// EBLOCK is programmed and erased once first: what is counted is the
		// controller's, not the simulator's first touch of its storage.
		dev := flash.MustNewDevice(geo, flash.Latency{})
		programAndErase(t, dev, make([]byte, geo.WBlockBytes))
		c, err := Format(dev, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]LPage, pages)
		next := 0
		write := func() {
			for j := range batch {
				// A bounded working set: every flush after the first few
				// supersedes live pages, so the install credits garbage.
				batch[j] = LPage{LPID: addr.LPID(next%4096 + 1), Data: data}
				next++
			}
			if err := c.WriteBatch(0, 0, batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6144/pages; i++ { // each channel has closed an EBLOCK
			write()
		}
		counts[pages] = testing.AllocsPerRun(100, write)
		t.Logf("%2d pages: %v allocs/flush", pages, counts[pages])
		if s := c.Stats(); s.GCRounds != 0 || s.Checkpoints != 1 {
			t.Fatalf("%d GC rounds, %d checkpoints: the measured flushes ran more than the write path", s.GCRounds, s.Checkpoints)
		}
	}
	lo, hi := counts[4], counts[4]
	for _, n := range counts {
		if n > 10 {
			t.Errorf("a flush makes %v allocations, want at most 10", n)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 {
		t.Errorf("allocations per flush grow with its pages: %v", counts)
	}
}
