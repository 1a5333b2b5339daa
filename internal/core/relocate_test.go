package core

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/bufpool"
	"eleos/internal/flash"
	"eleos/internal/summary"
)

// Copy-once relocation tests (DESIGN.md §4.1, byte-movement budget): GC
// reads each valid page straight into one pooled, exact-size move buffer
// and programs from it.

// relocSizes are aligned page sizes chosen so that, laid back to back,
// pages start and end off RBLOCK (4 KB) and WBLOCK (16 KB) boundaries.
var relocSizes = []int{1920, 3008, 832, 5056, 64, 4096, 2752, 9024}

func relocLPID(i int) addr.LPID { return addr.LPID(i + 1) }

// relocContent is gcErasePage's pattern at the page's own size times scale.
func relocContent(i int, version uint64, scale int) []byte {
	lp := relocLPID(i)
	b := make([]byte, scale*relocSizes[i%len(relocSizes)])
	for j := range b {
		b[j] = byte(uint64(lp)*31 + version*7 + uint64(j)*uint64(lp|1))
	}
	return b
}

// halfDeadController writes n pages of relocSizes×scale in 32-page batches
// and then overwrites every second one, so the EBLOCKs the first round
// closed are half valid: collecting them relocates. The GC threshold is
// set so low that no write triggers a pass by itself. Every WBLOCK of the
// device was programmed and erased before the format, so its backing
// arrays exist (programs allocate nothing) and hold stale bytes that no
// read may reveal. It returns the controller and each page's current
// version.
func halfDeadController(t *testing.T, n, scale int) (*Controller, *flash.Device, []uint64) {
	t.Helper()
	geo := flash.SmallGeometry()
	dev := flash.MustNewDevice(geo, flash.Latency{})
	t.Cleanup(dev.Close)
	programAndErase(t, dev, bytes.Repeat([]byte{0xEE}, geo.WBlockBytes))
	cfg := DefaultConfig()
	cfg.GCFreeFraction = 0.01
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	version := make([]uint64, n)
	write := func(step int, v uint64) {
		var pages []LPage
		for i := 0; i < n; i += step {
			version[i] = v
			pages = append(pages, LPage{LPID: relocLPID(i), Data: relocContent(i, v, scale)})
			if len(pages) == 32 || i+step >= n {
				mustWrite(t, c, pages...)
				pages = pages[:0]
			}
		}
	}
	write(1, 1)
	write(2, 2)
	return c, dev, version
}

func checkRelocContent(t *testing.T, c *Controller, version []uint64, scale int) {
	t.Helper()
	for i, v := range version {
		checkRead(t, c, relocLPID(i), relocContent(i, v, scale))
	}
}

// collectAll checkpoints (so the log can be truncated and its EBLOCKs
// reclaimed) and forces three passes on every channel: enough to collect
// every half-dead EBLOCK halfDeadController leaves behind.
func collectAll(t *testing.T, c *Controller) {
	t.Helper()
	for sweep := 0; sweep < 3; sweep++ {
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		for ch := 0; ch < c.geo.Channels; ch++ {
			if err := c.GCNow(ch); err != nil {
				t.Fatalf("GCNow(%d): %v", ch, err)
			}
		}
	}
}

// TestRelocationStraddlesBlocksUnderPoison: with every released pool buffer
// scribbled, GC moves valid pages that straddle RBLOCK and WBLOCK
// boundaries out of half-dead EBLOCKs; every page then reads byte-exact
// (zero padding included), before and after a crash and recovery.
func TestRelocationStraddlesBlocksUnderPoison(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
	c, dev, version := halfDeadController(t, 600, 1)

	// The victims' survivors must really straddle both kinds of boundary.
	var crossR, crossW int
	c.mu.Lock()
	for i := 1; i < len(version); i += 2 {
		a, err := c.mt.Get(relocLPID(i))
		if err != nil || !a.IsValid() {
			c.mu.Unlock()
			t.Fatalf("page %d unmapped: %v", i, err)
		}
		first, last := a.Offset(), a.Offset()+a.Length()-1
		if first/c.geo.RBlockBytes != last/c.geo.RBlockBytes && first%c.geo.RBlockBytes != 0 {
			crossR++
		}
		if first/c.geo.WBlockBytes != last/c.geo.WBlockBytes {
			crossW++
		}
	}
	c.mu.Unlock()
	if crossR == 0 || crossW == 0 {
		t.Fatalf("survivors straddle %d RBLOCK and %d WBLOCK boundaries; the layout tests nothing", crossR, crossW)
	}

	collectAll(t, c)
	if s := c.Stats(); s.GCPagesMoved < int64(len(version))/4 || s.GCEBlocksFreed == 0 {
		t.Fatalf("GC moved %d pages and freed %d EBLOCKs: no relocation happened", s.GCPagesMoved, s.GCEBlocksFreed)
	}
	checkRelocContent(t, c, version, 1)

	c.Crash()
	c2, err := Open(dev, c.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkRelocContent(t, c2, version, 1)
	collectAll(t, c2)
	checkRelocContent(t, c2, version, 1)
}

// TestRelocationReadsEachRBlockOnce: a victim's survivors alternate with
// dead pages, so they share RBLOCKs without being adjacent. The pass
// transfers the union of the RBLOCKs covering them — computed here from the
// tables, before the pass — plus the RBLOCKs the victim's flushed metadata
// block occupies when no in-memory copy is left: fewer than one read per
// page would, and exactly what core.gc.bytes_read reports.
func TestRelocationReadsEachRBlockOnce(t *testing.T) {
	c, dev, version := halfDeadController(t, 600, 1)
	r := c.geo.RBlockBytes
	for pass := 0; pass < 4; pass++ { // a different victim each time
		c.mu.Lock()
		victim, ok := c.selectVictimLocked(0, false)
		if !ok {
			c.mu.Unlock()
			t.Fatalf("pass %d: no victim on channel 0", pass)
		}
		// Valid is what the tables still point at: user pages through the
		// mapping, the few table pages a checkpoint put here through theirs.
		d, _ := c.st.Desc(0, victim)
		flushed := len(c.st.Meta(0, victim)) == 0
		entries, err := c.readMetaLocked(0, victim, d)
		if err != nil {
			c.mu.Unlock()
			t.Fatal(err)
		}
		meta := 0 // the RBLOCKs the encoded block occupies, not its whole area
		if flushed {
			meta = (summary.MetaBlockLen(summary.EncodeMetaBlock(entries)) + r - 1) / r
		}
		covered := make([]bool, c.geo.EBlockBytes/c.geo.RBlockBytes)
		seen := make(map[int]bool)
		var pages, union, perPage int
		for _, e := range entries {
			cur, err := c.currentAddrLocked(e.LPID, e.Type)
			if err != nil {
				c.mu.Unlock()
				t.Fatal(err)
			}
			if want, err := addr.Pack(0, victim, e.Offset, e.Length); err != nil || cur != want || seen[e.Offset] {
				continue
			}
			seen[e.Offset] = true
			pages++
			for rb := e.Offset / r; rb <= (e.Offset+e.Length-1)/r; rb++ {
				perPage++
				if !covered[rb] {
					covered[rb] = true
					union++
				}
			}
		}
		c.mu.Unlock()
		if pages < 8 || union >= perPage {
			t.Fatalf("pass %d: victim (0,%d) holds %d valid pages over %d RBLOCKs, %d read page by page: the layout tests nothing",
				pass, victim, pages, union, perPage)
		}

		before, media := c.Stats(), dev.Stats()
		if err := c.GCNow(0); err != nil {
			t.Fatalf("GCNow: %v", err)
		}
		after := c.Stats()
		if moved := after.GCPagesMoved - before.GCPagesMoved; moved != int64(pages) {
			t.Fatalf("pass %d: moved %d pages, the mapping had %d in (0,%d)", pass, moved, pages, victim)
		}
		got := dev.Stats().RBlocksRead - media.RBlocksRead
		if got != int64(union+meta) {
			t.Errorf("pass %d: %d RBLOCKs transferred for victim (0,%d); want %d covering %d pages + %d of metadata (page by page: %d)",
				pass, got, victim, union, pages, meta, perPage)
		}
		if gc, all := after.GCBytesRead-before.GCBytesRead, after.ReadRBlocks-before.ReadRBlocks; gc != got*int64(r) || all != got {
			t.Errorf("pass %d: core.gc.bytes_read moved by %d, read.rblocks by %d; the device transferred %d RBLOCKs", pass, gc, all, got)
		}
	}
	checkRelocContent(t, c, version, 1)
}

// TestRelocationFaultReleasesMoveBuffer: a program fault in the middle of
// a relocation aborts the GC action and migrates the failed EBLOCK; every
// move buffer taken on the way — the aborted action's and the migration's —
// is released exactly once (a second release panics, a missing one leaves
// Refs at 1), and no page is lost.
func TestRelocationFaultReleasesMoveBuffer(t *testing.T) {
	bufpool.SetPoison(true)
	var bufs []*bufpool.Buf
	dbgFn = func(_ string, args ...any) {
		for _, a := range args {
			if pb, ok := a.(*bufpool.Buf); ok {
				if pb.Refs() != 1 {
					t.Errorf("move buffer handed out with %d references", pb.Refs())
				}
				bufs = append(bufs, pb)
			}
		}
	}
	t.Cleanup(func() {
		dbgFn = nil
		bufpool.SetPoison(false)
	})
	c, dev, version := halfDeadController(t, 600, 1)

	// A first pass leaves committed survivors in channel 0's open GC
	// EBLOCK; the fault then hits the next relocation into it, so the
	// migration of the failed EBLOCK has pages of its own to move.
	if err := c.GCNow(0); err != nil {
		t.Fatalf("GCNow: %v", err)
	}
	taken := len(bufs)
	// The relocation's second WBLOCK program, aimed by address: its commit
	// page is programmed beside its data, so the device's nth program may
	// be the log's.
	open := c.prov.GCOpen(0)
	if open < 0 {
		t.Fatal("channel 0 has no GC EBLOCK open, want the one the pass filled")
	}
	next, err := dev.NextProgramPosition(0, open)
	if err != nil {
		t.Fatal(err)
	}
	dev.FailNextProgram(0, open, next+1)
	failures := dev.Stats().WriteFailures
	if err := c.GCNow(0); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("GCNow = %v, want the relocation's media abort", err)
	}
	if dev.Stats().WriteFailures == failures {
		t.Fatal("the armed program fault never fired")
	}
	if taken == 0 || len(bufs) < taken+2 {
		t.Fatalf("%d move buffers taken, %d before the fault: want the aborted action's and the migration's", len(bufs), taken)
	}
	for i, pb := range bufs {
		if pb.Refs() != 0 {
			t.Errorf("move buffer %d still has %d references after the pass", i, pb.Refs())
		}
	}
	if c.Stats().AbortedActions == 0 || c.Stats().Migrations == 0 {
		t.Fatalf("stats %+v: want an aborted action and a migration", c.Stats())
	}
	checkRelocContent(t, c, version, 1)
	collectAll(t, c)
	checkRelocContent(t, c, version, 1)
}

// TestRelocationAllocsIndependentOfBytesMoved: the bytes a relocation
// allocates are bounded per victim and page count, not per byte moved —
// the move buffer is pooled and exact-size, the media read fills it in
// place. Two controllers collect the same number of pages, one with pages
// four times the other's size; what the bigger one allocates beyond the
// smaller stays under a sixteenth of the extra bytes it moves (it used to
// be three to four times them). Not meaningful under -race, where
// sync.Pool drops buffers at random.
func TestRelocationAllocsIndependentOfBytesMoved(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pool's buffers
	measure := func(scale int) (allocated, moved int64) {
		c, _, _ := halfDeadController(t, 150, scale)
		bufpool.Get(c.geo.EBlockBytes).Release() // warm the move buffer's size class
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		collectAll(t, c)
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc - m0.TotalAlloc), c.Stats().GCBytesMoved
	}
	smallAlloc, smallMoved := measure(1)
	bigAlloc, bigMoved := measure(4)
	if smallMoved == 0 || bigMoved < 3*smallMoved {
		t.Fatalf("moved %d and %d bytes: the two runs do not differ enough to compare", smallMoved, bigMoved)
	}
	if extra := bigAlloc - smallAlloc; extra > (bigMoved-smallMoved)/16 {
		t.Fatalf("moving %d more bytes allocated %d more (%d vs %d): relocation allocates per byte moved",
			bigMoved-smallMoved, extra, bigAlloc, smallAlloc)
	}
}
