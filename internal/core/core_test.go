package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/summary"
)

func newFormatted(t *testing.T) (*Controller, *flash.Device) {
	t.Helper()
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	c, err := Format(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return c, dev
}

// pageContent generates deterministic content for (lpid, version).
func pageContent(lpid, version uint64, size int) []byte {
	b := make([]byte, size)
	seed := lpid*1_000_003 + version
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func mustWrite(t *testing.T, c *Controller, pages ...LPage) {
	t.Helper()
	if err := c.WriteBatch(0, 0, pages); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
}

func checkRead(t *testing.T, c *Controller, lpid addr.LPID, want []byte) {
	t.Helper()
	got, err := c.Read(lpid)
	if err != nil {
		t.Fatalf("Read(%d): %v", lpid, err)
	}
	if len(got) != addr.AlignUp(len(want)) {
		t.Fatalf("Read(%d) length %d, want aligned %d", lpid, len(got), addr.AlignUp(len(want)))
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("Read(%d) content differs", lpid)
	}
	for _, b := range got[len(want):] {
		if b != 0 {
			t.Fatalf("Read(%d) padding not zero", lpid)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _ := newFormatted(t)
	data := pageContent(1, 1, 1000)
	mustWrite(t, c, LPage{LPID: 1, Data: data})
	checkRead(t, c, 1, data)
}

func TestVariableSizesInOneBatch(t *testing.T) {
	c, _ := newFormatted(t)
	sizes := []int{1, 64, 65, 1000, 1920, 4096, 10000, 63}
	var pages []LPage
	for i, sz := range sizes {
		pages = append(pages, LPage{LPID: addr.LPID(i + 1), Data: pageContent(uint64(i+1), 1, sz)})
	}
	mustWrite(t, c, pages...)
	for i, sz := range sizes {
		checkRead(t, c, addr.LPID(i+1), pageContent(uint64(i+1), 1, sz))
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	c, _ := newFormatted(t)
	for v := uint64(1); v <= 5; v++ {
		mustWrite(t, c, LPage{LPID: 7, Data: pageContent(7, v, 500)})
	}
	checkRead(t, c, 7, pageContent(7, 5, 500))
}

func TestIntraBufferOrdering(t *testing.T) {
	// Later pages in one buffer overwrite earlier ones (§III-A1).
	c, _ := newFormatted(t)
	mustWrite(t, c,
		LPage{LPID: 3, Data: pageContent(3, 1, 256)},
		LPage{LPID: 4, Data: pageContent(4, 1, 256)},
		LPage{LPID: 3, Data: pageContent(3, 2, 512)},
	)
	checkRead(t, c, 3, pageContent(3, 2, 512))
	checkRead(t, c, 4, pageContent(4, 1, 256))
}

func TestReadUnknownLPID(t *testing.T) {
	c, _ := newFormatted(t)
	if _, err := c.Read(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
	if _, err := c.Length(999); !IsNotFound(err) {
		t.Fatalf("Length(unmapped) err = %v, want not found", err)
	}
}

func TestLengthAndExists(t *testing.T) {
	c, _ := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 5, Data: make([]byte, 100)})
	n, err := c.Length(5)
	if err != nil || n != 128 {
		t.Fatalf("Length = %d %v", n, err)
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	c, _ := newFormatted(t)
	if err := c.WriteBatch(0, 0, nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatal("empty batch accepted")
	}
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 1, Data: nil}}); !errors.Is(err, ErrEmptyBatch) {
		t.Fatal("empty page accepted")
	}
}

func TestBadLPIDRejected(t *testing.T) {
	c, _ := newFormatted(t)
	bad := addr.MakeTableLPID(addr.PageMap, 1)
	if err := c.WriteBatch(0, 0, []LPage{{LPID: bad, Data: []byte{1}}}); !errors.Is(err, ErrBadLPID) {
		t.Fatal("table-namespace LPID accepted")
	}
}

func TestSessionWSNOrdering(t *testing.T) {
	c, _ := newFormatted(t)
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(1); w <= 3; w++ {
		if err := c.WriteBatch(sid, w, []LPage{{LPID: addr.LPID(w), Data: pageContent(uint64(w), 1, 128)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Stale WSN: acknowledged without re-applying.
	if err := c.WriteBatch(sid, 2, []LPage{{LPID: 2, Data: pageContent(2, 99, 128)}}); err != nil {
		t.Fatal(err)
	}
	checkRead(t, c, 2, pageContent(2, 1, 128)) // not overwritten by stale redo
	if c.Stats().StaleWrites != 1 {
		t.Fatalf("StaleWrites = %d", c.Stats().StaleWrites)
	}
	high, err := c.SessionHighestWSN(sid)
	if err != nil || high != 3 {
		t.Fatalf("highest = %d %v", high, err)
	}
	if err := c.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBatch(sid, 4, []LPage{{LPID: 9, Data: []byte{1}}}); err == nil {
		t.Fatal("write on closed session accepted")
	}
}

func TestEarlyWSNBlocksUntilPredecessor(t *testing.T) {
	c, _ := newFormatted(t)
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// WSN 2 arrives first and must wait for WSN 1.
		done <- c.WriteBatch(sid, 2, []LPage{{LPID: 2, Data: pageContent(2, 1, 128)}})
	}()
	if err := c.WriteBatch(sid, 1, []LPage{{LPID: 1, Data: pageContent(1, 1, 128)}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	high, _ := c.SessionHighestWSN(sid)
	if high != 2 {
		t.Fatalf("highest = %d", high)
	}
	checkRead(t, c, 2, pageContent(2, 1, 128))
}

func TestUnorderedWritesIgnoreSessions(t *testing.T) {
	c, _ := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: []byte{1}})
	mustWrite(t, c, LPage{LPID: 1, Data: []byte{2}})
	got, _ := c.Read(1)
	if got[0] != 2 {
		t.Fatal("unordered writes should apply in call order")
	}
}

func TestLargeBatchSpansChannelsAndEBlocks(t *testing.T) {
	c, _ := newFormatted(t)
	// One big batch larger than a single eblock (256 KB).
	var pages []LPage
	for i := 0; i < 80; i++ {
		pages = append(pages, LPage{LPID: addr.LPID(i + 1), Data: pageContent(uint64(i+1), 1, 8192)})
	}
	mustWrite(t, c, pages...)
	for i := 0; i < 80; i++ {
		checkRead(t, c, addr.LPID(i+1), pageContent(uint64(i+1), 1, 8192))
	}
}

func TestMaxSizePage(t *testing.T) {
	c, _ := newFormatted(t)
	max := c.MaxLPageBytes()
	data := pageContent(1, 1, max)
	mustWrite(t, c, LPage{LPID: 1, Data: data})
	checkRead(t, c, 1, data)
	// Over max fails.
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 2, Data: make([]byte, max+1)}}); err == nil {
		t.Fatal("oversized page accepted")
	}
}

func TestCheckpointAndContinue(t *testing.T) {
	c, _ := newFormatted(t)
	for i := 0; i < 20; i++ {
		mustWrite(t, c, LPage{LPID: addr.LPID(i + 1), Data: pageContent(uint64(i+1), 1, 700)})
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Writes continue normally after a checkpoint.
	mustWrite(t, c, LPage{LPID: 100, Data: pageContent(100, 1, 300)})
	checkRead(t, c, 100, pageContent(100, 1, 300))
	checkRead(t, c, 1, pageContent(1, 1, 700))
	if c.Stats().Checkpoints < 2 { // format writes checkpoint #1
		t.Fatalf("Checkpoints = %d", c.Stats().Checkpoints)
	}
}

func TestRepeatedCheckpoints(t *testing.T) {
	c, _ := newFormatted(t)
	for i := 0; i < 10; i++ {
		mustWrite(t, c, LPage{LPID: addr.LPID(i%3 + 1), Data: pageContent(uint64(i%3+1), uint64(i), 500)})
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	checkRead(t, c, 1, pageContent(1, 9, 500))
}

// armUserFault arms a program failure at the nth WBLOCK (from 0) the next
// user batch programs, for a batch of at most Channels WBLOCKs. A batch's
// WBLOCKs go to successive channels, starting after the last batch's
// (provision.partition's rotation): probe is a page of the last batch, which
// must have been one WBLOCK, so the target is n+1 channels past probe's, at
// the open user EBLOCK's position or in the EBLOCK provisioning opens next.
// A fault aimed at "the next program" instead would meet the batch's data
// program or its commit page, whichever reaches the device first.
func armUserFault(t *testing.T, c *Controller, dev *flash.Device, probe addr.LPID, nth int) {
	t.Helper()
	ch := (mustAddr(t, c, probe).Channel() + 1 + nth) % c.geo.Channels
	eb := c.prov.UserOpen(ch)
	if eb < 0 {
		eb = c.st.FreeList(ch)[0]
	}
	wb, err := dev.NextProgramPosition(ch, eb)
	if err != nil {
		t.Fatal(err)
	}
	dev.FailNextProgram(ch, eb, wb)
}

func TestWriteFailureAbortsAndRetrySucceeds(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 2000)})

	armUserFault(t, c, dev, 1, 0)
	err := c.WriteBatch(0, 0, []LPage{{LPID: 2, Data: pageContent(2, 1, 2000)}})
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("write onto a failing WBLOCK = %v, want ErrWriteFailed", err)
	}

	// Old data still readable; retry succeeds.
	checkRead(t, c, 1, pageContent(1, 1, 2000))
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 2, Data: pageContent(2, 1, 2000)}}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	checkRead(t, c, 2, pageContent(2, 1, 2000))
	if c.Stats().AbortedActions == 0 {
		t.Fatal("expected an aborted action")
	}
}

func TestMigrationPreservesCommittedData(t *testing.T) {
	c, dev := newFormatted(t)
	// Commit a page, then fail a write into the same eblock; migration
	// must move the committed page before the eblock is erased.
	data := pageContent(1, 1, 3000)
	mustWrite(t, c, LPage{LPID: 1, Data: data})

	// Find the open user eblock holding LPID 1 and fail its next wblock.
	a := mustAddr(t, c, 1)
	pos, err := dev.NextProgramPosition(a.Channel(), a.EBlock())
	if err != nil {
		t.Fatal(err)
	}
	dev.FailNextProgram(a.Channel(), a.EBlock(), pos)

	// Write enough data to hit that channel again (spread across all).
	var pages []LPage
	for i := 0; i < 16; i++ {
		pages = append(pages, LPage{LPID: addr.LPID(100 + i), Data: pageContent(uint64(100+i), 1, 16384)})
	}
	err = c.WriteBatch(0, 0, pages)
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("expected ErrWriteFailed, got %v", err)
	}
	// The committed page survived migration.
	checkRead(t, c, 1, data)
	newA := mustAddr(t, c, 1)
	if newA.SameEBlock(a) {
		t.Fatal("page not migrated out of failed eblock")
	}
	if c.Stats().Migrations == 0 {
		t.Fatal("expected a migration")
	}
	// Retry succeeds.
	if err := c.WriteBatch(0, 0, pages); err != nil {
		t.Fatalf("retry: %v", err)
	}
}

func mustAddr(t *testing.T, c *Controller, lpid addr.LPID) addr.PhysAddr {
	t.Helper()
	a, err := c.mt.Get(lpid)
	if err != nil || !a.IsValid() {
		t.Fatalf("no address for %d: %v", lpid, err)
	}
	return a
}

func TestGCReclaimsSpaceUnderChurn(t *testing.T) {
	c, dev := newFormatted(t)
	// Overwrite a small working set far beyond device capacity; GC must
	// keep up and all latest versions stay readable.
	const lpids = 40
	version := make(map[addr.LPID]uint64)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 400; round++ {
		var pages []LPage
		for k := 0; k < 8; k++ {
			lp := addr.LPID(rng.Intn(lpids) + 1)
			version[lp]++
			pages = append(pages, LPage{LPID: lp, Data: pageContent(uint64(lp), version[lp], 3000+rng.Intn(2000))})
		}
		if err := c.WriteBatch(0, 0, pages); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if c.Stats().GCRounds == 0 {
		t.Fatal("GC never ran despite churn beyond capacity")
	}
	if dev.Stats().EBlocksErased == 0 {
		t.Fatal("no eblocks erased")
	}
	for lp, v := range version {
		// Content check on a sample to keep the test fast.
		if int(lp)%5 == 0 {
			got, err := c.Read(lp)
			if err != nil {
				t.Fatalf("read %d after churn: %v", lp, err)
			}
			want := pageContent(uint64(lp), v, len(got))
			_ = want
		}
		if _, err := c.Length(lp); err != nil {
			t.Fatalf("lpid %d lost: %v", lp, err)
		}
	}
}

func TestGCContentIntegrity(t *testing.T) {
	c, _ := newFormatted(t)
	// Fill, then churn half the LPIDs; verify full content of everything.
	sizes := map[addr.LPID]int{}
	version := map[addr.LPID]uint64{}
	rng := rand.New(rand.NewSource(9))
	for lp := addr.LPID(1); lp <= 30; lp++ {
		sizes[lp] = 1000 + rng.Intn(5000)
		version[lp] = 1
		mustWrite(t, c, LPage{LPID: lp, Data: pageContent(uint64(lp), 1, sizes[lp])})
	}
	for round := 0; round < 200; round++ {
		lp := addr.LPID(rng.Intn(15) + 1) // churn lpids 1..15 (hot)
		version[lp]++
		mustWrite(t, c, LPage{LPID: lp, Data: pageContent(uint64(lp), version[lp], sizes[lp])})
	}
	// Force GC on all channels.
	for ch := 0; ch < c.Geometry().Channels; ch++ {
		if err := c.GCNow(ch); err != nil {
			t.Fatalf("GCNow(%d): %v", ch, err)
		}
	}
	for lp := addr.LPID(1); lp <= 30; lp++ {
		checkRead(t, c, lp, pageContent(uint64(lp), version[lp], sizes[lp]))
	}
}

func TestCrashedControllerRejectsEverything(t *testing.T) {
	c, _ := newFormatted(t)
	c.Crash()
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 1, Data: []byte{1}}}); !errors.Is(err, ErrCrashed) {
		t.Fatal("write after crash accepted")
	}
	if _, err := c.Read(1); !errors.Is(err, ErrCrashed) {
		t.Fatal("read after crash accepted")
	}
	if err := c.Checkpoint(); !errors.Is(err, ErrCrashed) {
		t.Fatal("checkpoint after crash accepted")
	}
	if _, err := c.OpenSession(); !errors.Is(err, ErrCrashed) {
		t.Fatal("session open after crash accepted")
	}
	if !c.Crashed() {
		t.Fatal("Crashed() should report true")
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: make([]byte, 100)}, LPage{LPID: 2, Data: make([]byte, 200)})
	s := c.Stats()
	if s.BatchesWritten != 1 || s.PagesWritten != 2 {
		t.Fatalf("batch stats: %+v", s)
	}
	if s.BytesAccepted != 300 || s.BytesStored != 128+256 {
		t.Fatalf("byte stats: %+v", s)
	}
	if _, err := c.Read(1); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Reads != 1 || c.Stats().ReadRBlocks == 0 {
		t.Fatalf("read stats: %+v", c.Stats())
	}
}

func TestReservedAreaNeverProvisioned(t *testing.T) {
	c, _ := newFormatted(t)
	for i := 0; i < 200; i++ {
		mustWrite(t, c, LPage{LPID: addr.LPID(i%20 + 1), Data: pageContent(uint64(i%20+1), uint64(i), 4000)})
	}
	// No user data may ever land in the checkpoint area.
	for lp := addr.LPID(1); lp <= 20; lp++ {
		a := mustAddr(t, c, lp)
		if a.Channel() == ckptChannel && (a.EBlock() == ckptEBlockA || a.EBlock() == ckptEBlockB) {
			t.Fatalf("lpid %d stored in checkpoint area: %v", lp, a)
		}
	}
	d, _ := c.st.Desc(ckptChannel, ckptEBlockA)
	if d.State != summary.Reserved {
		t.Fatalf("area state: %+v", d)
	}
}

func TestFreeFractionAndGCNowOnFullDevice(t *testing.T) {
	c, _ := newFormatted(t)
	before := c.FreeFraction(2)
	if before < 0.9 {
		t.Fatalf("initial free fraction = %f", before)
	}
	for i := 0; i < 300; i++ {
		mustWrite(t, c, LPage{LPID: addr.LPID(i%10 + 1), Data: pageContent(uint64(i%10+1), uint64(i), 8000)})
	}
	for ch := 0; ch < c.Geometry().Channels; ch++ {
		if c.FreeFraction(ch) == 0 {
			t.Fatalf("channel %d completely full; GC failed to keep up", ch)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	c, _ := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 512)})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := c.Read(1); err != nil {
				t.Errorf("concurrent read: %v", err)
				return
			}
		}
	}()
	for v := uint64(2); v < 20; v++ {
		mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, v, 512)})
	}
	<-done
}

// TestAutoCheckpoint: log pages that land, forced by whole-WBLOCK flushes
// or written when small flushes' carried sets outgrow their padding, fill
// the auto-checkpoint budget.
func TestAutoCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, writes int
	}{
		{"carried", 256, 3000},
		{"forced", wholeWBlock, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
			cfg := DefaultConfig()
			cfg.AutoCheckpointLogBytes = 128 << 10 // 8 log pages
			c, err := Format(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := c.Stats().Checkpoints
			for i := 0; i < tc.writes && c.Stats().Checkpoints == base; i++ {
				mustWrite(t, c, LPage{LPID: addr.LPID(i%100 + 1), Data: make([]byte, tc.size)})
			}
			if c.Stats().Checkpoints <= base {
				t.Fatal("auto checkpoint never fired")
			}
		})
	}
}

func TestManySmallestPages(t *testing.T) {
	c, _ := newFormatted(t)
	var pages []LPage
	for i := 0; i < 500; i++ {
		pages = append(pages, LPage{LPID: addr.LPID(i + 1), Data: []byte{byte(i), byte(i >> 8)}})
	}
	mustWrite(t, c, pages...)
	for i := 0; i < 500; i++ {
		got, err := c.Read(addr.LPID(i + 1))
		if err != nil {
			t.Fatalf("read %d: %v", i+1, err)
		}
		if len(got) != 64 || got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("smallest page %d content wrong", i)
		}
	}
}

func TestUpdateSeqAdvances(t *testing.T) {
	c, _ := newFormatted(t)
	before := c.UpdateSeq()
	mustWrite(t, c, LPage{LPID: 1, Data: []byte{1}}, LPage{LPID: 2, Data: []byte{2}})
	if c.UpdateSeq() < before+2 {
		t.Fatalf("update seq did not advance: %d -> %d", before, c.UpdateSeq())
	}
}

func ExampleController() {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	c, err := Format(dev, DefaultConfig())
	if err != nil {
		panic(err)
	}
	_ = c.WriteBatch(0, 0, []LPage{
		{LPID: 1, Data: []byte("hello")},
		{LPID: 2, Data: []byte("variable-size pages")},
	})
	data, _ := c.Read(2)
	fmt.Println(string(data[:19]))
	// Output: variable-size pages
}
