package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/wal"
)

// TestWearLevelling verifies that free-EBLOCK selection (lowest erase
// count first) keeps erase wear spread across EBLOCKs under heavy churn.
func TestWearLevelling(t *testing.T) {
	c, dev := newFormatted(t)
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 600; round++ {
		var pages []LPage
		for k := 0; k < 6; k++ {
			lp := addr.LPID(rng.Intn(20) + 1)
			pages = append(pages, LPage{LPID: lp, Data: pageContent(uint64(lp), uint64(round), 4000)})
		}
		mustWrite(t, c, pages...)
	}
	g := c.Geometry()
	var min, max, erased int
	min = 1 << 30
	for ch := 0; ch < g.Channels; ch++ {
		for eb := 0; eb < g.EBlocksPerChannel; eb++ {
			if ch == ckptChannel && (eb == ckptEBlockA || eb == ckptEBlockB) {
				continue
			}
			n, err := dev.EraseCount(ch, eb)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				erased++
			}
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
	}
	if max == 0 {
		t.Fatal("no erases at all; churn insufficient")
	}
	// Wear must be spread: the most-worn EBLOCK should not dominate while
	// most blocks are untouched.
	if erased < g.Channels*g.EBlocksPerChannel/3 {
		t.Fatalf("only %d eblocks ever erased (max wear %d): wear levelling failed", erased, max)
	}
	if max > min+12 {
		t.Fatalf("wear spread too wide: min=%d max=%d", min, max)
	}
}

// TestLogProgramFailuresDuringOperation injects failures on upcoming log
// slots; the forward-pointer failover must keep the log alive, and the
// device must still recover afterwards. Small pages carry their commits, so
// a log page lands only when the carried set outgrows a flush's padding
// (or GC forces), and re-carries what the trailers held; a whole-WBLOCK
// page forces one per flush.
func TestLogProgramFailuresDuringOperation(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, rounds int
	}{
		{"carried", 1200, 1200},
		{"forced", wholeWBlock, 120},
	} {
		t.Run(tc.name, func(t *testing.T) { logProgramFailures(t, tc.size, tc.rounds) })
	}
}

func logProgramFailures(t *testing.T, size, rounds int) {
	c, dev := newFormatted(t)
	version := map[addr.LPID]uint64{}
	rng := rand.New(rand.NewSource(37))
	failures, armed := 0, int64(-3)
	for round := 0; round < rounds; round++ {
		if round%17 == 5 && c.log.Stats().PageWrites >= armed+3 {
			// Fail the next log-page program wherever the cursor is, once
			// three pages landed since the last: three failed programs in a
			// row kill the log by design (§VIII-A).
			ch, eb, wb := c.prov.LogCursor()
			if eb >= 0 && wb < c.geo.WBlocksPerEBlock() {
				if next, _ := dev.NextProgramPosition(ch, eb); wb >= next {
					dev.FailNextProgram(ch, eb, wb)
					failures++
					armed = c.log.Stats().PageWrites
				}
			}
		}
		lp := addr.LPID(rng.Intn(15) + 1)
		version[lp]++
		if err := c.WriteBatch(0, 0, []LPage{{LPID: lp, Data: pageContent(uint64(lp), version[lp], size)}}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if failures == 0 {
		t.Skip("no failures injected")
	}
	if dev.Stats().WriteFailures == 0 {
		t.Fatal("injected failures never fired")
	}
	t.Logf("%d log programs failed, %d pages landed", dev.Stats().WriteFailures, c.log.Stats().PageWrites)
	// Everything still readable, and recovery still works.
	c.Crash()
	c2 := reopen(t, dev)
	for lp, v := range version {
		checkRead(t, c2, lp, pageContent(uint64(lp), v, size))
	}
}

// TestCheckpointAreaFailover verifies checkpointing survives a program
// failure inside the reserved checkpoint area.
func TestCheckpointAreaFailover(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 500)})
	// Fail the next checkpoint-area program at the current cursor.
	dev.FailNextProgram(ckptChannel, c.ckptEB, c.ckptWB)
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint should fail over to the other area eblock: %v", err)
	}
	// Recovery must find the new record.
	c.Crash()
	c2 := reopen(t, dev)
	checkRead(t, c2, 1, pageContent(1, 1, 500))
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationAdvances: a checkpoint closes the GC EBLOCKs open since
// before the previous one (§VIII-B) and truncates past their open LSNs in
// the same call: the EBLOCKs it closes do not count in the minimum.
func TestTruncationAdvances(t *testing.T) {
	c, _, _ := halfDeadController(t, 600, 1)
	// A relocation opens a GC EBLOCK, which no later write fills: it would
	// pin the truncation LSN forever.
	if err := c.GCNow(sysGCChannel); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var gc []summary.OpenRef
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream == record.StreamGC && ref.OpenLSN != 0 && ref.OpenLSN < c.lastCkptLSN {
			gc = append(gc, ref)
		}
	}
	if len(gc) == 0 {
		t.Fatal("no GC EBLOCK open across the checkpoint")
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, ref := range gc {
		if d, _ := c.st.Desc(ref.Channel, ref.EBlock); d.State != summary.Used {
			t.Errorf("GC EBLOCK (%d,%d) is %v after the checkpoint, want used", ref.Channel, ref.EBlock, d.State)
		}
		if c.lastTruncLSN <= ref.OpenLSN {
			t.Errorf("truncation LSN %d does not pass the open LSN %d of the GC EBLOCK (%d,%d) it closed", c.lastTruncLSN, ref.OpenLSN, ref.Channel, ref.EBlock)
		}
	}
}

// TestCheckpointTruncatesToItself: a quiescent checkpoint takes its
// truncation LSN after its table flush, so the log keeps nothing written
// before the call but what a still-open user or GC EBLOCK needs. Taken
// before the flush, the oldest dirty page held it near the previous
// checkpoint.
func TestCheckpointTruncatesToItself(t *testing.T) {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	cfg := DefaultConfig()
	cfg.AutoCheckpointLogBytes = 1 << 20
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiescentLoad(t, c, 1, 1500)
	if c.met.gcRounds.Value() == 0 || c.met.checkpoints.Value() == 0 {
		t.Fatalf("%d GC rounds, %d checkpoints: the load should run both", c.met.gcRounds.Value(), c.met.checkpoints.Value())
	}
	c.mu.Lock()
	want := c.log.NextLSN()
	c.mu.Unlock()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream != record.StreamLog && ref.OpenLSN != 0 && ref.OpenLSN < want {
			want = ref.OpenLSN
		}
	}
	if c.lastTruncLSN < want {
		t.Fatalf("truncation LSN %d, want at least %d: the log keeps %d records written before the checkpoint",
			c.lastTruncLSN, want, want-c.lastTruncLSN)
	}
}

// TestTruncationPassesOpenLogEBlock: an open log EBLOCK does not pin the
// truncation LSN (checkpointLocked skips it), so a checkpoint may
// truncate past the LSN it opened at. Nothing the log still needs goes: the
// checkpoint starts the chain at the page holding the truncation LSN, and a
// log EBLOCK is reclaimed only once retired with every page it holds below
// that LSN. Whole-WBLOCK flushes force a log page each; after every few, a
// checkpoint and a GC pass that reclaims what it truncated, and after every
// fifth such pass a crash, and Open reads every version back.
func TestTruncationPassesOpenLogEBlock(t *testing.T) {
	c, dev := newFormatted(t)
	w := c.geo.WBlockBytes
	version := map[addr.LPID]uint64{}
	passed, reclaimed := 0, int64(0)
	for round := 1; round <= 90; round++ {
		lp := addr.LPID(round%7 + 1)
		version[lp]++
		mustWrite(t, c, LPage{LPID: lp, Data: pageContent(uint64(lp), version[lp], w)})
		if round%6 != 0 {
			continue
		}
		c.mu.Lock()
		freed := c.met.gcFreed.Value()
		c.gcAllLocked() // a checkpoint, then every truncated log EBLOCK reclaimed
		reclaimed += c.met.gcFreed.Value() - freed
		for _, ref := range c.st.OpenEBlocks() {
			if ref.Stream == record.StreamLog && ref.OpenLSN != 0 && ref.OpenLSN < c.lastTruncLSN {
				passed++
			}
		}
		c.mu.Unlock()
		if round%30 != 0 {
			continue
		}
		c.Crash()
		c = reopen(t, dev)
		for lp, v := range version {
			checkRead(t, c, lp, pageContent(uint64(lp), v, w))
		}
	}
	if passed == 0 || reclaimed == 0 {
		t.Fatalf("%d checkpoints truncated past an open log EBLOCK's open LSN, %d EBLOCKs reclaimed", passed, reclaimed)
	}
}

// TestMultiSessionInterleaving runs several sessions from separate
// goroutines, presenting WSNs in order per session; all must apply and the
// per-session final states must reflect their own last writes.
func TestMultiSessionInterleaving(t *testing.T) {
	c, _ := newFormatted(t)
	const sessions = 4
	const writes = 12
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	sids := make([]uint64, sessions)
	for i := 0; i < sessions; i++ {
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
	}
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := addr.LPID(1000 * (i + 1))
			for w := uint64(1); w <= writes; w++ {
				err := c.WriteBatch(sids[i], w, []LPage{{LPID: base, Data: pageContent(uint64(base), w, 300)}})
				if err != nil {
					errs <- fmt.Errorf("session %d wsn %d: %w", i, w, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sessions; i++ {
		high, err := c.SessionHighestWSN(sids[i])
		if err != nil || high != writes {
			t.Fatalf("session %d highest = %d (%v)", i, high, err)
		}
		checkRead(t, c, addr.LPID(1000*(i+1)), pageContent(uint64(1000*(i+1)), writes, 300))
	}
}

// TestGCPoliciesIntegrity churns until GC reclaims under the
// minimum-cost-decline victim rule and verifies every page's content
// afterwards.
func TestGCPoliciesIntegrity(t *testing.T) {
	t.Run("min-cost-decline", func(t *testing.T) {
		dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
		cfg := DefaultConfig()
		cfg.GCMaxRounds = 32
		c, err := Format(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		version := map[addr.LPID]uint64{}
		rng := rand.New(rand.NewSource(43))
		for round := 0; round < 1000; round++ {
			lp := addr.LPID(rng.Intn(25) + 1)
			version[lp]++
			if err := c.WriteBatch(0, 0, []LPage{{LPID: lp, Data: pageContent(uint64(lp), version[lp], 3500)}}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if c.Stats().GCEBlocksFreed == 0 {
			t.Fatal("GC never freed")
		}
		for lp, v := range version {
			checkRead(t, c, lp, pageContent(uint64(lp), v, 3500))
		}
	})
}

// TestInvariantMappingPointsAtReadableData is a whole-device invariant
// check after a mixed workload: every mapped LPID's physical address must
// fall inside a used or open EBLOCK and be readable with matching length.
func TestInvariantMappingPointsAtReadableData(t *testing.T) {
	c, _ := newFormatted(t)
	rng := rand.New(rand.NewSource(47))
	lpids := map[addr.LPID]int{}
	for round := 0; round < 300; round++ {
		lp := addr.LPID(rng.Intn(40) + 1)
		size := 64 * (1 + rng.Intn(60))
		lpids[lp] = size
		mustWrite(t, c, LPage{LPID: lp, Data: pageContent(uint64(lp), uint64(round), size)})
	}
	for ch := 0; ch < c.Geometry().Channels; ch++ {
		_ = c.GCNow(ch)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for lp, size := range lpids {
		a, err := c.mt.Get(lp)
		if err != nil || !a.IsValid() {
			t.Fatalf("lpid %d unmapped: %v", lp, err)
		}
		if a.Length() != addr.AlignUp(size) {
			t.Fatalf("lpid %d length %d, want %d", lp, a.Length(), addr.AlignUp(size))
		}
		d, err := c.st.Desc(a.Channel(), a.EBlock())
		if err != nil {
			t.Fatal(err)
		}
		if d.State != summary.Used && d.State != summary.Open {
			t.Fatalf("lpid %d points into %v eblock (%d,%d)", lp, d.State, a.Channel(), a.EBlock())
		}
		if _, err := c.Read(lp); err != nil {
			t.Fatalf("lpid %d unreadable: %v", lp, err)
		}
	}
}

// TestStaleWSNAfterSessionReopenFails ensures sessions cannot be confused
// across close boundaries.
func TestStaleWSNAfterSessionReopenFails(t *testing.T) {
	c, _ := newFormatted(t)
	sid, _ := c.OpenSession()
	if err := c.WriteBatch(sid, 1, []LPage{{LPID: 1, Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	// The SID is gone; reusing it must fail rather than silently reset.
	err := c.WriteBatch(sid, 2, []LPage{{LPID: 2, Data: []byte{2}}})
	if err == nil {
		t.Fatal("write on closed session accepted")
	}
}

// TestEraseLimitMarksBad drives EBLOCKs past their erase limit via GC and
// verifies they are retired rather than reused, with no committed data lost.
// The churn runs until the first EBLOCK goes bad and a little further.
func TestEraseLimitMarksBad(t *testing.T) {
	g := flash.SmallGeometry()
	g.EraseLimit = 3
	dev := flash.MustNewDevice(g, flash.Latency{})
	cfg := DefaultConfig()
	// A log page lands whenever a flush's records outgrow its padding:
	// without checkpoints to truncate it the log fills the device long
	// before any EBLOCK wears out.
	cfg.AutoCheckpointLogBytes = 1 << 20
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// countBad counts the worn-out EBLOCKs and requires each to be retired:
	// Bad in the summary, so never handed out again.
	countBad := func() (bad int) {
		for ch := 0; ch < g.Channels; ch++ {
			for eb := 0; eb < g.EBlocksPerChannel; eb++ {
				if isBad, _ := dev.IsBad(ch, eb); isBad {
					bad++
					if d, _ := c.st.Desc(ch, eb); d.State != summary.Bad {
						t.Fatalf("worn-out EBLOCK (%d,%d) is %v", ch, eb, d.State)
					}
				}
			}
		}
		return bad
	}
	version := map[addr.LPID]uint64{}
	rng := rand.New(rand.NewSource(53))
	after := -1 // rounds left once an EBLOCK went bad
	for round := 0; round < 20000 && after != 0; round++ {
		lp := addr.LPID(rng.Intn(10) + 1)
		version[lp]++
		err := c.WriteBatch(0, 0, []LPage{{LPID: lp, Data: pageContent(uint64(lp), version[lp], 4000)}})
		if err != nil && !errors.Is(err, ErrWriteFailed) { // migrations handle transient failures
			t.Fatalf("round %d: %v", round, err)
		}
		if err != nil {
			version[lp]--
		}
		if after > 0 {
			after--
		} else if after < 0 && round%100 == 0 && countBad() > 0 {
			t.Logf("first bad EBLOCK by round %d", round)
			after = 200
		}
	}
	if countBad() == 0 {
		t.Fatal("erase limit never reached in 20 000 rounds")
	}
	// All committed data still readable.
	for lp, v := range version {
		checkRead(t, c, lp, pageContent(uint64(lp), v, 4000))
	}
}

// killLog forces the log while every program fails: the page's home slot
// and both forward candidates are exhausted (the §VIII-A shutdown case) and
// every later append returns wal.ErrLogDead. The controller must have
// unforced records buffered, which any committed write leaves behind.
func killLog(t *testing.T, c *Controller, dev *flash.Device) {
	t.Helper()
	dev.SetFailureProbability(1.0, 1)
	c.mu.Lock()
	err := c.forceLog()
	c.mu.Unlock()
	dev.SetFailureProbability(0, 0)
	if !errors.Is(err, wal.ErrLogDead) || !c.log.Dead() {
		t.Fatalf("force under failing programs = %v, log dead %v", err, c.log.Dead())
	}
}

// TestLogDeathAbortsRelocation: a relocation whose init-phase logging fails
// after its plan was provisioned aborts like a user write in the same spot —
// no active-table entry left to pin truncation, the plan's bytes counted
// reclaimable, core.aborted_actions moved — and the pass reports the error
// and leaves the victim alone: not erased, every page still readable.
func TestLogDeathAbortsRelocation(t *testing.T) {
	c, dev, version := halfDeadController(t, 600, 1)
	c.mu.Lock()
	victim, ok := c.selectVictimLocked(0, false)
	c.mu.Unlock()
	if !ok {
		t.Fatal("no victim on channel 0")
	}
	killLog(t, c, dev)
	before, erases := c.Stats(), dev.Stats().EraseAttempts

	if err := c.GCNow(0); !errors.Is(err, wal.ErrLogDead) {
		t.Fatalf("GCNow on a dead log = %v, want wal.ErrLogDead", err)
	}
	if n := c.ActiveActions(); n != 0 {
		t.Errorf("%d actions left in the active table", n)
	}
	after := c.Stats()
	if after.AbortedActions != before.AbortedActions+1 || after.GCBytesRead == before.GCBytesRead {
		t.Errorf("aborted actions %d -> %d, gc bytes read %d -> %d: want one abort after the victim was read",
			before.AbortedActions, after.AbortedActions, before.GCBytesRead, after.GCBytesRead)
	}
	if after.GCPagesMoved != before.GCPagesMoved || after.GCEBlocksFreed != before.GCEBlocksFreed || dev.Stats().EraseAttempts != erases {
		t.Errorf("the failed pass moved, freed or erased something: %+v", after)
	}
	if d, err := c.st.Desc(0, victim); err != nil || d.State != summary.Used {
		t.Errorf("victim (0,%d) is %v after the failed pass (%v), want used", victim, d.State, err)
	}
	checkRelocContent(t, c, version, 1)
}

// TestLogDeathAbortsCheckpoint: the same exit in the third copy of the
// action skeleton. A table flush whose init-phase logging fails aborts — no
// active-table entry left, core.aborted_actions moved, and every byte its
// plan provisioned counted reclaimable, so the bytes the summary table holds
// live do not change — and committed data stays readable.
func TestLogDeathAbortsCheckpoint(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 500)})
	killLog(t, c, dev)
	// ledger sums, over every EBLOCK, the bytes provisioned for data and
	// the bytes of them still held live (not AVAIL).
	ledger := func() (provisioned, live int64) {
		for ch := 0; ch < c.geo.Channels; ch++ {
			for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
				d, err := c.st.Desc(ch, eb)
				if err != nil {
					t.Fatal(err)
				}
				provisioned += int64(d.DataWBlocks) * int64(c.geo.WBlockBytes)
				live += int64(d.DataWBlocks)*int64(c.geo.WBlockBytes) - int64(d.Avail)
			}
		}
		return provisioned, live
	}
	before := c.Stats()
	provBefore, liveBefore := ledger()

	c.mu.Lock()
	err := c.flushTablesLocked(false, nil)
	c.mu.Unlock()
	if !errors.Is(err, wal.ErrLogDead) {
		t.Fatalf("table flush on a dead log = %v, want wal.ErrLogDead", err)
	}
	if n := c.ActiveActions(); n != 0 {
		t.Errorf("%d actions left in the active table", n)
	}
	if after := c.Stats(); after.AbortedActions != before.AbortedActions+1 {
		t.Errorf("aborted actions %d -> %d, want one abort", before.AbortedActions, after.AbortedActions)
	}
	provAfter, liveAfter := ledger()
	if provAfter == provBefore || liveAfter != liveBefore {
		t.Errorf("provisioned bytes %d -> %d, live bytes %d -> %d: the failed plan must have provisioned something and all of it must be AVAIL",
			provBefore, provAfter, liveBefore, liveAfter)
	}
	checkRead(t, c, 1, pageContent(1, 1, 500))
}

// TestLogDeathLeavesReadsWorking exhausts all three forward candidates of
// a log page (the §VIII-A shutdown case): writes must fail cleanly while
// reads keep working, before and after recovery. The commit page is forced
// beside the data programs, so one write under failing programs is enough
// to kill the log.
func TestLogDeathLeavesReadsWorking(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 500)})

	dev.SetFailureProbability(1.0, 1)
	err := c.WriteBatch(0, 0, []LPage{{LPID: 2, Data: pageContent(2, 1, 200)}})
	dev.SetFailureProbability(0, 0)
	if err == nil || !c.log.Dead() {
		t.Fatalf("write under failing programs = %v, log dead %v", err, c.log.Dead())
	}
	// Writes now fail...
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 3, Data: []byte{1}}}); err == nil {
		t.Fatal("write succeeded on a dead log")
	}
	// ...but committed data stays readable, and survives recovery, which
	// takes nothing of the write that died.
	checkRead(t, c, 1, pageContent(1, 1, 500))
	c.Crash()
	c2 := reopen(t, dev)
	checkRead(t, c2, 1, pageContent(1, 1, 500))
	if _, err := c2.Read(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read(2) after recovery = %v, want ErrNotFound", err)
	}
}

// TestRecoveryFromDeadLogWritable holds a known defect (ROADMAP item 1(c)):
// recovery should bring back a writable controller, and after a log death it
// does not — it resumes the log on forward candidates inside EBLOCKs the
// failed programs left disabled. The test is on CI's skip allow-list, so the
// change that fixes recovery stops it skipping and has to delete its line.
func TestRecoveryFromDeadLogWritable(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 500)})
	killLog(t, c, dev)
	c.Crash()
	c2 := reopen(t, dev)
	if err := c2.WriteBatch(0, 0, []LPage{{LPID: 4, Data: pageContent(4, 1, 100)}}); err != nil {
		t.Skipf("known defect, ROADMAP item 1(c): first write after recovering from a dead log: %v", err)
	}
	checkRead(t, c2, 4, pageContent(4, 1, 100))
}
