package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/trace"
)

// GC erase protocol tests (DESIGN.md §4.1): erases are queued device
// commands a pass waits for with c.mu released, one cross-channel batch
// per round. All of these must pass `go test -race`.

const (
	gcEraseBatches  = 40   // full-width batches per version in deadEBlockController
	gcErasePageSize = 4000 // 32 of them fill 8 WBLOCKs of 16 KB
)

func gcEraseLPID(batch, i int) addr.LPID { return addr.LPID(batch*32 + i + 1) }

// gcErasePage is pageContent without the per-byte RNG, which dominates
// these tests' set-up under -race.
func gcErasePage(lp addr.LPID, version uint64) []byte {
	b := make([]byte, gcErasePageSize)
	for i := range b {
		b[i] = byte(uint64(lp)*31 + version*7 + uint64(i)*uint64(lp|1))
	}
	return b
}

// deadEBlockController formats an 8-channel device whose erase takes the
// given wall time once the test turns wall latency on, writes
// gcEraseBatches full-width batches and overwrites every page once, so
// each channel holds at least two Used EBLOCKs with nothing live in them.
// The GC threshold is set so low that no write triggers a pass by itself.
func deadEBlockController(t *testing.T, erase time.Duration) (*Controller, *flash.Device) {
	t.Helper()
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	lat := flash.Latency{ReadRBlock: 5 * time.Microsecond, ProgramWBlock: 20 * time.Microsecond, EraseEBlock: erase}
	dev := flash.MustNewDevice(geo, lat)
	t.Cleanup(dev.Close)
	cfg := testConfig()
	cfg.GCFreeFraction = 0.01
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	for version := uint64(1); version <= 2; version++ {
		for b := 0; b < gcEraseBatches; b++ {
			pages := make([]LPage, 32)
			for i := range pages {
				lp := gcEraseLPID(b, i)
				pages[i] = LPage{LPID: lp, Data: gcErasePage(lp, version)}
			}
			mustWrite(t, c, pages...)
		}
	}
	return c, dev
}

func checkDeadEBlockContent(t *testing.T, c *Controller) {
	t.Helper()
	for b := 0; b < gcEraseBatches; b++ {
		for i := 0; i < 32; i++ {
			lp := gcEraseLPID(b, i)
			checkRead(t, c, lp, gcErasePage(lp, 2))
		}
	}
}

// TestGCEraseReleasesLock: while a pass waits ~300 ms for its erase, a
// Read of a page on another channel and a one-WBLOCK WriteBatch whose
// program and log force avoid the erasing channel both finish — the
// controller lock is not held across the erase.
func TestGCEraseReleasesLock(t *testing.T) {
	const erase = 300 * time.Millisecond
	c, dev := deadEBlockController(t, erase)
	n := c.geo.Channels

	// One-WBLOCK batches go to successive channels: a probe tells where
	// the next one lands.
	probe := addr.LPID(1 << 20)
	probeData := gcErasePage(probe, 1)
	mustWrite(t, c, LPage{LPID: probe, Data: probeData})
	probeCh := mustAddr(t, c, probe).Channel()
	busy := map[int]bool{probeCh: true, (probeCh + 1) % n: true}
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream == record.StreamLog {
			busy[ref.Channel] = true
		}
	}
	gcCh := -1
	for ch := 0; ch < n; ch++ {
		if !busy[ch] {
			gcCh = ch
			break
		}
	}
	if gcCh < 0 {
		t.Fatal("no channel free of the probe, the next stripe and the log")
	}

	dev.SetWallLatencyScale(1)
	gcDone := make(chan error, 1)
	go func() { gcDone <- c.GCNow(gcCh) }()
	// InflightEBlocks takes c.mu: seeing the queued erase at all means the
	// pass has let go of it.
	for c.InflightEBlocks() == 0 {
		select {
		case err := <-gcDone:
			t.Fatalf("pass returned (%v) before its erase was seen in flight", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	start := time.Now()
	checkRead(t, c, probe, probeData)
	next := addr.LPID(1<<20 + 1)
	nextData := gcErasePage(next, 1)
	mustWrite(t, c, LPage{LPID: next, Data: nextData})
	took := time.Since(start)
	select {
	case err := <-gcDone:
		t.Fatalf("pass returned (%v) before the concurrent read and write did (%v)", err, took)
	default:
	}
	if ch := mustAddr(t, c, next).Channel(); ch == gcCh {
		t.Fatalf("test set-up: the concurrent write landed on the erasing channel %d", ch)
	}
	if err := <-gcDone; err != nil {
		t.Fatalf("GCNow: %v", err)
	}
	dev.SetWallLatencyScale(0)

	snap := c.MetricsSnapshot()
	if hv := snap.Histogram("core.gc.erase_wait_ns"); hv == nil || hv.Count != 1 || hv.Sum < int64(erase) {
		t.Fatalf("core.gc.erase_wait_ns = %+v, want one wait of at least %v", hv, erase)
	}
	if got := snap.Counter("core.erase_while_pinned"); got != 0 {
		t.Fatalf("core.erase_while_pinned = %d", got)
	}
	checkRead(t, c, next, nextData)
	checkDeadEBlockContent(t, c)
}

// TestGCPassErasesChannelsInParallel: a round's victims are one erase
// batch, so a pass over eight channels waits about one erase, not eight.
func TestGCPassErasesChannelsInParallel(t *testing.T) {
	const erase = 100 * time.Millisecond
	c, dev := deadEBlockController(t, erase)
	c.cfg.GCMaxRounds = 1
	before := c.Stats()
	dev.SetWallLatencyScale(1)
	start := time.Now()
	c.mu.Lock()
	err := c.gcPassLocked(-1, true)
	c.mu.Unlock()
	took := time.Since(start)
	dev.SetWallLatencyScale(0)
	if err != nil {
		t.Fatalf("pass: %v", err)
	}
	after := c.Stats()
	if freed := after.GCEBlocksFreed - before.GCEBlocksFreed; freed != int64(c.geo.Channels) {
		t.Fatalf("pass freed %d EBLOCKs, want one per channel (%d)", freed, c.geo.Channels)
	}
	if took < erase || took > 3*erase {
		t.Fatalf("pass over %d channels took %v; one overlapped round is about %v, serial erases %v",
			c.geo.Channels, took, erase, time.Duration(c.geo.Channels)*erase)
	}
	if hv := c.MetricsSnapshot().Histogram("core.gc.erase_wait_ns"); hv == nil || hv.Count != 1 {
		t.Fatalf("core.gc.erase_wait_ns = %+v, want one batch", hv)
	}
	checkDeadEBlockContent(t, c)
}

// TestGCThresholdPassJoinsDeadEBlocks pins §4 decision 11: when one
// channel falls below GCFreeFraction, the channels still under the 1.5×
// mark give up exactly their dead EBLOCKs — no relocation — in the same
// pass.
func TestGCThresholdPassJoinsDeadEBlocks(t *testing.T) {
	c, _ := deadEBlockController(t, 0)
	n, per := c.geo.Channels, c.geo.EBlocksPerChannel
	// Channel 0 carries the two reserved checkpoint EBLOCKs, so it has the
	// fewest free: put the threshold between it and the rest.
	minFree, nextFree := per, per
	for ch := 0; ch < n; ch++ {
		f := c.st.FreeCount(ch)
		if ch == 0 {
			minFree = f
		} else if f < nextFree {
			nextFree = f
		}
	}
	if minFree >= nextFree {
		t.Fatalf("test set-up: channel 0 has %d free, the others at least %d", minFree, nextFree)
	}
	c.cfg.GCFreeFraction = (float64(minFree) + 0.5) / float64(per)

	census := func(ch int) (used, dead int) {
		for _, eb := range c.st.UsedEBlocks(ch) {
			d, _ := c.st.Desc(ch, eb)
			if d.Stream == record.StreamLog {
				continue
			}
			used++
			if d.Avail >= uint64(d.DataWBlocks)*uint64(c.geo.WBlockBytes) {
				dead++
			}
		}
		return used, dead
	}
	usedBefore, deadBefore := make([]int, n), make([]int, n)
	for ch := 1; ch < n; ch++ {
		usedBefore[ch], deadBefore[ch] = census(ch)
		if deadBefore[ch] == 0 {
			t.Fatalf("test set-up: channel %d has no dead EBLOCK", ch)
		}
	}
	c.mu.Lock()
	ran := c.maybeGCLocked()
	c.mu.Unlock()
	if !ran {
		t.Fatal("no pass although channel 0 is under the threshold")
	}
	for ch := 1; ch < n; ch++ {
		used, deadNow := census(ch)
		if deadNow != 0 || used != usedBefore[ch]-deadBefore[ch] {
			t.Fatalf("channel %d: used %d→%d, dead %d→%d; a joining channel gives up its dead EBLOCKs and nothing else",
				ch, usedBefore[ch], used, deadBefore[ch], deadNow)
		}
	}
	if errs := c.MetricsSnapshot().Counter("core.gc.errors"); errs != 0 {
		t.Fatalf("core.gc.errors = %d", errs)
	}
	checkDeadEBlockContent(t, c)
}

// TestGCEraseFaultMarksBad: an injected erase fault comes back through
// the erase batch's result; the one erase path marks the EBLOCK bad, the
// pass reports and counts the error, and the controller keeps working.
func TestGCEraseFaultMarksBad(t *testing.T) {
	c, dev := deadEBlockController(t, 0)
	bad := func() int {
		n := 0
		for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
			if d, _ := c.st.Desc(3, eb); d.State == summary.Bad {
				n++
			}
		}
		return n
	}
	dev.FailNthErase(1)
	if err := c.GCNow(3); !errors.Is(err, flash.ErrEraseFailed) {
		t.Fatalf("GCNow = %v, want the injected erase failure", err)
	}
	if got := bad(); got != 1 {
		t.Fatalf("%d bad EBLOCKs on channel 3 after a failed erase, want 1", got)
	}
	snap := c.MetricsSnapshot()
	if got := snap.Counter("core.gc.errors"); got != 1 {
		t.Fatalf("core.gc.errors = %d, want 1", got)
	}
	if got := snap.Counter("flash.erase_failures"); got != 1 {
		t.Fatalf("flash.erase_failures = %d, want 1", got)
	}
	if err := c.GCNow(3); err != nil {
		t.Fatalf("GCNow after the fault: %v", err)
	}
	if c.InflightEBlocks() != 0 || c.PinnedEBlocks() != 0 {
		t.Fatalf("inflight %d pinned %d after the passes", c.InflightEBlocks(), c.PinnedEBlocks())
	}
	checkDeadEBlockContent(t, c)
}

// TestCrashAfterEraseBeforeFree: the controller dies after the media
// erase but before FreeEBlock is logged. Open recovers, every
// acknowledged page is byte-exact, and GC collects the EBLOCK again.
func TestCrashAfterEraseBeforeFree(t *testing.T) {
	c, dev := deadEBlockController(t, 0)
	const ch = 5
	c.SetCrashPoint("gc.after-erase")
	if err := c.GCNow(ch); !errors.Is(err, ErrCrashed) {
		t.Fatalf("GCNow = %v, want a crash at gc.after-erase", err)
	}
	// The victim is the Used EBLOCK the media says is erased.
	victim := -1
	for _, eb := range c.st.UsedEBlocks(ch) {
		if d, _ := c.st.Desc(ch, eb); d.Stream == record.StreamLog {
			continue
		}
		if pos, _ := dev.NextProgramPosition(ch, eb); pos == 0 {
			victim = eb
		}
	}
	if victim < 0 {
		t.Fatal("no erased-but-Used EBLOCK after the crash")
	}

	c2, err := Open(dev, c.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkDeadEBlockContent(t, c2)
	if d, _ := c2.st.Desc(ch, victim); d.State != summary.Used {
		t.Fatalf("recovered state of (%d,%d) = %v, want Used (its free record was never logged)", ch, victim, d.State)
	}
	freed := false
	for i := 0; i < c2.geo.EBlocksPerChannel && !freed; i++ {
		if err := c2.GCNow(ch); err != nil {
			t.Fatalf("GCNow after recovery: %v", err)
		}
		d, _ := c2.st.Desc(ch, victim)
		freed = d.State != summary.Used
	}
	if !freed {
		t.Fatalf("(%d,%d) was never collected again", ch, victim)
	}
	if got := c2.Stats().GCMetaUnreadable; got == 0 {
		t.Fatal("the erased EBLOCK was collected without meeting its unreadable metadata")
	}
	checkDeadEBlockContent(t, c2)
}

// TestErasingEBlockIsExclusive: writers, readers, forced passes on every
// channel and checkpoints race with erases that take real time. An
// erasing EBLOCK is never selected, provisioned or erased twice:
// core.erase_while_pinned stays 0, no program fails (a program into an
// erasing or unerased EBLOCK would), and every page reads back.
func TestErasingEBlockIsExclusive(t *testing.T) {
	geo := flash.Geometry{
		Channels: 4, EBlocksPerChannel: 24,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{EraseEBlock: 2 * time.Millisecond})
	t.Cleanup(dev.Close)
	cfg := testConfig()
	cfg.GCFreeFraction = 0.25
	cfg.AutoCheckpointLogBytes = 1 << 20
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	dev.SetWallLatencyScale(1)

	const writers, batches = 4, 120
	sids := make([]uint64, writers)
	for w := range sids {
		if sids[w], err = c.OpenSession(); err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for ch := 0; ch < geo.Channels; ch++ {
		bg.Add(1)
		go func(ch int) {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if ch == 0 && i%4 == 3 {
					err = c.Checkpoint()
				} else {
					err = c.GCNow(ch)
				}
				if err != nil {
					t.Errorf("background channel %d: %v", ch, err)
					return
				}
			}
		}(ch)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Read(stressChurnLPID(i % writers)); err != nil && !IsNotFound(err) {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()
	acked := runStressWriters(t, c, sids, batches)
	close(stop)
	bg.Wait()
	dev.SetWallLatencyScale(0)

	snap := c.MetricsSnapshot()
	if got := snap.Counter("core.erase_while_pinned"); got != 0 {
		t.Fatalf("core.erase_while_pinned = %d", got)
	}
	if got := snap.Counter("flash.program_failures"); got != 0 {
		t.Fatalf("flash.program_failures = %d", got)
	}
	if got := snap.Counter("core.gc.errors"); got != 0 {
		t.Fatalf("core.gc.errors = %d", got)
	}
	if c.InflightEBlocks() != 0 || c.PinnedEBlocks() != 0 {
		t.Fatalf("inflight %d pinned %d after quiesce", c.InflightEBlocks(), c.PinnedEBlocks())
	}
	if st := dev.Stats(); st.EraseAttempts != st.EBlocksErased || st.EBlocksErased == 0 {
		t.Fatalf("device erases: %d attempts, %d erased", st.EraseAttempts, st.EBlocksErased)
	}
	for w := range sids {
		if acked[w] != batches {
			t.Fatalf("writer %d acked %d/%d batches", w, acked[w], batches)
		}
		for wsn := uint64(1); wsn <= batches; wsn++ {
			lpid := stressLPID(w, wsn)
			size := 200 + int((uint64(w)*131+wsn*97)%1800)
			checkRead(t, c, lpid, pageContent(uint64(lpid), wsn, size))
		}
		churn := stressChurnLPID(w)
		checkRead(t, c, churn, pageContent(uint64(churn), batches, 8000))
	}
}

// TestNoSpaceWriterWaitsForPass: two writers overwrite a live set that
// nearly fills a small device while erases take real time, so one runs
// out of space while the other's pass has the lock released. It must wait
// for that pass and retry, not fail: every flush is acknowledged.
func TestNoSpaceWriterWaitsForPass(t *testing.T) {
	geo := flash.Geometry{
		Channels: 2, EBlocksPerChannel: 12,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{EraseEBlock: time.Millisecond})
	t.Cleanup(dev.Close)
	cfg := testConfig()
	cfg.AutoCheckpointLogBytes = 256 << 10
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	// 2 writers × 100 pages × 8 KB = 1.6 MB live on 6 MB raw, of which the
	// checkpoint area, the GC reserve, two log EBLOCKs and the open user
	// and GC EBLOCKs take about 2 MB: the rest is garbage waiting for GC.
	const writers, livePages, rounds, pageSize = 2, 100, 12, 8000
	lpid := func(w, i int) addr.LPID { return addr.LPID(w*1000 + i + 1) }
	dev.SetWallLatencyScale(1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				for i := 0; i < livePages; i += 4 {
					pages := make([]LPage, 4)
					for k := range pages {
						lp := lpid(w, i+k)
						pages[k] = LPage{LPID: lp, Data: pageContent(uint64(lp), uint64(r), pageSize)}
					}
					if err := c.WriteBatch(0, 0, pages); err != nil {
						t.Errorf("writer %d round %d page %d: %v", w, r, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	dev.SetWallLatencyScale(0)
	if t.Failed() {
		return
	}
	if c.Stats().GCEBlocksFreed == 0 {
		t.Fatal("test needs GC activity to be meaningful")
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < livePages; i++ {
			lp := lpid(w, i)
			checkRead(t, c, lp, pageContent(uint64(lp), rounds, pageSize))
		}
	}
}

// TestMaintainSpanExplainsInstallToAck: the flush that triggers a GC pass
// waits for it between its install and its ack; a KMaintain span under
// that flush's trace ID covers the wait.
func TestMaintainSpanExplainsInstallToAck(t *testing.T) {
	c, _ := deadEBlockController(t, 0)
	c.cfg.GCFreeFraction = 0.99 // the next flush triggers a pass
	before := c.Stats().GCEBlocksFreed
	lp := addr.LPID(1 << 20)
	mustWrite(t, c, LPage{LPID: lp, Data: gcErasePage(lp, 1)})
	if c.Stats().GCEBlocksFreed == before {
		t.Fatal("the flush triggered no GC")
	}
	var install, maintain *trace.Event
	evs := c.TraceDump().Events
	for i := range evs {
		switch evs[i].Kind {
		case trace.KInstall:
			install = &evs[i]
		case trace.KMaintain:
			maintain = &evs[i]
		}
	}
	if install == nil || maintain == nil {
		t.Fatalf("install span %v, maintain span %v", install, maintain)
	}
	if maintain.TraceID == 0 || maintain.TraceID != install.TraceID {
		t.Fatalf("maintain span trace ID %d, triggering flush's %d", maintain.TraceID, install.TraceID)
	}
	if maintain.TS < install.TS+install.Dur || maintain.Dur <= 0 {
		t.Fatalf("maintain span [%d,+%d] does not follow install [%d,+%d]", maintain.TS, maintain.Dur, install.TS, install.Dur)
	}
}
