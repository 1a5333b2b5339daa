package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
)

// Concurrent write-path stress tests: many writer goroutines, each with
// its own durable session, pipelining batches through the controller while
// GC and auto-checkpointing run. All of these must pass `go test -race`.

const (
	stressWriters     = 8
	stressLPIDsPerSID = 1 << 20 // LPID space per writer
)

// stressLPID returns writer w's unique LPID for its wsn'th batch.
func stressLPID(w int, wsn uint64) addr.LPID {
	return addr.LPID(uint64(w+1)*stressLPIDsPerSID + wsn)
}

// stressChurnLPID is writer w's constantly-overwritten page (GC fodder).
func stressChurnLPID(w int) addr.LPID {
	return addr.LPID(uint64(w+1) * stressLPIDsPerSID)
}

// stressBatch builds writer w's wsn'th batch: one unique page plus one
// overwrite of the writer's churn page, variable sizes.
func stressBatch(w int, wsn uint64) []LPage {
	size := 200 + int((uint64(w)*131+wsn*97)%1800)
	return []LPage{
		{LPID: stressLPID(w, wsn), Data: pageContent(uint64(stressLPID(w, wsn)), wsn, size)},
		{LPID: stressChurnLPID(w), Data: pageContent(uint64(stressChurnLPID(w)), wsn, 8000)},
	}
}

func stressController(t *testing.T) (*Controller, *flash.Device) {
	t.Helper()
	geo := flash.Geometry{
		Channels: 4, EBlocksPerChannel: 24,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	cfg := DefaultConfig()
	cfg.GCFreeFraction = 0.25 // enough pressure that GC runs during the test
	cfg.AutoCheckpointLogBytes = 1 << 20
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return c, dev
}

// runStressWriters starts one goroutine per session writing batches in WSN
// order until its batch count is exhausted or the controller crashes. It
// returns per-writer highest WSN successfully acknowledged.
func runStressWriters(t *testing.T, c *Controller, sids []uint64, batches uint64) []uint64 {
	t.Helper()
	acked := make([]uint64, len(sids))
	errs := make(chan error, len(sids))
	var wg sync.WaitGroup
	for w := range sids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for wsn := uint64(1); wsn <= batches; wsn++ {
				err := c.WriteBatch(sids[w], wsn, stressBatch(w, wsn))
				if errors.Is(err, ErrCrashed) {
					return
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d wsn %d: %v", w, wsn, err)
					return
				}
				acked[w] = wsn
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return acked
}

// TestConcurrentSessions runs the full pipeline with GC and checkpoints on
// and verifies every acknowledged batch afterwards.
func TestConcurrentSessions(t *testing.T) {
	c, _ := stressController(t)
	sids := make([]uint64, stressWriters)
	for w := range sids {
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		sids[w] = sid
	}
	const batches = 150
	acked := runStressWriters(t, c, sids, batches)

	st := c.Stats()
	if st.GCRounds == 0 {
		t.Logf("note: GC never triggered (rounds=0, freed=%d)", st.GCEBlocksFreed)
	}
	for w, sid := range sids {
		if acked[w] != batches {
			t.Fatalf("writer %d acked %d/%d batches", w, acked[w], batches)
		}
		high, err := c.SessionHighestWSN(sid)
		if err != nil {
			t.Fatalf("SessionHighestWSN(%d): %v", sid, err)
		}
		if high != batches {
			t.Fatalf("session %d highest WSN %d, want %d", sid, high, batches)
		}
		for wsn := uint64(1); wsn <= batches; wsn++ {
			lpid := stressLPID(w, wsn)
			size := 200 + int((uint64(w)*131+wsn*97)%1800)
			checkRead(t, c, lpid, pageContent(uint64(lpid), wsn, size))
		}
		churn := stressChurnLPID(w)
		checkRead(t, c, churn, pageContent(uint64(churn), batches, 8000))
	}
	// A duplicate WSN must be re-ACKed without re-applying.
	if err := c.WriteBatch(sids[0], 3, stressBatch(0, 3)); err != nil {
		t.Fatalf("stale WSN replay: %v", err)
	}
}

// TestConcurrentCrashRecovery crashes the controller while the writer
// fleet is mid-flight, recovers, and verifies that exactly each session's
// committed prefix survived: everything at or below the recovered highest
// WSN readable with the right content, everything above it absent.
func TestConcurrentCrashRecovery(t *testing.T) {
	c, dev := stressController(t)
	sids := make([]uint64, stressWriters)
	for w := range sids {
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		sids[w] = sid
	}

	// Pull the plug while the fleet is running. The writers stop on
	// ErrCrashed; Wait below joins them all before recovery starts.
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		time.Sleep(5 * time.Millisecond)
		c.Crash()
	}()
	acked := runStressWriters(t, c, sids, 400)
	<-crashDone
	if !c.Crashed() {
		t.Fatal("controller did not crash")
	}

	c2, err := Open(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	for w, sid := range sids {
		high, err := c2.SessionHighestWSN(sid)
		if err != nil {
			t.Fatalf("SessionHighestWSN(%d): %v", sid, err)
		}
		// The committed prefix can run at most one batch ahead of the acks
		// (a commit can be durable before WriteBatch returns), never behind.
		if high < acked[w] {
			t.Fatalf("writer %d: recovered WSN %d below acknowledged %d", w, high, acked[w])
		}
		for wsn := uint64(1); wsn <= high; wsn++ {
			lpid := stressLPID(w, wsn)
			size := 200 + int((uint64(w)*131+wsn*97)%1800)
			checkRead(t, c2, lpid, pageContent(uint64(lpid), wsn, size))
		}
		if high > 0 {
			churn := stressChurnLPID(w)
			checkRead(t, c2, churn, pageContent(uint64(churn), high, 8000))
		}
		lost := stressLPID(w, high+1)
		if _, err := c2.Length(lost); !IsNotFound(err) {
			t.Fatalf("writer %d: uncommitted WSN %d after recovery: Length err %v, want not found", w, high+1, err)
		}
	}

	// The recovered controller must accept the next WSN in each session.
	for w, sid := range sids {
		high, err := c2.SessionHighestWSN(sid)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.WriteBatch(sid, high+1, stressBatch(w, high+1)); err != nil {
			t.Fatalf("writer %d: post-recovery write: %v", w, err)
		}
	}
}

// TestConcurrentDuplicateWSN hammers the same (sid, wsn) from several
// goroutines: exactly one application must win and the rest be absorbed as
// stale or blocked duplicates, never a double-apply or a deadlock.
func TestConcurrentDuplicateWSN(t *testing.T) {
	c, _ := stressController(t)
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	const batches = 40
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wsn := uint64(1); wsn <= batches; wsn++ {
				if err := c.WriteBatch(sid, wsn, stressBatch(0, wsn)); err != nil {
					t.Errorf("wsn %d: %v", wsn, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	high, err := c.SessionHighestWSN(sid)
	if err != nil {
		t.Fatal(err)
	}
	if high != batches {
		t.Fatalf("highest WSN %d, want %d", high, batches)
	}
	for wsn := uint64(1); wsn <= batches; wsn++ {
		lpid := stressLPID(0, wsn)
		size := 200 + int((wsn*97)%1800)
		checkRead(t, c, lpid, pageContent(uint64(lpid), wsn, size))
	}
}

// TestNarrowStripesRotateAndRecover covers stripes narrower than the
// device under concurrency and crash. Four writers flush 2-WBLOCK batches
// on 8 channels: each batch must occupy two channels and the four of a
// round eight different ones (the provisioner's start channel advances by
// the WBLOCKs it deals, whatever order the writers arrive in), so small
// concurrent flushes program in parallel rather than queue on channel 0.
// The fleet then runs free until the plug is pulled; after Open every
// acknowledged page is byte-exact.
func TestNarrowStripesRotateAndRecover(t *testing.T) {
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	c, err := Format(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	const (
		writers   = 4
		perBatch  = 8 // x 4 KB = two WBLOCKs exactly
		pageBytes = 4 << 10
		rounds    = 40 // 40 WBLOCKs per channel: every channel closes EBLOCKs
	)
	sids := make([]uint64, writers)
	for w := range sids {
		if sids[w], err = c.OpenSession(); err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
	}
	lpid := func(w int, wsn uint64, k int) addr.LPID {
		return addr.LPID(uint64(w+1)*stressLPIDsPerSID + wsn*perBatch + uint64(k))
	}
	batch := func(w int, wsn uint64) []LPage {
		pages := make([]LPage, perBatch)
		for k := range pages {
			id := lpid(w, wsn, k)
			pages[k] = LPage{LPID: id, Data: pageContent(uint64(id), wsn, pageBytes)}
		}
		return pages
	}

	for wsn := uint64(1); wsn <= rounds; wsn++ {
		var wg sync.WaitGroup
		for w := range sids {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := c.WriteBatch(sids[w], wsn, batch(w, wsn)); err != nil {
					t.Errorf("writer %d wsn %d: %v", w, wsn, err)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		owner := map[int]int{} // channel -> writer that programmed it this round
		for w := range sids {
			mine := map[int]bool{}
			for k := 0; k < perBatch; k++ {
				c.mu.Lock()
				a, err := c.lookupLocked(lpid(w, wsn, k))
				c.mu.Unlock()
				if err != nil {
					t.Fatalf("lookup writer %d wsn %d page %d: %v", w, wsn, k, err)
				}
				mine[a.Channel()] = true
			}
			if len(mine) != 2 {
				t.Fatalf("round %d: writer %d's 2-WBLOCK batch spans channels %v, want 2", wsn, w, mine)
			}
			for ch := range mine {
				if prev, taken := owner[ch]; taken {
					t.Fatalf("round %d: writers %d and %d both programmed channel %d", wsn, prev, w, ch)
				}
				owner[ch] = w
			}
		}
	}

	// Free-running phase: no barrier, crash mid-flight.
	acked := make([]uint64, writers)
	var wg sync.WaitGroup
	for w := range sids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for wsn := uint64(rounds + 1); wsn <= rounds+100; wsn++ {
				err := c.WriteBatch(sids[w], wsn, batch(w, wsn))
				if errors.Is(err, ErrCrashed) {
					return
				}
				if err != nil {
					t.Errorf("writer %d wsn %d: %v", w, wsn, err)
					return
				}
				acked[w] = wsn
			}
		}(w)
	}
	time.Sleep(3 * time.Millisecond)
	c.Crash()
	wg.Wait()

	c2, err := Open(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	for w, sid := range sids {
		high, err := c2.SessionHighestWSN(sid)
		if err != nil {
			t.Fatalf("SessionHighestWSN(%d): %v", sid, err)
		}
		if high < rounds || high < acked[w] {
			t.Fatalf("writer %d: recovered WSN %d below acknowledged %d", w, high, max(rounds, acked[w]))
		}
		for wsn := uint64(1); wsn <= high; wsn++ {
			for k := 0; k < perBatch; k++ {
				id := lpid(w, wsn, k)
				checkRead(t, c2, id, pageContent(uint64(id), wsn, pageBytes))
			}
		}
	}
}
