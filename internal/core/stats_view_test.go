package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/health"
	"eleos/internal/metrics"
)

// statsInstrument names, for every Stats field, the registry counter the
// view reads. The tests below walk the struct by reflection, so a field
// added without a line here — or without its line in Stats() — fails.
var statsInstrument = map[string]string{
	"BatchesWritten":   "core.write.batches",
	"PagesWritten":     "core.write.pages",
	"BytesAccepted":    "core.write.bytes_accepted",
	"BytesStored":      "core.write.bytes_stored",
	"Reads":            "read.flash_loads",
	"ReadRBlocks":      "read.rblocks",
	"IOCommands":       "core.io_commands",
	"LogRecords":       "wal.appends",
	"LogForces":        "core.log_forces",
	"StaleWrites":      "core.write.stale",
	"GroupWrites":      "core.write.group_writes",
	"GroupedFlushes":   "core.write.grouped_flushes",
	"AbortedActions":   "core.aborted_actions",
	"GCRounds":         "core.gc.rounds",
	"GCPagesMoved":     "core.gc.pages_moved",
	"GCBytesMoved":     "core.gc.bytes_moved",
	"GCBytesRead":      "core.gc.bytes_read",
	"GCEBlocksFreed":   "core.gc.eblocks_freed",
	"GCMetaUnreadable": "core.gc.meta_unreadable",
	"Migrations":       "core.migrations",
	"Checkpoints":      "core.checkpoints",
	"RecoverVerified":  "core.recover.actions_verified",
	"RecoverRejected":  "core.recover.actions_rejected",
	"RecoverBytes":     "core.recover.verify_bytes",
}

// checkStatsView requires every Stats field to equal its instrument in
// snap, and returns the field values by name.
func checkStatsView(t *testing.T, st Stats, snap metrics.Snapshot) map[string]int64 {
	t.Helper()
	inSnap := make(map[string]int64)
	for _, c := range snap.Counters {
		inSnap[c.Name] = c.Value
	}
	fields := make(map[string]int64)
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		fields[name] = v.Field(i).Int()
		inst, ok := statsInstrument[name]
		if !ok {
			t.Errorf("Stats.%s has no instrument in statsInstrument", name)
			continue
		}
		got, ok := inSnap[inst]
		if !ok {
			t.Errorf("Stats.%s: instrument %s is not in the registry", name, inst)
		} else if got != fields[name] {
			t.Errorf("Stats.%s = %d, %s = %d", name, fields[name], inst, got)
		}
	}
	return fields
}

// TestStatsViewComplete runs one workload that makes every counted event
// happen on one controller — a recovered one, because unreadable GC
// metadata only exists after a crash between an erase and its free
// record, and an action to read back and reject only after a crash
// between a flush's commit page and its data — and then requires every
// Stats field to be non-zero and equal to its instrument in
// MetricsSnapshot().
func TestStatsViewComplete(t *testing.T) {
	c1, dev := deadEBlockController(t, 0)
	c1.SetCrashPoint("gc.after-erase")
	if err := c1.GCNow(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("GCNow = %v, want a crash at gc.after-erase", err)
	}
	c2, err := Open(dev, c1.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A two-WBLOCK flush whose second program fails, and a crash once its
	// commit page is durable: the next Open reads the first page back,
	// finds the second missing and rejects the action.
	torn := addr.LPID(1 << 21)
	mustWrite(t, c2, LPage{LPID: torn, Data: gcErasePage(torn, 1)})
	armUserFault(t, c2, dev, torn, 1)
	c2.SetCrashPoint("write.after-exec")
	err = c2.WriteBatch(0, 0, []LPage{
		{LPID: torn + 1, Data: make([]byte, c2.geo.WBlockBytes)},
		{LPID: torn + 2, Data: make([]byte, c2.geo.WBlockBytes)},
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write = %v, want a crash at write.after-exec", err)
	}
	c, err := Open(dev, c1.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A controller's registry is born with it: what c1 counted is gone.
	if st := c.Stats(); st.BatchesWritten != 0 || st.GCRounds != 0 || st.Reads != 0 {
		t.Fatalf("Stats after Open carries the crashed controller's counts: %+v", st)
	}

	// A session write and its replay: the stale re-ACK.
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	fresh := addr.LPID(1 << 20)
	for i := 0; i < 2; i++ {
		if err := c.WriteBatch(sid, 1, []LPage{{LPID: fresh, Data: gcErasePage(fresh, 1)}}); err != nil {
			t.Fatalf("session write %d: %v", i, err)
		}
	}
	// Two flushes coalesced into one action.
	a := &SubFlush{Pages: []LPage{{LPID: fresh + 1, Data: gcErasePage(fresh+1, 1)}}}
	b := &SubFlush{Pages: []LPage{{LPID: fresh + 2, Data: gcErasePage(fresh+2, 1)}}}
	if c.WriteBatchGroup([]*SubFlush{a, b}); a.Err != nil || b.Err != nil {
		t.Fatalf("group write: %v, %v", a.Err, b.Err)
	}
	// A program fault: the action aborts, its EBLOCK migrates, the retry
	// lands.
	faulted := []LPage{{LPID: fresh + 3, Data: gcErasePage(fresh+3, 1)}}
	armUserFault(t, c, dev, fresh+2, 0)
	if err := c.WriteBatch(0, 0, faulted); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("write under an injected program fault = %v, want ErrWriteFailed", err)
	}
	mustWrite(t, c, faulted...)
	// Overwrite half of every batch, so victims hold live pages to move;
	// then collect until a pass has relocated and another has met the
	// erased EBLOCK's unreadable metadata.
	for bt := 0; bt < gcEraseBatches; bt++ {
		pages := make([]LPage, 16)
		for i := range pages {
			lp := gcEraseLPID(bt, 2*i)
			pages[i] = LPage{LPID: lp, Data: gcErasePage(lp, 3)}
		}
		mustWrite(t, c, pages...)
	}
	for i := 0; i < c.geo.Channels*c.geo.EBlocksPerChannel; i++ {
		if st := c.Stats(); st.GCPagesMoved > 0 && st.GCMetaUnreadable > 0 {
			break
		}
		if err := c.GCNow(i % c.geo.Channels); err != nil {
			t.Fatalf("GCNow: %v", err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkRead(t, c, fresh+3, faulted[0].Data)

	for name, v := range checkStatsView(t, c.Stats(), c.MetricsSnapshot()) {
		if v == 0 {
			t.Errorf("Stats.%s = 0 after a workload that triggers its event", name)
		}
	}
}

// TestStatsConcurrentWithWritersReaderAndGC polls Stats() while writers
// churn a small device hard enough that threshold GC passes relocate and
// out-of-space checkpoints run inside their calls, and a reader reads —
// under -race this is the check that the view needs no lock. Every field
// is a counter, so each must be monotonic across polls, and exact at the
// end. A snapshot taker runs beside them: each census it reads is one
// cut, whose byte split covers the free, open and used EBLOCKs exactly.
func TestStatsConcurrentWithWritersReaderAndGC(t *testing.T) {
	const (
		writers = 3
		// A channel crosses the GC threshold after ≈ 710 programs and the
		// device is full at ≈ 1 080. A batch is one data WBLOCK and at most
		// one log page — how many the writers share is up to the scheduler —
		// so 450 batches are 720 to 900 programs with up to 40 % shared.
		batchesPerW   = 150
		pagesPerBatch = 8
		livePerWriter = 64
		pageBytes     = 2000
	)
	c, _ := newFormatted(t)
	lpidOf := func(w, k int) addr.LPID { return addr.LPID(1 + w*livePerWriter + k) }

	stop := make(chan struct{})
	var bg sync.WaitGroup
	background := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	var prev Stats
	background(func() { // the poller
		st := c.Stats()
		pv, sv := reflect.ValueOf(prev), reflect.ValueOf(st)
		for i := 0; i < sv.NumField(); i++ {
			if sv.Field(i).Int() < pv.Field(i).Int() {
				t.Errorf("Stats.%s went backwards: %d -> %d", sv.Type().Field(i).Name, pv.Field(i).Int(), sv.Field(i).Int())
			}
		}
		prev = st
	})
	background(func() { // the snapshot taker
		h := health.FromSnapshot(c.MetricsSnapshot())
		if got, want := h.FreeBytes+h.ValidBytes+h.DeadBytes, (h.FreeEBlocks+h.OpenEBlocks+h.UsedEBlocks)*int64(c.geo.EBlockBytes); got != want {
			t.Errorf("census bytes %d, want %d for %+v", got, want, h)
		}
	})
	rng := rand.New(rand.NewSource(1))
	background(func() { // the reader
		if _, err := c.Read(lpidOf(rng.Intn(writers), rng.Intn(livePerWriter))); err != nil && !IsNotFound(err) {
			t.Errorf("Read: %v", err)
		}
	})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, pageBytes)
			for b := 0; b < batchesPerW; b++ {
				pages := make([]LPage, pagesPerBatch)
				for k := range pages {
					pages[k] = LPage{LPID: lpidOf(w, (b*pagesPerBatch+k)%livePerWriter), Data: data}
				}
				// One page per batch is never overwritten, so every EBLOCK
				// a pass collects has something to relocate.
				pages[0].LPID = addr.LPID(1<<20 + w*batchesPerW + b)
				if err := c.WriteBatch(0, 0, pages); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// On two CPUs the reader may not have completed a flash load by the time
	// the writers are done: keep it running until it has.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Reads == 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	bg.Wait()
	if c.Stats().Reads == 0 {
		t.Fatal("the background reader completed no flash load in 5 s")
	}

	st := c.Stats()
	checkStatsView(t, st, c.MetricsSnapshot())
	if want := int64(writers * batchesPerW); st.BatchesWritten != want {
		t.Errorf("BatchesWritten = %d, want %d", st.BatchesWritten, want)
	}
	if want := int64(writers * batchesPerW * pagesPerBatch); st.PagesWritten != want {
		t.Errorf("PagesWritten = %d, want %d", st.PagesWritten, want)
	}
	if want := int64(writers * batchesPerW * pagesPerBatch * pageBytes); st.BytesAccepted != want {
		t.Errorf("BytesAccepted = %d, want %d", st.BytesAccepted, want)
	}
	if st.GCRounds == 0 || st.GCPagesMoved == 0 || st.Reads == 0 || st.Checkpoints == 0 {
		t.Errorf("the workload did not exercise GC, reads and checkpoints: %+v", st)
	}
}

// TestMetricsSnapshotCarriesCensus builds a controller with free, open,
// used, reserved and bad EBLOCKs and requires every health.* gauge in
// MetricsSnapshot() to equal its DeviceHealth() field, with no health.*
// gauge beyond the census.
func TestMetricsSnapshotCarriesCensus(t *testing.T) {
	c, dev := deadEBlockController(t, 0)
	dev.FailNthErase(1)
	if err := c.GCNow(3); !errors.Is(err, flash.ErrEraseFailed) {
		t.Fatalf("GCNow = %v, want the injected erase failure", err)
	}
	h := c.DeviceHealth()
	for state, n := range map[string]int64{
		"free": h.FreeEBlocks, "open": h.OpenEBlocks, "used": h.UsedEBlocks,
		"reserved": h.ReservedEBlocks, "bad": h.BadEBlocks,
	} {
		if n == 0 {
			t.Fatalf("no %s EBLOCK: %+v", state, h)
		}
	}
	var want metrics.Snapshot
	h.AddGauges(&want)
	got := make(map[string]int64)
	for _, g := range c.MetricsSnapshot().Gauges {
		if strings.HasPrefix(g.Name, "health.") {
			got[g.Name] = g.Value
		}
	}
	if len(got) != len(want.Gauges) {
		t.Errorf("snapshot has %d health.* gauges, the census %d", len(got), len(want.Gauges))
	}
	for _, g := range want.Gauges {
		if v, ok := got[g.Name]; !ok || v != g.Value {
			t.Errorf("%s = %d (present %v), DeviceHealth() says %d", g.Name, v, ok, g.Value)
		}
	}
}
