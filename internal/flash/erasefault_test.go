package flash

import (
	"bytes"
	"errors"
	"testing"

	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// eraseSpans counts the KFlashErase spans in a recorder.
func eraseSpans(trc *trace.Recorder) int64 {
	var n int64
	for _, ev := range trc.Dump().Events {
		if ev.Kind == trace.KFlashErase {
			n++
		}
	}
	return n
}

// checkEraseAccounting requires registry, Stats and trace to agree on the
// erase attempts so far: every attempt is one "flash.erases" count, one
// "flash.erase_ns" sample and one KFlashErase span.
func checkEraseAccounting(t *testing.T, d *Device, reg *metrics.Registry, trc *trace.Recorder, attempts, failures int64) {
	t.Helper()
	st, snap := d.Stats(), reg.Snapshot()
	if st.EraseAttempts != attempts || st.EraseFailures != failures {
		t.Fatalf("Stats: %d attempts, %d failures; want %d, %d", st.EraseAttempts, st.EraseFailures, attempts, failures)
	}
	if got := snap.Counter("flash.erases"); got != attempts {
		t.Fatalf("flash.erases = %d, want %d attempts", got, attempts)
	}
	if got := snap.Counter("flash.erase_failures"); got != failures {
		t.Fatalf("flash.erase_failures = %d, want %d", got, failures)
	}
	if hv := snap.Histogram("flash.erase_ns"); hv == nil || hv.Count != attempts {
		t.Fatalf("flash.erase_ns = %+v, want %d samples", hv, attempts)
	}
	if got := eraseSpans(trc); got != attempts {
		t.Fatalf("%d KFlashErase spans, want %d", got, attempts)
	}
}

// TestFailNthErase mirrors TestFailNthProgram for the erase twin: armed
// countdowns fire on exactly the n-th erase attempts, the device and
// metrics counters account exactly, and a failed erase leaves the
// EBLOCK's content and program position intact so a retry succeeds.
func TestFailNthErase(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	reg, trc := metrics.New(), trace.New(64)
	d.SetMetrics(reg)
	d.SetTracer(trc)

	data := []byte("survives a failed erase pulse")
	if err := d.Program(SrcUser, 0, 0, 0, data); err != nil {
		t.Fatal(err)
	}

	// Arm the 2nd and 3rd erase attempts from now.
	d.FailNthErase(2)
	d.FailNthErase(3)
	if p, e := d.PendingInjectedFailures(); p != 0 || e != 2 {
		t.Fatalf("pending = (%d,%d), want (0,2)", p, e)
	}

	if err := eraseNow(d, 1, 0); err != nil { // 1st: clean
		t.Fatalf("1st erase: %v", err)
	}
	if err := eraseNow(d, 0, 0); !errors.Is(err, ErrEraseFailed) { // 2nd: armed
		t.Fatalf("2nd erase: %v, want ErrEraseFailed", err)
	}
	// The failed erase left the block un-erased: content readable,
	// position unchanged (re-programming wb 0 is still a write-twice).
	got, _, err := readExtent(d, 0, 0, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("content after failed erase = %q, want %q", got, data)
	}
	if err := d.Program(SrcUser, 0, 0, 0, data); !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("reprogram after failed erase: %v, want ErrWriteTwice", err)
	}
	if err := eraseNow(d, 2, 0); !errors.Is(err, ErrEraseFailed) { // 3rd: armed
		t.Fatalf("3rd erase: %v, want ErrEraseFailed", err)
	}
	if err := eraseNow(d, 0, 0); err != nil { // 4th: retry succeeds
		t.Fatalf("retry erase: %v", err)
	}
	if err := d.Program(SrcUser, 0, 0, 0, data); err != nil {
		t.Fatalf("program after successful retry: %v", err)
	}

	st := d.Stats()
	if st.EraseFailures != 2 {
		t.Fatalf("EraseFailures = %d, want 2", st.EraseFailures)
	}
	if st.EBlocksErased != 2 {
		t.Fatalf("EBlocksErased = %d, want 2 (failures must not count)", st.EBlocksErased)
	}
	// A failed pulse is timed and traced like a successful one.
	checkEraseAccounting(t, d, reg, trc, 4, 2)
	if p, e := d.PendingInjectedFailures(); p != 0 || e != 0 {
		t.Fatalf("pending after drain = (%d,%d), want (0,0)", p, e)
	}
}

// TestFailNthEraseCountsAgainstLimit: the failed pulse consumes an
// erase-limit cycle, so endurance accounting cannot be gamed by faults.
func TestFailNthEraseCountsAgainstLimit(t *testing.T) {
	geo := SmallGeometry()
	geo.EraseLimit = 2
	d := MustNewDevice(geo, Latency{})
	reg, trc := metrics.New(), trace.New(64)
	d.SetMetrics(reg)
	d.SetTracer(trc)
	d.FailNthErase(1)
	if err := eraseNow(d, 0, 0); !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("armed erase: %v", err)
	}
	if err := eraseNow(d, 0, 0); err != nil {
		t.Fatalf("2nd erase: %v", err)
	}
	if err := eraseNow(d, 0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("over-limit erase: %v, want ErrBadBlock", err)
	}
	// The over-limit rejection is an attempt everywhere, a failed pulse
	// nowhere; an erase of the now-bad block never reaches the media.
	checkEraseAccounting(t, d, reg, trc, 3, 1)
	if err := eraseNow(d, 0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of a bad block: %v, want ErrBadBlock", err)
	}
	checkEraseAccounting(t, d, reg, trc, 3, 1)
}

// TestQueuedEraseThenProgram: an erase rides the channel's FIFO beside
// programs, so a program submitted after an erase of its EBLOCK lands
// after it and succeeds — in one batch or in the next.
func TestQueuedEraseThenProgram(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	reg, trc := metrics.New(), trace.New(64)
	d.SetMetrics(reg)
	d.SetTracer(trc)
	defer d.Close()
	old, fresh := []byte("old content"), []byte("new content")
	for wb := 0; wb < 2; wb++ {
		if err := d.Program(SrcUser, 1, 3, wb, old); err != nil {
			t.Fatal(err)
		}
	}
	first := d.SubmitBatch([]BatchCmd{
		{Op: OpErase, Channel: 1, EBlock: 3},
		{Src: SrcUser, Channel: 1, EBlock: 3, WBlock: 0, Data: fresh},
	})
	second := d.SubmitBatch([]BatchCmd{
		{Op: OpErase, Channel: 1, EBlock: 3},
		{Op: OpErase, Channel: 2, EBlock: 0},
	})
	third := d.SubmitBatch([]BatchCmd{{Src: SrcUser, Channel: 1, EBlock: 3, WBlock: 0, Data: fresh}})
	for i, b := range []*Batch{first, second, third} {
		if res := b.Wait(); len(res.FailedEBlocks) != 0 {
			t.Fatalf("batch %d: failed EBLOCKs %v", i, res.FailedEBlocks)
		}
	}
	got, _, err := readExtent(d, 1, 3, 0, len(fresh))
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("content after erase+program = %q, %v; want %q", got, err, fresh)
	}
	if pos, _ := d.NextProgramPosition(1, 3); pos != 1 {
		t.Fatalf("program position %d, want 1: the erases ran between the programs", pos)
	}
	checkEraseAccounting(t, d, reg, trc, 3, 0)
	for _, g := range reg.Snapshot().Gauges {
		if g.Value != 0 {
			t.Fatalf("gauge %s = %d after drain, want 0", g.Name, g.Value)
		}
	}
}

// TestQueuedEraseFaultInBatchResult: an injected erase fault comes back
// as a failed EBLOCK of the batch, the other erases of the batch succeed,
// and a program queued behind the failed erase is skipped.
func TestQueuedEraseFaultInBatchResult(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	defer d.Close()
	data := []byte("kept by the failed erase")
	for ch := 0; ch < 3; ch++ {
		if err := d.Program(SrcUser, ch, 0, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	d.FailNthErase(1)
	res := d.SubmitBatch([]BatchCmd{
		{Op: OpErase, Channel: 2, EBlock: 0},
		{Src: SrcUser, Channel: 2, EBlock: 0, WBlock: 0, Data: data},
	}).Wait()
	if len(res.FailedEBlocks) != 1 || res.FailedEBlocks[0] != [2]int{2, 0} || res.Attempted != 1 {
		t.Fatalf("faulted batch: %+v, want (2,0) failed and the program skipped", res)
	}
	res = d.SubmitBatch([]BatchCmd{
		{Op: OpErase, Channel: 0, EBlock: 0},
		{Op: OpErase, Channel: 1, EBlock: 0},
	}).Wait()
	if len(res.FailedEBlocks) != 0 || res.Attempted != 2 {
		t.Fatalf("clean batch: %+v", res)
	}
	if st := d.Stats(); st.EraseFailures != 1 || st.EBlocksErased != 2 {
		t.Fatalf("Stats: %d failures, %d erased; want 1, 2", st.EraseFailures, st.EBlocksErased)
	}
	if got, _, err := readExtent(d, 2, 0, 0, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content after the failed erase = %q, %v", got, err)
	}
}
