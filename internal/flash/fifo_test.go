package flash

import (
	"runtime"
	"testing"
	"time"
)

// One FIFO per channel, for programs and erases (DESIGN.md §4.1): a segment
// with a wall-latency arrival is run by the channel's worker, the rest by
// Batch.Wait's goroutine, and whoever runs the FIFO runs it from the head.

// TestWaitersDrainInFIFOOrder: two batches program sequential WBLOCKs of one
// EBLOCK, the first also a WBLOCK that fails, and are waited on later-first.
// The later batch's waiter runs the earlier batch's segment on its way to
// its own, so both land in order, and each batch reports only its own
// commands.
func TestWaitersDrainInFIFOOrder(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	defer d.Close()
	data := make([]byte, 100)
	goroutines := runtime.NumGoroutine()
	d.FailNextProgram(0, 5, 0)
	first := d.SubmitBatch([]BatchCmd{
		{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: 0, Data: data},
		{Src: SrcUser, Channel: 0, EBlock: 5, WBlock: 0, Data: data}, // fails
		{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: 1, Data: data},
		{Src: SrcUser, Channel: 1, EBlock: 1, WBlock: 0, Data: data},
	})
	second := d.SubmitBatch([]BatchCmd{
		{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: 2, Data: data},
		{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: 3, Data: data},
	})
	if n, _ := d.NextProgramPosition(0, 1); n != 0 {
		t.Fatalf("%d WBLOCKs programmed before any Wait, want 0: the waiters run the FIFO", n)
	}
	res2 := second.Wait()
	if n, _ := d.NextProgramPosition(0, 1); n != 4 {
		t.Fatalf("program position %d after the later batch's Wait, want 4", n)
	}
	if n, _ := d.NextProgramPosition(1, 1); n != 0 {
		t.Fatalf("the later batch's waiter ran a channel it has no segment on (position %d)", n)
	}
	res1 := first.Wait()
	if res2.Attempted != 2 || len(res2.FailedEBlocks) != 0 {
		t.Fatalf("later batch: %+v, want 2 attempted and no failure", res2)
	}
	if res1.Attempted != 4 || len(res1.FailedEBlocks) != 1 || res1.FailedEBlocks[0] != [2]int{0, 5} {
		t.Fatalf("earlier batch: %+v, want 4 attempted and (0,5) failed", res1)
	}
	if st := d.Stats(); st.WBlocksWritten != 5 || st.WriteFailures != 1 {
		t.Fatalf("stats %+v, want 5 WBLOCKs written and 1 failure", st)
	}
	if after := runtime.NumGoroutine(); after > goroutines { // fewer: an earlier test's workers returning
		t.Fatalf("goroutines %d -> %d with wall latency off", goroutines, after)
	}
}

// TestScaleChangeKeepsFIFO: programs queued with wall latency on are the
// worker's; once the scale is 0, a new batch on the same channel is its
// waiter's, and it still lands after them. The test holds the channel until
// both batches are queued, so none of the first has run when the second
// arrives.
func TestScaleChangeKeepsFIFO(t *testing.T) {
	d := MustNewDevice(wallGeometry(), Latency{ProgramWBlock: time.Millisecond})
	defer d.Close()
	d.SetWallLatencyScale(1)
	const queued = 4
	cmds := make([]BatchCmd, queued)
	for wb := range cmds {
		cmds[wb] = BatchCmd{Src: SrcUser, Channel: 2, EBlock: 0, WBlock: wb, Data: make([]byte, 64)}
	}
	cs := &d.channels[2]
	cs.mu.Lock()
	on := d.SubmitBatch(cmds)
	d.SetWallLatencyScale(0)
	later := d.SubmitBatch([]BatchCmd{{Src: SrcUser, Channel: 2, EBlock: 0, WBlock: queued, Data: make([]byte, 64)}})
	cs.mu.Unlock()
	off := later.Wait()
	if off.Attempted != 1 || len(off.FailedEBlocks) != 0 {
		t.Fatalf("the latency-off batch behind %d queued programs: %+v", queued, off)
	}
	res := on.Wait()
	if res.Attempted != queued || len(res.FailedEBlocks) != 0 || res.Done.After(off.Done) {
		t.Fatalf("queued batch %+v, done at %v; the latency-off one at %v", res, res.Done, off.Done)
	}
	if n, _ := d.NextProgramPosition(2, 0); n != queued+1 {
		t.Fatalf("program position %d, want %d", n, queued+1)
	}
}

// TestClosedDeviceWaitersDrain: on a closed device no worker runs, with
// wall latency on or off. Each waiter runs its channels' FIFOs up to its own
// segments, so batches waited on later-first land in order and a
// latency-on command still holds its channel for its time.
func TestClosedDeviceWaitersDrain(t *testing.T) {
	lat := Latency{ProgramWBlock: time.Millisecond}
	for _, scale := range []float64{0, 1} {
		d := MustNewDevice(wallGeometry(), lat)
		d.Close()
		d.SetWallLatencyScale(scale)
		goroutines := runtime.NumGoroutine()
		t0 := time.Now()
		first := d.SubmitBatch([]BatchCmd{
			{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: 0, Data: make([]byte, 64)},
			{Src: SrcUser, Channel: 3, EBlock: 1, WBlock: 0, Data: make([]byte, 64)},
		})
		second := d.SubmitBatch([]BatchCmd{{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: 1, Data: make([]byte, 64)}})
		if after := runtime.NumGoroutine(); after > goroutines {
			t.Fatalf("scale %v: goroutines %d -> %d on a closed device", scale, goroutines, after)
		}
		res2 := second.Wait()
		if scale > 0 && time.Since(t0) < 2*lat.ProgramWBlock {
			t.Fatalf("scale %v: two programs on channel 0 returned after %v", scale, time.Since(t0))
		}
		if res1 := first.Wait(); res1.Attempted != 2 || res2.Attempted != 1 || len(res1.FailedEBlocks)+len(res2.FailedEBlocks) != 0 {
			t.Fatalf("scale %v: results %+v and %+v", scale, res1, res2)
		}
		if a, _ := d.NextProgramPosition(0, 1); a != 2 {
			t.Fatalf("scale %v: channel 0 position %d, want 2", scale, a)
		}
		if b, _ := d.NextProgramPosition(3, 1); b != 1 {
			t.Fatalf("scale %v: channel 3 position %d, want 1", scale, b)
		}
	}
}
