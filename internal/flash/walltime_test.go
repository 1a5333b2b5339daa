package flash

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// Timing fidelity of the wall-latency emulation (DESIGN.md §4.1): an
// emulated wait never returns early, reports its lateness, chains on its
// channel's deadline to the nanosecond, costs nothing when off, and one
// timekeeper serves the process. No test bounds the lateness: that is the
// host's.

// wallGeometry: 8 channels of 2 EBLOCKs with 64 WBLOCKs each, so one channel
// takes 50 programs in a row.
func wallGeometry() Geometry {
	return Geometry{Channels: 8, EBlocksPerChannel: 2, EBlockBytes: 1 << 20, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10}
}

// wallDevice is an idle device with TypicalNANDLatency at wall scale 1 and
// its registry.
func wallDevice(t *testing.T) (*Device, *metrics.Registry) {
	t.Helper()
	d := MustNewDevice(wallGeometry(), TypicalNANDLatency())
	reg := metrics.New()
	d.SetMetrics(reg)
	d.SetWallLatencyScale(1)
	t.Cleanup(d.Close)
	return d, reg
}

const wallSamples = 200

// TestWallWaitNeverEarly: no program, single-RBLOCK read or erase, timed
// one at a time, returns before its start plus its latency, and
// "flash.wall_late_ns" has one sample per wait, none of them negative.
func TestWallWaitNeverEarly(t *testing.T) {
	d, reg := wallDevice(t)
	lat, g := TypicalNANDLatency(), d.Geometry()
	data, dst := make([]byte, 64), make([]byte, 512)
	var over time.Duration // what the callers saw beyond the model: bounds the reported lateness
	timed := func(what string, i int, model time.Duration, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(t0); took < model {
			t.Fatalf("%s %d returned after %v, before its %v", what, i, took, model)
		} else {
			over += took - model
		}
	}
	for i := 0; i < wallSamples; i++ {
		ch, wb := i%g.Channels, i/g.Channels
		timed("program", i, lat.ProgramWBlock, func() error { return d.Program(SrcUser, ch, 0, wb, data) })
		timed("read", i, lat.ReadRBlock, func() error { _, err := readInto(d, dst, ch, 0, wb*g.WBlockBytes); return err })
	}
	for i := 0; i < wallSamples; i++ {
		timed("erase", i, lat.EraseEBlock, func() error { return eraseNow(d, i%g.Channels, 1) })
	}
	snap := reg.Snapshot()
	late := snap.Histogram("flash.wall_late_ns")
	if late == nil || late.Count != 3*wallSamples || late.Sum < 0 || late.Sum > over.Nanoseconds() {
		t.Fatalf("flash.wall_late_ns = %+v, want %d samples summing to within [0, %d]", late, 3*wallSamples, over.Nanoseconds())
	}
	t.Logf("flash.wall_late_ns: mean %v over %d waits", time.Duration(late.Sum/late.Count), late.Count)
	if hv := snap.Histogram("flash.read_ns"); hv == nil || hv.Count != wallSamples {
		t.Fatalf("flash.read_ns = %+v, want %d samples", hv, wallSamples)
	}

}

// TestWallDeadlines: SubmitBatch stamps a batch's commands with one
// arrival, so the deadlines wallWait computes are exact: 50 programs on an
// idle channel end 49 programs after one program on another, and eight
// channels given 25 programs each end at one deadline. Lateness does not
// add up along a chain, and a chain never ends early: k programs end k
// latencies or more after the submit, and Wait returns after the last.
func TestWallDeadlines(t *testing.T) {
	lat := TypicalNANDLatency().ProgramWBlock
	for _, counts := range [][]int{{1, 50}, {25, 25, 25, 25, 25, 25, 25, 25}} {
		d, _ := wallDevice(t)
		var cmds []BatchCmd
		for ch, k := range counts {
			for wb := 0; wb < k; wb++ {
				cmds = append(cmds, BatchCmd{Src: SrcUser, Channel: ch, WBlock: wb, Data: make([]byte, 64)})
			}
		}
		t0 := time.Now()
		if res := d.SubmitBatch(cmds).Wait(); res.Attempted != len(cmds) || len(res.FailedEBlocks) != 0 {
			t.Fatalf("batch result: %+v", res)
		}
		back, first := time.Now(), deadline(d, 0)
		for ch, k := range counts {
			end := deadline(d, ch)
			if got, want := end.Sub(first), time.Duration(k-counts[0])*lat; got != want || end.Sub(t0) < time.Duration(k)*lat || back.Before(end) {
				t.Fatalf("%v programs: channel %d ends %v after channel 0, want %v; %v after the submit, which Wait returned %v after", counts, ch, got, want, end.Sub(t0), back.Sub(t0))
			}
		}
	}
}

// deadline is when channel ch's last emulated command ends (wallWait).
func deadline(d *Device, ch int) time.Time {
	cs := &d.channels[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.wall.at
}

// TestWallLatencyOffUntouched: with wall latency off a command reaches
// neither the clock nor the timekeeper — no goroutine appears, nothing is
// reported, and what a program and a read allocate is what they allocated
// before the emulation had a timekeeper (nothing, on warm WBLOCKs).
func TestWallLatencyOffUntouched(t *testing.T) {
	d := MustNewDevice(wallGeometry(), TypicalNANDLatency())
	reg := metrics.New()
	d.SetMetrics(reg)
	g := d.Geometry()
	data, dst := make([]byte, 64), make([]byte, 512)
	wb := 0
	step := func() {
		if wb == g.WBlocksPerEBlock() {
			if err := eraseNow(d, 3, 1); err != nil {
				t.Fatal(err)
			}
			wb = 0
		}
		if err := d.Program(SrcUser, 3, 1, wb, data); err != nil {
			t.Fatal(err)
		}
		if _, err := readInto(d, dst, 3, 1, wb*g.WBlockBytes); err != nil {
			t.Fatal(err)
		}
		wb++
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		step()
	}
	if after := runtime.NumGoroutine(); after > before { // fewer: an earlier test's workers returning
		t.Fatalf("goroutines %d -> %d over 10000 programs with wall latency off", before, after)
	}
	if hv := reg.Snapshot().Histogram("flash.wall_late_ns"); hv == nil || hv.Count != 0 {
		t.Fatalf("flash.wall_late_ns = %+v with wall latency off, want 0 samples", hv)
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("program + read allocate with wall latency off: %v allocs/op", n)
	}
}

// procThreads reads the process's thread count; ok is false where there is
// no /proc.
func procThreads() (n int, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if count, found := strings.CutPrefix(line, "Threads:"); found {
			n, err = strconv.Atoi(strings.TrimSpace(count))
			return n, err == nil
		}
	}
	return 0, false
}

// TestTimekeeperLifecycle: the timekeeper belongs to the process, not to a
// device — 50 devices run at scale 1 and closed leave at most one goroutine
// and one thread behind, not 50 — and a closed device, whose waiters run
// its commands, still waits their full time.
func TestTimekeeperLifecycle(t *testing.T) {
	lat := TypicalNANDLatency()
	run := func() *Device {
		d := MustNewDevice(wallGeometry(), lat)
		d.SetWallLatencyScale(1)
		var wg sync.WaitGroup
		for ch := 0; ch < 2; ch++ { // a queued and a direct command, on two channels at once
			wg.Add(1)
			go func(ch int) {
				defer wg.Done()
				d.SubmitBatch([]BatchCmd{{Src: SrcUser, Channel: ch, Data: make([]byte, 64)}}).Wait()
				if _, err := readInto(d, make([]byte, 512), ch, 0, 0); err != nil {
					t.Error(err)
				}
			}(ch)
		}
		wg.Wait()
		d.Close()
		return d
	}
	goroutines := runtime.NumGoroutine()
	threads, haveThreads := procThreads()
	var last *Device
	for i := 0; i < 50; i++ {
		last = run()
	}
	// Close does not wait for the channel workers to return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines+1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutines+1 {
		t.Fatalf("goroutines %d -> %d after 50 devices, want at most one more", goroutines, after)
	}
	if after, _ := procThreads(); haveThreads && after > threads+1 {
		t.Fatalf("threads %d -> %d after 50 devices, want at most one more", threads, after)
	}

	t0 := time.Now()
	if res := last.SubmitBatch([]BatchCmd{{Src: SrcUser, Channel: 0, WBlock: 1, Data: make([]byte, 64)}}).Wait(); res.Attempted != 1 || len(res.FailedEBlocks) != 0 {
		t.Fatalf("batch on a closed device: %+v", res)
	}
	if took := time.Since(t0); took < lat.ProgramWBlock {
		t.Fatalf("program on a closed device returned after %v, before its %v", took, lat.ProgramWBlock)
	}
}

// TestTimekeeperRuntimeAlarm drives the fallback alarm, which no Linux run
// reaches otherwise: concurrent waiters with deadlines out of order are all
// woken, none early. Its timekeeper goroutine outlives the test, as the
// process's own does.
func TestTimekeeperRuntimeAlarm(t *testing.T) {
	k := &timekeeper{alarm: newRuntimeAlarm()}
	go k.run()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := wakeup{ch: make(chan struct{}, 1)}
			for j := 0; j < 5; j++ {
				w.at = time.Now().Add(time.Duration((i*7+j*3)%16+1) * 200 * time.Microsecond)
				k.sleepUntil(&w)
				if now := time.Now(); now.Before(w.at) {
					t.Errorf("waiter %d woken %v early", i, w.at.Sub(now))
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestLogPageOvertakesQueued pins the device's one scheduling rule: a log
// page waiting for a channel goes before the programs queued on it. The test
// holds channel 0 as a running command would, its deadline at T, until a
// SrcWAL program waits at the turnstile, then queues eight programs. The
// log page is programmed first and the queue follows without a gap, so the
// log page ends at T plus one program and the channel at T plus nine, to
// the nanosecond, where FIFO would make the log page wait for all eight.
// What the rule must not change: the channel's virtual time, every count,
// the batch's result and the order of the queued programs in their EBLOCK.
// With wall latency off the same calls leave the same totals and order.
func TestLogPageOvertakesQueued(t *testing.T) {
	const queued = 8
	lat := Latency{ProgramWBlock: 5 * time.Millisecond}
	for _, scale := range []float64{0, 1} {
		d := MustNewDevice(wallGeometry(), lat)
		defer d.Close()
		d.SetWallLatencyScale(scale)
		rec := trace.New(64)
		d.SetTracer(rec)
		cmds := make([]BatchCmd, queued)
		for wb := range cmds {
			cmds[wb] = BatchCmd{Channel: 0, EBlock: 0, WBlock: wb, Data: make([]byte, 64), Src: SrcUser}
		}
		logPage := func() error { return d.Program(SrcWAL, 0, 1, 0, make([]byte, 64)) }
		logDone := make(chan error, 1)
		var b *Batch
		var T time.Time
		if scale == 0 { // nothing runs the queue until Wait
			b = d.SubmitBatch(cmds)
			logDone <- logPage()
		} else {
			cs := &d.channels[0]
			cs.mu.Lock()
			go func() { logDone <- logPage() }()
			for limit := time.Now().Add(5 * time.Second); cs.logFirst.TryLock(); runtime.Gosched() {
				cs.logFirst.Unlock() // the log page has not reached the turnstile
				if time.Now().After(limit) {
					t.Fatal("the log page never took the turnstile")
				}
			}
			b = d.SubmitBatch(cmds) // its worker waits at the turnstile
			T = time.Now()
			cs.wall.at = T
			cs.mu.Unlock()
		}
		if err := <-logDone; err != nil {
			t.Fatal(err)
		}
		logBack := time.Now()
		res := b.Wait()
		if res.Attempted != queued || len(res.FailedEBlocks) != 0 || res.Done.IsZero() || res.Done.After(time.Now()) {
			t.Fatalf("scale %v: batch result %+v", scale, res)
		}
		if scale > 0 {
			end := deadline(d, 0)
			if end.Sub(T) != (queued+1)*lat.ProgramWBlock || logBack.Before(T.Add(lat.ProgramWBlock)) || res.Done.Before(end) {
				t.Fatalf("channel 0 ends %v after T, want %v; the log page back %v after T, the batch done %v after", end.Sub(T), (queued+1)*lat.ProgramWBlock, logBack.Sub(T), res.Done.Sub(T))
			}
		}
		var order []int64 // the EBLOCK of each program, in the order the channel ran them
		for _, ev := range rec.Dump().Events {
			if ev.Kind == trace.KFlashProgram {
				order = append(order, ev.Arg2)
			}
		}
		if want := []int64{1, 0, 0, 0, 0, 0, 0, 0, 0}; !slices.Equal(order, want) {
			t.Fatalf("scale %v: programs ran in EBLOCK order %v, want %v", scale, order, want)
		}
		st := d.Stats()
		if st.WBlocksWritten != queued+1 || st.SrcWBlocks[SrcUser] != queued || st.SrcWBlocks[SrcWAL] != 1 || st.WriteFailures != 0 {
			t.Fatalf("scale %v: stats %+v", scale, st)
		}
		if got := d.ChannelTime(0); got != (queued+1)*lat.ProgramWBlock || d.MediaTime() != got {
			t.Fatalf("scale %v: channel 0 busy %v, media time %v, want %v", scale, got, d.MediaTime(), (queued+1)*lat.ProgramWBlock)
		}
		if next, err := d.NextProgramPosition(0, 0); err != nil || next != queued {
			t.Fatalf("scale %v: data EBLOCK's next program at %d (%v), want %d", scale, next, err, queued)
		}
	}
}

// TestReadAllWallLatency: a ReadAll stamps one arrival for all its reads
// and holds each channel for its own read only. One RBLOCK on each of eight
// channels ends at one deadline, a read latency or more after the call,
// even on channel 0, where eight programs are queued and none has run: its
// worker waits at the turnstile. The programs follow the read without a
// gap, ending eight programs after its deadline. No read returns early.
func TestReadAllWallLatency(t *testing.T) {
	lat := Latency{ReadRBlock: 4 * time.Millisecond, ProgramWBlock: 10 * time.Millisecond}
	d := MustNewDevice(wallGeometry(), lat) // eight channels
	defer d.Close()
	d.SetWallLatencyScale(1)
	reads, cmds := make([]Read, 8), make([]BatchCmd, 8)
	for k := range reads {
		reads[k] = Read{Channel: k, Segs: []ReadSeg{{Dst: make([]byte, 512)}}}
		cmds[k] = BatchCmd{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: k, Data: make([]byte, 64)}
	}
	cs := &d.channels[0]
	cs.logFirst.Lock()
	b := d.SubmitBatch(cmds)
	t0 := time.Now()
	d.ReadAll(reads)
	back := time.Now()
	at := deadline(d, 0)
	for k, r := range reads {
		if r.Err != nil || r.RBlocks != 1 || !deadline(d, k).Equal(at) {
			t.Fatalf("read %d: %+v, its channel's deadline %v after the call, channel 0's %v", k, r, deadline(d, k).Sub(t0), at.Sub(t0))
		}
	}
	cs.logFirst.Unlock()
	res := b.Wait()
	if at.Sub(t0) < lat.ReadRBlock || back.Before(at) || deadline(d, 0).Sub(at) != 8*lat.ProgramWBlock || res.Attempted != 8 {
		t.Fatalf("reads end %v after the call and return %v after it; the programs end %v after the reads (%+v)", at.Sub(t0), back.Sub(t0), deadline(d, 0).Sub(at), res)
	}
}
