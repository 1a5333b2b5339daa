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
)

// Timing fidelity of the wall-latency emulation (DESIGN.md §4.1): an
// emulated wait never returns early, returns within a small reported
// lateness, chains on its channel's deadline, costs nothing when off, and
// one timekeeper serves the process.

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

// sampleWall times wallSamples programs, single-RBLOCK reads and erases,
// one at a time on the calling goroutine.
func sampleWall(t *testing.T, d *Device) (programs, reads, erases []time.Duration) {
	t.Helper()
	g := d.Geometry()
	data, dst := make([]byte, 64), make([]byte, 512)
	timed := func(f func() error) time.Duration {
		t0 := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	for i := 0; i < wallSamples; i++ {
		ch, wb := i%g.Channels, i/g.Channels
		programs = append(programs, timed(func() error { return d.Program(SrcUser, ch, 0, wb, data) }))
		reads = append(reads, timed(func() error { _, err := readInto(d, dst, ch, 0, wb*g.WBlockBytes); return err }))
	}
	for i := 0; i < wallSamples; i++ {
		erases = append(erases, timed(func() error { return eraseNow(d, i%g.Channels, 1) }))
	}
	return programs, reads, erases
}

func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s[len(s)/2]
}

// chain erases EBLOCK 1 of the first channels channels, then submits n
// programs for each of them as one batch and returns how long that took.
func chain(t *testing.T, d *Device, channels, n int) time.Duration {
	t.Helper()
	const eb = 1
	var cmds []BatchCmd
	for ch := 0; ch < channels; ch++ {
		cmds = append(cmds, BatchCmd{Op: OpErase, Channel: ch, EBlock: eb})
	}
	if res := d.SubmitBatch(cmds).Wait(); len(res.FailedEBlocks) != 0 {
		t.Fatalf("erase batch result: %+v", res)
	}
	cmds = cmds[:0]
	for wb := 0; wb < n; wb++ {
		for ch := 0; ch < channels; ch++ {
			cmds = append(cmds, BatchCmd{Src: SrcUser, Channel: ch, EBlock: eb, WBlock: wb, Data: make([]byte, 64)})
		}
	}
	t0 := time.Now()
	if res := d.SubmitBatch(cmds).Wait(); res.Attempted != len(cmds) || len(res.FailedEBlocks) != 0 {
		t.Fatalf("batch result: %+v", res)
	}
	return time.Since(t0)
}

// TestWallWaitNeverEarly: no program, read or erase returns before its start
// plus its latency, alone or chained behind others on its channel, and
// "flash.wall_late_ns" has one sample per wait, none of them negative.
func TestWallWaitNeverEarly(t *testing.T) {
	d, reg := wallDevice(t)
	lat := TypicalNANDLatency()
	programs, reads, erases := sampleWall(t, d)
	var over time.Duration // what the callers saw beyond the model: bounds the reported lateness
	for _, c := range []struct {
		name string
		took []time.Duration
		lat  time.Duration
	}{{"program", programs, lat.ProgramWBlock}, {"read", reads, lat.ReadRBlock}, {"erase", erases, lat.EraseEBlock}} {
		for i, took := range c.took {
			if took < c.lat {
				t.Fatalf("%s %d returned after %v, before its %v", c.name, i, took, c.lat)
			}
			over += took - c.lat
		}
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

	// Chained deadlines absorb lateness; they must not eat into the model.
	for _, c := range []struct{ channels, n int }{{1, 50}, {8, 25}} {
		if took := chain(t, d, c.channels, c.n); took < time.Duration(c.n)*lat.ProgramWBlock {
			t.Fatalf("%d programs on each of %d channels took %v, less than %d × %v", c.n, c.channels, took, c.n, lat.ProgramWBlock)
		}
	}
}

// TestWallLatencyMedians: on an idle device a wait is late by the wake-up
// chain (timer, timekeeper, waiter), not by a timer floor — time.Sleep made
// every one of these at least 1.08 ms — and commands queued on a channel
// end at first start + k × latency, whatever each wait's own lateness. The
// bounds are wall clock on a host that other tests share, so the best of
// three attempts counts; that nothing is ever early is
// TestWallWaitNeverEarly's, on every attempt.
func TestWallLatencyMedians(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bounds need an idle CPU; under -race every other package's tests run beside this one at several times their cost")
	}
	var missed []string
	for attempt := 1; attempt <= 3; attempt++ {
		if missed = wallBoundsMissed(t); len(missed) == 0 {
			return
		}
		t.Logf("attempt %d missed: %v", attempt, missed)
	}
	t.Fatalf("three attempts, the last missed: %v", missed)
}

// wallBoundsMissed measures a fresh idle device against the fidelity bounds,
// logs what it measured and returns the bounds that did not hold.
func wallBoundsMissed(t *testing.T) (missed []string) {
	d, reg := wallDevice(t)
	lat := TypicalNANDLatency()
	check := func(what string, got, most time.Duration) {
		t.Logf("%s: %v (at most %v)", what, got, most)
		if got > most {
			missed = append(missed, what)
		}
	}
	programs, reads, erases := sampleWall(t, d)
	check("median single-RBLOCK read, model 60µs", median(reads), 250*time.Microsecond)
	check("median program, model 800µs", median(programs), 1000*time.Microsecond)
	check("median erase, model 5ms", median(erases), 5400*time.Microsecond)
	late := reg.Snapshot().Histogram("flash.wall_late_ns")
	check("mean flash.wall_late_ns", time.Duration(late.Sum/late.Count), 250*time.Microsecond)
	check("50 programs queued on one channel, model 40ms", chain(t, d, 1, 50), 50*lat.ProgramWBlock*105/100)
	check("25 programs on each of 8 channels, against one channel's 25 + 10 %", chain(t, d, 8, 25), chain(t, d, 1, 25)*110/100)
	return missed
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

// TestLogPageOvertakesQueued pins the device's one scheduling rule. Eight
// programs are queued on one channel and one of them holds it when a SrcWAL
// program arrives for another EBLOCK: the log page goes before the next
// queued program —
// it returns within two program latencies, the rest of the running program
// plus its own, and never within one — where FIFO would make it wait for
// all eight. What the rule must not change: the channel's virtual time,
// every count, the batch's result and the order of the queued programs in
// their EBLOCK. With wall latency off the same calls leave the same totals.
func TestLogPageOvertakesQueued(t *testing.T) {
	const queued = 8
	lat := Latency{ProgramWBlock: 5 * time.Millisecond}
	run := func(scale float64) (took time.Duration) {
		d := MustNewDevice(wallGeometry(), lat)
		defer d.Close()
		d.SetWallLatencyScale(scale)
		cmds := make([]BatchCmd, queued)
		for wb := range cmds {
			cmds[wb] = BatchCmd{Channel: 0, EBlock: 0, WBlock: wb, Data: make([]byte, 64), Src: SrcUser}
		}
		b := d.SubmitBatch(cmds)
		for cs := &d.channels[0]; scale > 0 && cs.mu.TryLock(); runtime.Gosched() {
			cs.mu.Unlock() // nobody held the channel: the worker is between two programs
		}
		t0 := time.Now()
		if err := d.Program(SrcWAL, 0, 1, 0, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		took = time.Since(t0)
		res := b.Wait()
		if res.Attempted != queued || len(res.FailedEBlocks) != 0 {
			t.Fatalf("scale %v: batch result %+v", scale, res)
		}
		// Done is the last program's end, stamped by the worker: past the log
		// page's return when programs take time, never past Wait's.
		if res.Done.IsZero() || res.Done.After(time.Now()) || scale > 0 && res.Done.Before(t0.Add(took)) {
			t.Fatalf("scale %v: batch done at %v, log page back at %v", scale, res.Done, t0.Add(took))
		}
		st := d.Stats()
		if st.WBlocksWritten != queued+1 || st.SrcWBlocks[SrcUser] != queued || st.SrcWBlocks[SrcWAL] != 1 || st.WriteFailures != 0 {
			t.Fatalf("scale %v: stats %+v", scale, st)
		}
		if got := d.ChannelTime(0); got != (queued+1)*lat.ProgramWBlock || d.MediaTime() != got {
			t.Fatalf("scale %v: channel 0 busy %v, media time %v, want %v", scale, got, d.MediaTime(), (queued+1)*lat.ProgramWBlock)
		}
		data, log := 0, 0
		var err error
		if data, err = d.NextProgramPosition(0, 0); err == nil {
			log, err = d.NextProgramPosition(0, 1)
		}
		if err != nil || data != queued || log != 1 {
			t.Fatalf("scale %v: program positions %d and %d (%v), want %d and 1", scale, data, log, err, queued)
		}
		return took
	}
	run(0)
	// The upper bound needs the host to run two goroutines on time; three
	// attempts, as TestWallLatencyMedians takes. The lower one is a contract.
	var took time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		if took = run(1); took < lat.ProgramWBlock {
			t.Fatalf("the log page returned after %v, before its %v", took, lat.ProgramWBlock)
		}
		t.Logf("attempt %d: log page behind %d queued programs took %v (model: at most %v)", attempt, queued, took, 2*lat.ProgramWBlock)
		if took <= 2*lat.ProgramWBlock+lat.ProgramWBlock/2 {
			return
		}
	}
	t.Fatalf("three attempts, the last took %v: the log page waited for more than the running program", took)
}

// TestReadAllWallLatency: a ReadAll holds each channel for its own read
// only. One RBLOCK on each of eight idle channels returns within two read
// latencies, not eight; one behind eight programs queued on its channel
// returns before they have all run; neither ever within one read latency.
// The upper bounds need the host to run two goroutines on time; three
// attempts, as TestLogPageOvertakesQueued takes.
func TestReadAllWallLatency(t *testing.T) {
	lat := Latency{ReadRBlock: 4 * time.Millisecond, ProgramWBlock: 10 * time.Millisecond}
	run := func() (overlapped, passed bool) {
		d := MustNewDevice(wallGeometry(), lat) // eight channels
		defer d.Close()
		d.SetWallLatencyScale(1)
		reads, cmds := make([]Read, 8), make([]BatchCmd, 8)
		for k := range reads {
			reads[k] = Read{Channel: k, Segs: []ReadSeg{{Dst: make([]byte, 512)}}}
			cmds[k] = BatchCmd{Src: SrcUser, Channel: 0, EBlock: 1, WBlock: k, Data: make([]byte, 64)}
		}
		t0 := time.Now()
		d.ReadAll(reads)
		took := time.Since(t0)
		b := d.SubmitBatch(cmds)
		for cs := &d.channels[0]; cs.mu.TryLock(); runtime.Gosched() {
			cs.mu.Unlock() // nobody held the channel: the worker is between two programs
		}
		t1 := time.Now()
		d.ReadAll(reads[:1])
		behind := time.Since(t1)
		res := b.Wait()
		for _, r := range reads {
			if r.Err != nil || r.RBlocks != 1 || took < lat.ReadRBlock || behind < lat.ReadRBlock {
				t.Fatalf("read %+v; the calls took %v and %v, model %v", r, took, behind, lat.ReadRBlock)
			}
		}
		t.Logf("8 channels took %v (model %v); one read behind 8 programs %v, the programs done %v later", took, lat.ReadRBlock, behind, res.Done.Sub(t1.Add(behind)))
		return took < 2*lat.ReadRBlock, t1.Add(behind).Before(res.Done)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		if overlapped, passed := run(); overlapped && passed {
			return
		}
	}
	t.Fatal("three attempts: reads on idle channels took two read latencies or more, or the read behind the queue waited for it")
}
