package flash

import (
	"errors"
	"sync"
	"testing"

	"eleos/internal/metrics"
)

func TestFailNthProgram(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	reg := metrics.New()
	d.SetMetrics(reg)

	// Arm the 2nd and 4th program attempts from now.
	d.FailNthProgram(2)
	d.FailNthProgram(4)

	data := make([]byte, d.Geometry().WBlockBytes)
	var failures int
	// Program across distinct EBLOCKs so a failure never disables a later
	// target.
	for eb := 0; eb < 6; eb++ {
		if err := d.Program(SrcUser, 0, eb, 0, data); err != nil {
			if !errors.Is(err, ErrWriteFailed) {
				t.Fatalf("eb %d: %v", eb, err)
			}
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("failures = %d, want 2", failures)
	}
	if got := d.Stats().WriteFailures; got != 2 {
		t.Fatalf("WriteFailures = %d, want 2", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("flash.program_failures"); got != 2 {
		t.Fatalf("flash.program_failures = %d, want 2", got)
	}
	if got := snap.Counter("flash.programs"); got != 6 {
		t.Fatalf("flash.programs = %d, want 6", got)
	}
	// A failed EBLOCK is disabled until erased, as with address injection.
	if err := d.Program(SrcUser, 0, 1, 1, data); !errors.Is(err, ErrEBlockDisabled) {
		t.Fatalf("program into failed eblock: %v, want ErrEBlockDisabled", err)
	}
}

func TestFailNthProgramConcurrentExactCount(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	reg := metrics.New()
	d.SetMetrics(reg)
	const injected = 3
	for i := 0; i < injected; i++ {
		d.FailNthProgram(i*2 + 1)
	}
	// Fire plenty of programs from concurrent goroutines; whichever ones
	// land on the armed sequence numbers fail — exactly `injected` in
	// total, no matter the interleaving.
	geo := d.Geometry()
	data := make([]byte, geo.WBlockBytes)
	var wg sync.WaitGroup
	for ch := 0; ch < geo.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			for eb := 0; eb < geo.EBlocksPerChannel; eb++ {
				// Errors expected on armed attempts; the EBLOCK is then
				// skipped (next iteration uses a fresh one).
				_ = d.Program(SrcUser, ch, eb, 0, data)
			}
		}(ch)
	}
	wg.Wait()
	if got := d.Stats().WriteFailures; got != injected {
		t.Fatalf("WriteFailures = %d, want %d", got, injected)
	}
	if got := reg.Snapshot().Counter("flash.program_failures"); got != injected {
		t.Fatalf("flash.program_failures = %d, want %d", got, injected)
	}
}

func TestSetMetricsLatencyAndQueueDepth(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	reg := metrics.New()
	d.SetMetrics(reg)
	defer d.Close()

	geo := d.Geometry()
	data := make([]byte, geo.WBlockBytes)
	cmds := []BatchCmd{
		{Src: SrcUser, Channel: 0, EBlock: 0, WBlock: 0, Data: data},
		{Src: SrcUser, Channel: 0, EBlock: 0, WBlock: 1, Data: data},
		{Src: SrcUser, Channel: 1, EBlock: 0, WBlock: 0, Data: data},
	}
	res := d.SubmitBatch(cmds).Wait()
	if res.Attempted != 3 || len(res.FailedEBlocks) != 0 {
		t.Fatalf("batch result: %+v", res)
	}
	// The erase rides the same queue, gauge and instruments as the programs.
	if res := d.SubmitBatch([]BatchCmd{{Op: OpErase, Channel: 0, EBlock: 0}}).Wait(); res.Attempted != 1 || len(res.FailedEBlocks) != 0 {
		t.Fatalf("erase batch result: %+v", res)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("flash.programs"); got != 3 {
		t.Fatalf("flash.programs = %d, want 3", got)
	}
	if got := snap.Counter("flash.erases"); got != 1 {
		t.Fatalf("flash.erases = %d, want 1", got)
	}
	if hv := snap.Histogram("flash.program_ns"); hv == nil || hv.Count != 3 {
		t.Fatalf("flash.program_ns = %+v, want 3 observations", hv)
	}
	if hv := snap.Histogram("flash.erase_ns"); hv == nil || hv.Count != 1 {
		t.Fatalf("flash.erase_ns = %+v, want 1 observation", hv)
	}
	// Queues drained: every channel's depth gauge is back to zero.
	for _, g := range snap.Gauges {
		if g.Value != 0 {
			t.Fatalf("gauge %s = %d after drain, want 0", g.Name, g.Value)
		}
	}

	// A nil registry uninstalls instrumentation without breaking I/O.
	d.SetMetrics(nil)
	if err := d.Program(SrcUser, 2, 0, 0, data); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("flash.programs"); got != 3 {
		t.Fatalf("uninstalled metrics still counting: %d", got)
	}
}
