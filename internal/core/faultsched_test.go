package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eleos/internal/chaos/invariant"
	"eleos/internal/provision"
	"eleos/internal/trace"
)

// Fault-schedule tests: deterministic program-failure injections at exact
// media sequence points while WriteBatch, GC, and checkpoint traffic runs
// concurrently. After the storm, the system must hold the shared invariant
// set implemented once in internal/chaos/invariant: content integrity,
// session monotonicity, no leaked actions or pins, and exact fault
// accounting. All schedules run under -race in CI.

// faultWriters mirrors runStressWriters but retries ErrWriteFailed with
// the same WSN, which is the documented client contract for media aborts.
// Returns per-writer highest acknowledged WSN and total observed aborts.
func faultWriters(t *testing.T, c *Controller, sids []uint64, batches uint64) ([]uint64, int64) {
	t.Helper()
	acked := make([]uint64, len(sids))
	var aborts int64
	var abortMu sync.Mutex
	errs := make(chan error, len(sids))
	var wg sync.WaitGroup
	for w := range sids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for wsn := uint64(1); wsn <= batches; wsn++ {
				const maxRetries = 50
				var err error
				for attempt := 0; attempt < maxRetries; attempt++ {
					err = c.WriteBatch(sids[w], wsn, stressBatch(w, wsn))
					if errors.Is(err, ErrWriteFailed) {
						abortMu.Lock()
						aborts++
						abortMu.Unlock()
						continue
					}
					if errors.Is(err, provision.ErrNoSpace) {
						// Transiently full: concurrent force-window actions
						// pin their EBLOCKs against GC, so under maximal
						// churn a channel can run dry until they install.
						time.Sleep(time.Millisecond)
						continue
					}
					break
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
	return acked, aborts
}

// TestFaultSchedule injects faults at fixed program-attempt offsets and
// asserts the invariants above. Offsets are relative to the arming point
// (after Format), so each schedule is deterministic regardless of how
// many programs formatting itself issued.
func TestFaultSchedule(t *testing.T) {
	schedules := []struct {
		name string
		arm  []int // 1-based program-attempt offsets that must fail
	}{
		// Offsets are spaced: when an armed fault lands on a WAL log page,
		// the failover retry is the very next program attempt, so adjacent
		// offsets can chain through the log's forward candidates and shut
		// the log down — a designed durability limit, not the scenario
		// under test here.
		{"single", []int{5}},
		{"burst", []int{10, 22, 34}},
		{"spread", []int{3, 25, 60, 110, 170}},
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			c, dev := stressController(t)
			for _, n := range sc.arm {
				dev.FailNthProgram(n)
			}

			sids := make([]uint64, 4)
			for w := range sids {
				sid, err := c.OpenSession()
				if err != nil {
					t.Fatalf("OpenSession: %v", err)
				}
				sids[w] = sid
			}

			// Background GC + checkpoint churn racing the writers. Both
			// may themselves absorb an injected fault; that surfaces as
			// ErrWriteFailed and is retried on the next tick.
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(1)
			go func() {
				defer bg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					var err error
					if i%2 == 0 {
						err = c.Checkpoint()
					} else {
						err = c.GCNow(i % c.Geometry().Channels)
					}
					if err != nil && !errors.Is(err, ErrWriteFailed) && !errors.Is(err, provision.ErrNoSpace) {
						t.Errorf("background churn: %v", err)
						return
					}
				}
			}()

			const batches = 60
			acked, aborts := faultWriters(t, c, sids, batches)
			close(stop)
			bg.Wait()

			// Every armed fault must have fired: the writer fleet issues
			// far more program attempts than the largest armed offset. The
			// shared checker covers accounting, leak, session, and content
			// invariants in one place.
			want := int64(len(sc.arm))
			exp := invariant.Expect{
				ProgramFaults:        want,
				EraseFaults:          0,
				MetricsProgramFaults: want,
				MetricsEraseFaults:   0,
				MinPrograms:          want + 1,
				MinMediaAborts:       aborts,
			}
			for w, sid := range sids {
				if acked[w] != batches {
					t.Fatalf("writer %d acked %d/%d", w, acked[w], batches)
				}
				exp.Sessions = append(exp.Sessions, invariant.Session{SID: sid, MinWSN: batches, Exact: true})
				for wsn := uint64(1); wsn <= batches; wsn++ {
					lpid := stressLPID(w, wsn)
					size := 200 + int((uint64(w)*131+wsn*97)%1800)
					exp.Pages = append(exp.Pages, invariant.Page{LPID: lpid, Want: pageContent(uint64(lpid), wsn, size)})
				}
				churn := stressChurnLPID(w)
				exp.Pages = append(exp.Pages, invariant.Page{LPID: churn, Want: pageContent(uint64(churn), batches, 8000)})
			}
			invariant.MustHold(t, c, exp)
		})
	}
}

// TestFaultScheduleTraceAttribution injects spaced program faults under a
// single traced writer and asserts the flight recorder attributes each
// client-visible media abort to the right batch: the batch's trace ID
// carries a media_abort instant AND at least one migration span, so an
// operator reading the dump sees not just that a batch failed but what
// cleanup its failure triggered (§VII). Single writer, no background
// churn: every user-visible abort is unambiguously one known trace ID.
func TestFaultScheduleTraceAttribution(t *testing.T) {
	c, dev := stressController(t)
	// Spaced offsets (see TestFaultSchedule): adjacent faults can chain
	// through the WAL's failover candidates. Some of these land on log
	// pages rather than user programs and surface as no client abort;
	// the test only asserts on aborts that did surface.
	for _, n := range []int{5, 9, 14, 20, 27} {
		dev.FailNthProgram(n)
	}
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}

	const batches = 30
	traceFor := func(wsn uint64) uint64 { return 7000 + wsn }
	aborted := map[uint64]bool{} // trace IDs that returned ErrWriteFailed
	for wsn := uint64(1); wsn <= batches; wsn++ {
		var werr error
		for attempt := 0; attempt < 10; attempt++ {
			sub := &SubFlush{SID: sid, WSN: wsn, TraceID: traceFor(wsn), Pages: stressBatch(0, wsn)}
			c.WriteBatchGroup([]*SubFlush{sub})
			werr = sub.Err
			if errors.Is(werr, ErrWriteFailed) {
				aborted[traceFor(wsn)] = true
				continue
			}
			break
		}
		if werr != nil {
			t.Fatalf("wsn %d: %v", wsn, werr)
		}
	}
	if len(aborted) == 0 {
		t.Fatal("no client-visible abort surfaced; the schedule no longer exercises the abort path")
	}

	// The storm must hold the shared invariant set before any trace
	// attribution is worth checking.
	exp := invariant.Expect{
		ProgramFaults:        5,
		EraseFaults:          0,
		MetricsProgramFaults: 5,
		MetricsEraseFaults:   0,
		MinMediaAborts:       int64(len(aborted)),
		Sessions:             []invariant.Session{{SID: sid, MinWSN: batches, Exact: true}},
	}
	for wsn := uint64(1); wsn <= batches; wsn++ {
		lpid := stressLPID(0, wsn)
		size := 200 + int((wsn*97)%1800)
		exp.Pages = append(exp.Pages, invariant.Page{LPID: lpid, Want: pageContent(uint64(lpid), wsn, size)})
	}
	invariant.MustHold(t, c, exp)

	d := c.TraceDump()
	if d.Dropped != 0 {
		t.Fatalf("ring dropped %d events; workload outgrew the default ring", d.Dropped)
	}
	abortsByID := map[uint64]int{}
	migrationsByID := map[uint64]int{}
	endsByID := map[uint64]int{}
	for _, ev := range d.Events {
		switch ev.Kind {
		case trace.KMediaAbort:
			abortsByID[ev.TraceID]++
			if ev.Arg1 < 1 {
				t.Errorf("media_abort for trace %d reports %d failed eblocks", ev.TraceID, ev.Arg1)
			}
		case trace.KMigration:
			migrationsByID[ev.TraceID]++
		case trace.KBatchEnd:
			if ev.Arg1 != 0 {
				endsByID[ev.TraceID]++
			}
		}
	}
	for id := range aborted {
		if abortsByID[id] == 0 {
			t.Errorf("trace %d returned ErrWriteFailed but has no media_abort event", id)
		}
		if migrationsByID[id] == 0 {
			t.Errorf("trace %d aborted but no migration span carries its ID", id)
		}
		if endsByID[id] == 0 {
			t.Errorf("trace %d aborted but no batch_end records the error", id)
		}
	}
	// And no abort was attributed to a batch that never failed.
	for id := range abortsByID {
		if !aborted[id] {
			t.Errorf("media_abort attributed to trace %d, which never returned ErrWriteFailed", id)
		}
	}
	// The successful retries completed: the final attempt of every WSN
	// has a clean batch_end.
	cleanEnds := map[uint64]bool{}
	for _, ev := range d.Events {
		if ev.Kind == trace.KBatchEnd && ev.Arg1 == 0 {
			cleanEnds[ev.TraceID] = true
		}
	}
	for wsn := uint64(1); wsn <= batches; wsn++ {
		if !cleanEnds[traceFor(wsn)] {
			t.Errorf("wsn %d never recorded a successful batch_end", wsn)
		}
	}
}

// TestFaultScheduleSurvivesRecovery injects a fault mid-traffic, crashes,
// reopens, and checks the committed prefix — a media abort must never
// corrupt what recovery replays.
func TestFaultScheduleSurvivesRecovery(t *testing.T) {
	c, dev := stressController(t)
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	dev.FailNthProgram(4)
	dev.FailNthProgram(9)

	const batches = 30
	var lastAcked uint64
	for wsn := uint64(1); wsn <= batches; wsn++ {
		var werr error
		for attempt := 0; attempt < 10; attempt++ {
			werr = c.WriteBatch(sid, wsn, stressBatch(0, wsn))
			if !errors.Is(werr, ErrWriteFailed) {
				break
			}
		}
		if werr != nil {
			t.Fatalf("wsn %d: %v", wsn, werr)
		}
		lastAcked = wsn
	}
	if got := dev.Stats().WriteFailures; got != 2 {
		t.Fatalf("WriteFailures = %d, want 2", got)
	}
	c.Crash()

	c2, err := Open(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	high, err := c2.SessionHighestWSN(sid)
	if err != nil {
		t.Fatal(err)
	}
	// Device fault counts persist across recovery; the metrics registry is
	// per-controller and resets at Open, so those expectations are skipped.
	exp := invariant.Expect{
		ProgramFaults:        2,
		EraseFaults:          0,
		MetricsProgramFaults: invariant.Skip,
		MetricsEraseFaults:   invariant.Skip,
		Sessions:             []invariant.Session{{SID: sid, MinWSN: lastAcked}},
	}
	for wsn := uint64(1); wsn <= high; wsn++ {
		lpid := stressLPID(0, wsn)
		size := 200 + int((wsn*97)%1800)
		exp.Pages = append(exp.Pages, invariant.Page{LPID: lpid, Want: pageContent(uint64(lpid), wsn, size)})
	}
	invariant.MustHold(t, c2, exp)
}
