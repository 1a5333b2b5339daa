package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/bufpool"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
	"eleos/internal/trace"
)

// Tests for server-side batch coalescing: flushes from different
// connections merged into one controller group must keep every
// per-(sid,wsn) guarantee the individual path gives — ack semantics,
// dedup, WSN ordering, trace attribution, and fault isolation.

func coalesceOn(window time.Duration) server.Config {
	return server.Config{CoalesceWindow: window}
}

// TestCoalescingLoopback runs the multi-client loopback workload with
// coalescing on: every batch acked and readable, none double-applied,
// and at least some rounds actually merged (GroupWrites).
func TestCoalescingLoopback(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, coalesceOn(3*time.Millisecond))

	const (
		nClients      = 6
		batches       = 15
		pagesPerBatch = 2
	)
	type ack struct {
		lpid addr.LPID
		data []byte
	}
	var (
		mu    sync.Mutex
		acked []ack
	)
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addrStr, fastOpts(int64(w+1)))
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", w, err)
				return
			}
			defer cl.Close()
			sess, err := cl.NewSession()
			if err != nil {
				errs <- fmt.Errorf("client %d session: %w", w, err)
				return
			}
			for i := 0; i < batches; i++ {
				pages := make([]core.LPage, pagesPerBatch)
				local := make([]ack, pagesPerBatch)
				for j := range pages {
					lpid := addr.LPID(uint64(w+1)*1_000_000 + uint64(i*pagesPerBatch+j))
					data := []byte(fmt.Sprintf("coalesce client=%d batch=%d page=%d", w, i, j))
					pages[j] = core.LPage{LPID: lpid, Data: data}
					local[j] = ack{lpid: lpid, data: data}
				}
				if err := sess.Flush(pages); err != nil {
					errs <- fmt.Errorf("client %d batch %d: %w", w, i, err)
					return
				}
				mu.Lock()
				acked = append(acked, local...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := ctl.Stats()
	if got, want := st.BatchesWritten, int64(nClients*batches); got != want {
		t.Fatalf("BatchesWritten = %d, want %d (double-apply or loss)", got, want)
	}
	if st.StaleWrites != 0 {
		t.Fatalf("StaleWrites = %d, want 0", st.StaleWrites)
	}
	// With six clients flushing inside a 3ms window, merging must have
	// happened — otherwise coalescing is silently disabled.
	if st.GroupWrites == 0 {
		t.Fatal("no flushes were coalesced (GroupWrites = 0)")
	}
	if st.GroupedFlushes < 2*st.GroupWrites {
		t.Fatalf("GroupedFlushes = %d with GroupWrites = %d: groups of <2", st.GroupedFlushes, st.GroupWrites)
	}

	verifier, err := client.Dial(addrStr, fastOpts(99))
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()
	for _, a := range acked {
		got, err := verifier.Read(a.lpid)
		if err != nil {
			t.Fatalf("read %d: %v", a.lpid, err)
		}
		if !bytes.HasPrefix(got, a.data) {
			t.Fatalf("lpid %d: got %q, want prefix %q", a.lpid, got, a.data)
		}
	}
}

// TestCoalescingStaleAndDeferred drives the two non-trivial claim
// outcomes through two-flush rounds (the window long enough that both
// flushes of a pair join one round): a stale duplicate re-ACKed without
// re-applying, and an early WSN deferred out of its group, completing once
// its predecessor lands.
func TestCoalescingStaleAndDeferred(t *testing.T) {
	const window = 200 * time.Millisecond
	ctl, _, _, addrStr, _ := startServer(t, coalesceOn(window))

	clA, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clB, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	sidA, err := clA.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	sidB, err := clB.OpenSession()
	if err != nil {
		t.Fatal(err)
	}

	// pair fires both flushes so they land in one round, which closes
	// when its window runs out.
	pair := func(fa, fb func() error) {
		t.Helper()
		var wg sync.WaitGroup
		ferrs := make(chan error, 2)
		for _, f := range []func() error{fa, fb} {
			wg.Add(1)
			go func(f func() error) {
				defer wg.Done()
				ferrs <- f()
			}(f)
		}
		wg.Wait()
		close(ferrs)
		for err := range ferrs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func(cl *client.Client, sid, wsn uint64, lpid addr.LPID, data string) func() error {
		return func() error {
			_, err := cl.Flush(sid, wsn, []core.LPage{{LPID: lpid, Data: []byte(data)}})
			return err
		}
	}

	// Round 1: both sessions' first batches merge and apply.
	pair(flush(clA, sidA, 1, 100, "A1 original"), flush(clB, sidB, 1, 200, "B1"))

	// Round 2: A resends WSN 1 (a retry after a lost ack) alongside B's
	// fresh WSN 2. The duplicate must ACK without being re-applied.
	pair(flush(clA, sidA, 1, 100, "A1 DUPLICATE"), flush(clB, sidB, 2, 201, "B2"))

	st := ctl.Stats()
	if st.StaleWrites != 1 {
		t.Fatalf("StaleWrites = %d, want 1", st.StaleWrites)
	}
	if st.BatchesWritten != 3 {
		t.Fatalf("BatchesWritten = %d, want 3 (duplicate re-applied?)", st.BatchesWritten)
	}

	// Round 3: A skips ahead to WSN 3 (its WSN 2 is still in flight on
	// another connection) while B flushes WSN 3. B's sub must not stall:
	// the group writes it, A's early sub is deferred to the individual
	// path, and completes once WSN 2 arrives below.
	done := make(chan struct{})
	go func() {
		defer close(done)
		pair(flush(clA, sidA, 3, 102, "A3 early"), flush(clB, sidB, 3, 202, "B3"))
	}()

	time.Sleep(window + 100*time.Millisecond) // let round 3 close, claim and defer A's sub
	clC, err := client.Dial(addrStr, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer clC.Close()
	if _, err := clC.Flush(sidA, 2, []core.LPage{{LPID: 101, Data: []byte("A2 late")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deferred early-WSN flush never completed")
	}

	verifier, err := client.Dial(addrStr, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()
	want := map[addr.LPID]string{
		100: "A1 original", // not the duplicate's payload
		101: "A2 late",
		102: "A3 early",
		200: "B1", 201: "B2", 202: "B3",
	}
	for lpid, data := range want {
		got, err := verifier.Read(lpid)
		if err != nil {
			t.Fatalf("read %d: %v", lpid, err)
		}
		if !bytes.HasPrefix(got, []byte(data)) {
			t.Fatalf("lpid %d: got %q, want prefix %q", lpid, got, data)
		}
	}
}

// TestCoalescingTraceAttribution: when flushes from several connections
// merge into one group, each one's trace ID must still carry the full
// write-path stage set — shared spans are emitted once per sub, under
// the sub's own identity.
func TestCoalescingTraceAttribution(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, coalesceOn(10*time.Millisecond))

	const nClients = 4
	traceIDs := make([]uint64, nClients)
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for w := 0; w < nClients; w++ {
		traceIDs[w] = uint64(0x71ace000 + w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addrStr, fastOpts(int64(w+1)))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			sid, err := cl.OpenSession()
			if err != nil {
				errs <- err
				return
			}
			pages := []core.LPage{{LPID: addr.LPID(300 + w), Data: pageData(w, 600)}}
			if _, err := cl.FlushTraced(traceIDs[w], sid, 1, pages); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ctl.Stats().GroupWrites == 0 {
		t.Fatal("flushes did not coalesce; trace attribution under merging untested")
	}

	cl, err := client.Dial(addrStr, fastOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dump, err := cl.TraceDump()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]map[trace.Kind]int{}
	for _, ev := range dump.Events {
		if ev.TraceID == 0 {
			continue
		}
		if byID[ev.TraceID] == nil {
			byID[ev.TraceID] = map[trace.Kind]int{}
		}
		byID[ev.TraceID][ev.Kind]++
	}
	stages := []trace.Kind{
		trace.KBatchStart, trace.KClaim, trace.KInit, trace.KProgramWait,
		trace.KForceWait, trace.KInstall, trace.KBatchEnd,
	}
	for _, tid := range traceIDs {
		got := byID[tid]
		if got == nil {
			t.Fatalf("trace %#x has no events", tid)
		}
		for _, k := range stages {
			if got[k] == 0 {
				t.Errorf("trace %#x missing stage %v (got %v)", tid, k, got)
			}
		}
	}
}

// TestCoalescingMediaFaultRetry: a media failure under a merged group
// must fail every sub-flush in it, and each client's retry of its own
// (sid, wsn) must land exactly once.
func TestCoalescingMediaFaultRetry(t *testing.T) {
	ctl, dev, _, addrStr, _ := startServer(t, coalesceOn(3*time.Millisecond))

	const nClients = 4
	type cs struct {
		cl  *client.Client
		sid uint64
	}
	clients := make([]cs, nClients)
	for w := range clients {
		cl, err := client.Dial(addrStr, fastOpts(int64(w+1)))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sid, err := cl.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = cs{cl, sid}
		// Warm flush so the fault round is the only in-flight work when
		// the failure is armed.
		if _, err := cl.Flush(sid, 1, []core.LPage{{LPID: addr.LPID(400 + w), Data: pageData(w, 200)}}); err != nil {
			t.Fatal(err)
		}
	}

	// The fault is aimed by address — "the next program attempt" would be
	// the round's data program or its commit page, whichever reaches the
	// device first: the WBLOCK after client 0's warm page, which client 0's
	// fault-round flush reaches by being wide enough for every channel.
	armFaultBehind(t, dev, pageData(0, 200))
	geo := dev.Geometry()

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c cs) {
			defer wg.Done()
			pages := []core.LPage{{LPID: addr.LPID(500 + w), Data: pageData(100+w, 300)}}
			for ch := 0; w == 0 && ch < geo.Channels; ch++ {
				pages = append(pages, core.LPage{LPID: addr.LPID(600 + ch), Data: pageData(ch, geo.WBlockBytes)})
			}
			if _, err := c.cl.Flush(c.sid, 2, pages); err != nil {
				errs <- fmt.Errorf("client %d: %w", w, err)
			}
		}(w, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if dev.Stats().WriteFailures == 0 {
		t.Fatal("armed program failure never fired")
	}
	retries := int64(0)
	for _, c := range clients {
		retries += c.cl.Stats().Retries
	}
	if retries == 0 {
		t.Fatal("no client retried after the media failure")
	}
	st := ctl.Stats()
	if got, want := st.BatchesWritten, int64(2*nClients); got != want {
		t.Fatalf("BatchesWritten = %d, want %d (retry double-applied or lost)", got, want)
	}
	verifier, err := client.Dial(addrStr, fastOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()
	for w := range clients {
		got, err := verifier.Read(addr.LPID(500 + w))
		if err != nil {
			t.Fatalf("read %d: %v", 500+w, err)
		}
		if !bytes.HasPrefix(got, pageData(100+w, 300)) {
			t.Fatalf("lpid %d content wrong after retry", 500+w)
		}
	}
}

// armFaultBehind arms a program failure at the WBLOCK after the one that
// starts with data — a one-page flush's only data program — which it finds
// by reading the device.
func armFaultBehind(t *testing.T, dev *flash.Device, data []byte) {
	t.Helper()
	geo := dev.Geometry()
	for ch := 0; ch < geo.Channels; ch++ {
		for eb := 0; eb < geo.EBlocksPerChannel; eb++ {
			pos, err := dev.NextProgramPosition(ch, eb)
			if err != nil || pos == 0 || pos == geo.WBlocksPerEBlock() {
				continue
			}
			r := []flash.Read{{Channel: ch, EBlock: eb, Seg: flash.ReadSeg{Off: (pos - 1) * geo.WBlockBytes, Dst: make([]byte, len(data))}}}
			if dev.ReadAll(r); r[0].Err == nil && bytes.Equal(r[0].Seg.Dst, data) {
				dev.FailNextProgram(ch, eb, pos)
				return
			}
		}
	}
	t.Fatal("no EBLOCK's last programmed WBLOCK starts with the page")
}

// TestPooledPathPoisonIntegrity turns on buffer poisoning (released
// pooled buffers are scribbled with bufpool.PoisonByte) and runs the
// zero-copy flush paths end to end. If any layer reads a frame after
// its refcount dropped — decode views, coalesced sub-flushes, program
// buffers — the scribble corrupts page content and the read-back
// catches it. Run under -race in CI for the ordering half of the proof.
func TestPooledPathPoisonIntegrity(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })

	run := func(t *testing.T, scfg server.Config) {
		_, _, _, addrStr, _ := startServer(t, scfg)
		const nClients = 3
		var wg sync.WaitGroup
		errs := make(chan error, nClients)
		for w := 0; w < nClients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl, err := client.Dial(addrStr, fastOpts(int64(w+1)))
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				sess, err := cl.NewSession()
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < 10; i++ {
					// One small page (coalescible) and one large page (a
					// vectored reply on read-back).
					pages := []core.LPage{
						{LPID: addr.LPID(uint64(w+1)*10_000 + uint64(2*i)), Data: pageData(w*100+i, 64)},
						{LPID: addr.LPID(uint64(w+1)*10_000 + uint64(2*i+1)), Data: pageData(w*100+i+50, 8000)},
					}
					if err := sess.Flush(pages); err != nil {
						errs <- fmt.Errorf("client %d flush %d: %w", w, i, err)
						return
					}
					for _, p := range pages {
						got, err := cl.Read(p.LPID)
						if err != nil {
							errs <- fmt.Errorf("client %d read %d: %w", w, p.LPID, err)
							return
						}
						if !bytes.HasPrefix(got, p.Data) {
							errs <- fmt.Errorf("client %d lpid %d: content corrupted (use-after-release?)", w, p.LPID)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	t.Run("direct", func(t *testing.T) { run(t, server.Config{}) })
	t.Run("coalesced", func(t *testing.T) { run(t, coalesceOn(2*time.Millisecond)) })
}
