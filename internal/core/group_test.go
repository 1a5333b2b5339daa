package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
)

// Tests of the one write path: WriteBatchGroup's claim rounds, and
// WriteBatch as a group of one.

// within fails the test if f has not returned after a generous bound:
// the failure mode of a claim-protocol bug is a hang, not a wrong value.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

func sessionSub(sid, wsn uint64) *SubFlush {
	return &SubFlush{SID: sid, WSN: wsn, Pages: []LPage{{LPID: addr.LPID(wsn), Data: pageContent(wsn, 1, 300)}}}
}

// TestGroupOutOfOrderSubs hands one group a session's flushes out of WSN
// order. Every round claims whatever is claimable and re-claims the rest
// after the action installs, so the group drains in WSN order however the
// subs are listed — and waits on the condition variable only when its
// next WSN is in someone else's hands.
func TestGroupOutOfOrderSubs(t *testing.T) {
	check := func(t *testing.T, c *Controller, sid uint64, subs []*SubFlush) {
		t.Helper()
		for _, s := range subs {
			if s.Err != nil {
				t.Errorf("wsn %d: %v", s.WSN, s.Err)
			}
		}
		if high, err := c.SessionHighestWSN(sid); err != nil || high != 3 {
			t.Fatalf("highest WSN = %d, %v; want 3", high, err)
		}
		for wsn := uint64(1); wsn <= 3; wsn++ {
			checkRead(t, c, addr.LPID(wsn), pageContent(wsn, 1, 300))
		}
	}
	t.Run("whole session in one group", func(t *testing.T) {
		c, _ := newFormatted(t)
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		subs := []*SubFlush{sessionSub(sid, 3), sessionSub(sid, 2), sessionSub(sid, 1)}
		within(t, "group [3 2 1]", func() { c.WriteBatchGroup(subs) })
		check(t, c, sid, subs)
	})
	t.Run("predecessor written concurrently", func(t *testing.T) {
		c, _ := newFormatted(t)
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		subs := []*SubFlush{sessionSub(sid, 3), sessionSub(sid, 2)}
		first := sessionSub(sid, 1)
		within(t, "group [3 2] racing WriteBatch 1", func() {
			grouped := make(chan struct{})
			go func() {
				defer close(grouped)
				c.WriteBatchGroup(subs)
			}()
			first.Err = c.WriteBatch(sid, 1, first.Pages)
			<-grouped
		})
		check(t, c, sid, append(subs, first))
	})
}

// flushOutcome is what a host can observe of one flush, plus the
// controller's flush-level accounting for it.
type flushOutcome struct {
	err, companionErr error // sentinel each error matched (nil = success)
	highest           uint64
	version           uint64 // content version LPID 10 ends up holding (0 = unmapped)
	batches, pages    int64
	bytesAccepted     int64
	bytesStored       int64
	stale, aborted    int64
}

// sentinelOf strips an error's wrapping down to the sentinel the cases
// expect, so outcomes compare with ==.
func sentinelOf(err error) error {
	for _, sentinel := range []error{ErrCrashed, ErrEmptyBatch} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

// TestBatchAndGroupAgree drives the same cases through WriteBatch and
// through a multi-sub WriteBatchGroup: a plain flush is a group of one,
// so the two must be indistinguishable in outcome and in Stats. Every
// case also writes an unordered companion flush — its own WriteBatch
// call in the batch arm, a groupmate in the group arm — so the group arm
// really merges, and the companion must be untouched by its neighbour's
// fate (other than a dead controller).
func TestBatchAndGroupAgree(t *testing.T) {
	const lpid = 10
	page := func(version uint64) []LPage {
		return []LPage{{LPID: lpid, Data: pageContent(lpid, version, 700)}}
	}
	companion := func() []LPage { return []LPage{{LPID: 99, Data: pageContent(99, 1, 200)}} }
	pageBytes, companionBytes := int64(700), int64(200)
	stored := func(n int64) int64 { return int64(addr.AlignUp(int(n))) }

	// arm writes the companion and one session flush, batch- or group-wise.
	type arm func(c *Controller, sid, wsn uint64, pages []LPage) (err, companionErr error)
	arms := []struct {
		name  string
		write arm
	}{
		{"WriteBatch", func(c *Controller, sid, wsn uint64, pages []LPage) (error, error) {
			companionErr := c.WriteBatch(0, 0, companion())
			return c.WriteBatch(sid, wsn, pages), companionErr
		}},
		{"WriteBatchGroup", func(c *Controller, sid, wsn uint64, pages []LPage) (error, error) {
			comp := &SubFlush{Pages: companion()}
			sub := &SubFlush{SID: sid, WSN: wsn, Pages: pages}
			c.WriteBatchGroup([]*SubFlush{comp, sub})
			return sub.Err, comp.Err
		}},
	}

	cases := []struct {
		name string
		// run performs the case with the arm's write and returns the
		// flush-under-test's errors; it may write more around it.
		run  func(t *testing.T, c *Controller, sid uint64, write arm) (err, companionErr error)
		want flushOutcome
	}{
		{
			name: "apply",
			run: func(t *testing.T, c *Controller, sid uint64, write arm) (error, error) {
				return write(c, sid, 1, page(1))
			},
			want: flushOutcome{highest: 1, version: 1, batches: 2, pages: 2,
				bytesAccepted: pageBytes + companionBytes, bytesStored: stored(pageBytes) + stored(companionBytes)},
		},
		{
			name: "stale re-ACK does not re-apply",
			run: func(t *testing.T, c *Controller, sid uint64, write arm) (error, error) {
				if err := c.WriteBatch(sid, 1, page(1)); err != nil {
					t.Fatal(err)
				}
				return write(c, sid, 1, page(99))
			},
			want: flushOutcome{highest: 1, version: 1, batches: 2, pages: 2, stale: 1,
				bytesAccepted: pageBytes + companionBytes, bytesStored: stored(pageBytes) + stored(companionBytes)},
		},
		{
			name: "early WSN blocks until predecessor",
			run: func(t *testing.T, c *Controller, sid uint64, write arm) (err, companionErr error) {
				done := make(chan struct{})
				go func() {
					defer close(done)
					err, companionErr = write(c, sid, 2, page(2))
				}()
				select {
				case <-done:
					t.Fatal("WSN 2 did not wait for WSN 1")
				case <-time.After(20 * time.Millisecond):
				}
				if err := c.WriteBatch(sid, 1, page(1)); err != nil {
					t.Fatal(err)
				}
				<-done
				return err, companionErr
			},
			want: flushOutcome{highest: 2, version: 2, batches: 3, pages: 3,
				bytesAccepted: 2*pageBytes + companionBytes, bytesStored: 2*stored(pageBytes) + stored(companionBytes)},
		},
		{
			name: "duplicate of an in-flight WSN",
			run: func(t *testing.T, c *Controller, sid uint64, write arm) (error, error) {
				// The original holds its claim across slow flash programs;
				// the duplicate (a retry: same payload) arrives meanwhile,
				// waits for the claim to resolve, and is absorbed as stale.
				orig := make(chan error, 1)
				go func() { orig <- c.WriteBatch(sid, 1, page(1)) }()
				for claimed := false; !claimed; time.Sleep(50 * time.Microsecond) {
					c.mu.Lock()
					claimed = c.wsnInflight[[2]uint64{sid, 1}] || c.met.batches.Value() > 0
					c.mu.Unlock()
				}
				err, companionErr := write(c, sid, 1, page(1))
				if oerr := <-orig; oerr != nil {
					t.Fatalf("original: %v", oerr)
				}
				return err, companionErr
			},
			want: flushOutcome{highest: 1, version: 1, batches: 2, pages: 2, stale: 1,
				bytesAccepted: pageBytes + companionBytes, bytesStored: stored(pageBytes) + stored(companionBytes)},
		},
		{
			name: "malformed sub rejected alone, claim released",
			run: func(t *testing.T, c *Controller, sid uint64, write arm) (error, error) {
				err, companionErr := write(c, sid, 1, []LPage{{LPID: lpid, Data: pageContent(lpid, 1, 700)}, {LPID: lpid + 1}})
				// The rejected flush must not keep (sid, 1) claimed: the
				// host's corrected retry goes straight through.
				if rerr := c.WriteBatch(sid, 1, page(2)); rerr != nil {
					t.Fatalf("retry after rejection: %v", rerr)
				}
				return err, companionErr
			},
			want: flushOutcome{err: ErrEmptyBatch, highest: 1, version: 2, batches: 2, pages: 2,
				bytesAccepted: pageBytes + companionBytes, bytesStored: stored(pageBytes) + stored(companionBytes)},
		},
		{
			name: "crashed controller",
			run: func(t *testing.T, c *Controller, sid uint64, write arm) (error, error) {
				c.Crash()
				return write(c, sid, 1, page(1))
			},
			want: flushOutcome{err: ErrCrashed, companionErr: ErrCrashed},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]flushOutcome
			for i, a := range arms {
				// Real NAND latency on the wall clock, so a claim is held
				// long enough for the in-flight cases to overlap.
				dev := flash.MustNewDevice(flash.SmallGeometry(), flash.TypicalNANDLatency())
				dev.SetWallLatencyScale(1)
				c, err := Format(dev, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				sid, err := c.OpenSession()
				if err != nil {
					t.Fatal(err)
				}
				before := c.Stats()
				var o flushOutcome
				within(t, a.name, func() {
					err, companionErr := tc.run(t, c, sid, a.write)
					o.err, o.companionErr = sentinelOf(err), sentinelOf(companionErr)
				})
				after := c.Stats()
				o.batches = after.BatchesWritten - before.BatchesWritten
				o.pages = after.PagesWritten - before.PagesWritten
				o.bytesAccepted = after.BytesAccepted - before.BytesAccepted
				o.bytesStored = after.BytesStored - before.BytesStored
				o.stale = after.StaleWrites - before.StaleWrites
				o.aborted = after.AbortedActions - before.AbortedActions
				if tc.want.err != ErrCrashed {
					if o.highest, err = c.SessionHighestWSN(sid); err != nil {
						t.Fatal(err)
					}
					for v := uint64(1); v <= 2; v++ {
						if data, err := c.Read(lpid); err == nil && bytes.Equal(data[:pageBytes], pageContent(lpid, v, int(pageBytes))) {
							o.version = v
						}
					}
					checkRead(t, c, 99, pageContent(99, 1, 200))
				}
				if o != tc.want {
					t.Errorf("%s: outcome %+v, want %+v", a.name, o, tc.want)
				}
				got[i] = o
			}
			if got[0] != got[1] {
				t.Errorf("WriteBatch and WriteBatchGroup disagree:\n batch %+v\n group %+v", got[0], got[1])
			}
		})
	}
}
