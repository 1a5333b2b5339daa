package qos

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eleos/internal/metrics"
)

// fakeClock is a manually advanced clock: After timers fire when
// Advance moves now past their deadline.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, fakeTimer{at: at, ch: ch})
	return ch
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var rest []fakeTimer
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			rest = append(rest, t)
		}
	}
	c.timers = rest
	c.mu.Unlock()
}

// admitDone runs Admit in a goroutine and returns a channel carrying
// its result.
func admitDone(q *Controller, tenant string, prio uint8, n int64) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- q.Admit(tenant, prio, n) }()
	return ch
}

func mustAdmitted(t *testing.T, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("admit did not complete")
	}
}

func mustBlocked(t *testing.T, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("admit completed early (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestBucketBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	tests := []struct {
		name   string
		lim    Limits
		admits []int64 // sequential, all must pass without blocking
		then   int64   // next admit that must block...
		adv    time.Duration
	}{
		{
			name:   "burst allows rate exceedance once",
			lim:    Limits{RateBytesPerSec: 1000, BurstBytes: 4000},
			admits: []int64{1500, 1500, 1000}, // 4000 = full burst
			then:   1000,
			adv:    time.Second, // refills 1000 tokens
		},
		{
			name:   "burst defaults to one second of rate",
			lim:    Limits{RateBytesPerSec: 2048},
			admits: []int64{1024, 1024},
			then:   512,
			adv:    250 * time.Millisecond, // 512 tokens
		},
		{
			name:   "oversized burst admitted at full bucket",
			lim:    Limits{RateBytesPerSec: 100, BurstBytes: 200},
			admits: []int64{1 << 20}, // way over capacity: admitted, drains bucket
			then:   200,
			adv:    2 * time.Second,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := New(Config{Enabled: true, Default: tc.lim, Clock: clk}, nil)
			for i, n := range tc.admits {
				if err := q.Admit("t", 0, n); err != nil {
					t.Fatalf("admit %d (%d bytes): %v", i, n, err)
				}
				q.Release("t", n)
			}
			ch := admitDone(q, "t", 0, tc.then)
			mustBlocked(t, ch)
			clk.Advance(tc.adv)
			mustAdmitted(t, ch)
			if st := q.Stats()["t"]; st.ThrottledCount != 1 {
				t.Fatalf("throttled count = %d, want 1", st.ThrottledCount)
			}
		})
	}
}

func TestBudgetBlocksAndReleases(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{Enabled: true, Default: Limits{MaxInflightBytes: 1000}, Clock: clk}, nil)
	if err := q.Admit("t", 0, 800); err != nil {
		t.Fatalf("admit: %v", err)
	}
	ch := admitDone(q, "t", 0, 300) // 800+300 > 1000: must wait
	mustBlocked(t, ch)
	if st := q.Stats()["t"]; st.Waiters != 1 || st.InflightBytes != 800 {
		t.Fatalf("stats = %+v, want 1 waiter / 800 inflight", st)
	}
	// Budget release on connection death: the dying request unwinds via
	// Release, which must unblock the waiter.
	q.Release("t", 800)
	mustAdmitted(t, ch)
	q.Release("t", 300)
	if st := q.Stats()["t"]; st.InflightBytes != 0 || st.Waiters != 0 {
		t.Fatalf("stats after drain = %+v, want all zero", st)
	}
}

func TestBudgetOversizedAdmittedAlone(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{Enabled: true, Default: Limits{MaxInflightBytes: 100}, Clock: clk}, nil)
	if err := q.Admit("t", 0, 5000); err != nil { // inflight==0: no deadlock
		t.Fatalf("oversized admit: %v", err)
	}
	ch := admitDone(q, "t", 0, 10)
	mustBlocked(t, ch) // budget is over-committed until the giant releases
	q.Release("t", 5000)
	mustAdmitted(t, ch)
}

func TestBudgetPriorityOrder(t *testing.T) {
	clk := newFakeClock()
	// The fake clock stands still, so no waiter reaches starvationWait.
	q := New(Config{Enabled: true, Default: Limits{MaxInflightBytes: 100}, Clock: clk}, nil)
	if err := q.Admit("t", 0, 100); err != nil {
		t.Fatalf("admit: %v", err)
	}
	var order []string
	var mu sync.Mutex
	note := func(tag string, ch <-chan error) {
		go func() {
			if err := <-ch; err == nil {
				mu.Lock()
				order = append(order, tag)
				mu.Unlock()
			}
		}()
	}
	lo := admitDone(q, "t", 1, 100)
	mustBlocked(t, lo)
	hi := admitDone(q, "t", 9, 100)
	mustBlocked(t, hi)
	note("lo", lo)
	note("hi", hi)
	// Release the slot twice: the high-priority waiter must win the
	// first slot even though it arrived second.
	q.Release("t", 100)
	time.Sleep(50 * time.Millisecond)
	q.Release("t", 100)
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("admission order = %v, want [hi lo]", order)
	}
}

func TestStarvationBypass(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{Enabled: true, Default: Limits{MaxInflightBytes: 100}, Clock: clk}, nil)
	if err := q.Admit("t", 0, 100); err != nil {
		t.Fatalf("admit: %v", err)
	}
	lo := admitDone(q, "t", 0, 100)
	mustBlocked(t, lo)
	// Age the low-priority waiter past the starvation threshold, then
	// add a fresh high-priority waiter.
	clk.Advance(starvationWait)
	hi := admitDone(q, "t", 255, 100)
	mustBlocked(t, hi)
	// One slot frees: the starved waiter must beat the high priority.
	q.Release("t", 100)
	mustAdmitted(t, lo)
	mustBlocked(t, hi)
	q.Release("t", 100)
	mustAdmitted(t, hi)
}

func TestTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{
		Enabled: true,
		Default: Limits{},
		Tenants: map[string]Limits{"capped": {MaxInflightBytes: 10}},
		Clock:   clk,
	}, nil)
	if err := q.Admit("capped", 0, 10); err != nil {
		t.Fatalf("admit: %v", err)
	}
	ch := admitDone(q, "capped", 0, 10)
	mustBlocked(t, ch)
	// Another tenant (default limits: unlimited) is unaffected.
	for i := 0; i < 100; i++ {
		if err := q.Admit("free", 0, 1<<20); err != nil {
			t.Fatalf("free tenant admit %d: %v", i, err)
		}
	}
	q.Release("capped", 10)
	mustAdmitted(t, ch)
}

func TestDrainAbortsWaiters(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{
		Enabled: true,
		Tenants: map[string]Limits{
			"budget": {MaxInflightBytes: 10},
			"rate":   {RateBytesPerSec: 1, BurstBytes: 1},
		},
		Clock: clk,
	}, nil)
	if err := q.Admit("budget", 0, 10); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := q.Admit("rate", 0, 1); err != nil {
		t.Fatalf("admit: %v", err)
	}
	budgetWait := admitDone(q, "budget", 0, 10)
	rateWait := admitDone(q, "rate", 0, 1)
	mustBlocked(t, budgetWait)
	mustBlocked(t, rateWait)
	q.Drain()
	for name, ch := range map[string]<-chan error{"budget": budgetWait, "rate": rateWait} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrDraining) {
				t.Fatalf("%s waiter: err = %v, want ErrDraining", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waiter not aborted by drain", name)
		}
	}
	if err := q.Admit("budget", 0, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admit err = %v, want ErrDraining", err)
	}
}

func TestDisabledAndNilAreFree(t *testing.T) {
	var nilQ *Controller
	if err := nilQ.Admit("t", 0, 1<<30); err != nil {
		t.Fatalf("nil admit: %v", err)
	}
	nilQ.Release("t", 1<<30)
	nilQ.Drain()
	q := New(Config{Enabled: false, Default: Limits{MaxInflightBytes: 1}}, nil)
	for i := 0; i < 10; i++ {
		if err := q.Admit("t", 0, 1<<30); err != nil {
			t.Fatalf("disabled admit: %v", err)
		}
	}
}

func TestMetricsExport(t *testing.T) {
	clk := newFakeClock()
	reg := metrics.New()
	q := New(Config{Enabled: true, Default: Limits{MaxInflightBytes: 1 << 20}, Clock: clk}, reg)
	if err := q.Admit("alpha", 3, 4096); err != nil {
		t.Fatalf("admit: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("qos.alpha.admitted_bytes"); got != 4096 {
		t.Fatalf("admitted_bytes = %d, want 4096", got)
	}
	if got := snap.Gauge("qos.alpha.inflight_bytes"); got != 4096 {
		t.Fatalf("inflight gauge = %d, want 4096", got)
	}
	q.Release("alpha", 4096)
	if got := reg.Snapshot().Gauge("qos.alpha.inflight_bytes"); got != 0 {
		t.Fatalf("inflight gauge after release = %d, want 0", got)
	}
}

// TestAdmitReleaseHammer drives many goroutines across tenants under
// the real clock; run with -race. Accounting must balance exactly.
func TestAdmitReleaseHammer(t *testing.T) {
	q := New(Config{
		Enabled: true,
		Default: Limits{RateBytesPerSec: 64 << 20, BurstBytes: 1 << 20, MaxInflightBytes: 256 << 10},
	}, metrics.New())
	tenants := []string{"a", "b", "c", ""}
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tn := tenants[g%len(tenants)]
			for i := 0; i < 200; i++ {
				n := int64(1024 + (g*37+i*13)%4096)
				if err := q.Admit(tn, uint8(g%4), n); err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				admitted.Add(n)
				q.Release(tn, n)
			}
		}(g)
	}
	wg.Wait()
	var total, inflight int64
	for _, st := range q.Stats() {
		total += st.AdmittedBytes
		inflight += st.InflightBytes
		if st.Waiters != 0 {
			t.Fatalf("leftover waiters: %+v", st)
		}
	}
	if total != admitted.Load() || inflight != 0 {
		t.Fatalf("accounting: admitted %d (want %d), inflight %d (want 0)",
			total, admitted.Load(), inflight)
	}
}
