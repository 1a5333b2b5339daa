package qos

import (
	"errors"
	"runtime"
	"slices"
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
	c.timers = append(c.timers, fakeTimer{at: c.now.Add(d), ch: ch})
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

// settle waits until every admission in running, which must be all that
// are in flight on q, has returned or parked: on a fake timer (the bucket)
// or in a budget queue.
func settle(t *testing.T, q *Controller, clk *fakeClock, running ...<-chan error) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		clk.mu.Lock()
		n := len(clk.timers)
		clk.mu.Unlock()
		for _, st := range q.Stats() {
			n += st.Waiters
		}
		for _, ch := range running {
			n += len(ch)
		}
		if n == len(running) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d admissions settled", n, len(running))
		}
	}
}

// mustBlocked settles the admissions behind chs, all that are in flight on
// q, and fails if one of them returned.
func mustBlocked(t *testing.T, q *Controller, clk *fakeClock, chs ...<-chan error) {
	t.Helper()
	settle(t, q, clk, chs...)
	for _, ch := range chs {
		if len(ch) > 0 {
			t.Fatalf("admit completed early (err=%v)", <-ch)
		}
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
			mustBlocked(t, q, clk, ch)
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
	mustBlocked(t, q, clk, ch)
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
	mustBlocked(t, q, clk, ch) // budget is over-committed until the giant releases
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
	lo := admitDone(q, "t", 1, 100)
	mustBlocked(t, q, clk, lo)
	hi := admitDone(q, "t", 9, 100)
	mustBlocked(t, q, clk, lo, hi)
	// One slot frees: the high-priority waiter wins it though it arrived
	// second.
	q.Release("t", 100)
	mustAdmitted(t, hi)
	mustBlocked(t, q, clk, lo)
	q.Release("t", 100)
	mustAdmitted(t, lo)
}

func TestStarvationBypass(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{Enabled: true, Default: Limits{MaxInflightBytes: 100}, Clock: clk}, nil)
	if err := q.Admit("t", 0, 100); err != nil {
		t.Fatalf("admit: %v", err)
	}
	lo := admitDone(q, "t", 0, 100)
	mustBlocked(t, q, clk, lo)
	// Age the low-priority waiter past the starvation threshold, then
	// add a fresh high-priority waiter.
	clk.Advance(starvationWait)
	hi := admitDone(q, "t", 255, 100)
	mustBlocked(t, q, clk, lo, hi)
	// One slot frees: the starved waiter must beat the high priority.
	q.Release("t", 100)
	mustAdmitted(t, lo)
	mustBlocked(t, q, clk, hi)
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
	mustBlocked(t, q, clk, ch)
	// Another tenant (default limits: unlimited) is unaffected.
	for i := 0; i < 100; i++ {
		if err := q.Admit("free", 0, 1<<20); err != nil {
			t.Fatalf("free tenant admit %d: %v", i, err)
		}
	}
	q.Release("capped", 10)
	mustAdmitted(t, ch)
}

// TestNoisyNeighborReplay replays the retired loopback fairness
// experiment's tenants in virtual time. Three closed-loop callers of a
// noisy tenant shaped to 2 MB/s, with a 128 KB burst and a 256 KB budget,
// each hold a 64 KB batch for one virtual millisecond and ask again; an
// unlimited quiet tenant sends 2×1536 B every millisecond at priority 200.
// Each step settles (every Admit has returned or parked) before the clock
// moves, so the noisy tenant's admissions repeat to the byte and no quiet
// admission waits.
func TestNoisyNeighborReplay(t *testing.T) {
	const batch, quiet, ticks = 64 << 10, 2 * 1536, 400 // ticks: virtual milliseconds
	clk := newFakeClock()
	q := New(Config{Enabled: true, Clock: clk, Tenants: map[string]Limits{
		"noisy": {RateBytesPerSec: 2 << 20, BurstBytes: 128 << 10, MaxInflightBytes: 256 << 10},
	}}, nil)
	callers, since := make([]<-chan error, 3), make([]int, 3) // nil: the caller's batch is in flight since since[i]
	for i := range callers {
		callers[i] = admitDone(q, "noisy", 0, batch)
	}
	var admitted []int // the virtual millisecond of each noisy admission
	step := func(ms int, extra ...<-chan error) {
		running := slices.DeleteFunc(slices.Clone(callers), func(ch <-chan error) bool { return ch == nil })
		settle(t, q, clk, append(running, extra...)...)
		for i, ch := range callers {
			if ch != nil && len(ch) > 0 {
				if err := <-ch; err != nil {
					t.Fatalf("noisy admit at %d ms: %v", ms, err)
				}
				admitted, callers[i], since[i] = append(admitted, ms), nil, ms
			}
		}
	}
	for ms := 0; ms < ticks; ms++ {
		if ms > 0 {
			clk.Advance(time.Millisecond)
		}
		step(ms) // parked callers whose timer fired go first
		for i := range callers {
			if callers[i] == nil && since[i] < ms {
				q.Release("noisy", batch)
				callers[i] = admitDone(q, "noisy", 0, batch)
			}
		}
		quietDone := admitDone(q, "quiet", 200, quiet)
		step(ms, quietDone)
		if len(quietDone) == 0 || <-quietDone != nil {
			t.Fatalf("the quiet admission at %d ms waits or fails", ms)
		}
		q.Release("quiet", quiet)
	}
	want := []int{0, 0, 32, 63, 94, 125, 157, 188, 219, 250, 282, 313, 344, 375}
	st := q.Stats()
	if !slices.Equal(admitted, want) || st["noisy"].AdmittedBytes != 917504 || st["noisy"].ThrottledCount != 12 {
		t.Fatalf("noisy admitted at %v ms (want %v): %+v", admitted, want, st["noisy"])
	}
	if st["quiet"].AdmittedBytes != ticks*quiet || st["quiet"].ThrottledCount != 0 {
		t.Fatalf("quiet tenant: %+v", st["quiet"])
	}
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
	mustBlocked(t, q, clk, budgetWait, rateWait)
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
