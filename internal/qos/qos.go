// Package qos implements per-tenant admission control for the eleosd
// network front-end (DESIGN.md §10). Each tenant gets two independent
// brakes, both in bytes:
//
//   - a token bucket shaping sustained write bandwidth (RateBytesPerSec
//     with a BurstBytes allowance), and
//   - an inflight budget bounding the batch bytes a tenant may have
//     admitted into the controller at once (MaxInflightBytes).
//
// The server charges both BEFORE a flush enters the global inflight
// semaphore or the coalescer: a merged group batch therefore never lets
// one tenant ride another's budget — every sub-flush paid its own way
// at the door.
//
// Budget waiters are served in (priority, arrival) order, with a
// wait-age bypass: a waiter parked longer than starvationWait is
// promoted ahead of higher-priority arrivals, so a low-priority tenant
// makes progress under a continuous high-priority load. Admission is
// head-of-line within a tenant — a small request cannot sneak past a
// blocked larger one, which keeps the queue order honest.
//
// Time is injected (Clock) so the refill and starvation arithmetic is
// testable without real sleeps.
package qos

import (
	"errors"
	"sync"
	"time"

	"eleos/internal/metrics"
)

// ErrDraining aborts admissions while the server shuts down.
var ErrDraining = errors.New("qos: draining")

// Clock abstracts time so tests can drive refill and starvation
// deterministically.
type Clock interface {
	Now() time.Time
	// After fires once d has elapsed (like time.After).
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Limits bounds one tenant. Zero fields are unlimited.
type Limits struct {
	// RateBytesPerSec caps sustained admitted bytes per second.
	RateBytesPerSec int64
	// BurstBytes is the token bucket capacity; 0 defaults to one
	// second's worth of rate.
	BurstBytes int64
	// MaxInflightBytes caps the tenant's concurrently admitted bytes.
	MaxInflightBytes int64
}

func (l Limits) burst() int64 {
	if l.BurstBytes > 0 {
		return l.BurstBytes
	}
	return l.RateBytesPerSec
}

// Config tunes the admission controller.
type Config struct {
	// Enabled turns per-tenant admission on; when false every Admit is
	// a no-op, so the QoS layer costs nothing when unused.
	Enabled bool
	// Default applies to tenants without an entry in Tenants (including
	// the default "" tenant of untagged sessions).
	Default Limits
	// Tenants maps tenant names to their limits.
	Tenants map[string]Limits
	// Clock injects time; nil uses the real clock.
	Clock Clock
}

// starvationWait promotes a budget waiter parked at least this long ahead
// of priority order.
const starvationWait = 100 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// TenantStats snapshots one tenant's admission accounting.
type TenantStats struct {
	AdmittedBytes  int64 // total bytes admitted
	ThrottledCount int64 // admissions that had to wait
	InflightBytes  int64 // currently admitted bytes
	Waiters        int   // admissions currently parked on the budget
}

type waiter struct {
	priority uint8
	n        int64
	since    time.Time
}

type tenantState struct {
	lim      Limits
	tokens   float64 // bucket level, bytes
	last     time.Time
	inflight int64
	waiters  []*waiter // arrival order

	admittedBytes  int64
	throttledCount int64

	mAdmitted *metrics.Counter
	mThrottle *metrics.Counter
	mInflight *metrics.Gauge
	mWaitNS   *metrics.Histogram
}

// Controller is the per-tenant admission gate. Safe for concurrent use.
// A nil Controller admits everything (disabled).
type Controller struct {
	cfg Config
	clk Clock
	reg *metrics.Registry

	mu       sync.Mutex
	cond     *sync.Cond
	draining bool
	drainCh  chan struct{}
	tenants  map[string]*tenantState
}

// New builds a Controller. reg may be nil (no instrument export);
// a disabled config returns a controller whose Admit is free.
func New(cfg Config, reg *metrics.Registry) *Controller {
	q := &Controller{
		cfg:     cfg.withDefaults(),
		reg:     reg,
		drainCh: make(chan struct{}),
		tenants: make(map[string]*tenantState),
	}
	q.clk = q.cfg.Clock
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Enabled reports whether admission control is active.
func (q *Controller) Enabled() bool { return q != nil && q.cfg.Enabled }

func (q *Controller) tenantLocked(name string) *tenantState {
	ts, ok := q.tenants[name]
	if !ok {
		lim, found := q.cfg.Tenants[name]
		if !found {
			lim = q.cfg.Default
		}
		ts = &tenantState{lim: lim, tokens: float64(lim.burst()), last: q.clk.Now()}
		if q.reg != nil {
			label := name
			if label == "" {
				label = "default"
			}
			ts.mAdmitted = q.reg.Counter("qos." + label + ".admitted_bytes")
			ts.mThrottle = q.reg.Counter("qos." + label + ".throttled")
			ts.mInflight = q.reg.Gauge("qos." + label + ".inflight_bytes")
			ts.mWaitNS = q.reg.Histogram("qos."+label+".wait_ns", metrics.DurationBounds())
		}
		q.tenants[name] = ts
	}
	return ts
}

// refillLocked credits tokens accrued since the last refill.
func (q *Controller) refillLocked(ts *tenantState, now time.Time) {
	dt := now.Sub(ts.last)
	if dt <= 0 {
		return
	}
	ts.last = now
	ts.tokens += dt.Seconds() * float64(ts.lim.RateBytesPerSec)
	if max := float64(ts.lim.burst()); ts.tokens > max {
		ts.tokens = max
	}
}

// turnLocked reports whether w is the tenant's next admission: the
// waiter with the highest effective priority, where being parked past
// starvationWait beats any nominal priority, and arrival order breaks
// ties.
func (q *Controller) turnLocked(ts *tenantState, w *waiter, now time.Time) bool {
	best := -1
	bestStarved, bestPrio := false, uint8(0)
	for i, o := range ts.waiters {
		starved := now.Sub(o.since) >= starvationWait
		if best == -1 ||
			(starved && !bestStarved) ||
			(starved == bestStarved && o.priority > bestPrio) {
			best, bestStarved, bestPrio = i, starved, o.priority
		}
	}
	return best >= 0 && ts.waiters[best] == w
}

func removeWaiter(ws []*waiter, w *waiter) []*waiter {
	for i, o := range ws {
		if o == w {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}

// Admit blocks until tenant may send n more bytes: the token bucket has
// n tokens (rate shaping) and the inflight budget has room. Draining
// aborts the wait. A request larger than the bucket or the whole budget
// is admitted when they are full/empty respectively rather than
// deadlocking (mirroring the server's global semaphore). Admitted bytes
// MUST be returned with Release.
func (q *Controller) Admit(tenant string, priority uint8, n int64) error {
	if !q.Enabled() || n <= 0 {
		return nil
	}
	q.mu.Lock()
	ts := q.tenantLocked(tenant)
	var t0 time.Time
	throttled := false

	// Phase 1: token bucket. Paid before the budget so a rate-capped
	// tenant queues here instead of holding budget slots.
	if ts.lim.RateBytesPerSec > 0 {
		for {
			if q.draining {
				q.mu.Unlock()
				return ErrDraining
			}
			now := q.clk.Now()
			q.refillLocked(ts, now)
			need := float64(n)
			if cap := float64(ts.lim.burst()); need > cap {
				need = cap // oversized burst: admit at full bucket
			}
			if ts.tokens >= need {
				ts.tokens -= need
				break
			}
			if !throttled {
				throttled, t0 = true, now
			}
			wait := time.Duration((need - ts.tokens) / float64(ts.lim.RateBytesPerSec) * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			ch := q.clk.After(wait)
			q.mu.Unlock()
			select {
			case <-ch:
			case <-q.drainCh:
				return ErrDraining
			}
			q.mu.Lock()
		}
	}

	// Phase 2: inflight budget, priority queue with starvation bypass.
	if ts.lim.MaxInflightBytes > 0 {
		w := &waiter{priority: priority, n: n, since: q.clk.Now()}
		ts.waiters = append(ts.waiters, w)
		for {
			if q.draining {
				ts.waiters = removeWaiter(ts.waiters, w)
				q.cond.Broadcast()
				q.mu.Unlock()
				return ErrDraining
			}
			now := q.clk.Now()
			if q.turnLocked(ts, w, now) &&
				(ts.inflight+n <= ts.lim.MaxInflightBytes || ts.inflight == 0) {
				ts.waiters = removeWaiter(ts.waiters, w)
				break
			}
			if !throttled {
				throttled, t0 = true, now
			}
			q.cond.Wait()
		}
	}

	ts.inflight += n
	ts.admittedBytes += n
	if throttled {
		ts.throttledCount++
		ts.mThrottle.Inc()
		ts.mWaitNS.ObserveDuration(q.clk.Now().Sub(t0))
	}
	ts.mAdmitted.Add(n)
	ts.mInflight.Add(n)
	// Another waiter may now be the head (we left the queue).
	q.cond.Broadcast()
	q.mu.Unlock()
	return nil
}

// Release returns n admitted bytes to the tenant's budget. Call exactly
// once per successful Admit — the server pairs them per request, so a
// connection death releases its bytes when its in-flight request
// unwinds.
func (q *Controller) Release(tenant string, n int64) {
	if !q.Enabled() || n <= 0 {
		return
	}
	q.mu.Lock()
	ts := q.tenantLocked(tenant)
	ts.inflight -= n
	ts.mInflight.Add(-n)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Drain aborts current and future admissions with ErrDraining.
// Idempotent.
func (q *Controller) Drain() {
	if q == nil {
		return
	}
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.drainCh)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Stats snapshots per-tenant accounting, keyed by tenant name.
func (q *Controller) Stats() map[string]TenantStats {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]TenantStats, len(q.tenants))
	for name, ts := range q.tenants {
		out[name] = TenantStats{
			AdmittedBytes:  ts.admittedBytes,
			ThrottledCount: ts.throttledCount,
			InflightBytes:  ts.inflight,
			Waiters:        len(ts.waiters),
		}
	}
	return out
}
