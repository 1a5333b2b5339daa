// Package metrics is the controller's observability layer: a
// dependency-free registry of atomic counters, gauges and fixed-bucket
// latency histograms. The paper's headline result (Fig. 9–10, Table II)
// is an accounting argument — Block pays 17 write contexts per MB where
// Batch pays 1 — and this package makes that accounting visible at
// runtime: every layer (core write stages, flash programs, the WAL's
// group commit, GC, the network front-end) records into one registry,
// and one Snapshot exports the whole cost breakdown.
//
// Design constraints, in order:
//
//   - Hot paths pay a single atomic add. Instrument handles are resolved
//     by name once, at construction; recording never touches the
//     registry lock, allocates, or formats a string.
//   - Reads never block writers. Snapshot loads each atomic
//     individually; counters are monotonic under concurrent snapshots.
//
// A registry cannot be switched off. A nil *Registry means "not wired"
// (a bare flash.Device, a read cache built on its own): it hands out nil
// instruments, and every recording method is nil-safe.
//
// Histograms use fixed bucket upper bounds (exponential by default) and
// estimate p50/p95/p99 by linear interpolation within the covering
// bucket, the standard fixed-bucket quantile estimate.
package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// (from a nil registry) ignores all recordings.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (callers only add non-negative deltas; monotonicity is by
// convention, not enforcement).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that can move both ways (queue
// depths, in-flight bytes). The nil Gauge ignores all recordings.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds[i] is the inclusive
// upper bound of bucket i, and one overflow bucket catches everything
// beyond the last bound. Observations are three atomic adds (bucket,
// count, sum). The nil Histogram ignores all recordings.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ExpBounds returns n exponential bucket upper bounds starting at start
// and multiplying by factor: start, start*factor, start*factor^2, ...
func ExpBounds(start, factor int64, n int) []int64 {
	out := make([]int64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBounds returns the default latency bucket bounds in
// nanoseconds: 1 µs doubling to ~8.4 s (24 buckets plus overflow).
func DurationBounds() []int64 { return ExpBounds(1000, 2, 24) }

// SizeBounds returns the default size/count bucket bounds: 1 doubling
// to ~1 M (21 buckets plus overflow).
func SizeBounds() []int64 { return ExpBounds(1, 2, 21) }

// Registry resolves named instruments and snapshots them. Registration
// (Counter/Gauge/Histogram) takes a lock and is get-or-create — calling
// twice with one name returns the same instrument — so construction-time
// resolution is idempotent across controller restarts on a shared
// device. Recording through the returned handles is lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (bounds must be sorted ascending and
// non-empty; later calls reuse the first registration's bounds). Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DurationBounds()
		}
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// --- snapshots --------------------------------------------------------------

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot. Buckets has one more entry
// than Bounds (the overflow bucket). Count is the sum over Buckets, so a
// snapshot taken during concurrent observation is internally consistent;
// Sum is loaded separately and may trail by in-flight observations.
// Count and the quantiles are derived from Buckets/Bounds (Finalize); a
// stats_full decoder recomputes them rather than trust the wire.
type HistogramValue struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation within the covering bucket. Observations in the overflow
// bucket clamp to the last bound.
func (h *HistogramValue) Quantile(q float64) float64 {
	var total int64
	for _, b := range h.Buckets {
		total += b
	}
	if total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, b := range h.Buckets {
		cum += b
		if float64(cum) >= rank && b > 0 {
			if i >= len(h.Bounds) {
				return float64(h.Bounds[len(h.Bounds)-1])
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			hi := float64(h.Bounds[i])
			return lo + (hi-lo)*(rank-float64(cum-b))/float64(b)
		}
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// Mean returns the mean observed value (0 when empty).
func (h *HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Finalize recomputes the derived quantile fields from Bounds/Buckets.
// Decoders call it after filling the raw fields so both wire ends agree
// field-for-field.
func (h *HistogramValue) Finalize() {
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// Snapshot is a point-in-time export of every instrument, sorted by name
// within each kind. The zero Snapshot (nil slices) is what an empty or
// nil registry produces and what the wire codec decodes for empty sections.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Counter returns the named counter's value (0 if absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value (0 if absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram's snapshot (nil if absent).
func (s Snapshot) Histogram(name string) *HistogramValue {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// SplitLabeled splits an instrument name of the form
// "<prefix><label>.<field>" (qos.<tenant>.throttled,
// flash.src.<source>.bytes) into its label and field. It splits at the
// last dot: field names never contain one, a tenant tag may.
func SplitLabeled(name, prefix string) (label, field string, ok bool) {
	rest, found := strings.CutPrefix(name, prefix)
	if !found {
		return "", "", false
	}
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// Snapshot exports every registered instrument. It holds the
// registration lock only to collect the handle lists; the atomic loads
// run unlocked, so recorders are never blocked and successive snapshots
// of one counter are monotonic.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	cs := make([]CounterValue, 0, len(r.counters))
	for name, c := range r.counters {
		cs = append(cs, CounterValue{Name: name, Value: c.Value()})
	}
	gs := make([]GaugeValue, 0, len(r.gauges))
	for name, g := range r.gauges {
		gs = append(gs, GaugeValue{Name: name, Value: g.Value()})
	}
	type namedHist struct {
		name string
		h    *Histogram
	}
	hs := make([]namedHist, 0, len(r.histograms))
	for name, h := range r.histograms {
		hs = append(hs, namedHist{name, h})
	}
	r.mu.Unlock()

	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	hvs := make([]HistogramValue, 0, len(hs))
	for _, nh := range hs {
		hv := HistogramValue{
			Name:    nh.name,
			Sum:     nh.h.sum.Load(),
			Bounds:  append([]int64(nil), nh.h.bounds...),
			Buckets: make([]int64, len(nh.h.buckets)),
		}
		for i := range nh.h.buckets {
			b := nh.h.buckets[i].Load()
			hv.Buckets[i] = b
			hv.Count += b
		}
		hv.Finalize()
		hvs = append(hvs, hv)
	}
	if len(cs) == 0 {
		cs = nil
	}
	if len(gs) == 0 {
		gs = nil
	}
	if len(hvs) == 0 {
		hvs = nil
	}
	return Snapshot{Counters: cs, Gauges: gs, Histograms: hvs}
}
