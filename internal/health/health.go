// Package health derives device-health telemetry from the raw
// instruments: write amplification, GC efficiency, wear distribution and
// space accounting. The paper's claim — batched variable-size pages
// reduce flash writes — is an accounting argument, and this package turns
// the per-source program counters (flash.src.*) and the controller's
// byte counters into the numbers that argument is about.
//
// Two kinds of telemetry live here:
//
//   - DeviceHealth: a point-in-time wear/space census of the EBLOCK
//     array, built by the controller under its lock and carried in every
//     metrics snapshot as health.* gauges (AddGauges, FromSnapshot).
//   - Report: rolling rates (WAF, throughput, GC efficiency, cache hit
//     rate, throttle rate) computed from the counter deltas between two
//     successive metrics snapshots — the same arithmetic on both ends of
//     the wire, so `eleosctl top` and server-side consumers agree.
package health

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"eleos/internal/metrics"
)

// EraseHistBuckets is the number of erase-count histogram buckets in a
// DeviceHealth: bucket 0 counts never-erased EBLOCKs, bucket i (i >= 1)
// counts erase counts in [2^(i-1), 2^i), and the last bucket absorbs the
// overflow.
const EraseHistBuckets = 16

// UtilHistBuckets is the number of valid-utilization deciles: bucket i
// counts Used EBLOCKs whose valid fraction falls in [i/10, (i+1)/10),
// with 1.0 landing in the last bucket. This is the distribution each GC
// victim-selection policy is optimizing over.
const UtilHistBuckets = 10

// DeviceHealth is a point-in-time wear and space census of the flash
// array. Every field is one health.* gauge (gauges); the zero value is a
// valid "empty device" census.
type DeviceHealth struct {
	// EBLOCK population by summary state. Reserved covers the
	// checkpoint-area EBLOCKs outside normal allocation. Log counts the
	// Open and Used EBLOCKs of the log stream among them: the space the
	// log holds until a checkpoint truncates it and GC reclaims it.
	EBlocksTotal    int64
	FreeEBlocks     int64
	OpenEBlocks     int64
	UsedEBlocks     int64
	BadEBlocks      int64
	ReservedEBlocks int64
	LogEBlocks      int64

	// Wear: per-EBLOCK erase counts from the media itself (ground truth,
	// not the recoverable summary mirror).
	EraseTotal int64
	EraseMin   int64
	EraseMax   int64
	EraseHist  [EraseHistBuckets]int64

	// Space: free bytes are erased and allocatable, valid bytes back
	// live pages, dead bytes are reclaimable garbage awaiting GC.
	FreeBytes  int64
	ValidBytes int64
	DeadBytes  int64
	UtilHist   [UtilHistBuckets]int64
}

// EraseBucket returns the EraseHist bucket index for one erase count.
func EraseBucket(count int64) int {
	if count <= 0 {
		return 0
	}
	b := 1
	for count > 1 && b < EraseHistBuckets-1 {
		count >>= 1
		b++
	}
	return b
}

// UtilBucket returns the UtilHist bucket index for a valid fraction in
// [0, 1]; out-of-range inputs clamp.
func UtilBucket(frac float64) int {
	b := int(frac * UtilHistBuckets)
	if b < 0 {
		b = 0
	}
	if b >= UtilHistBuckets {
		b = UtilHistBuckets - 1
	}
	return b
}

// gauge names one census field.
type gauge struct {
	name string
	v    *int64
}

// gauges is the one name table of the census: AddGauges encodes with it
// and FromSnapshot decodes with it (DESIGN.md §7.1).
func (h *DeviceHealth) gauges() []gauge {
	gs := []gauge{
		{"health.eblocks.total", &h.EBlocksTotal},
		{"health.eblocks.free", &h.FreeEBlocks},
		{"health.eblocks.open", &h.OpenEBlocks},
		{"health.eblocks.used", &h.UsedEBlocks},
		{"health.eblocks.bad", &h.BadEBlocks},
		{"health.eblocks.reserved", &h.ReservedEBlocks},
		{"health.eblocks.log", &h.LogEBlocks},
		{"health.erases.total", &h.EraseTotal},
		{"health.erases.min", &h.EraseMin},
		{"health.erases.max", &h.EraseMax},
		{"health.bytes.free", &h.FreeBytes},
		{"health.bytes.valid", &h.ValidBytes},
		{"health.bytes.dead", &h.DeadBytes},
	}
	for i := range h.EraseHist {
		gs = append(gs, gauge{"health.erase_hist." + strconv.Itoa(i), &h.EraseHist[i]})
	}
	for i := range h.UtilHist {
		gs = append(gs, gauge{"health.util_hist." + strconv.Itoa(i), &h.UtilHist[i]})
	}
	return gs
}

// AddGauges adds the census to s as health.* gauges, keeping s.Gauges in
// name order as Registry.Snapshot leaves it.
func (h DeviceHealth) AddGauges(s *metrics.Snapshot) {
	for _, g := range h.gauges() {
		s.Gauges = append(s.Gauges, metrics.GaugeValue{Name: g.name, Value: *g.v})
	}
	slices.SortFunc(s.Gauges, func(a, b metrics.GaugeValue) int { return strings.Compare(a.Name, b.Name) })
}

// FromSnapshot reads the census back from a snapshot's health.* gauges;
// a snapshot without them yields the zero census.
func FromSnapshot(s metrics.Snapshot) DeviceHealth {
	var h DeviceHealth
	for _, g := range h.gauges() {
		*g.v = s.Gauge(g.name)
	}
	return h
}

// --- rolling rates ----------------------------------------------------------

// Report is the rolling-rate view between two metrics snapshots. Rates
// are per second of the sampling interval; ratios are over the
// interval's deltas. A zero denominator yields a zero ratio, never NaN.
type Report struct {
	Interval time.Duration

	// Write path.
	UserBytes  int64   // logical bytes accepted (Δcore.write.bytes_accepted)
	FlashBytes int64   // physical bytes programmed (Δflash.programmed_bytes)
	WAF        float64 // FlashBytes / UserBytes
	PadFrac    float64 // 1 - Δcore.write.bytes_stored / Δflash.src.user.bytes
	UserMBps   float64
	FlashMBps  float64
	BatchesPS  float64
	PagesPS    float64

	// GC.
	GCMovedBytes int64
	GCFreed      int64
	GCEfficiency float64 // valid bytes relocated per EBLOCK reclaimed
	GCReadAmp    float64 // Δcore.gc.bytes_read / GCMovedBytes: media bytes transferred per byte relocated

	// Read path.
	ReadsPS      float64
	CacheHitRate float64 // hits / (hits + misses) over the interval

	// QoS.
	ThrottledPS float64 // sum of qos.*.throttled deltas per second
}

// Ratio divides num by den, returning 0 for an empty denominator.
func Ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Compute derives the rolling report from two snapshots of the same
// registry taken dt apart. Counters are monotonic, so negative deltas
// (a registry swap, e.g. across crash recovery) clamp to zero.
func Compute(prev, cur metrics.Snapshot, dt time.Duration) Report {
	delta := func(name string) int64 {
		d := cur.Counter(name) - prev.Counter(name)
		if d < 0 {
			d = 0
		}
		return d
	}
	secs := dt.Seconds()
	rate := func(d int64) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(d) / secs
	}
	r := Report{Interval: dt}
	r.UserBytes = delta("core.write.bytes_accepted")
	r.FlashBytes = delta("flash.programmed_bytes")
	r.WAF = Ratio(r.FlashBytes, r.UserBytes)
	// The share of user-source programs that is not stored page data:
	// run tails padded to the WBLOCK plus EBLOCK-close metadata, the part
	// of WAF that provisioning sets and GC does not. Stores are counted at
	// install, programs at submit, so a short interval can see more of the
	// former; clamp like the deltas.
	if userSrc := delta("flash.src.user.bytes"); userSrc > 0 {
		r.PadFrac = max(0, 1-Ratio(delta("core.write.bytes_stored"), userSrc))
	}
	r.UserMBps = rate(r.UserBytes) / (1 << 20)
	r.FlashMBps = rate(r.FlashBytes) / (1 << 20)
	r.BatchesPS = rate(delta("core.write.batches"))
	r.PagesPS = rate(delta("core.write.pages"))
	r.GCMovedBytes = delta("core.gc.bytes_moved")
	r.GCFreed = delta("core.gc.eblocks_freed")
	r.GCEfficiency = Ratio(r.GCMovedBytes, r.GCFreed)
	r.GCReadAmp = Ratio(delta("core.gc.bytes_read"), r.GCMovedBytes)
	r.ReadsPS = rate(delta("read.reads"))
	hits := delta("read.cache_hits")
	misses := delta("read.cache_misses")
	r.CacheHitRate = Ratio(hits, hits+misses)
	var throttled int64
	for _, c := range cur.Counters {
		if _, f, ok := metrics.SplitLabeled(c.Name, "qos."); ok && f == "throttled" {
			d := c.Value - prev.Counter(c.Name)
			if d > 0 {
				throttled += d
			}
		}
	}
	r.ThrottledPS = rate(throttled)
	return r
}

// SourceBytes extracts the per-source programmed-byte counters
// ("flash.src.<source>.bytes") from a snapshot, keyed by source name.
func SourceBytes(snap metrics.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range snap.Counters {
		if src, field, ok := metrics.SplitLabeled(c.Name, "flash.src."); ok && field == "bytes" {
			out[src] = c.Value
		}
	}
	return out
}

// TenantStats aggregates one tenant's per-tenant instruments from a
// snapshot: the QoS admission counters and the write-attribution bytes.
type TenantStats struct {
	Tenant        string
	AdmittedBytes int64
	Throttled     int64
	InflightBytes int64
	WriteBytes    int64
	WritePages    int64
}

// Tenants extracts every tenant's row from a snapshot, sorted by tenant
// name, merging the qos.<tenant>.* counters/gauges with the
// write.tenant.<tenant>.* attribution counters.
func Tenants(snap metrics.Snapshot) []TenantStats {
	rows := make(map[string]*TenantStats)
	row := func(t string) *TenantStats {
		r := rows[t]
		if r == nil {
			r = &TenantStats{Tenant: t}
			rows[t] = r
		}
		return r
	}
	for _, c := range snap.Counters {
		if t, f, ok := metrics.SplitLabeled(c.Name, "qos."); ok {
			switch f {
			case "admitted_bytes":
				row(t).AdmittedBytes = c.Value
			case "throttled":
				row(t).Throttled = c.Value
			}
			continue
		}
		if t, f, ok := metrics.SplitLabeled(c.Name, "write.tenant."); ok {
			switch f {
			case "bytes":
				row(t).WriteBytes = c.Value
			case "pages":
				row(t).WritePages = c.Value
			}
		}
	}
	for _, g := range snap.Gauges {
		if t, f, ok := metrics.SplitLabeled(g.Name, "qos."); ok && f == "inflight_bytes" {
			row(t).InflightBytes = g.Value
		}
	}
	out := make([]TenantStats, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b TenantStats) int { return strings.Compare(a.Tenant, b.Tenant) })
	return out
}
