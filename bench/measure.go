package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/health"
)

const (
	// passes: a run builds, sets up, times and checks this many stacks, one
	// after another, each from its own sub-seed, and reports the median
	// over them. One set-up is too noisy to gate, and this host's speed
	// holds a level for some seconds and then moves by a tenth: timed
	// phases a set-up apart see more of those levels than one unbroken
	// phase of the same total length.
	passes = 3
	// segments: a pass's throughput is the median over this many
	// equal-count slices of its timed phase, so one stall does not set it.
	segments = 5
	// traceDivisor: the traced run's passes do this fraction of the
	// operations, as the issue fixes it.
	traceDivisor = 4
	// passStream: pass i of a run draws everything from
	// streamSeed(seed, passStream+i). Clear of the streams a pass derives
	// from its own seed (its clients, its read-back samples).
	passStream = 1 << 32
)

// phase is what one pass's timed phase and checks produced.
type phase struct {
	wall          time.Duration
	before, after counters
	health        health.DeviceHealth
	capacity      int64
	liveBytes     int64 // user bytes of the latest version of every written page
	recoverMS     float64
	recoverPages  int
	mbPerS        []float64 // per segment
	opsPerS       []float64
	// Totals of the timed phase alone (the checks add reads afterwards).
	// An operation here is one call the benchmark made: a flush, a read
	// or a read batch. Payload is page bytes written plus page images
	// read back; what else crossed the wire is framing.
	calls, written, payload float64
	benchNS                 float64 // spent generating inputs and verifying outputs
}

// timed runs ops operations per client with the workload's flash latency
// and reads every counter on both sides of it.
func (ps *pass) timed(ops int) *phase {
	ps.st.dev.SetWallLatencyScale(ps.wallScale)
	runtime.GC() // start every timed phase from a collected heap
	ph := &phase{capacity: ps.geo.CapacityBytes()}
	ph.before = ps.st.counters()
	ps.epoch = time.Now()
	ps.each(func(w *worker) { w.run(ops) })
	ph.wall = time.Since(ps.epoch)
	ph.after = ps.st.counters()
	ph.health = ps.st.ctl.DeviceHealth()
	for i := range ps.ver {
		if v := ps.ver[i].Load(); v > 0 {
			ph.liveBytes += int64(len(ps.content.page(addr.LPID(i+1), v)))
		}
	}
	ph.mbPerS, ph.opsPerS = ps.segmentRates()
	for _, w := range ps.workers {
		ph.calls += float64(len(w.done))
		for _, dn := range w.done {
			ph.written += float64(dn.bytes)
		}
		ph.payload += float64(w.readBytes)
		ph.benchNS += float64(w.genNS + w.verifyNS)
	}
	ph.payload += ph.written
	return ph
}

// segmentRates cuts the merged completion log into equal-count slices and
// returns each slice's payload MB/s and pages/s.
func (ps *pass) segmentRates() (mb, ops []float64) {
	var done []completion
	for _, w := range ps.workers {
		done = append(done, w.done...)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end < done[j].end })
	var from int64
	for s := 0; s < segments; s++ {
		seg := done[s*len(done)/segments : (s+1)*len(done)/segments]
		if len(seg) == 0 {
			continue
		}
		var b, n int64
		for _, c := range seg {
			b += c.bytes
			n += c.ops
		}
		secs := float64(seg[len(seg)-1].end-from) / 1e9
		from = seg[len(seg)-1].end
		mb = append(mb, float64(b)/1e6/secs)
		ops = append(ops, float64(n)/secs)
	}
	return mb, ops
}

// check runs the output checks that follow the timed phase. Misses count
// in the workers' failed totals; the error is for checks that belong to
// no single operation.
func (ps *pass) check(ph *phase) error {
	// Byte conservation: the registry counter, the device's own total and
	// the per-source split are three accounts of the same programs.
	dev := ph.after.dev
	var bySource int64
	for _, b := range dev.SrcBytes {
		bySource += b
	}
	if reg := ph.after.reg.Counter("flash.programmed_bytes"); reg != dev.BytesWritten || bySource != dev.BytesWritten {
		return fmt.Errorf("%s: flash.programmed_bytes %d, device BytesWritten %d, per-source sum %d disagree",
			ps.name, reg, dev.BytesWritten, bySource)
	}
	switch ps.kind {
	case kindBatch:
		// A seeded sample of the whole LPID space, read back over the wire.
		ps.each(func(w *worker) {
			rng := rand.New(rand.NewSource(streamSeed(ps.seed, 1000+uint64(w.id))))
			for n := 0; n < ps.readBack/ps.clients; {
				i := rng.Intn(len(ps.ver))
				if ps.ver[i].Load() == 0 {
					continue
				}
				w.read(addr.LPID(i+1), w.now())
				n++
			}
		})
	case kindChurn:
		// Power loss, recovery, then every live page byte-exact.
		ps.st.ctl.Crash()
		t0 := time.Now()
		ctl, err := core.Open(ps.st.dev, controllerConfig(ps.params))
		if err != nil {
			return fmt.Errorf("%s: recover after crash: %w", ps.name, err)
		}
		ph.recoverMS = float64(time.Since(t0)) / 1e6
		ps.st.ctl = ctl
		w := ps.workers[0]
		w.tgt = &directTarget{ctl: ctl}
		for i := range ps.ver {
			if ps.ver[i].Load() > 0 {
				w.read(addr.LPID(i+1), w.now())
				ph.recoverPages++
			}
		}
	}
	return nil
}

func (ps *pass) totals() (attempted, failed int64) {
	for _, w := range ps.workers {
		attempted += w.attempted
		failed += w.failed
	}
	return attempted, failed
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, 0 when b is 0: a metric that does not apply to a workload
// reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passValues computes the end-to-end metrics one pass can give on its
// own: rates and ratios over its timed phase. setupS is passed in because
// it is measured around the pass, not inside it. The latency percentiles
// are taken over the samples of every pass together; see latencies.
func passValues(ph *phase, setupS float64) map[string]float64 {
	d := deltas{ph}
	busyMean, _ := d.simBusy()
	return map[string]float64{
		"setup_s":        setupS,
		"flush_mb_per_s": median(ph.mbPerS),
		"ops_per_s":      median(ph.opsPerS),
		"waf":            ratio(d.counter("flash.programmed_bytes"), d.counter("core.write.bytes_accepted")),
		"sim_mb_per_s":   ratio(d.counter("core.write.bytes_accepted")/1e6, busyMean),
	}
}

// latencies pools the per-call latency samples of every pass of a run:
// the passes are replicas of one distribution, and a percentile wants all
// the samples it can have behind it.
type latencies struct{ flush, read []int64 }

func (l *latencies) add(ps *pass) {
	for _, w := range ps.workers {
		l.flush = append(l.flush, w.flushNS...)
		l.read = append(l.read, w.readNS...)
	}
}

// fill writes the percentiles into the end-to-end values (nil in a traced
// run) and the per-layer ones, and returns the sample count behind each.
func (l *latencies) fill(e2e, layer map[string]float64) map[string]int {
	if e2e != nil {
		e2e["flush_p50_us"] = quantile(l.flush, 0.50) / 1e3
	}
	layer["client.flush_us_p90"] = quantile(l.flush, 0.90) / 1e3
	layer["client.flush_us_p99"] = quantile(l.flush, 0.99) / 1e3
	layer["client.read_us_p50"] = quantile(l.read, 0.50) / 1e3
	layer["client.read_us_p99"] = quantile(l.read, 0.99) / 1e3
	return map[string]int{
		"flush_p50_us":        len(l.flush),
		"client.flush_us_p90": len(l.flush), "client.flush_us_p99": len(l.flush),
		"client.read_us_p50": len(l.read), "client.read_us_p99": len(l.read),
	}
}

// medians folds the passes' values into one value per name.
func medians(passes []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(passes) == 0 {
		return out
	}
	for name := range passes[0] {
		var v []float64
		for _, p := range passes {
			v = append(v, p[name])
		}
		out[name] = median(v)
	}
	return out
}

// deltas reads differences of the program's public counters over a timed
// phase.
type deltas struct{ *phase }

func (d deltas) counter(name string) float64 {
	return float64(d.after.reg.Counter(name) - d.before.reg.Counter(name))
}

// histMean is the mean of the observations a histogram took during the
// phase, from its Sum and Count.
func (d deltas) histMean(name string) float64 {
	a, b := d.before.reg.Histogram(name), d.after.reg.Histogram(name)
	if b == nil {
		return 0
	}
	sum, count := float64(b.Sum), float64(b.Count)
	if a != nil {
		sum, count = sum-float64(a.Sum), count-float64(a.Count)
	}
	return ratio(sum, count)
}

// simBusy returns the simulated seconds the channels were busy: the mean
// over the channels and the busiest one.
func (d deltas) simBusy() (mean, max float64) {
	for ch := range d.after.chanBusy {
		b := (d.after.chanBusy[ch] - d.before.chanBusy[ch]).Seconds()
		mean += b / float64(len(d.after.chanBusy))
		if b > max {
			max = b
		}
	}
	return mean, max
}

// counterValues computes the per-layer metrics that are differences of
// counters and histogram sums the program already exports.
func counterValues(ps *pass, ph *phase) map[string]float64 {
	d := deltas{ph}
	c := d.counter
	accepted := c("core.write.bytes_accepted")
	batches := c("core.write.batches")
	programmed := c("flash.programmed_bytes")
	reads := c("read.reads")
	src := func(s flash.Source) float64 {
		return float64(ph.after.dev.SrcBytes[s] - ph.before.dev.SrcBytes[s])
	}

	cpu := (ph.after.cpu - ph.before.cpu).Seconds()
	var framing float64
	if wire := c("server.bytes_in") + c("server.bytes_out"); wire > 0 {
		framing = wire - ph.payload
	}

	busyMean, busyMax := d.simBusy()
	simUtil := 0.0
	if ps.wallScale > 0 {
		simUtil = ratio(busyMax*ps.wallScale, ph.wall.Seconds())
	}
	attempted, failed := ps.totals()

	return map[string]float64{
		"server.request_us_mean":               d.histMean("server.request_ns") / 1e3,
		"netproto.frame_overhead_bytes_per_op": ratio(framing, ph.calls),

		"client.retries":         float64(ph.after.client.Retries - ph.before.client.Retries),
		"client.timeouts":        float64(ph.after.client.Timeouts - ph.before.client.Timeouts),
		"server.errors":          c("server.errors"),
		"server.rejected":        c("server.rejected"),
		"server.bad_frames":      c("server.bad_frames"),
		"core.stale_writes":      c("core.write.stale"),
		"core.aborted_actions":   c("core.aborted_actions"),
		"core.media_aborts":      c("core.write.media_aborts"),
		"flash.program_failures": c("flash.program_failures"),
		"bench.failed_frac":      ratio(float64(failed), float64(attempted)),

		"server.grouped_flush_frac": ratio(float64(ph.after.core.GroupedFlushes-ph.before.core.GroupedFlushes), batches),

		"core.claim_us_mean":        d.histMean("core.write.claim_ns") / 1e3,
		"core.init_us_mean":         d.histMean("core.write.init_ns") / 1e3,
		"core.install_us_mean":      d.histMean("core.write.install_ns") / 1e3,
		"core.program_wait_us_mean": d.histMean("core.write.program_wait_ns") / 1e3,
		"core.force_wait_us_mean":   d.histMean("core.write.force_wait_ns") / 1e3,
		"flash.program_us_mean":     d.histMean("flash.program_ns") / 1e3,

		"provision.user_wblocks_per_flush": ratio(c("flash.src.user.wblocks"), batches),
		"provision.pad_frac":               1 - ratio(c("core.write.bytes_stored"), src(flash.SrcUser)),

		"core.checkpoints":         c("core.checkpoints"),
		"core.checkpoint_ms_mean":  d.histMean("core.checkpoint_ns") / 1e6,
		"core.checkpoint_ms_total": d.histMean("core.checkpoint_ns") / 1e6 * c("core.checkpoints"),

		"core.recover_ms":             ph.recoverMS,
		"core.recover_pages_verified": float64(ph.recoverPages),

		"wal.forces_per_flush":      ratio(c("wal.force_calls"), batches),
		"wal.free_ride_frac":        ratio(c("wal.free_rides"), c("wal.force_calls")),
		"wal.records_per_page_mean": ratio(c("wal.records_flushed"), c("wal.page_writes")),
		"wal.bytes_per_user_byte":   ratio(src(flash.SrcWAL), accepted),

		"gc.rounds":                    c("core.gc.rounds"),
		"gc.eblocks_freed":             c("core.gc.eblocks_freed"),
		"gc.moved_bytes_per_user_byte": ratio(c("core.gc.bytes_moved"), accepted),
		"gc.moved_mb_per_eblock_freed": ratio(c("core.gc.bytes_moved")/1e6, c("core.gc.eblocks_freed")),

		"flash.programs":            c("flash.programs"),
		"flash.programmed_mb":       programmed / 1e6,
		"flash.erases":              c("flash.erases"),
		"flash.rblocks_read":        float64(ph.after.dev.RBlocksRead - ph.before.dev.RBlocksRead),
		"flash.src_user_frac":       ratio(src(flash.SrcUser), programmed),
		"flash.src_gc_frac":         ratio(src(flash.SrcGC), programmed),
		"flash.src_wal_frac":        ratio(src(flash.SrcWAL), programmed),
		"flash.src_checkpoint_frac": ratio(src(flash.SrcCheckpoint), programmed),
		"flash.sim_busy_max_s":      busyMax,
		"flash.channel_balance":     ratio(busyMean, busyMax),
		"flash.sim_util":            simUtil,

		"readcache.hit_frac":             ratio(c("read.cache_hits"), c("read.cache_hits")+c("read.cache_misses")),
		"readcache.flash_loads_per_read": ratio(c("read.flash_loads"), reads),
		"readcache.evictions":            c("read.cache_evictions"),
		"readcache.ghost_hits":           c("read.cache_ghost_hits"),
		"readcache.cached_mb":            float64(ph.after.reg.Gauge("read.cached_bytes")) / 1e6,
		"core.read_rblocks_per_read":     ratio(float64(ph.after.core.ReadRBlocks-ph.before.core.ReadRBlocks), reads),
		"core.space_amp":                 ratio(float64(ph.capacity-ph.health.FreeBytes), float64(ph.liveBytes)),

		"proc.cpu_s_per_gb":    ratio(cpu, ph.written/1e9),
		"proc.cpu_us_per_op":   ratio(cpu*1e6, ph.calls),
		"proc.allocs_per_op":   ratio(float64(ph.after.mem.Mallocs-ph.before.mem.Mallocs), ph.calls),
		"proc.alloc_kb_per_op": ratio(float64(ph.after.mem.TotalAlloc-ph.before.mem.TotalAlloc)/1024, ph.calls),
		"proc.peak_rss_mb":     peakRSSMB(),

		"bench.gen_frac": ratio(ph.benchNS, float64(len(ps.workers))*float64(ph.wall)),
	}
}
