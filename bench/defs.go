package main

// metricDef names one metric. BENCHMARK.json at the repository root is
// generated from these tables (go test -run TestManifest -update) and the
// test fails when the two differ, so a name, unit, direction or bound is
// written down once.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: the share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the store sees, and what a later change is
// gated on. The benchmark contract wants every workload to report every
// one of them, none to ever read 0, and each to repeat across runs of
// different seeds to within its bound, better a third of it. That leaves
// the set below; README.md has the measured spreads behind each decision.
//
//   - flush_mb_per_s and ops_per_s are one rate in two units (payload
//     bytes, pages). The first is the headline on the write workloads, the
//     second on kv_mixed, where flush_mb_per_s is the update payload.
//   - The host-time metrics are at the contract's ceiling of 0.25: this
//     sandbox's CPU speed sits a tenth to a quarter lower for minutes at a
//     time, so batch_cpu and churn_gc, which are nothing but CPU, spread
//     8-20 % over ten runs (batch_device and kv_mixed 2-8 %).
//   - The count metrics' bounds are about four times their widest spread
//     across seeds (waf 1.9 %, sim_mb_per_s 2.1 %, both on churn_gc).
//   - Flush tail latency, read latency and space amplification are
//     per-layer (client.flush_us_p90/p99, client.read_us_p50/p99,
//     core.space_amp): the tail does not repeat on batch_cpu, only
//     kv_mixed reads inside its timed phase, only churn_gc fills its
//     device.
//   - sim_mb_per_s is over the mean channel's busy time; the issue's
//     busiest-channel figure is this times flash.channel_balance, and on
//     churn_gc it takes one of two values by seed.
//   - The issue's failed_frac is always 0 and a bound is a share of the
//     median, so it is the result's attempted/failed/correct and the
//     per-layer bench.failed_frac.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"flush_mb_per_s", "MB/s", higher, 0.25},
	{"ops_per_s", "op/s", higher, 0.25},
	{"flush_p50_us", "us", lower, 0.25},
	{"waf", "ratio", lower, 0.08},
	{"sim_mb_per_s", "MB/s", higher, 0.10},
}

// perLayer metrics carry no bound. The prefix is the module. A metric
// that does not apply to a workload (read-cache counters where the cache
// is off, recovery where nothing crashes) reads 0 there.
var perLayer = []metricDef{
	// What a caller sees that does not repeat well enough, or does not
	// apply widely enough, to gate on. Read latency is the timed mix on
	// kv_mixed and the read-back checks elsewhere.
	{Name: "client.flush_us_p90", Unit: "us", Better: lower},
	{Name: "client.flush_us_p99", Unit: "us", Better: lower},
	{Name: "client.read_us_p50", Unit: "us", Better: lower},
	{Name: "client.read_us_p99", Unit: "us", Better: lower},
	{Name: "core.space_amp", Unit: "ratio", Better: lower},
	// Front end and codecs: should move flush_p50_us and flush_mb_per_s
	// on batch_cpu, client.read_us_p50 on kv_mixed, and stay flat on
	// batch_device.
	{Name: "server.frontend_us_p50", Unit: "us", Better: lower},
	{Name: "server.request_us_mean", Unit: "us", Better: lower},
	{Name: "core.encode_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "core.decode_view_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "netproto.frame_overhead_bytes_per_op", Unit: "B/op", Better: lower},
	// Failures and retries: all expected 0; any of them is a failed_frac.
	{Name: "client.retries", Unit: "count", Better: lower},
	{Name: "client.timeouts", Unit: "count", Better: lower},
	{Name: "server.errors", Unit: "count", Better: lower},
	{Name: "server.rejected", Unit: "count", Better: lower},
	{Name: "server.bad_frames", Unit: "count", Better: lower},
	{Name: "core.stale_writes", Unit: "count", Better: lower},
	{Name: "core.aborted_actions", Unit: "count", Better: lower},
	{Name: "core.media_aborts", Unit: "count", Better: lower},
	{Name: "flash.program_failures", Unit: "count", Better: lower},
	{Name: "bench.failed_frac", Unit: "ratio", Better: lower},
	// Coalescing: 0 at the defaults measured here.
	{Name: "server.grouped_flush_frac", Unit: "ratio", Better: higher},
	// Controller host time per write stage, and the in-process call.
	{Name: "core.claim_us_mean", Unit: "us", Better: lower},
	{Name: "core.init_us_mean", Unit: "us", Better: lower},
	{Name: "core.install_us_mean", Unit: "us", Better: lower},
	{Name: "core.direct_flush_us_p50", Unit: "us", Better: lower},
	{Name: "core.direct_read_us_p50", Unit: "us", Better: lower},
	// Device waits: the flush latency on batch_device and kv_mixed updates.
	{Name: "core.program_wait_us_mean", Unit: "us", Better: lower},
	{Name: "core.force_wait_us_mean", Unit: "us", Better: lower},
	{Name: "flash.program_us_mean", Unit: "us", Better: lower},
	{Name: "provision.user_wblocks_per_flush", Unit: "count", Better: lower},
	// Checkpoints: the flush tail.
	{Name: "core.checkpoints", Unit: "count", Better: lower},
	{Name: "core.checkpoint_ms_mean", Unit: "ms", Better: lower},
	{Name: "core.checkpoint_ms_total", Unit: "ms", Better: lower},
	// Recovery: moves nothing in steady state; here so work moved into it shows.
	{Name: "core.recover_ms", Unit: "ms", Better: lower},
	{Name: "core.recover_pages_verified", Unit: "count", Better: higher},
	// Decomposition of waf: padding, log, GC, checkpoints per user byte.
	{Name: "provision.pad_frac", Unit: "ratio", Better: lower},
	{Name: "wal.forces_per_flush", Unit: "ratio", Better: lower},
	{Name: "wal.free_ride_frac", Unit: "ratio", Better: higher},
	{Name: "wal.records_per_page_mean", Unit: "count", Better: higher},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "gc.rounds", Unit: "count", Better: lower},
	{Name: "gc.eblocks_freed", Unit: "count", Better: higher},
	{Name: "gc.moved_bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "gc.moved_mb_per_eblock_freed", Unit: "MB", Better: lower},
	{Name: "flash.programs", Unit: "count", Better: lower},
	{Name: "flash.programmed_mb", Unit: "MB", Better: lower},
	{Name: "flash.erases", Unit: "count", Better: lower},
	{Name: "flash.rblocks_read", Unit: "count", Better: lower},
	{Name: "flash.src_user_frac", Unit: "ratio", Better: higher},
	{Name: "flash.src_gc_frac", Unit: "ratio", Better: lower},
	{Name: "flash.src_wal_frac", Unit: "ratio", Better: lower},
	{Name: "flash.src_checkpoint_frac", Unit: "ratio", Better: lower},
	// Simulated device time: sim_mb_per_s, and how device-bound a run is.
	{Name: "flash.sim_busy_max_s", Unit: "s", Better: lower},
	{Name: "flash.channel_balance", Unit: "ratio", Better: higher},
	{Name: "flash.sim_util", Unit: "ratio", Better: higher},
	// Read path: kv_mixed only.
	{Name: "readcache.hit_frac", Unit: "ratio", Better: higher},
	{Name: "readcache.flash_loads_per_read", Unit: "ratio", Better: lower},
	{Name: "readcache.evictions", Unit: "count", Better: lower},
	{Name: "readcache.ghost_hits", Unit: "count", Better: lower},
	{Name: "readcache.cached_mb", Unit: "MB", Better: higher},
	{Name: "core.read_rblocks_per_read", Unit: "ratio", Better: lower},
	{Name: "client.read_batch_us_p50", Unit: "us", Better: lower},
	// Whole process: client and server share it.
	{Name: "proc.cpu_s_per_gb", Unit: "s/GB", Better: lower},
	{Name: "proc.cpu_us_per_op", Unit: "us/op", Better: lower},
	{Name: "proc.allocs_per_op", Unit: "1/op", Better: lower},
	{Name: "proc.alloc_kb_per_op", Unit: "KB/op", Better: lower},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower},
	// Guards that the benchmark measures the program, not itself.
	{Name: "bench.gen_frac", Unit: "ratio", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
}

// spanMetrics are the per-layer metrics only a traced run can measure; an
// untraced run prints the others.
var spanMetrics = map[string]bool{
	"server.frontend_us_p50":     true,
	"core.encode_ns_per_kb":      true,
	"core.decode_view_ns_per_kb": true,
	"core.direct_flush_us_p50":   true,
	"core.direct_read_us_p50":    true,
	"client.read_batch_us_p50":   true,
	"bench.trace_overhead_frac":  true,
}
