package core

import (
	"eleos/internal/flash"
	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// coreMetrics holds the controller's instrument handles, resolved once in
// newController. The write-stage histograms decompose a WriteBatch into
// the paper's system-action phases so the cost accounting (Table II's
// write-context argument) is visible at runtime: claim (WSN admission
// wait), init (provision + log plan + submit under c.mu), program wait
// (flash workers, c.mu released), force wait (commit group-commit force),
// and install (mapping/summary/session updates under c.mu).
type coreMetrics struct {
	claimNS       *metrics.Histogram
	initNS        *metrics.Histogram
	programWaitNS *metrics.Histogram
	forceWaitNS   *metrics.Histogram
	installNS     *metrics.Histogram
	batchPages    *metrics.Histogram

	batches        *metrics.Counter
	pages          *metrics.Counter
	staleWrites    *metrics.Counter
	mediaAborts    *metrics.Counter
	aborted        *metrics.Counter
	bytesAccepted  *metrics.Counter
	bytesStored    *metrics.Counter
	groupWrites    *metrics.Counter // actions that merged ≥2 coalesced flushes
	groupedFlushes *metrics.Counter // flushes written as part of such actions
	ioCommands     *metrics.Counter
	logForces      *metrics.Counter
	commitsCarried *metrics.Counter // user actions whose commit rode their data WBLOCK
	carriedBytes   *metrics.Counter // the trailers those actions programmed

	gcRounds         *metrics.Counter
	gcVictims        *metrics.Counter
	gcPagesMoved     *metrics.Counter
	gcBytesMoved     *metrics.Counter
	gcBytesRead      *metrics.Counter // media bytes GC transferred: relocation gathers and flushed-metadata reads
	gcFreed          *metrics.Counter
	gcErrors         *metrics.Counter // errors GC passes met (relocation, erase, log)
	gcMetaUnreadable *metrics.Counter
	migrations       *metrics.Counter
	// gcEraseWaitNS is the time one erase batch keeps its pass waiting
	// with c.mu released.
	gcEraseWaitNS *metrics.Histogram

	checkpoints  *metrics.Counter
	checkpointNS *metrics.Histogram

	// Open's proof of the actions the crash caught between init and
	// install: actions read back, those of them rejected, bytes read.
	recoverVerified    *metrics.Counter
	recoverRejected    *metrics.Counter
	recoverVerifyBytes *metrics.Counter

	// Read-path instruments. reads counts every Read/ReadBatch page
	// served (hits and misses alike); flashLoads counts only the pages
	// that went to the media, so a warm cache shows flashLoads ≪ reads.
	// readRBlocks counts the RBLOCKs every media read transferred: page
	// loads, mapping-table loads, GC metadata and relocation reads.
	// readNS is the wall-clock service time of one page read, whichever
	// way it was served.
	reads          *metrics.Counter
	readBatches    *metrics.Counter
	readFlashLoads *metrics.Counter
	readRBlocks    *metrics.Counter
	readNotFound   *metrics.Counter
	readNS         *metrics.Histogram

	// eraseWhilePinned counts erases issued against an EBLOCK that another
	// path still had in flight or pinned (readers drained) — the PR 4
	// data-loss bug class. It must stay zero; the chaos checker asserts it.
	eraseWhilePinned *metrics.Counter
}

func newCoreMetrics(reg *metrics.Registry) coreMetrics {
	return coreMetrics{
		claimNS:       reg.Histogram("core.write.claim_ns", metrics.DurationBounds()),
		initNS:        reg.Histogram("core.write.init_ns", metrics.DurationBounds()),
		programWaitNS: reg.Histogram("core.write.program_wait_ns", metrics.DurationBounds()),
		forceWaitNS:   reg.Histogram("core.write.force_wait_ns", metrics.DurationBounds()),
		installNS:     reg.Histogram("core.write.install_ns", metrics.DurationBounds()),
		batchPages:    reg.Histogram("core.write.batch_pages", metrics.SizeBounds()),

		batches:        reg.Counter("core.write.batches"),
		pages:          reg.Counter("core.write.pages"),
		staleWrites:    reg.Counter("core.write.stale"),
		mediaAborts:    reg.Counter("core.write.media_aborts"),
		aborted:        reg.Counter("core.aborted_actions"),
		bytesAccepted:  reg.Counter("core.write.bytes_accepted"),
		bytesStored:    reg.Counter("core.write.bytes_stored"),
		groupWrites:    reg.Counter("core.write.group_writes"),
		groupedFlushes: reg.Counter("core.write.grouped_flushes"),
		ioCommands:     reg.Counter("core.io_commands"),
		logForces:      reg.Counter("core.log_forces"),
		commitsCarried: reg.Counter("core.commits_carried"),
		carriedBytes:   reg.Counter("core.carried_bytes"),

		gcRounds:         reg.Counter("core.gc.rounds"),
		gcVictims:        reg.Counter("core.gc.victim_selections"),
		gcPagesMoved:     reg.Counter("core.gc.pages_moved"),
		gcBytesMoved:     reg.Counter("core.gc.bytes_moved"),
		gcBytesRead:      reg.Counter("core.gc.bytes_read"),
		gcFreed:          reg.Counter("core.gc.eblocks_freed"),
		gcErrors:         reg.Counter("core.gc.errors"),
		gcMetaUnreadable: reg.Counter("core.gc.meta_unreadable"),
		migrations:       reg.Counter("core.migrations"),

		gcEraseWaitNS: reg.Histogram("core.gc.erase_wait_ns", metrics.DurationBounds()),

		checkpoints:  reg.Counter("core.checkpoints"),
		checkpointNS: reg.Histogram("core.checkpoint_ns", metrics.DurationBounds()),

		recoverVerified:    reg.Counter("core.recover.actions_verified"),
		recoverRejected:    reg.Counter("core.recover.actions_rejected"),
		recoverVerifyBytes: reg.Counter("core.recover.verify_bytes"),

		reads:          reg.Counter("read.reads"),
		readBatches:    reg.Counter("read.batches"),
		readFlashLoads: reg.Counter("read.flash_loads"),
		readRBlocks:    reg.Counter("read.rblocks"),
		readNotFound:   reg.Counter("read.not_found"),
		readNS:         reg.Histogram("read.ns", metrics.DurationBounds()),

		eraseWhilePinned: reg.Counter("core.erase_while_pinned"),
	}
}

// attributeSrc maps a program's source to SrcRecovery while crash
// recovery is running, so recovery-issued WAL/checkpoint traffic shows up
// under its own accounting bucket.
func (c *Controller) attributeSrc(src flash.Source) flash.Source {
	if c.recovering.Load() {
		return flash.SrcRecovery
	}
	return src
}

// tenantWriteLocked charges one flush's logical bytes and pages to its
// session's tenant ("write.tenant.<tenant>.bytes"/".pages", label
// "default" for untagged sessions, matching the qos.* convention). The
// counter handles are cached per tenant under c.mu, so the steady state
// pays two atomic adds and a map lookup.
func (c *Controller) tenantWriteLocked(sid uint64, bytes, pages int64) {
	tenant := ""
	if sid != 0 {
		tenant, _, _ = c.sess.Tenant(sid)
	}
	if tenant == "" {
		tenant = "default"
	}
	tc := c.tenantWrites[tenant]
	if tc == nil {
		tc = &tenantWriteCounters{
			bytes: c.reg.Counter("write.tenant." + tenant + ".bytes"),
			pages: c.reg.Counter("write.tenant." + tenant + ".pages"),
		}
		c.tenantWrites[tenant] = tc
	}
	tc.bytes.Add(bytes)
	tc.pages.Add(pages)
}

// tenantWriteCounters is one tenant's cached write-attribution handles.
type tenantWriteCounters struct {
	bytes *metrics.Counter
	pages *metrics.Counter
}

// Metrics returns the controller's own metrics registry (never nil, born
// empty with the controller); the server and QoS register into it.
func (c *Controller) Metrics() *metrics.Registry { return c.reg }

// MetricsSnapshot exports every instrument in the controller's registry
// plus the DeviceHealth census as health.* gauges: the one snapshot
// stats_full, /metrics, eleosctl and bench render. The instruments are
// read lock-free; the census takes c.mu for one consistent cut, so the
// caller must not hold it.
func (c *Controller) MetricsSnapshot() metrics.Snapshot {
	s := c.reg.Snapshot()
	c.DeviceHealth().AddGauges(&s)
	return s
}

// Tracer returns the controller's own always-on flight recorder (never
// nil).
func (c *Controller) Tracer() *trace.Recorder { return c.trc }

// TraceDump snapshots the flight recorder. Lock-free: safe to call
// concurrently with writes, GC and checkpoints.
func (c *Controller) TraceDump() trace.Dump { return c.trc.Dump() }

// ActiveActions returns the number of in-progress system actions. After
// traffic quiesces — even traffic that suffered injected media failures —
// this must be zero, or an abort path leaked an active-table entry and
// log truncation is pinned forever.
func (c *Controller) ActiveActions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.active)
}

// InflightEBlocks returns the number of EBLOCKs with programs still queued
// on the device workers. Zero after traffic quiesces.
func (c *Controller) InflightEBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// PinnedEBlocks returns the number of EBLOCKs pinned by actions in their
// commit-force window (programs landed, mapping install pending). Zero
// after traffic quiesces; a leak here re-opens the GC-erases-fresh-EBLOCK
// bug that the pinning protocol closed.
func (c *Controller) PinnedEBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pinned)
}
