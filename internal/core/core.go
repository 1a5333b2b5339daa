// Package core implements ELEOS, the SSD controller FTL of the paper:
// a batched write interface for variable-size pages (§III), with
// provisioning and I/O command generation (§IV), the RBLOCK-aligned read
// path (§V), minimum-cost-decline garbage collection with hot/cold
// separation (§VI), write-failure handling by EBLOCK migration (§VII), and
// redo-only logging, fuzzy checkpointing, and two-pass crash recovery
// (§VIII).
//
// The controller operates over the flash media simulator. All multi-page
// writes execute as *system actions* with initialization, execution and
// commit phases; a write buffer's pages become visible in the mapping
// table all-or-nothing, in buffer order, and sessions order entire buffers
// by write sequence number (WSN).
//
// A Controller is obtained by formatting a device (Format) or recovering
// one (Open). Crash simulation: SetCrashPoint makes the controller die at
// a named point, Crash at once. A dead controller's media port (port.go)
// is closed and it rejects every call; Open on the same device recovers
// exactly the committed state.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/mapping"
	"eleos/internal/metrics"
	"eleos/internal/provision"
	"eleos/internal/readcache"
	"eleos/internal/record"
	"eleos/internal/session"
	"eleos/internal/summary"
	"eleos/internal/trace"
	"eleos/internal/wal"
)

// Config tunes the controller.
type Config struct {
	// GCFreeFraction triggers GC on a channel when its free-EBLOCK
	// fraction drops below this value (the paper uses 10%).
	GCFreeFraction float64
	// GCMaxRounds bounds how many EBLOCKs one GC pass may collect per
	// channel.
	GCMaxRounds int
	// AutoCheckpointLogBytes forces a checkpoint after this much log
	// *space* has been consumed — every log page that lands burns a whole
	// WBLOCK, however few records it carries — so truncation keeps pace
	// with log growth (0 disables auto checkpointing). Values below a few
	// WBLOCKs checkpoint every write.
	AutoCheckpointLogBytes int
	// ReadCacheBytes sizes the server-side read cache
	// (internal/readcache) in bytes. 0 — the default — disables caching:
	// every Read goes to flash, and the paper-fidelity read-amplification
	// stats (Stats.ReadRBlocks) count exactly the media transfers the
	// paper's §V model predicts. A caching controller still counts only
	// real media transfers there, so warm workloads show ReadRBlocks ≪
	// reads — that gap is the cache's proof of work.
	ReadCacheBytes int64
}

// DefaultConfig returns production-like defaults.
func DefaultConfig() Config {
	return Config{
		GCFreeFraction:         0.10,
		GCMaxRounds:            8,
		AutoCheckpointLogBytes: 0,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.GCFreeFraction == 0 {
		c.GCFreeFraction = d.GCFreeFraction
	}
	if c.GCMaxRounds == 0 {
		c.GCMaxRounds = d.GCMaxRounds
	}
	return c
}

// Errors.
var (
	ErrCrashed      = errors.New("core: controller crashed; recover with Open")
	ErrEmptyBatch   = errors.New("core: empty write buffer")
	ErrBadLPID      = errors.New("core: invalid application LPID")
	ErrNotFound     = errors.New("core: LPID not mapped")
	ErrWriteFailed  = errors.New("core: write buffer aborted by media failure; retry")
	ErrNoCheckpoint = errors.New("core: no valid checkpoint record on device")
	ErrImageFormat  = errors.New("core: device image of another format epoch; format anew")
)

// LPage is one logical page of a write buffer. Data of any length is
// accepted; it is stored padded to the 64-byte LPAGE alignment and reads
// return the padded image (applications track exact lengths themselves,
// as with the paper's in-batch metadata).
type LPage struct {
	LPID addr.LPID
	Data []byte
}

// Stats counts controller activity since Format/Open. It is a view:
// Stats() reads each field from the registry instrument named beside it
// (DESIGN.md §7.1), so the struct and MetricsSnapshot() cannot disagree.
type Stats struct {
	BatchesWritten   int64 // core.write.batches
	PagesWritten     int64 // core.write.pages
	BytesAccepted    int64 // core.write.bytes_accepted: logical bytes handed to WriteBatch
	BytesStored      int64 // core.write.bytes_stored: aligned LPAGE bytes placed on flash
	Reads            int64 // read.flash_loads: pages loaded from flash, not read.reads (cache hits included)
	ReadRBlocks      int64 // read.rblocks: RBLOCKs transferred by every media read (amplification)
	IOCommands       int64 // core.io_commands
	LogRecords       int64 // wal.appends
	LogForces        int64 // core.log_forces
	StaleWrites      int64 // core.write.stale
	GroupWrites      int64 // core.write.group_writes: actions that merged ≥2 coalesced flushes
	GroupedFlushes   int64 // core.write.grouped_flushes: flushes written as part of such actions
	AbortedActions   int64 // core.aborted_actions
	GCRounds         int64 // core.gc.rounds
	GCPagesMoved     int64 // core.gc.pages_moved
	GCBytesMoved     int64 // core.gc.bytes_moved
	GCBytesRead      int64 // core.gc.bytes_read: media bytes transferred to move them (read amplification)
	GCEBlocksFreed   int64 // core.gc.eblocks_freed
	GCMetaUnreadable int64 // core.gc.meta_unreadable
	Migrations       int64 // core.migrations
	Checkpoints      int64 // core.checkpoints
	RecoverVerified  int64 // core.recover.actions_verified: actions Open proved by reading their data back
	RecoverRejected  int64 // core.recover.actions_rejected: those whose data did not match their commit's checksum
	RecoverBytes     int64 // core.recover.verify_bytes: media bytes read to prove them
}

// checkpoint area location: the first two EBLOCKs of channel 0 are
// reserved and ping-pong full checkpoint records (§VIII-B "well-known
// location").
const (
	ckptChannel = 0
	ckptEBlockA = 0
	ckptEBlockB = 1
)

// Controller is the ELEOS FTL.
//
// Concurrency: c.mu protects all controller state, but the write path holds
// it only for short critical sections — WSN admission, the
// provision/log/submit sequence, and the install — and releases it while
// flash programs run on the device's per-channel FIFOs and the commit force
// runs beside them (see DESIGN.md §4, "Concurrency model"). GC,
// migration and checkpoint actions take the same steps holding c.mu, which
// they release only while a metadata read or an erase batch is on the
// device (DESIGN.md §4.1, "GC media waits").
type Controller struct {
	mu      sync.Mutex
	wsnCond *sync.Cond // admission waiters (WSN order, duplicate claims)
	ioCond  *sync.Cond // waiters draining in-flight programs per EBLOCK

	cfg  Config
	port *port
	geo  flash.Geometry
	st   *summary.Table
	mt   *mapping.Table
	sess *session.Table
	prov *provision.Provisioner
	log  *wal.Log

	updateSeq    uint64                // timestamp proxy (update sequence number)
	clock        func() uint64         // reads updateSeq; bound once, as a method value allocates
	nextAction   uint64                // next system action ID
	active       map[uint64]record.LSN // active actions -> first LSN
	sessSnapAddr addr.PhysAddr         // current durable session snapshot

	// inflight counts programs queued on the device workers and GC's media
	// waits per (channel, eblock). Victim selection, a checkpoint's closes
	// and migration must not touch an EBLOCK while its count is non-zero.
	inflight map[[2]int]int
	// pinned counts actions whose programs landed on an EBLOCK but whose
	// mapping install (or abort) has not happened yet. A user action waits
	// for its commit force with c.mu released and its programs possibly
	// drained from inflight; without the pin, GC running in that window
	// would scan the freshly closed EBLOCK, find its pages unreferenced (the
	// mapping still points at the old versions), and erase it — the action
	// would then install addresses into erased flash. Pins are taken at
	// submit and released at install/abort; GC victim selection and
	// migration skip or wait on them exactly like inflight.
	pinned map[[2]int]int
	// doneLSN is, per EBLOCK, the LSN of the Done record of the last action
	// that wrote there. Until it is durable recovery proves the action by
	// reading its pages back, so eraseAndFreeLocked forces the log first.
	doneLSN map[[2]int]record.LSN
	// wsnInflight claims a (sid, wsn) admission while its batch runs with
	// c.mu released, so a concurrent duplicate submission cannot be
	// admitted twice.
	wsnInflight map[[2]uint64]bool

	hintLSN atomic.Uint64 // mirrors log.NextLSN without taking the log lock
	// Scratch under c.mu, so a flush allocates alike whatever its pages.
	frames       []byte // records put for the next logFrames, nframes of them
	nframes      int
	garbage      []record.AddrPair
	credits      []summary.Credit
	cmds         []flash.BatchCmd
	ckptSeq      uint64
	ckptEB       int // current checkpoint-area EBLOCK (A or B)
	ckptWB       int // next WBLOCK within it
	lastTruncLSN record.LSN
	lastCkptLSN  record.LSN // log position at last checkpoint
	ckptPages    int64      // wal.Stats().PageWrites at the last checkpoint
	freedLSN     record.LSN // LSN of the last FreeEBlock record (see carryLocked)

	migrationDepth int
	inCheckpoint   bool
	// gcBusy marks a GC pass in flight. The pass releases c.mu while its
	// metadata reads and erase batches run, so the flag is what keeps passes
	// from overlapping: a threshold trigger skips, a forced caller waits.
	gcBusy bool

	crashPoints map[string]bool

	// recovering is set for the duration of Open so flash programs issued
	// by recovery (WAL resume, post-replay fix-ups) are attributed to
	// SrcRecovery instead of their steady-state source. Atomic because the
	// WAL sink programs without c.mu.
	recovering atomic.Bool

	// tenantWrites caches per-tenant write-attribution counter handles
	// (see tenantWriteLocked). Protected by c.mu.
	tenantWrites map[string]*tenantWriteCounters

	// reg and trc are born and die with the controller. reg is the only
	// counter store: every layer records into it and Stats() is a view.
	reg *metrics.Registry
	met coreMetrics
	trc *trace.Recorder

	// rcache is the optional byte-budget read cache (nil when
	// Config.ReadCacheBytes is 0). Coherence is the controller's job: the
	// cache is invalidated on every user-page mapping install and GC
	// relocation under c.mu, and crash→Open builds a fresh controller —
	// and therefore a fresh, empty cache. Lock order: c.mu before the
	// cache's internal mutex, never the reverse.
	rcache *readcache.Cache
}

func newController(dev *flash.Device, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	geo := dev.Geometry()
	st, err := summary.New(geo)
	if err != nil {
		return nil, err
	}
	prov, err := provision.New(geo, st)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:          cfg,
		port:         &port{dev: dev},
		geo:          geo,
		st:           st,
		mt:           mapping.New(),
		sess:         session.New(1), // SIDs are random; a fixed seed repeats them across runs
		prov:         prov,
		nextAction:   1,
		active:       make(map[uint64]record.LSN),
		inflight:     make(map[[2]int]int),
		pinned:       make(map[[2]int]int),
		doneLSN:      make(map[[2]int]record.LSN),
		wsnInflight:  make(map[[2]uint64]bool),
		ckptEB:       ckptEBlockA,
		crashPoints:  make(map[string]bool),
		tenantWrites: make(map[string]*tenantWriteCounters),
	}
	c.hintLSN.Store(1)
	c.clock = func() uint64 { return c.updateSeq }
	c.wsnCond = sync.NewCond(&c.mu)
	c.ioCond = sync.NewCond(&c.mu)
	c.mt.SetLoader(c.loadExtent)
	c.reg = metrics.New()
	c.met = newCoreMetrics(c.reg)
	if cfg.ReadCacheBytes > 0 {
		c.rcache = readcache.New(readcache.Config{
			CapacityBytes: cfg.ReadCacheBytes,
			Metrics:       c.reg,
		})
	}
	dev.SetMetrics(c.reg)
	c.trc = trace.New(trace.DefaultSize)
	dev.SetTracer(c.trc)
	return c, nil
}

// loadExtent reads an LPAGE image from flash given its physical address
// (the shared loader for all table pages).
func (c *Controller) loadExtent(a addr.PhysAddr) ([]byte, error) {
	data, nR, err := c.port.read(a.Channel(), a.EBlock(), a.Offset(), a.Length())
	if err != nil {
		return nil, err
	}
	c.met.readRBlocks.Add(int64(nR))
	return data, nil
}

// lsnHint returns a conservative lower bound for LSNs about to be
// assigned. It deliberately avoids log.NextLSN(): the WAL calls back into
// the controller (slot provisioning, program failover) while holding its
// own lock, so the hint is mirrored here instead. Atomic because the WAL
// callbacks run without c.mu (a commit force releases it).
func (c *Controller) lsnHint() record.LSN {
	h := record.LSN(c.hintLSN.Load())
	if h == 0 {
		return 1
	}
	return h
}

// put encodes r into the controller's log scratch for the next logFrames.
// Generic, so a record of a concrete kind is encoded unboxed. Requires c.mu.
func put[R record.Record](c *Controller, r R) {
	c.frames = record.Append(c.frames, r)
	c.nframes++
}

// logFrames appends every record put since the last call in one log append
// (DESIGN.md §4.1, "One log append per action"), returns the first one's
// LSN and advances the LSN hint. Requires c.mu.
func (c *Controller) logFrames() (record.LSN, error) {
	first, err := c.log.Append(c.frames)
	n := c.nframes
	c.frames, c.nframes = c.frames[:0], 0
	if err != nil {
		c.hintLSN.Store(uint64(c.log.NextLSN())) // a capacity flush failed partway
		return 0, err
	}
	c.hintLSN.Store(uint64(first) + uint64(n))
	return first, nil
}

// append logs one record. Requires c.mu.
func (c *Controller) append(r record.Record) (record.LSN, error) {
	put(c, r)
	return c.logFrames()
}

func (c *Controller) forceLog() error {
	if err := c.log.Force(); err != nil {
		return err
	}
	c.met.logForces.Inc()
	return nil
}

// logBytes is the log space consumed since the last checkpoint: a whole
// WBLOCK per page that landed, capacity pages included and free-riding
// forces not. Reclaiming it needs the truncation LSN to advance — i.e. a
// checkpoint.
func (c *Controller) logBytes() int {
	return int(c.log.Stats().PageWrites-c.ckptPages) * c.geo.WBlockBytes
}

// --- crash simulation -------------------------------------------------------

// SetCrashPoint arms a named crash point; the controller dies when
// execution reaches it. Used by fault-injection tests and benchmarks.
func (c *Controller) SetCrashPoint(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashPoints[name] = true
}

// Crash kills the controller immediately (simulated power loss). All
// volatile state is considered lost; recover with Open on the same device.
// As in a power cut, the commands already on the device complete before
// Crash returns, and no later one reaches it.
func (c *Controller) Crash() {
	c.mu.Lock()
	c.dieLocked()
	c.mu.Unlock()
	c.port.close(true) // outside c.mu: a submitter waits for its batch without it
}

// Crashed reports whether the controller has died.
func (c *Controller) Crashed() bool { return c.port.dead() }

// dieLocked kills the controller: it closes the media port without waiting
// (its own goroutine may hold a batch) and wakes every waiter.
func (c *Controller) dieLocked() {
	c.port.close(false)
	c.wsnCond.Broadcast()
	c.ioCond.Broadcast()
}

// crashIf kills the controller if the named crash point is armed.
func (c *Controller) crashIf(point string) error {
	if c.crashPoints[point] {
		delete(c.crashPoints, point)
		c.dieLocked()
		return fmt.Errorf("%w: at %q", ErrCrashed, point)
	}
	return nil
}

// --- accessors ---------------------------------------------------------------

// Stats returns the controller statistics. Reads are atomic loads of the
// instrument handles — no lock — so it may be polled while writers, readers
// and GC run; fields are each monotonic, not a consistent cut.
func (c *Controller) Stats() Stats {
	m := &c.met
	return Stats{
		BatchesWritten:   m.batches.Value(),
		PagesWritten:     m.pages.Value(),
		BytesAccepted:    m.bytesAccepted.Value(),
		BytesStored:      m.bytesStored.Value(),
		Reads:            m.readFlashLoads.Value(),
		ReadRBlocks:      m.readRBlocks.Value(),
		IOCommands:       m.ioCommands.Value(),
		LogRecords:       c.log.Stats().Appends,
		LogForces:        m.logForces.Value(),
		StaleWrites:      m.staleWrites.Value(),
		GroupWrites:      m.groupWrites.Value(),
		GroupedFlushes:   m.groupedFlushes.Value(),
		AbortedActions:   m.aborted.Value(),
		GCRounds:         m.gcRounds.Value(),
		GCPagesMoved:     m.gcPagesMoved.Value(),
		GCBytesMoved:     m.gcBytesMoved.Value(),
		GCBytesRead:      m.gcBytesRead.Value(),
		GCEBlocksFreed:   m.gcFreed.Value(),
		GCMetaUnreadable: m.gcMetaUnreadable.Value(),
		Migrations:       m.migrations.Value(),
		Checkpoints:      m.checkpoints.Value(),
		RecoverVerified:  m.recoverVerified.Value(),
		RecoverRejected:  m.recoverRejected.Value(),
		RecoverBytes:     m.recoverVerifyBytes.Value(),
	}
}

// Device returns the underlying flash device (for media-time accounting in
// benchmarks).
func (c *Controller) Device() *flash.Device { return c.port.dev }

// Geometry returns the device geometry.
func (c *Controller) Geometry() flash.Geometry { return c.geo }

// UpdateSeq returns the current update sequence number.
func (c *Controller) UpdateSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updateSeq
}

// FreeFraction returns the fraction of a channel's EBLOCKs that are free.
func (c *Controller) FreeFraction(ch int) float64 {
	return float64(c.st.FreeCount(ch)) / float64(c.geo.EBlocksPerChannel)
}

// MaxLPageBytes returns the largest storable LPAGE for this geometry.
func (c *Controller) MaxLPageBytes() int { return c.prov.MaxLPageBytes() }

// --- sessions ---------------------------------------------------------------

// OpenSession opens a durable write-ordering session and returns its SID
// (§III-A2). The session carries the default (empty) tenant tag.
func (c *Controller) OpenSession() (uint64, error) {
	return c.OpenSessionTenant("", 0)
}

// OpenSessionTenant opens a session tagged with a tenant name and
// priority. The tag is durable: it rides the forced SessionOpen log
// record and the checkpoint session snapshot, so recovery re-attributes
// the session to its tenant — admission accounting and QoS survive
// crashes and reconnects.
func (c *Controller) OpenSessionTenant(tenant string, priority uint8) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.port.dead() {
		return 0, ErrCrashed
	}
	sid := c.sess.OpenTenant(tenant, priority)
	if _, err := c.append(record.SessionOpen{SID: sid, Priority: priority, Tenant: tenant}); err != nil {
		return 0, err
	}
	if err := c.forceLog(); err != nil {
		return 0, err
	}
	return sid, nil
}

// SessionTenant returns a session's tenant tag and priority. It takes
// only the session table's own lock, so the server's per-flush tenant
// attribution never contends with the write path on c.mu.
func (c *Controller) SessionTenant(sid uint64) (string, uint8, error) {
	return c.sess.Tenant(sid)
}

// CloseSession closes a session.
func (c *Controller) CloseSession(sid uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.port.dead() {
		return ErrCrashed
	}
	if err := c.sess.Close(sid); err != nil {
		return err
	}
	if _, err := c.append(record.SessionClose{SID: sid}); err != nil {
		return err
	}
	return c.forceLog()
}

// SessionHighestWSN returns the session's highest applied WSN.
func (c *Controller) SessionHighestWSN(sid uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.HighestWSN(sid)
}

// --- wal sink ----------------------------------------------------------------

// logSink adapts the provisioner + device to the WAL's Sink interface.
type logSink struct{ c *Controller }

func (s logSink) ProvisionSlots(n int) ([]wal.Slot, error) {
	return s.c.prov.ProvisionLogSlots(n, s.c.lsnHint())
}

func (s logSink) Program(sl wal.Slot, page []byte) error {
	err := s.c.port.program(s.c.attributeSrc(flash.SrcWAL), sl.Channel, sl.EBlock, sl.WBlock, page)
	if err != nil {
		// Retire the EBLOCK so fresh slots come from elsewhere; the WAL's
		// forward candidates handle the in-flight page.
		_ = s.c.prov.AbandonLogEBlock(sl.Channel, sl.EBlock, s.c.lsnHint())
		return err
	}
	// Track the highest LSN actually stored in the EBLOCK: slots are
	// provisioned ahead of writing, so the EBLOCK may already be retired
	// (Used) when this page lands — the raise keeps truncation-reclaim
	// from erasing it while it still holds live log pages.
	if _, last, ok := wal.PageLSNRange(page); ok {
		_ = s.c.st.RaiseTimestamp(sl.Channel, sl.EBlock, uint64(last), last)
	}
	return nil
}

func (s logSink) Read(sl wal.Slot) ([]byte, error) {
	data, _, err := s.c.port.read(sl.Channel, sl.EBlock, sl.WBlock*s.c.geo.WBlockBytes, s.c.geo.WBlockBytes)
	return data, err
}
