// Package flash simulates the raw storage media of an Open-Channel SSD:
// an array of channels, each holding EBLOCKs composed of WBLOCKs, which in
// turn are composed of RBLOCKs (Table I of the paper).
//
// The simulator enforces NAND flash semantics that the FTL must respect:
//
//   - erase-before-write: a WBLOCK may be programmed only once between
//     erases of its EBLOCK;
//   - sequential programming: WBLOCKs within an EBLOCK must be programmed
//     in increasing order;
//   - bounded endurance: an EBLOCK that exceeds its erase limit goes bad;
//   - write failures: programs can be made to fail, either at explicit
//     addresses or with a seeded probability, after which the remainder of
//     the EBLOCK is unwritable until erased (§VII).
//
// All operations account virtual time against the owning channel, so the
// media's parallelism (channels operate independently) is modelled without
// wall-clock sleeps: the media-side elapsed time of a workload is the
// busiest channel's accumulated time.
//
// SetWallLatencyScale also plays the latencies out in wall clock: a command
// occupies its channel until a per-channel deadline at which the process's
// one timekeeper (timekeeper.go) wakes it — never before, and later by a
// lateness reported as "flash.wall_late_ns". Virtual time does not notice.
//
// Channels are independently locked. SubmitBatch queues the commands that
// must stay ordered — programs and erases — on one FIFO per channel.
// Segments with a wall-latency arrival are run by the channel's worker
// goroutine, so different channels hold their time concurrently; the rest
// are run by the goroutine that waits for them (Batch.Wait), with no
// handoff. One rule beside FIFO: a SrcWAL program waiting for a channel
// goes before its next program or erase (lock). Each channel's virtual busy
// time is a sum over its own operations, so the totals do not depend on
// wall-clock interleaving and virtual-time results stay deterministic.
//
// Reads never queue. The one read is ReadAll: many gathers, each of one
// EBLOCK, with one arrival stamp, run on the calling goroutine.
package flash

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// Geometry describes the shape of the simulated flash array.
type Geometry struct {
	Channels          int // number of independent flash channels
	EBlocksPerChannel int // erase blocks per channel
	EBlockBytes       int // size of an erase block (paper: 8 MB)
	WBlockBytes       int // smallest writable unit (paper: 32 KB)
	RBlockBytes       int // smallest readable unit (paper: 4 KB)
	EraseLimit        int // erases before an EBLOCK goes bad; 0 = unlimited
}

// SmallGeometry returns a compact geometry convenient for unit tests:
// 4 channels x 16 EBLOCKs x 256 KB with 16 KB WBLOCKs and 4 KB RBLOCKs.
func SmallGeometry() Geometry {
	return Geometry{
		Channels:          4,
		EBlocksPerChannel: 16,
		EBlockBytes:       256 << 10,
		WBlockBytes:       16 << 10,
		RBlockBytes:       4 << 10,
		EraseLimit:        0,
	}
}

// Validate checks internal consistency of the geometry.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return errors.New("flash: geometry needs at least one channel")
	case g.EBlocksPerChannel <= 0:
		return errors.New("flash: geometry needs at least one eblock per channel")
	case g.RBlockBytes <= 0 || g.RBlockBytes%64 != 0:
		return errors.New("flash: rblock size must be a positive multiple of 64")
	case g.WBlockBytes <= 0 || g.WBlockBytes%g.RBlockBytes != 0:
		return errors.New("flash: wblock size must be a multiple of rblock size")
	case g.EBlockBytes <= 0 || g.EBlockBytes%g.WBlockBytes != 0:
		return errors.New("flash: eblock size must be a multiple of wblock size")
	case g.EraseLimit < 0:
		return errors.New("flash: erase limit must be non-negative")
	}
	return nil
}

// WBlocksPerEBlock returns the number of WBLOCKs in one EBLOCK.
func (g Geometry) WBlocksPerEBlock() int { return g.EBlockBytes / g.WBlockBytes }

// CapacityBytes returns the raw capacity of the whole array.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Channels) * int64(g.EBlocksPerChannel) * int64(g.EBlockBytes)
}

// Latency models per-operation flash timing. Zero values disable timing.
type Latency struct {
	ReadRBlock    time.Duration // time to read one RBLOCK
	ProgramWBlock time.Duration // time to program one WBLOCK
	EraseEBlock   time.Duration // time to erase one EBLOCK
}

// TypicalNANDLatency returns latencies in the range of the MLC/TLC NAND the
// paper's CNEX device uses.
func TypicalNANDLatency() Latency {
	return Latency{
		ReadRBlock:    60 * time.Microsecond,
		ProgramWBlock: 800 * time.Microsecond,
		EraseEBlock:   5 * time.Millisecond,
	}
}

// Source attributes a program operation to the subsystem that issued it.
// The write-amplification story is an accounting argument, and the split
// makes it exact: every successful program charges exactly one source, so
// the per-source sums reconcile with the device totals byte-for-byte (the
// chaos byte-conservation invariant). The zero Source is none: a program
// must name its source.
type Source uint8

const (
	// SrcUser is a user write-buffer program.
	SrcUser Source = iota + 1
	// SrcGC is a garbage-collection or migration relocation program.
	SrcGC
	// SrcCheckpoint covers checkpoint-area records, table flushes and
	// forced EBLOCK closes.
	SrcCheckpoint
	// SrcWAL is a write-ahead-log page program.
	SrcWAL
	// SrcRecovery is any program issued while crash recovery is running.
	SrcRecovery
	// NumSources sizes per-source arrays.
	NumSources
)

func (s Source) String() string {
	switch s {
	case SrcUser:
		return "user"
	case SrcGC:
		return "gc"
	case SrcCheckpoint:
		return "checkpoint"
	case SrcWAL:
		return "wal"
	case SrcRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Stats counts media operations since the device was created (or since
// ResetStats).
type Stats struct {
	RBlocksRead    int64
	WBlocksWritten int64
	EBlocksErased  int64
	BytesRead      int64
	BytesWritten   int64
	WriteFailures  int64
	EraseFailures  int64
	// EraseAttempts counts every erase pulse that reached the media —
	// successes, injected failures and over-limit rejections alike. Each
	// attempt bumps exactly one EBLOCK's wear counter, so on a fresh
	// device the per-EBLOCK erase counts sum to EraseAttempts (the chaos
	// erase-monotonicity invariant).
	EraseAttempts int64
	// SrcWBlocks/SrcBytes split the successful programs by issuing
	// subsystem; the sums over all sources equal WBlocksWritten and
	// BytesWritten exactly.
	SrcWBlocks [NumSources]int64
	SrcBytes   [NumSources]int64
}

// Errors returned by device operations.
var (
	ErrOutOfRange     = errors.New("flash: address out of range")
	ErrWriteTwice     = errors.New("flash: wblock already programmed since last erase")
	ErrWriteOrder     = errors.New("flash: wblocks must be programmed sequentially within an eblock")
	ErrWriteFailed    = errors.New("flash: program operation failed")
	ErrEraseFailed    = errors.New("flash: erase operation failed")
	ErrEBlockDisabled = errors.New("flash: eblock unwritable after earlier program failure; erase first")
	ErrBadBlock       = errors.New("flash: eblock has exceeded its erase limit")
	ErrDataTooLarge   = errors.New("flash: data larger than a wblock")
)

// eblockState keeps each WBLOCK's backing array across erases: the
// sequential-program rule makes "programmed" equivalent to
// wb < nextWBlock, so an erase only resets the position and the stale
// entries beyond it are unobservable (reads of unprogrammed WBLOCKs
// return zeroes by construction, exactly as an erased cell would).
// Each array's len is the payload it stores (reads treat bytes past len
// as zeroes, so programs never zero-fill a WBLOCK tail). A slot's first
// array is exact-size, one that grows after an erase takes a whole WBLOCK,
// and capacity survives erase: a recycled WBLOCK grows at most once.
type eblockState struct {
	wblocks    [][]byte // stored payloads, len = last program's size; capacity outlives erases
	nextWBlock int      // next sequential program position; wb < nextWBlock ⇔ programmed
	eraseCount int
	failed     bool // a program failed; block unwritable until erase
	bad        bool // exceeded erase limit
}

type channelState struct {
	mu sync.Mutex
	// logFirst is the turnstile of the device's one scheduling rule (lock):
	// a log page waiting for the channel goes before the next program or erase.
	logFirst sync.Mutex
	eblocks  []eblockState
	busy     time.Duration // accumulated virtual time
	// wall is the wall-latency emulation's (wallWait): the channel's
	// current emulated command, or its last; wall.at is when it ends.
	wall wakeup
	// The submission FIFO: q (under qmu) is run from its head, one segment
	// at a time, by whoever holds drain (Device.drain). popped counts the
	// segments taken off it; work wakes the worker, nil until it starts.
	qmu    sync.Mutex
	q      []batchSeg
	popped uint64
	work   chan struct{}
	drain  sync.Mutex
}

// Device is the simulated flash array. All methods are safe for concurrent
// use; operations on different channels do not contend.
type Device struct {
	geo      Geometry
	lat      Latency
	channels []channelState

	statsMu sync.Mutex
	stats   Stats

	injectMu       sync.Mutex
	failNext       map[[3]int]bool // explicit one-shot program failures
	failProb       float64
	rng            *rand.Rand
	programSeq     int64          // program attempts seen by shouldFail
	failAtSeq      map[int64]bool // programSeq values that must fail (FailNthProgram)
	eraseSeq       int64          // erase attempts seen by shouldFailErase
	failEraseAtSeq map[int64]bool // eraseSeq values that must fail (FailNthErase)

	// met is the instrument-handle set installed by SetMetrics; nil means
	// uninstrumented, so the hot path pays one atomic pointer load and a
	// branch. Swappable atomically because the controller installs it
	// after the device already exists.
	met atomic.Pointer[devMetrics]

	// trc is the flight recorder installed by SetTracer; like met it is
	// swapped atomically after the device exists, and an unwired device
	// pays one pointer load and a branch.
	trc atomic.Pointer[trace.Recorder]

	closed atomic.Bool // Close ran: no worker starts

	// wallScale > 0 makes operations consume real wall-clock time (their
	// virtual latency times the scale) while holding the channel lock,
	// emulating channel occupancy for concurrency benchmarks. Stored as
	// scale*1000 in an atomic so it can be read lock-free.
	wallScaleMilli atomic.Int64
}

// SetWallLatencyScale makes device operations take scale×latency of real
// time while occupying their channel (0 disables, the default). Virtual
// time accounting is unaffected. Used by wall-clock concurrency benchmarks
// to model the pipeline overlap a real NAND channel would provide. A
// command returns no earlier than its start (wallWait) plus its scaled
// latency; how much later is reported as "flash.wall_late_ns". Commands
// that arrived while the scale was 0 are not emulated.
func (d *Device) SetWallLatencyScale(scale float64) {
	d.wallScaleMilli.Store(int64(scale * 1000))
}

// arrival stamps a command's arrival at the device for wallWait: the zero
// Time while wall-latency emulation is off. program, readGather and erase
// run one program, gather or erase that arrived at arrived.
func (d *Device) arrival() time.Time {
	if d.wallScaleMilli.Load() <= 0 {
		return time.Time{}
	}
	return time.Now()
}

// wallWait occupies the channel for the scaled latency if wall-time
// emulation is on. Called with the channel lock held: the channel is busy
// for the duration. The wait is a deadline, not a length: the command starts
// when it arrived or when the channel's previous command ends, whichever is
// later, so commands queued back to back end at first start + k×latency, an
// earlier wait's lateness absorbed by the next instead of added to it.
func (d *Device) wallWait(cs *channelState, arrived time.Time, lat time.Duration, m *devMetrics) {
	s := d.wallScaleMilli.Load()
	if s <= 0 || arrived.IsZero() {
		return
	}
	if arrived.Before(cs.wall.at) {
		arrived = cs.wall.at
	}
	cs.wall.at = arrived.Add(lat * time.Duration(s) / 1000)
	keeper.sleepUntil(&cs.wall)
	if m != nil {
		m.wallLateNS.ObserveDuration(time.Since(cs.wall.at))
	}
}

// lock takes the channel for a program or an erase. A SrcWAL program holds
// the turnstile from its arrival until it has the channel, and every other
// program or erase passes through the turnstile first: the channel's worker
// yields between two queued commands to a log page that is waiting, and
// never preempts the command that is running. The commit page of a flush is
// programmed beside the data it commits (core.writeUser); without the rule
// it queues behind every stripe already on its channel. A log EBLOCK is
// never a data EBLOCK, so each EBLOCK still sees its programs in the order
// they were submitted. Reads do not take part: they are short.
func (cs *channelState) lock(logPage bool) {
	cs.logFirst.Lock()
	if logPage {
		cs.mu.Lock()
		cs.logFirst.Unlock()
		return
	}
	cs.logFirst.Unlock()
	cs.mu.Lock()
}

// devMetrics holds the device's instrument handles, resolved once in
// SetMetrics. Latencies are wall-clock, taken from after the channel lock
// is acquired (so without the wait for it) and including any wallWait
// emulation, so histogram time only moves when the benchmark models
// occupancy — virtual-time accounting stays in ChannelTime/MediaTime.
type devMetrics struct {
	programs        *metrics.Counter
	programFailures *metrics.Counter
	programmedBytes *metrics.Counter
	erases          *metrics.Counter
	eraseFailures   *metrics.Counter
	programNS       *metrics.Histogram
	eraseNS         *metrics.Histogram
	readNS          *metrics.Histogram           // per gather
	wallLateNS      *metrics.Histogram           // per emulated wait: return time past its deadline
	queueDepth      []*metrics.Gauge             // per channel, in queued commands
	srcWBlocks      [NumSources]*metrics.Counter // flash.src.<name>.wblocks
	srcBytes        [NumSources]*metrics.Counter // flash.src.<name>.bytes
}

// SetMetrics installs instrument handles from reg: "flash.programs",
// "flash.program_failures", "flash.programmed_bytes", "flash.erases",
// "flash.erase_failures" counters, per-source
// "flash.src.<source>.wblocks"/"flash.src.<source>.bytes" counters, the
// "flash.program_ns"/"flash.erase_ns"/"flash.read_ns" wall-clock
// histograms, "flash.wall_late_ns" (how long after its deadline each
// emulated wait returned; no samples with wall latency off), and one
// "flash.chan<i>.queue_depth" gauge per channel counting commands queued
// on the channel's FIFO. A nil registry uninstalls
// instrumentation. Install before submitting traffic: batches in flight
// across the swap can skew the queue-depth gauges.
func (d *Device) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		d.met.Store(nil)
		return
	}
	m := &devMetrics{
		programs:        reg.Counter("flash.programs"),
		programFailures: reg.Counter("flash.program_failures"),
		programmedBytes: reg.Counter("flash.programmed_bytes"),
		erases:          reg.Counter("flash.erases"),
		eraseFailures:   reg.Counter("flash.erase_failures"),
		programNS:       reg.Histogram("flash.program_ns", metrics.DurationBounds()),
		eraseNS:         reg.Histogram("flash.erase_ns", metrics.DurationBounds()),
		readNS:          reg.Histogram("flash.read_ns", metrics.DurationBounds()),
		wallLateNS:      reg.Histogram("flash.wall_late_ns", metrics.DurationBounds()),
		queueDepth:      make([]*metrics.Gauge, d.geo.Channels),
	}
	for i := range m.queueDepth {
		m.queueDepth[i] = reg.Gauge(fmt.Sprintf("flash.chan%d.queue_depth", i))
	}
	for s := SrcUser; s < NumSources; s++ {
		m.srcWBlocks[s] = reg.Counter(fmt.Sprintf("flash.src.%s.wblocks", s))
		m.srcBytes[s] = reg.Counter(fmt.Sprintf("flash.src.%s.bytes", s))
	}
	d.met.Store(m)
}

// SetTracer installs a flight recorder: every program and erase emits a
// KFlashProgram/KFlashErase span with its (channel, eblock) identity.
// Media events carry trace ID 0 — attribution to a batch happens via the
// enclosing KProgramWait span's time window. A nil recorder uninstalls
// tracing.
func (d *Device) SetTracer(trc *trace.Recorder) { d.trc.Store(trc) }

// tracer returns the installed recorder; nil-safe for Emit/Span/Now.
func (d *Device) tracer() *trace.Recorder { return d.trc.Load() }

// NewDevice creates a device with the given geometry and latency model.
func NewDevice(geo Geometry, lat Latency) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		geo:      geo,
		lat:      lat,
		channels: make([]channelState, geo.Channels),
		failNext: make(map[[3]int]bool),
		rng:      rand.New(rand.NewSource(42)),
	}
	for i := range d.channels {
		d.channels[i].eblocks = make([]eblockState, geo.EBlocksPerChannel)
		d.channels[i].wall.ch = make(chan struct{}, 1)
		for j := range d.channels[i].eblocks {
			d.channels[i].eblocks[j].wblocks = make([][]byte, geo.WBlocksPerEBlock())
		}
	}
	return d, nil
}

// MustNewDevice is NewDevice that panics on error; for tests and examples.
func MustNewDevice(geo Geometry, lat Latency) *Device {
	d, err := NewDevice(geo, lat)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

func (d *Device) checkAddr(ch, eb int) error {
	if ch < 0 || ch >= d.geo.Channels || eb < 0 || eb >= d.geo.EBlocksPerChannel {
		return fmt.Errorf("%w: ch=%d eb=%d", ErrOutOfRange, ch, eb)
	}
	return nil
}

// FailNextProgram arranges for the next program of the given WBLOCK to
// fail. Used by tests and fault-injection benchmarks.
func (d *Device) FailNextProgram(ch, eb, wb int) {
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	d.failNext[[3]int{ch, eb, wb}] = true
}

// FailNthProgram arranges for the n-th program attempt from now (n=1 is
// the very next) to fail, whichever WBLOCK it targets. Unlike
// FailNextProgram it needs no address, so fault schedules stay
// deterministic even when concurrent provisioning makes the victim
// address unpredictable: each armed countdown fires on exactly one
// program attempt, so the device's WriteFailures count (and the
// "flash.program_failures" metric) grows by exactly the number of armed
// countdowns once at least that many programs have been attempted.
func (d *Device) FailNthProgram(n int) {
	if n < 1 {
		return
	}
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	if d.failAtSeq == nil {
		d.failAtSeq = make(map[int64]bool)
	}
	d.failAtSeq[d.programSeq+int64(n)] = true
}

// FailNthErase arranges for the n-th erase attempt from now (n=1 is the
// very next) to fail, whichever EBLOCK it targets — the erase twin of
// FailNthProgram, sharing its countdown design: each armed countdown
// fires on exactly one erase attempt, so EraseFailures (and the
// "flash.erase_failures" metric) grows by exactly the number of armed
// countdowns once that many erases have been attempted. A failed erase
// leaves the EBLOCK un-erased (its programmed content intact and its
// program position unchanged); the erase attempt still counts against
// the erase limit, as a real NAND erase pulse would.
func (d *Device) FailNthErase(n int) {
	if n < 1 {
		return
	}
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	if d.failEraseAtSeq == nil {
		d.failEraseAtSeq = make(map[int64]bool)
	}
	d.failEraseAtSeq[d.eraseSeq+int64(n)] = true
}

// PendingInjectedFailures reports how many armed FailNthProgram and
// FailNthErase countdowns have not fired yet. Chaos schedules use it to
// account exactly for injected faults: fired = armed - pending.
func (d *Device) PendingInjectedFailures() (programs, erases int) {
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	return len(d.failAtSeq), len(d.failEraseAtSeq)
}

// SetFailureProbability makes every program fail independently with
// probability p, using the device's seeded RNG. The draws follow the order
// in which programs reach the media: each channel's FIFO order, which is
// deterministic with wall latency off and one submitter.
func (d *Device) SetFailureProbability(p float64, seed int64) {
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	d.failProb = p
	d.rng = rand.New(rand.NewSource(seed))
}

// shouldFail decides fault injection for one program.
func (d *Device) shouldFail(ch, eb, wb int) bool {
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	d.programSeq++
	if d.failAtSeq[d.programSeq] {
		delete(d.failAtSeq, d.programSeq)
		return true
	}
	key := [3]int{ch, eb, wb}
	if d.failNext[key] {
		delete(d.failNext, key)
		return true
	}
	return d.failProb > 0 && d.rng.Float64() < d.failProb
}

// shouldFailErase decides fault injection for one erase.
func (d *Device) shouldFailErase() bool {
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	d.eraseSeq++
	if d.failEraseAtSeq[d.eraseSeq] {
		delete(d.failEraseAtSeq, d.eraseSeq)
		return true
	}
	return false
}

// Program writes data into a WBLOCK and charges it to src; a zero or
// out-of-range src fails with ErrOutOfRange before anything is touched.
// len(data) must not exceed the WBLOCK size; shorter data is implicitly
// zero-padded on read. Programs within an EBLOCK must be issued at strictly
// increasing WBLOCK indices.
func (d *Device) Program(src Source, ch, eb, wb int, data []byte) error {
	return d.program(d.arrival(), src, ch, eb, wb, data)
}

func (d *Device) program(arrived time.Time, src Source, ch, eb, wb int, data []byte) error {
	if src == 0 || src >= NumSources {
		return fmt.Errorf("%w: source %d", ErrOutOfRange, src)
	}
	if err := d.checkAddr(ch, eb); err != nil {
		return err
	}
	if wb < 0 || wb >= d.geo.WBlocksPerEBlock() {
		return fmt.Errorf("%w: wb=%d", ErrOutOfRange, wb)
	}
	if len(data) > d.geo.WBlockBytes {
		return fmt.Errorf("%w: %d > %d", ErrDataTooLarge, len(data), d.geo.WBlockBytes)
	}
	cs := &d.channels[ch]
	cs.lock(src == SrcWAL)
	defer cs.mu.Unlock()
	ebs := &cs.eblocks[eb]
	if ebs.bad {
		return fmt.Errorf("%w: ch=%d eb=%d", ErrBadBlock, ch, eb)
	}
	if ebs.failed {
		return fmt.Errorf("%w: ch=%d eb=%d", ErrEBlockDisabled, ch, eb)
	}
	if wb < ebs.nextWBlock {
		return fmt.Errorf("%w: ch=%d eb=%d wb=%d", ErrWriteTwice, ch, eb, wb)
	}
	if wb != ebs.nextWBlock {
		return fmt.Errorf("%w: ch=%d eb=%d wb=%d (next=%d)", ErrWriteOrder, ch, eb, wb, ebs.nextWBlock)
	}
	// Programming consumes time whether or not it succeeds.
	m := d.met.Load()
	trc := d.tracer()
	var t0 time.Time
	if m != nil || trc != nil {
		t0 = time.Now()
	}
	cs.busy += d.lat.ProgramWBlock
	d.wallWait(cs, arrived, d.lat.ProgramWBlock, m)
	if d.shouldFail(ch, eb, wb) {
		ebs.failed = true
		d.statsMu.Lock()
		d.stats.WriteFailures++
		d.statsMu.Unlock()
		if m != nil {
			m.programs.Inc()
			m.programFailures.Inc()
			m.programNS.ObserveDuration(time.Since(t0))
		}
		trc.Span(trace.KFlashProgram, 0, 0, 0, t0, int64(ch), int64(eb))
		return fmt.Errorf("%w: ch=%d eb=%d wb=%d", ErrWriteFailed, ch, eb, wb)
	}
	buf := ebs.wblocks[wb]
	switch {
	case buf == nil:
		buf = make([]byte, len(data)) // a slot's first program is exact-size
	case cap(buf) < len(data):
		buf = make([]byte, len(data), d.geo.WBlockBytes) // a recycled one grows once
	default:
		buf = buf[:len(data)]
	}
	copy(buf, data)
	ebs.wblocks[wb] = buf
	ebs.nextWBlock = wb + 1
	d.statsMu.Lock()
	d.stats.WBlocksWritten++
	d.stats.BytesWritten += int64(d.geo.WBlockBytes)
	d.stats.SrcWBlocks[src]++
	d.stats.SrcBytes[src] += int64(d.geo.WBlockBytes)
	d.statsMu.Unlock()
	if m != nil {
		m.programs.Inc()
		m.programmedBytes.Add(int64(d.geo.WBlockBytes))
		m.srcWBlocks[src].Inc()
		m.srcBytes[src].Add(int64(d.geo.WBlockBytes))
		m.programNS.ObserveDuration(time.Since(t0))
	}
	trc.Span(trace.KFlashProgram, 0, 0, 0, t0, int64(ch), int64(eb))
	return nil
}

// ReadSeg is one extent of a gather read: Dst receives the EBLOCK's bytes
// [Off, Off+len(Dst)).
type ReadSeg struct {
	Off int
	Dst []byte
}

// readGather is one gather of ReadAll: it fills every segment's Dst with
// its extent of the EBLOCK and returns the number of RBLOCKs it transferred
// — the union of the RBLOCKs covering the segments, each charged once to
// the channel's virtual time, the wall-latency emulation and Stats (the
// paper's §V read path). Segments are ascending and non-overlapping; all are
// checked before anything is written or charged. Every byte of every Dst is
// written: unprogrammed WBLOCKs and the tail past a short program read as
// zeroes, so a Dst may be a dirty pooled buffer. It allocates nothing.
func (d *Device) readGather(arrived time.Time, ch, eb int, segs []ReadSeg) (rblocks int, err error) {
	if err := d.checkAddr(ch, eb); err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, fmt.Errorf("%w: empty gather", ErrOutOfRange)
	}
	r := d.geo.RBlockBytes
	n, end := 0, 0 // RBLOCKs in the union so far; first byte past the last segment
	for _, s := range segs {
		if len(s.Dst) == 0 || s.Off < end || len(s.Dst) > d.geo.EBlockBytes-s.Off {
			return 0, fmt.Errorf("%w: extent [%d,+%d) after byte %d", ErrOutOfRange, s.Off, len(s.Dst), end)
		}
		// Ascending, so the RBLOCKs up to the one holding byte end-1 are counted.
		n += (s.Off+len(s.Dst)-1)/r - max(s.Off/r, (end+r-1)/r) + 1
		end = s.Off + len(s.Dst)
	}
	w := d.geo.WBlockBytes
	cs := &d.channels[ch]
	cs.mu.Lock()
	m := d.met.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	ebs := &cs.eblocks[eb]
	for _, s := range segs {
		for rest, off := s.Dst, s.Off; len(rest) > 0; { // one WBLOCK's share of Dst per step
			wb, lo := off/w, off%w
			part := rest[:min(len(rest), w-lo)]
			copied := 0
			if wb < ebs.nextWBlock && lo < len(ebs.wblocks[wb]) {
				copied = copy(part, ebs.wblocks[wb][lo:])
			}
			clear(part[copied:])
			rest, off = rest[len(part):], off+len(part)
		}
	}
	cs.busy += time.Duration(n) * d.lat.ReadRBlock
	d.wallWait(cs, arrived, time.Duration(n)*d.lat.ReadRBlock, m)
	cs.mu.Unlock()
	d.statsMu.Lock()
	d.stats.RBlocksRead += int64(n)
	d.stats.BytesRead += int64(n * r)
	d.statsMu.Unlock()
	if m != nil {
		m.readNS.ObserveDuration(time.Since(t0))
	}
	return n, nil
}

// Read is one gather of a ReadAll: Segs of (Channel, EBlock) going in,
// the RBLOCKs transferred or the error coming out. A read of one segment may
// leave Segs nil and name it in Seg instead: its caller then needs no
// segment list of its own.
type Read struct {
	Channel int
	EBlock  int
	Segs    []ReadSeg
	Seg     ReadSeg // the one segment read when Segs is nil
	RBlocks int
	Err     error
}

// ReadAll is the one media read. It runs every read's gather on the
// calling goroutine, in slice order, with one arrival stamp for the whole
// call. Under wall latency a read's deadline counts from that stamp, or from
// the end of its channel's previous command (wallWait), so reads on k idle
// channels overlap in device time and cost one read latency, not k. A
// malformed read fails only its own Err. Nothing is queued and nothing is
// allocated.
func (d *Device) ReadAll(reads []Read) {
	arrived := d.arrival()
	for i := range reads {
		r := &reads[i]
		one, segs := [1]ReadSeg{r.Seg}, r.Segs
		if segs == nil {
			segs = one[:]
		}
		r.RBlocks, r.Err = d.readGather(arrived, r.Channel, r.EBlock, segs)
	}
}

// erase erases an EBLOCK, making all its WBLOCKs writable again. It fails
// with ErrBadBlock once the erase limit is exceeded. Every attempt that
// reaches the media — success, injected failure or over-limit rejection —
// is accounted the same way on one exit path: Stats.EraseAttempts, the
// "flash.erases" counter, one "flash.erase_ns" sample and one KFlashErase
// span, so registry, Stats and trace always agree.
func (d *Device) erase(arrived time.Time, ch, eb int) error {
	if err := d.checkAddr(ch, eb); err != nil {
		return err
	}
	cs := &d.channels[ch]
	cs.lock(false)
	ebs := &cs.eblocks[eb]
	if ebs.bad {
		cs.mu.Unlock()
		return fmt.Errorf("%w: ch=%d eb=%d", ErrBadBlock, ch, eb)
	}
	m := d.met.Load()
	trc := d.tracer()
	var t0 time.Time
	if m != nil || trc != nil {
		t0 = time.Now()
	}
	ebs.eraseCount++
	var err error
	pulseFailed := false
	if d.geo.EraseLimit > 0 && ebs.eraseCount > d.geo.EraseLimit {
		ebs.bad = true
		err = fmt.Errorf("%w: ch=%d eb=%d after %d erases", ErrBadBlock, ch, eb, ebs.eraseCount)
	} else {
		// The pulse holds the channel whether or not it succeeds.
		pulseFailed = d.shouldFailErase()
		cs.busy += d.lat.EraseEBlock
		d.wallWait(cs, arrived, d.lat.EraseEBlock, m)
		if pulseFailed {
			// A failed pulse consumes time and an erase-limit cycle but
			// changes nothing else: the EBLOCK keeps its programmed content
			// and position, so a caller may retry or retire it.
			err = fmt.Errorf("%w: ch=%d eb=%d", ErrEraseFailed, ch, eb)
		} else {
			// The backing arrays survive the erase (see eblockState):
			// resetting the program position makes every WBLOCK
			// unprogrammed, and unread stale bytes cost nothing. This keeps
			// an erase O(1) and lets a warmed device program without allocating.
			ebs.nextWBlock = 0
			ebs.failed = false
		}
	}
	cs.mu.Unlock()
	d.statsMu.Lock()
	d.stats.EraseAttempts++
	if err == nil {
		d.stats.EBlocksErased++
	} else if pulseFailed {
		d.stats.EraseFailures++
	}
	d.statsMu.Unlock()
	if m != nil {
		m.erases.Inc()
		if pulseFailed {
			m.eraseFailures.Inc()
		}
		m.eraseNS.ObserveDuration(time.Since(t0))
	}
	trc.Span(trace.KFlashErase, 0, 0, 0, t0, int64(ch), int64(eb))
	return err
}

// EraseCount returns how many times an EBLOCK has been erased.
func (d *Device) EraseCount(ch, eb int) (int, error) {
	if err := d.checkAddr(ch, eb); err != nil {
		return 0, err
	}
	cs := &d.channels[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.eblocks[eb].eraseCount, nil
}

// IsBad reports whether an EBLOCK has exceeded its erase limit.
func (d *Device) IsBad(ch, eb int) (bool, error) {
	if err := d.checkAddr(ch, eb); err != nil {
		return false, err
	}
	cs := &d.channels[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.eblocks[eb].bad, nil
}

// NextProgramPosition returns the next sequential WBLOCK index that a
// program to the EBLOCK must target.
func (d *Device) NextProgramPosition(ch, eb int) (int, error) {
	if err := d.checkAddr(ch, eb); err != nil {
		return 0, err
	}
	cs := &d.channels[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.eblocks[eb].nextWBlock, nil
}

// Stats returns a snapshot of the operation counters.
func (d *Device) Stats() Stats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.stats
}

// ResetStats zeroes the operation counters (virtual time is separate).
func (d *Device) ResetStats() {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.stats = Stats{}
}

// ChannelTime returns the accumulated virtual busy time of one channel.
func (d *Device) ChannelTime(ch int) time.Duration {
	if ch < 0 || ch >= d.geo.Channels {
		return 0
	}
	cs := &d.channels[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.busy
}

// MediaTime returns the virtual elapsed media time of the workload so far:
// the busiest channel's accumulated time (channels run in parallel).
func (d *Device) MediaTime() time.Duration {
	var max time.Duration
	for i := range d.channels {
		d.channels[i].mu.Lock()
		if d.channels[i].busy > max {
			max = d.channels[i].busy
		}
		d.channels[i].mu.Unlock()
	}
	return max
}

// ResetTime zeroes all channels' virtual busy time.
func (d *Device) ResetTime() {
	for i := range d.channels {
		d.channels[i].mu.Lock()
		d.channels[i].busy = 0
		d.channels[i].mu.Unlock()
	}
}

// --- per-channel submission queues -----------------------------------------

// Op selects what a queued BatchCmd does.
type Op uint8

const (
	OpProgram Op = iota // program Data into (Channel, EBlock, WBlock)
	OpErase             // erase (Channel, EBlock)
)

// BatchCmd is one media command destined for a channel's submission queue:
// a WBLOCK program or an EBLOCK erase. Both ride the same FIFO, so a
// program queued behind an erase of its EBLOCK lands after it.
type BatchCmd struct {
	Op      Op
	Channel int
	EBlock  int
	WBlock  int    // OpProgram
	Data    []byte // OpProgram
	// Src attributes an OpProgram for write-amplification accounting; a
	// program without one fails (Program).
	Src Source
}

// BatchResult reports the outcome of a submitted batch.
type BatchResult struct {
	// FailedEBlocks lists the EBLOCKs that suffered a program or erase
	// failure, sorted by (channel, eblock). Programs and erases queued behind
	// a failure in the same EBLOCK are skipped (§VII: the EBLOCK is
	// unwritable until erased).
	FailedEBlocks [][2]int
	// Attempted counts the commands actually issued (failures included,
	// skipped commands excluded).
	Attempted int
	// Done is when the batch's last command completed, which a submitter
	// that did other work before Wait cannot read off its own clock.
	Done time.Time
}

// Batch tracks an in-flight SubmitBatch until every queued command has
// completed.
type Batch struct {
	d         *Device
	drains    [][2]uint64  // (channel, segment number) of the segments Wait runs
	drainsArr [8][2]uint64 // drains' storage for up to eight channels
	mu        sync.Mutex
	done      sync.Cond
	pending   int
	attempted int
	failed    map[[2]int]bool
	doneAt    time.Time
}

type batchSeg struct {
	b       *Batch
	cmds    []BatchCmd
	arrived time.Time // SubmitBatch's arrival stamp, every command's
}

// Wait blocks until all of the batch's commands have completed and returns
// the merged result. Segments no worker runs, it runs itself: each of its
// channels' FIFOs from the head up to its own segment there.
func (b *Batch) Wait() BatchResult {
	for _, s := range b.drains {
		b.d.drain(int(s[0]), s[1])
	}
	b.mu.Lock()
	for b.pending > 0 {
		b.done.Wait()
	}
	res := BatchResult{Attempted: b.attempted, Done: b.doneAt}
	if len(b.failed) > 0 {
		res.FailedEBlocks = make([][2]int, 0, len(b.failed))
		for k := range b.failed {
			res.FailedEBlocks = append(res.FailedEBlocks, k)
		}
		sort.Slice(res.FailedEBlocks, func(i, j int) bool {
			a, c := res.FailedEBlocks[i], res.FailedEBlocks[j]
			if a[0] != c[0] {
				return a[0] < c[0]
			}
			return a[1] < c[1]
		})
	}
	b.mu.Unlock()
	return res
}

func (b *Batch) finish(attempted int, failed [][2]int) {
	b.mu.Lock()
	b.attempted += attempted
	for _, k := range failed {
		if b.failed == nil {
			b.failed = make(map[[2]int]bool)
		}
		b.failed[k] = true
	}
	if b.pending--; b.pending == 0 {
		b.doneAt = time.Now()
		b.done.Broadcast()
	}
	b.mu.Unlock()
}

// runSegment executes one channel's commands in order, skipping those to
// EBLOCKs that failed earlier within this batch.
func (d *Device) runSegment(arrived time.Time, cmds []BatchCmd) (attempted int, failed [][2]int) {
	var failedSet map[[2]int]bool
	for _, c := range cmds {
		key := [2]int{c.Channel, c.EBlock}
		if failedSet[key] {
			continue
		}
		attempted++
		var err error
		if c.Op == OpErase {
			err = d.erase(arrived, c.Channel, c.EBlock)
		} else {
			err = d.program(arrived, c.Src, c.Channel, c.EBlock, c.WBlock, c.Data)
		}
		if err != nil {
			if failedSet == nil {
				failedSet = make(map[[2]int]bool)
			}
			failedSet[key] = true
			failed = append(failed, key)
		}
	}
	return attempted, failed
}

// drain runs channel ch's FIFO from the head until segment number last has
// run or the FIFO is empty, one segment at a time under the drain lock.
func (d *Device) drain(ch int, last uint64) {
	cs := &d.channels[ch]
	cs.drain.Lock()
	defer cs.drain.Unlock()
	for {
		cs.qmu.Lock()
		if len(cs.q) == 0 || cs.popped > last {
			cs.qmu.Unlock()
			return
		}
		seg := cs.q[0]
		n := copy(cs.q, cs.q[1:])
		cs.q[n], cs.q, cs.popped = batchSeg{}, cs.q[:n], cs.popped+1
		cs.qmu.Unlock()
		attempted, failed := d.runSegment(seg.arrived, seg.cmds)
		if m := d.met.Load(); m != nil {
			m.queueDepth[ch].Add(-int64(len(seg.cmds)))
		}
		seg.b.finish(attempted, failed)
	}
}

// SubmitBatch queues commands onto the per-channel FIFOs and returns a
// handle to wait on. Commands for the same channel execute in slice order
// (FIFO per channel, preserving the NAND sequential-program constraint for
// commands the caller ordered correctly); commands for different channels
// execute concurrently in wall-clock time. A failed program or erase
// disables the rest of its EBLOCK for the remainder of the batch. A command
// addressed outside the device fails with its EBLOCK in FailedEBlocks.
//
// With wall latency on, each channel's worker runs its segment, so the
// channels hold their time concurrently; otherwise, or on a closed device,
// Wait runs it.
func (d *Device) SubmitBatch(cmds []BatchCmd) *Batch {
	b := &Batch{d: d}
	b.done.L = &b.mu
	if len(cmds) == 0 {
		return b
	}
	arrived := d.arrival()
	// Split into per-channel segments, preserving order within a channel:
	// a counting scatter into one backing array instead of a map of
	// growing slices, so the split costs one allocation however many
	// commands the batch carries (its counters are on the stack for up to
	// 32 channels).
	var scratch [64]int
	buf, n := scratch[:], d.geo.Channels
	if 2*n > len(buf) {
		buf = make([]int, 2*n)
	}
	counts, next := buf[:n], buf[n:2*n]
	for _, c := range cmds {
		if uint(c.Channel) < uint(n) {
			counts[c.Channel]++
		} else { // no such channel: it fails, as a command for no such EBLOCK does
			b.pending++
			b.finish(1, [][2]int{{c.Channel, c.EBlock}})
		}
	}
	backing := make([]BatchCmd, len(cmds))
	sum := 0
	for ch, cnt := range counts {
		next[ch] = sum
		sum += cnt
		if cnt > 0 {
			b.pending++
		}
	}
	for _, c := range cmds {
		if uint(c.Channel) < uint(n) {
			backing[next[c.Channel]] = c
			next[c.Channel]++
		}
	}
	m := d.met.Load()
	b.drains = b.drainsArr[:0]
	for ch, cnt := range counts {
		if cnt == 0 {
			continue
		}
		if m != nil {
			m.queueDepth[ch].Add(int64(cnt))
		}
		cs := &d.channels[ch]
		cs.qmu.Lock()
		if cs.work == nil && !arrived.IsZero() && !d.closed.Load() {
			cs.work = make(chan struct{}, 1)
			go d.worker(ch, cs.work)
		}
		cs.q = append(cs.q, batchSeg{b: b, cmds: backing[next[ch]-cnt : next[ch]], arrived: arrived})
		if arrived.IsZero() || cs.work == nil { // no worker runs it: Wait does
			b.drains = append(b.drains, [2]uint64{uint64(ch), cs.popped + uint64(len(cs.q)) - 1})
		} else {
			select {
			case cs.work <- struct{}{}:
			default: // a wake-up is pending
			}
		}
		cs.qmu.Unlock()
	}
	return b
}

// worker runs channel ch's FIFO whenever a segment with a wall-latency
// arrival is queued, until Close.
func (d *Device) worker(ch int, work chan struct{}) {
	for range work {
		d.drain(ch, ^uint64(0))
	}
}

// Close stops the per-channel worker goroutines. Callers must have waited
// on all outstanding batches first. The device itself stays usable:
// subsequent batches are run by their waiters.
func (d *Device) Close() {
	d.closed.Store(true)
	for i := range d.channels {
		cs := &d.channels[i]
		cs.qmu.Lock()
		if cs.work != nil {
			close(cs.work)
			cs.work = nil
		}
		cs.qmu.Unlock()
	}
}
