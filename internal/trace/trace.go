// Package trace is the controller's per-request tracing subsystem: an
// always-on, lock-free flight recorder holding the last N thousand typed
// events of the write path, GC, migration, checkpointing, the WAL and
// the flash workers.
//
// The design goal is the one SimpleSSD and EagleTree argue for — being
// able to follow a single batch through queueing, program and commit
// stages — without a tracing mode that has to be "turned on" before the
// incident. The recorder is a fixed-size ring of event slots written
// with atomic stores only; emitting costs one atomic ticket increment, a
// clock read and nine atomic stores and never allocates (pinned by the
// AllocFree test), so there is no off switch. When the ring is full the
// oldest events are overwritten; Dump reports how many were lost.
//
// Events carry a trace ID that ties a batch's spans together across
// layers. IDs originate at the network front-end (or from NewTraceID for
// in-process callers) and propagate through SubFlush.TraceID down to
// migration actions triggered by the batch's own media failure, so a
// failure's aftermath is attributable to the request that caused it.
package trace

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Kind identifies the event type. Arg1/Arg2 semantics are per kind (see
// the constants).
type Kind uint8

const (
	KNone Kind = iota

	// Server events. The connection serial rides in SID so a dump groups
	// per connection (it shares the identity slot sessions use).
	KConnOpen  // instant; SID = connection serial
	KConnClose // instant; SID = connection serial
	KRequest   // span over one request; SID = connection serial, Arg1 = message type, Arg2 = body bytes

	// Write-path spans of one batch (§IV phases). All carry the batch's
	// trace ID, SID and WSN.
	KBatchStart  // instant at admission start; Arg1 = page count
	KClaim       // span: lock acquisition + WSN admission wait
	KInit        // span: provision + init log records + submit (under c.mu)
	KProgramWait // span: flash programs on the channel workers (c.mu released)
	KForceWait   // span: commit-record group-commit force (c.mu released)
	KInstall     // span: mapping/summary/session install (under c.mu)
	KBatchEnd    // instant; Arg1 = 0 ok, 1 error
	KMediaAbort  // instant on program failure; Arg1 = failed EBLOCK count

	// Background actions.
	KGC         // span: one EBLOCK collection; Arg1 = channel, Arg2 = eblock
	KCheckpoint // span: one fuzzy checkpoint
	KMigration  // span: one EBLOCK migration; Arg1 = channel, Arg2 = eblock;
	// carries the trace ID of the batch whose failure triggered it (0 if none)

	// Media and log events.
	KFlashProgram // span: one WBLOCK program; Arg1 = channel, Arg2 = eblock
	KFlashErase   // span: one EBLOCK erase; Arg1 = channel, Arg2 = eblock
	KWalForce     // Arg1 = 1 leader page write (span), 0 free ride (instant); Arg2 = records flushed

	KReadLookup   // span: locked mapping lookups + reader pins of one fenced read; Arg1 = pages looked up, Arg2 = pages pinned
	KReadCacheHit // instant: page served from the read cache; Arg1 = LPID, Arg2 = bytes
	KReadFlash    // span: flash wait (pins held, c.mu released); Arg1 = pages read

	// KMaintain is the span between a batch's install and its ack in which
	// it ran the GC pass and/or auto checkpoint it triggered; it carries the
	// batch's trace ID, SID and WSN. Appended last: kind numbers are wire.
	KMaintain

	kindCount // keep last
)

var kindNames = [...]string{
	KNone:         "none",
	KConnOpen:     "conn_open",
	KConnClose:    "conn_close",
	KRequest:      "request",
	KBatchStart:   "batch_start",
	KClaim:        "claim",
	KInit:         "init",
	KProgramWait:  "program_wait",
	KForceWait:    "force_wait",
	KInstall:      "install",
	KBatchEnd:     "batch_end",
	KMediaAbort:   "media_abort",
	KGC:           "gc",
	KCheckpoint:   "checkpoint",
	KMigration:    "migration",
	KFlashProgram: "flash_program",
	KFlashErase:   "flash_erase",
	KWalForce:     "wal_force",
	KReadLookup:   "read_lookup",
	KReadCacheHit: "read_cache_hit",
	KReadFlash:    "read_flash_wait",
	KMaintain:     "maintain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind(?)"
}

// Event is one recorded trace event. TS is nanoseconds since the
// recorder's epoch (monotonic) at the *start* of the event; Dur is the
// span length (0 for instants). Seq is the global emit ticket: events
// sorted by Seq are in emission order across all goroutines.
type Event struct {
	Seq     uint64 `json:"seq"`
	Kind    Kind   `json:"kind"`
	TS      int64  `json:"ts"`
	Dur     int64  `json:"dur"`
	TraceID uint64 `json:"trace_id"`
	SID     uint64 `json:"sid"`
	WSN     uint64 `json:"wsn"`
	Arg1    int64  `json:"arg1"`
	Arg2    int64  `json:"arg2"`
}

// Dump is a consistent snapshot of the recorder: the surviving events in
// Seq order, the count of events overwritten before the snapshot, and
// the wall-clock instant of the monotonic epoch so timestamps can be
// rendered as absolute times. Its JSON form is the trace_dump wire body.
type Dump struct {
	EpochUnixNano int64   `json:"epoch_unix_nano"`
	Dropped       uint64  `json:"dropped"`
	Events        []Event `json:"events"`
}

// slot holds one event with every field atomic, so concurrent Emit and
// Dump need no locks and stay race-detector clean. The publish protocol:
// a writer with ticket t swaps the slot's ticket for t|writing, stores the
// payload, then stores ticket=t. Tickets in a slot only grow: a writer
// whose slot already holds a newer ticket drops its event (the ring has
// lapped it, so Dump would skip it anyway), and one that finds an older
// writer mid-write yields until it publishes — so neither an older ticket
// nor an older payload ever lands over a newer event. A reader copies the
// payload only between two loads that both observe ticket==t; a torn slot
// (a writer lapped the ring mid-read) fails the check and is skipped.
type slot struct {
	ticket  atomic.Uint64
	kind    atomic.Uint32
	ts      atomic.Int64
	dur     atomic.Int64
	traceID atomic.Uint64
	sid     atomic.Uint64
	wsn     atomic.Uint64
	arg1    atomic.Int64
	arg2    atomic.Int64
}

// DefaultSize is the default ring capacity in events (~8k events ≈ a few
// hundred batches of full write-path spans; fixed ~1 MB of memory).
const DefaultSize = 8192

// Recorder is the flight recorder, built by New. A nil *Recorder means
// "not wired" (a bare flash.Device or wal.Log): every method no-ops (or
// returns empty), so callers never nil-check.
type Recorder struct {
	mask  uint64
	slots []slot

	epoch     time.Time // monotonic base for TS
	epochWall int64     // epoch as wall-clock UnixNano

	cursor atomic.Uint64 // last claimed ticket; tickets start at 1
	nextID atomic.Uint64 // trace-ID allocator
}

// New creates a recorder with capacity for at least size events
// (rounded up to a power of two, minimum 64).
func New(size int) *Recorder {
	n := uint64(64)
	for n < uint64(size) {
		n <<= 1
	}
	now := time.Now()
	return &Recorder{
		mask:      n - 1,
		slots:     make([]slot, n),
		epoch:     now,
		epochWall: now.UnixNano(),
	}
}

// Size returns the ring capacity in events (0 for the nil recorder).
func (r *Recorder) Size() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// NewTraceID allocates a process-unique trace ID (never 0).
func (r *Recorder) NewTraceID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Now returns the current time, or the zero time on the nil recorder, so
// a layer that may run unwired pays no clock read for a span nobody keeps.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Emit records an instant event stamped with the current time.
func (r *Recorder) Emit(k Kind, traceID, sid, wsn uint64, arg1, arg2 int64) {
	if r == nil {
		return
	}
	r.record(k, int64(time.Since(r.epoch)), 0, traceID, sid, wsn, arg1, arg2)
}

// Span records an event that started at `start` and ends now. A zero
// start degrades to an instant at the epoch.
func (r *Recorder) Span(k Kind, traceID, sid, wsn uint64, start time.Time, arg1, arg2 int64) {
	if r != nil {
		r.SpanUntil(k, traceID, sid, wsn, start, time.Now(), arg1, arg2)
	}
}

// SpanUntil is Span for an event that ended at `end`: a stage whose end
// the caller learned of later than it happened.
func (r *Recorder) SpanUntil(k Kind, traceID, sid, wsn uint64, start, end time.Time, arg1, arg2 int64) {
	if r == nil {
		return
	}
	if start.IsZero() {
		r.record(k, 0, 0, traceID, sid, wsn, arg1, arg2)
		return
	}
	r.record(k, int64(start.Sub(r.epoch)), int64(end.Sub(start)), traceID, sid, wsn, arg1, arg2)
}

// writing marks a slot's ticket while its writer stores the payload.
const writing = 1 << 63

func (r *Recorder) record(k Kind, ts, dur int64, traceID, sid, wsn uint64, arg1, arg2 int64) {
	t := r.cursor.Add(1)
	s := &r.slots[(t-1)&r.mask]
	// The slot last held ticket t minus the ring size (none on the first
	// lap), published, unless a writer there is slow.
	var cur uint64
	if n := r.mask + 1; t > n {
		cur = t - n
	}
	for !s.ticket.CompareAndSwap(cur, t|writing) {
		for cur = s.ticket.Load(); cur&writing != 0 && cur&^writing < t; cur = s.ticket.Load() {
			runtime.Gosched() // an older writer is mid-write: let it publish
		}
		if cur&^writing >= t {
			return // a newer event holds the slot: the ring has lapped this one
		}
	}
	s.kind.Store(uint32(k))
	s.ts.Store(ts)
	s.dur.Store(dur)
	s.traceID.Store(traceID)
	s.sid.Store(sid)
	s.wsn.Store(wsn)
	s.arg1.Store(arg1)
	s.arg2.Store(arg2)
	s.ticket.Store(t)
}

// Dump snapshots the ring. Events come back sorted by Seq (emission
// order); slots being concurrently rewritten are skipped rather than
// returned torn. Safe to call at any time from any goroutine.
func (r *Recorder) Dump() Dump {
	if r == nil {
		return Dump{}
	}
	cur := r.cursor.Load()
	lo := uint64(1)
	n := uint64(len(r.slots))
	if cur > n {
		lo = cur - n + 1
	}
	d := Dump{EpochUnixNano: r.epochWall, Dropped: lo - 1}
	d.Events = make([]Event, 0, cur-lo+1)
	for t := lo; t <= cur; t++ {
		s := &r.slots[(t-1)&r.mask]
		if s.ticket.Load() != t {
			continue // unpublished or already overwritten
		}
		ev := Event{
			Seq:     t,
			Kind:    Kind(s.kind.Load()),
			TS:      s.ts.Load(),
			Dur:     s.dur.Load(),
			TraceID: s.traceID.Load(),
			SID:     s.sid.Load(),
			WSN:     s.wsn.Load(),
			Arg1:    s.arg1.Load(),
			Arg2:    s.arg2.Load(),
		}
		if s.ticket.Load() != t {
			continue // a writer lapped the ring mid-copy: torn, drop it
		}
		d.Events = append(d.Events, ev)
	}
	return d
}
