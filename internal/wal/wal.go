// Package wal implements the ELEOS recovery log (§VIII-A).
//
// The log is a linked list of log pages, each one WBLOCK in size. Because a
// log-page write can fail, each page carries the addresses of the *next
// three* provisioned locations for its successor; on a write failure the
// successor is written to the next candidate, and recovery probes the
// candidates in order until it finds the first valid page. When a log page
// cannot be written to any of its three candidate locations, the log shuts
// down (the paper does the same).
//
// One page is in flight at a time. It carries every record past the
// durable LSN, so a page that fails is written again, with the same records
// and any appended since, at the next forward candidate, and each page's
// first LSN is one past its predecessor's last.
//
// The package is independent of the rest of the controller: the owner
// supplies a Sink that provisions WBLOCK slots in log-stream order and
// performs the raw programs/reads.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"eleos/internal/metrics"
	"eleos/internal/record"
	"eleos/internal/trace"
)

// Slot names a WBLOCK that holds (or will hold) a log page.
type Slot struct {
	Channel int
	EBlock  int
	WBlock  int
}

// NoSlot is the invalid slot.
var NoSlot = Slot{-1, -1, -1}

// IsValid reports whether s names a real WBLOCK.
func (s Slot) IsValid() bool { return s.Channel >= 0 && s.EBlock >= 0 && s.WBlock >= 0 }

func (s Slot) String() string {
	if !s.IsValid() {
		return "slot(none)"
	}
	return fmt.Sprintf("slot(ch=%d eb=%d wb=%d)", s.Channel, s.EBlock, s.WBlock)
}

// Sink provisions log slots and performs raw WBLOCK I/O on them. Implemented
// by the controller (over the provisioner and flash device) and by test
// fakes.
type Sink interface {
	// ProvisionSlots returns the next n WBLOCK slots in log-stream order.
	// Slots are handed out exactly once and in a stable order.
	ProvisionSlots(n int) ([]Slot, error)
	// Program writes one full log page to the slot. A failed program makes
	// the remainder of the slot's EBLOCK unwritable until erased. It must
	// not retain page: the log encodes the next page into the same buffer.
	// It is never called concurrently, and for an EBLOCK's slots in
	// provision order.
	Program(s Slot, page []byte) error
	// Read returns the slot's WBLOCK content (zeroes if unwritten).
	Read(s Slot) ([]byte, error)
}

// Errors.
var (
	ErrLogDead        = errors.New("wal: log shut down after exhausting forward candidates")
	ErrRecordTooLarge = errors.New("wal: record larger than log page capacity")
	ErrBadPage        = errors.New("wal: invalid log page")
	ErrPageTooSmall   = errors.New("wal: page size too small")
)

const (
	pageMagic   = 0x454C4F47 // "ELOG"
	pageVersion = 1
	headerSize  = 64
	numForward  = 3 // provisioned successor locations per page (§VIII-A)
)

// PageIndexEntry records where a durable page lives and which LSNs it holds.
type PageIndexEntry struct {
	First record.LSN
	Last  record.LSN
	Slot  Slot
}

// Stats counts log activity. Group commit shows up as FreeRides: a Force
// whose records an earlier caller's page write already made durable pays no
// page write of its own.
type Stats struct {
	Appends        int64 // records appended
	ForceCalls     int64 // Force invocations
	FreeRides      int64 // Force calls satisfied without writing a page
	PageWrites     int64 // log pages landed (capacity flushes included)
	RecordsFlushed int64 // records those pages made durable, each counted once
}

// logMetrics holds the log's instrument handles, resolved once at
// construction. The counters are the system of record for Stats(): a
// page's writer increments PageWrites/RecordsFlushed *after* re-acquiring
// l.mu from the unlocked page program, so a struct-field version read
// under a different lock interleaving raced with group-commit writers —
// atomics make Stats() safe to call from any goroutine at any time.
type logMetrics struct {
	appends        *metrics.Counter
	forceCalls     *metrics.Counter
	freeRides      *metrics.Counter
	pageWrites     *metrics.Counter
	recordsFlushed *metrics.Counter
	groupCommit    *metrics.Histogram // records per physical page write
}

func newLogMetrics(reg *metrics.Registry) logMetrics {
	return logMetrics{
		appends:        reg.Counter("wal.appends"),
		forceCalls:     reg.Counter("wal.force_calls"),
		freeRides:      reg.Counter("wal.free_rides"),
		pageWrites:     reg.Counter("wal.page_writes"),
		recordsFlushed: reg.Counter("wal.records_flushed"),
		groupCommit:    reg.Histogram("wal.group_commit_records", metrics.SizeBounds()),
	}
}

// Option configures a Log at construction.
type Option func(*Log)

// WithRegistry records the log's activity counters into reg (names
// "wal.appends", "wal.force_calls", "wal.free_rides", "wal.page_writes",
// "wal.records_flushed" and the "wal.group_commit_records" histogram).
// Without it the log uses a private registry, so Stats() always works.
func WithRegistry(reg *metrics.Registry) Option {
	return func(l *Log) {
		if reg != nil {
			l.met = newLogMetrics(reg)
		}
	}
}

// WithTracer emits leader/free-ride attribution into the flight
// recorder: every Force produces one KWalForce event — a span covering
// the leader's physical page write (Arg1 = 1, Arg2 = records carried),
// or an instant for a follower whose records an earlier page write
// already made durable (Arg1 = 0).
func WithTracer(trc *trace.Recorder) Option {
	return func(l *Log) { l.trc = trc }
}

// Log is the append side of the recovery log. Safe for concurrent use.
//
// A page's writer encodes every buffered record into a page under the log
// lock, programs it unlocked, and reconciles on return. Appends therefore
// proceed while the page is in flight, and every Force waits for it
// (leader/follower group commit): one whose records it carries returns
// when it lands, any other writes the next page.
type Log struct {
	mu     sync.Mutex
	landed *sync.Cond // broadcast when the page in flight lands or fails
	sink   Sink

	nextLSN    record.LSN // LSN the next appended record will receive
	durableLSN record.LSN // all records with LSN <= durableLSN are durable

	buf    []byte // every record past durableLSN, encoded: what the next page carries
	page   []byte // the page in flight, encodePage's buffer
	flying bool   // a page's writer has released mu around its program
	// appending marks an Append that released mu to land a full buffer:
	// other appends wait, so each call's LSNs stay contiguous.
	appending bool
	// appended counts the bytes ever buffered; carryMark is its value at
	// the last Carry, so the difference is what the log grew since.
	appended, carryMark int

	// slots[:numForward] are the forward candidates of the newest landed
	// page; slots[:next] of them have failed or are in flight; the rest are
	// provisioned for the page header.
	slots []Slot
	next  int
	pages []PageIndexEntry
	tip   Slot // the page that made durableLSN durable: a carried set's root
	// base is what the next carried set names: tip, or the newest landed
	// trailer rooted there; its records end at baseLSN and buf[baseOff].
	// links are the trailers landed since tip, the ones a set chains
	// through among them.
	base    Slot
	baseLSN record.LSN
	baseOff int
	links   []Slot
	dead    bool

	met logMetrics
	trc *trace.Recorder // nil-safe; see WithTracer
}

// New creates a fresh, empty log (after device format). The first page will
// be written to the first slot the sink provisions.
func New(sink Sink, pageBytes int, opts ...Option) (*Log, error) {
	if pageBytes <= headerSize+record.EncodedSize(record.Done{}) {
		return nil, ErrPageTooSmall
	}
	l := &Log{sink: sink, nextLSN: 1, page: make([]byte, pageBytes), tip: NoSlot}
	l.landed = sync.NewCond(&l.mu)
	l.met = newLogMetrics(metrics.New())
	for _, o := range opts {
		o(l)
	}
	return l, nil
}

// Resume creates a log that continues an existing chain after recovery.
// nextLSN is one past the last durable LSN, candidates are the tail page's
// unwritten forward locations (in order), and pages is the durable-page
// index recovered from the chain walk (may be nil).
func Resume(sink Sink, pageBytes int, nextLSN record.LSN, candidates []Slot, pages []PageIndexEntry, opts ...Option) (*Log, error) {
	l, err := New(sink, pageBytes, opts...)
	if err != nil {
		return nil, err
	}
	l.nextLSN = nextLSN
	l.durableLSN = nextLSN - 1
	if n := len(pages); n > 0 && pages[n-1].Last == l.durableLSN {
		l.tip, l.base, l.baseLSN = pages[n-1].Slot, pages[n-1].Slot, l.durableLSN
	}
	for _, s := range candidates {
		if s.IsValid() {
			l.slots = append(l.slots, s)
		}
	}
	l.pages = append(l.pages, pages...)
	return l, nil
}

// Capacity returns the payload bytes available per log page.
func (l *Log) Capacity() int { return len(l.page) - headerSize }

// ensureSlots extends the provisioned-slot queue to at least n entries.
func (l *Log) ensureSlots(n int) error {
	for len(l.slots) < n {
		got, err := l.sink.ProvisionSlots(n - len(l.slots))
		if err != nil {
			return err
		}
		if len(got) == 0 {
			return errors.New("wal: sink provisioned no slots")
		}
		l.slots = append(l.slots, got...)
	}
	return nil
}

// Append buffers frames, records encoded back to back by record.Append, and
// returns the first one's LSN; the rest follow it in order, contiguous
// whatever other appenders do meanwhile. It sizes every frame before it
// buffers any: a malformed frame, or one larger than a page
// (ErrRecordTooLarge), fails the call with nothing appended. A frame that
// would overfill the buffer lands what is buffered first, exactly as
// appending the records one at a time would. The records are durable only
// after a successful Force whose durable LSN covers them.
func (l *Log) Append(frames []byte) (record.LSN, error) {
	for b := frames; len(b) > 0; {
		sz, err := record.FrameSize(b)
		if err != nil {
			return 0, err
		}
		if sz > l.Capacity() {
			return 0, fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, sz, l.Capacity())
		}
		b = b[sz:]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.appending && !l.dead {
		l.landed.Wait()
	}
	if l.dead {
		return 0, ErrLogDead
	}
	first := l.nextLSN
	for len(frames) > 0 {
		// The longest run of whole frames that fits what the buffer has left.
		n, count := 0, int64(0)
		for n < len(frames) {
			sz, _ := record.FrameSize(frames[n:])
			if len(l.buf)+n+sz > l.Capacity() {
				break
			}
			n, count = n+sz, count+1
		}
		l.buf = append(l.buf, frames[:n]...)
		l.met.appends.Add(count)
		l.appended += n
		l.nextLSN += record.LSN(count)
		if frames = frames[n:]; len(frames) > 0 {
			// Every page carries the whole buffer, so it never outgrows one.
			// The page in flight drains it when it lands; what is left goes
			// in a page of its own. Meanwhile l.mu is released, and other
			// appends wait for this one to finish.
			if err := l.makeRoom(); err != nil {
				return 0, err
			}
		}
	}
	return first, nil
}

// makeRoom lands the buffered records: it waits for the page in flight, or
// writes one. Called with l.mu held, which it releases meanwhile.
func (l *Log) makeRoom() error {
	if l.dead {
		return ErrLogDead
	}
	l.appending = true
	defer func() { l.appending = false; l.landed.Broadcast() }()
	if l.flying {
		l.landed.Wait()
		return nil
	}
	return l.writePage()
}

// Force makes all records appended before the call durable. It writes the
// partially-filled current page (if any) to flash; subsequent appends start
// a new page.
//
// Concurrent committers group-commit: a Force that writes a page is a
// leader and its page carries every record not yet durable — including the
// followers' commit records. A follower waits for the page in flight and,
// if it carried the follower's records, returns without a page write of its
// own, counted as a FreeRide; otherwise (it failed, or was encoded before
// they were appended) the follower writes the next page.
func (l *Log) Force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met.forceCalls.Inc()
	target := l.nextLSN - 1 // last LSN this caller needs durable
	leader := false
	for {
		if l.dead {
			return ErrLogDead
		}
		if l.durableLSN >= target {
			break
		}
		if l.flying {
			l.landed.Wait()
			continue
		}
		if err := l.writePage(); err != nil {
			return err
		}
		leader = true
	}
	if !leader {
		l.met.freeRides.Inc()
		l.trc.Emit(trace.KWalForce, 0, 0, 0, 0, 0)
	}
	return nil
}

// Stats returns a snapshot of the log activity counters. Reads are
// atomic loads — no lock — so callers may poll it concurrently with
// group-commit flushes.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:        l.met.appends.Value(),
		ForceCalls:     l.met.forceCalls.Value(),
		FreeRides:      l.met.freeRides.Value(),
		PageWrites:     l.met.pageWrites.Value(),
		RecordsFlushed: l.met.recordsFlushed.Value(),
	}
}

// writePage writes one page carrying every record past durableLSN to the
// next unused forward candidate (§VIII-A). Called with l.mu held and no page
// in flight; returns with it held, once the page has landed or failed. The
// lock is released around the program, so Appends and free-riding Forces
// are not serialized behind NAND program latency; the records stay in l.buf
// until a page carrying them lands, and records appended meanwhile stay
// there for the next page.
func (l *Log) writePage() error {
	// The page's header names the numForward slots after its own.
	if err := l.ensureSlots(l.next + 1 + numForward); err != nil {
		return err
	}
	home := l.slots[l.next]
	first, last, n := l.durableLSN+1, l.nextLSN-1, len(l.buf)
	count := int64(last - first + 1)
	page := encodePage(l.page, first, int(count), l.buf, l.slots[l.next+1:l.next+1+numForward])
	l.next++
	l.flying = true
	tWrite := l.trc.Now()
	l.mu.Unlock()
	err := l.sink.Program(home, page)
	l.mu.Lock()
	l.flying = false
	defer l.landed.Broadcast()
	if err != nil {
		if l.next >= numForward {
			l.dead = true // every candidate of the newest landed page failed
		}
		return nil
	}
	l.trc.Span(trace.KWalForce, 0, 0, 0, tWrite, 1, count)
	l.met.pageWrites.Inc()
	l.met.recordsFlushed.Add(count)
	l.met.groupCommit.Observe(count)
	l.pages = append(l.pages, PageIndexEntry{First: first, Last: last, Slot: home})
	l.buf = append(l.buf[:0], l.buf[n:]...)
	l.durableLSN = last
	l.tip, l.base, l.baseLSN, l.baseOff, l.links = home, home, last, 0, l.links[:0]
	l.slots = l.slots[l.next:]
	l.next = 0
	return nil
}

// Dead reports whether the log has shut down after exhausting forward
// candidates.
func (l *Log) Dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// DurableLSN returns the highest durable LSN (0 if none).
func (l *Log) DurableLSN() record.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() record.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// PageFor returns the slot and first LSN of the earliest durable page whose
// records include or follow lsn. ok is false if no durable page qualifies.
func (l *Log) PageFor(lsn record.LSN) (s Slot, first record.LSN, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.pages {
		if p.Last >= lsn {
			return p.Slot, p.First, true
		}
	}
	return NoSlot, 0, false
}

// LastPage returns the most recent durable page's slot and first LSN.
func (l *Log) LastPage() (s Slot, first record.LSN, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pages) == 0 {
		return NoSlot, 0, false
	}
	p := l.pages[len(l.pages)-1]
	return p.Slot, p.First, true
}

// StartCandidates returns the slots where the next page may be written
// (used by checkpoints taken while the log is empty, so recovery can find
// the chain start). It provisions slots as needed.
func (l *Log) StartCandidates() ([]Slot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flying {
		l.landed.Wait()
	}
	if l.dead {
		return nil, ErrLogDead
	}
	if err := l.ensureSlots(numForward); err != nil {
		return nil, err
	}
	out := make([]Slot, numForward)
	copy(out, l.slots[:numForward])
	return out, nil
}

// Truncate discards index entries for pages entirely below lsn. The pages'
// storage is reclaimed separately (log EBLOCK erasure via GC).
func (l *Log) Truncate(lsn record.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.pages) && l.pages[i].Last < lsn {
		i++
	}
	l.pages = append([]PageIndexEntry(nil), l.pages[i:]...)
}

// Pages returns a copy of the durable-page index (oldest first).
func (l *Log) Pages() []PageIndexEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]PageIndexEntry(nil), l.pages...)
}

// --- page encoding -------------------------------------------------------

// encodePage encodes a log page into page, which is either fresh or holds
// an earlier page: every header field is rewritten (bytes 5-7 are never
// written) and the tail past the payload is cleared.
func encodePage(page []byte, first record.LSN, count int, payload []byte, next []Slot) []byte {
	binary.LittleEndian.PutUint32(page[0:], pageMagic)
	page[4] = pageVersion
	binary.LittleEndian.PutUint64(page[8:], uint64(first))
	binary.LittleEndian.PutUint32(page[16:], uint32(count))
	binary.LittleEndian.PutUint32(page[20:], uint32(len(payload)))
	for i := 0; i < numForward; i++ {
		s := NoSlot
		if i < len(next) {
			s = next[i]
		}
		putSlot(page[24+12*i:], s)
	}
	n := copy(page[headerSize:], payload)
	clear(page[headerSize+n:])
	crc := crc32.ChecksumIEEE(page[:60])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(page[60:], crc)
	return page
}

// ChainPage is a decoded log page.
type ChainPage struct {
	Slot     Slot
	FirstLSN record.LSN
	Records  []record.Record
	Next     [numForward]Slot
}

// LastLSN returns the LSN of the page's final record.
func (p *ChainPage) LastLSN() record.LSN {
	return p.FirstLSN + record.LSN(len(p.Records)) - 1
}

// DecodePage parses and validates a raw log page.
func DecodePage(s Slot, page []byte) (*ChainPage, error) {
	if len(page) < headerSize {
		return nil, fmt.Errorf("%w: short page", ErrBadPage)
	}
	if binary.LittleEndian.Uint32(page[0:]) != pageMagic || page[4] != pageVersion {
		return nil, fmt.Errorf("%w: bad magic/version", ErrBadPage)
	}
	first := record.LSN(binary.LittleEndian.Uint64(page[8:]))
	count := int(binary.LittleEndian.Uint32(page[16:]))
	payloadLen := int(binary.LittleEndian.Uint32(page[20:]))
	if payloadLen < 0 || headerSize+payloadLen > len(page) {
		return nil, fmt.Errorf("%w: bad payload length", ErrBadPage)
	}
	payload := page[headerSize : headerSize+payloadLen]
	crc := crc32.ChecksumIEEE(page[:60])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if binary.LittleEndian.Uint32(page[60:]) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadPage)
	}
	recs, err := record.DecodeAll(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPage, err)
	}
	if len(recs) != count {
		return nil, fmt.Errorf("%w: record count mismatch", ErrBadPage)
	}
	cp := &ChainPage{Slot: s, FirstLSN: first, Records: recs}
	for i := range cp.Next {
		cp.Next[i] = getSlot(page[24+12*i:])
	}
	return cp, nil
}

func putSlot(b []byte, s Slot) {
	binary.LittleEndian.PutUint32(b, uint32(int32(s.Channel)))
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(s.EBlock)))
	binary.LittleEndian.PutUint32(b[8:], uint32(int32(s.WBlock)))
}

func getSlot(b []byte) Slot {
	u := func(i int) int { return int(int32(binary.LittleEndian.Uint32(b[i:]))) }
	return Slot{Channel: u(0), EBlock: u(4), WBlock: u(8)}
}

// --- carried sets (DESIGN.md §4 decision 14) -----------------------------

// A carried set's trailer ends its data WBLOCK: the encoded records, then
// first LSN (8), count (4), payload length (4), the named slot (12), the
// root page's slot (12), a CRC-32 of everything before it (4) and the
// magic (4).
const (
	carryMagic  = 0x43525259 // "CRRY"
	carryHeader = 48
)

// Carry encodes the records past the carry base as a trailer right-aligned
// in pad, the zeroed run-tail padding of a data WBLOCK, naming the base and
// the page it roots at, and returns its size: 0 if it does not fit, nothing
// is buffered past the base, the log is dead or no page has landed, and
// when the buffer could not grow again by what it grew since the last
// Carry — the caller's force then lands it, not the next Append's capacity
// page under the caller's lock. The records stay buffered: a carry never
// advances the durable LSN, so the next page carries them again. links,
// valid until the next Landed, hold the slots of the trailers the set may
// chain through: each must outlive it.
func (l *Log) Carry(pad []byte) (n int, links []Slot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.buf[l.baseOff:]
	n = len(recs) + carryHeader
	grown := l.appended - l.carryMark
	l.carryMark = l.appended
	if l.dead || !l.tip.IsValid() || len(recs) == 0 || n > len(pad) || len(l.buf)+grown > l.Capacity() {
		return 0, nil
	}
	t := pad[len(pad)-n:]
	h := t[copy(t, recs):]
	binary.LittleEndian.PutUint64(h, uint64(l.baseLSN+1))
	binary.LittleEndian.PutUint32(h[8:], uint32(l.nextLSN-1-l.baseLSN))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(recs)))
	putSlot(h[16:], l.base)
	putSlot(h[28:], l.tip)
	binary.LittleEndian.PutUint32(h[40:], crc32.ChecksumIEEE(t[:n-8]))
	binary.LittleEndian.PutUint32(h[44:], carryMagic)
	return n, l.links
}

// Landed makes the trailer ending wblock, durable at s, the carry base if it
// roots at the newest landed page and reaches past the base, and reports
// whether it did.
func (l *Log) Landed(s Slot, wblock []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := wblock[len(wblock)-carryHeader:]
	last := record.LSN(binary.LittleEndian.Uint64(h)) + record.LSN(binary.LittleEndian.Uint32(h[8:])) - 1
	if getSlot(h[28:]) != l.tip || last <= l.baseLSN {
		return false
	}
	for ; l.baseLSN < last; l.baseLSN++ {
		sz, _ := record.FrameSize(l.buf[l.baseOff:])
		l.baseOff += sz
	}
	l.base, l.links = s, append(l.links, s)
	return true
}

// Carried is a decoded carried set: records from First on, the slot it
// names — the page or trailer whose last LSN is First-1 — and Root, the
// page its chain starts from.
type Carried struct {
	Named   Slot
	Root    Slot
	First   record.LSN
	Records []record.Record
}

// Last returns the LSN of the set's final record.
func (s *Carried) Last() record.LSN { return s.First + record.LSN(len(s.Records)) - 1 }

// DecodeCarried parses and validates the carried set that ends b, a data
// WBLOCK read back. Zeroes, page data and torn or stale bytes are an error.
func DecodeCarried(b []byte) (*Carried, error) {
	if len(b) < carryHeader || binary.LittleEndian.Uint32(b[len(b)-4:]) != carryMagic {
		return nil, fmt.Errorf("%w: no carried set", ErrBadPage)
	}
	h := b[len(b)-carryHeader:]
	n := int(binary.LittleEndian.Uint32(h[12:]))
	if n > len(b)-carryHeader {
		return nil, fmt.Errorf("%w: bad carried length", ErrBadPage)
	}
	t := b[len(b)-carryHeader-n:]
	if crc32.ChecksumIEEE(t[:len(t)-8]) != binary.LittleEndian.Uint32(h[40:]) {
		return nil, fmt.Errorf("%w: carried checksum mismatch", ErrBadPage)
	}
	recs, err := record.DecodeAll(t[:n])
	if err != nil || len(recs) == 0 || len(recs) != int(binary.LittleEndian.Uint32(h[8:])) {
		return nil, fmt.Errorf("%w: carried records: %v", ErrBadPage, err)
	}
	return &Carried{Named: getSlot(h[16:]), Root: getSlot(h[28:]), First: record.LSN(binary.LittleEndian.Uint64(h)), Records: recs}, nil
}

// PageLSNRange cheaply parses a raw log page's LSN coverage without
// decoding its records. ok is false if the buffer is not a valid-looking
// log page header.
func PageLSNRange(page []byte) (first, last record.LSN, ok bool) {
	if len(page) < headerSize {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(page[0:]) != pageMagic || page[4] != pageVersion {
		return 0, 0, false
	}
	first = record.LSN(binary.LittleEndian.Uint64(page[8:]))
	count := binary.LittleEndian.Uint32(page[16:])
	if count == 0 {
		return first, first - 1, true
	}
	return first, first + record.LSN(count) - 1, true
}

// ReadPage reads and decodes the log page at s.
func ReadPage(sink Sink, s Slot) (*ChainPage, error) {
	raw, err := sink.Read(s)
	if err != nil {
		return nil, err
	}
	return DecodePage(s, raw)
}

// ChainTail describes where a chain traversal stopped.
type ChainTail struct {
	LastLSN    record.LSN // highest durable LSN seen (0 if no pages)
	Candidates []Slot     // the unwritten forward locations where the log resumes
	Pages      []PageIndexEntry
}

// FollowChain walks the log chain starting from the candidate slots,
// expecting the first page to carry firstLSN == expectFirst and each
// successor to start one past its predecessor's last LSN. Each valid page is
// passed to fn in order. It returns the tail state for resuming appends.
func FollowChain(sink Sink, start []Slot, expectFirst record.LSN, fn func(*ChainPage) error) (*ChainTail, error) {
	tail := &ChainTail{LastLSN: expectFirst - 1, Candidates: append([]Slot(nil), start...)}
	candidates := start
	expect := expectFirst
	for {
		var page *ChainPage
		for _, c := range candidates {
			if !c.IsValid() {
				continue
			}
			p, err := ReadPage(sink, c)
			if err != nil {
				continue // unwritten, torn or stale page: probe next candidate
			}
			if p.FirstLSN != expect {
				continue // stale page from an earlier generation
			}
			page = p
			break
		}
		if page == nil {
			return tail, nil
		}
		if err := fn(page); err != nil {
			return nil, err
		}
		tail.LastLSN = page.LastLSN()
		tail.Pages = append(tail.Pages, PageIndexEntry{First: page.FirstLSN, Last: page.LastLSN(), Slot: page.Slot})
		tail.Candidates = page.Next[:]
		candidates = page.Next[:]
		expect = page.LastLSN() + 1
	}
}
