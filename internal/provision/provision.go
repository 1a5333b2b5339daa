// Package provision implements ELEOS's two-tier write provisioning
// (§IV-A1) and I/O command generation (§IV-A2).
//
// Global provisioning partitions a write buffer into per-channel chunks
// sized in whole WBLOCKs (as many channels as the buffer has WBLOCKs, at
// most all of them), respecting LPAGE boundaries so every LPAGE is stored
// contiguously within a single channel. Channel provisioning then
// allocates physical addresses at WBLOCK granularity from the channel's
// open EBLOCK for the requesting write stream (user, GC, or log), closing
// full EBLOCKs (scheduling their metadata flush as the final I/O commands)
// and opening fresh ones from the free list.
//
// Provisioning is two-phase: a *plan* is computed against a read-only view
// of the summary table, and only applied if the whole buffer fits. This
// keeps a mid-buffer out-of-space condition from leaving provisioned
// WBLOCK gaps that NAND's sequential-program rule could never fill.
package provision

import (
	"errors"
	"fmt"
	"sync"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/wal"
)

// BatchPage describes one LPAGE of a write buffer presented for
// provisioning. BufOff is the page's byte offset in the buffer.
type BatchPage struct {
	LPID   addr.LPID
	Type   addr.PageType
	Length int
	BufOff int
}

// PlacedPage is a provisioned LPAGE.
type PlacedPage struct {
	LPID   addr.LPID
	Type   addr.PageType
	Addr   addr.PhysAddr
	BufOff int
}

// IO is one WBLOCK program command. Data comes either from the write
// buffer range [BufLo, BufHi) or, for metadata flushes, from Inline.
type IO struct {
	Channel int
	EBlock  int
	WBlock  int
	BufLo   int
	BufHi   int
	Inline  []byte
}

// OpenEvent records that the plan opens an EBLOCK.
type OpenEvent struct {
	Channel   int
	EBlock    int
	Stream    record.StreamKind
	Timestamp uint64 // a GC destination's source timestamp (0 for user stream)
}

// CloseEvent records that the plan closes an EBLOCK (metadata scheduled).
type CloseEvent struct {
	Channel     int
	EBlock      int
	Timestamp   uint64
	DataWBlocks int
	MetaWBlocks int
	TailFrag    int // unusable bytes between metadata and EBLOCK end
}

// FragEvent records run-tail fragmentation inside a still-open EBLOCK.
type FragEvent struct {
	Channel int
	EBlock  int
	Bytes   int
}

// Plan is the outcome of provisioning one write buffer.
type Plan struct {
	Pages  []PlacedPage
	IOs    []IO
	Opens  []OpenEvent
	Closes []CloseEvent
	Frags  []FragEvent
}

// planAlloc is a Plan with room for the run-tail frags of eight chunks, so
// the one allocation holds both.
type planAlloc struct {
	plan  Plan
	frags [8]FragEvent
}

// GCReserveEBlocks free EBLOCKs per channel are held back from user and
// log allocation. GC relocation places survivors on the victim's own
// channel, so without a reserve a channel can wedge: zero free EBLOCKs, no
// open GC destination, and every victim worth collecting needs a
// relocation that itself needs a free EBLOCK. The reserve guarantees GC
// can always open a destination, and erasing the victim immediately
// repays the loan.
const GCReserveEBlocks = 1

// Errors.
var (
	ErrNoSpace      = errors.New("provision: no free eblocks available")
	ErrPageTooLarge = errors.New("provision: lpage larger than eblock capacity")
	ErrBadPage      = errors.New("provision: malformed batch page")
)

// Provisioner allocates flash space. Safe for concurrent use.
type Provisioner struct {
	mu  sync.Mutex
	geo flash.Geometry
	st  *summary.Table

	userOpen []int // per-channel open user EBLOCK (-1 = none)
	gcOpen   []int // per-channel open GC EBLOCK (-1 = none)
	rotate   int   // channel of the next buffer's chunk 0 (see partition)

	// The log alternates between two open EBLOCKs (on different channels
	// when possible) so that any three consecutive slots — a page's
	// forward candidates (§VIII-A) — span at least two EBLOCKs and a
	// single program failure cannot kill the whole candidate set.
	logStreams [2]logStream
	logParity  int

	// pl is the planner every ProvisionBatch/ProvisionGC call reuses under
	// mu, and chunks the partition's scratch: a plan allocates only what
	// it returns.
	pl     chanPlanner
	chunks [][]BatchPage
}

type logStream struct {
	ch, eb, wb int // eb < 0 when unallocated
}

// New creates a provisioner over the summary table.
func New(geo flash.Geometry, st *summary.Table) (*Provisioner, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	p := &Provisioner{geo: geo, st: st}
	p.resetCursors()
	return p, nil
}

func (p *Provisioner) resetCursors() {
	p.userOpen = make([]int, p.geo.Channels)
	p.gcOpen = make([]int, p.geo.Channels)
	for i := range p.userOpen {
		p.userOpen[i], p.gcOpen[i] = -1, -1
	}
	p.logStreams = [2]logStream{{eb: -1}, {eb: -1}}
	p.logParity = 0
}

// RebuildFromSummary re-derives the open-EBLOCK cursors from the summary
// table after recovery. The log cursor is set separately via SetLogCursor
// because the log chain, not the summary table, is authoritative for it.
func (p *Provisioner) RebuildFromSummary() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.resetCursors()
	for _, ref := range p.st.OpenEBlocks() {
		switch ref.Stream {
		case record.StreamUser:
			p.userOpen[ref.Channel] = ref.EBlock
		case record.StreamGC:
			p.gcOpen[ref.Channel] = ref.EBlock
		}
	}
}

// SetLogCursorFromCandidates reconstructs the alternating log cursor from
// a chain tail's three forward candidates [c0 c1 c2] (recovery): c0 and c2
// belong to one stream, c1 to the other, and the next provisioned slot
// follows c2 on c1's stream.
func (p *Provisioner) SetLogCursorFromCandidates(cands []wal.Slot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.logStreams = [2]logStream{{eb: -1}, {eb: -1}}
	p.logParity = 0
	if len(cands) == 0 {
		return
	}
	if len(cands) >= 3 {
		c1, c2 := cands[1], cands[2]
		p.logStreams[0] = logStream{ch: c2.Channel, eb: c2.EBlock, wb: c2.WBlock + 1}
		p.logStreams[1] = logStream{ch: c1.Channel, eb: c1.EBlock, wb: c1.WBlock + 1}
		p.logParity = 1 // the slot after c2 comes from c1's stream
		return
	}
	// Degenerate tails (fewer than three candidates): continue after the
	// last one on a single stream; the other allocates fresh on demand.
	last := cands[len(cands)-1]
	p.logStreams[0] = logStream{ch: last.Channel, eb: last.EBlock, wb: last.WBlock + 1}
	p.logParity = 1
}

// LogCursor returns the next log slot position of the stream that will
// serve the next provisioned slot (eb = -1 if unallocated).
func (p *Provisioner) LogCursor() (ch, eb, wb int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.logStreams[p.logParity]
	return st.ch, st.eb, st.wb
}

func (p *Provisioner) wblockBytes() int { return p.geo.WBlockBytes }

func (p *Provisioner) metaWBlocksFor(n int) int {
	return (summary.MetaBlockSize(n) + p.wblockBytes() - 1) / p.wblockBytes()
}

// MaxLPageBytes returns the largest LPAGE the geometry can store: a fresh
// EBLOCK minus one metadata WBLOCK.
func (p *Provisioner) MaxLPageBytes() int {
	return p.geo.EBlockBytes - p.metaWBlocksFor(1)*p.wblockBytes()
}

// --- planning primitives ---------------------------------------------------

// chanPlanner plans one ProvisionBatch/ProvisionGC call, a channel chunk at
// a time (loadCursor, then place), against a read-only summary table. The
// open EBLOCK is a cursor, the count of entries the table holds for it and
// the entries this plan adds: planning costs O(pages placed), whatever the
// EBLOCK's fill.
type chanPlanner struct {
	p      *Provisioner
	stream record.StreamKind
	open   []int  // the stream's per-channel cursors: userOpen or gcOpen
	srcTS  uint64 // a GC destination's timestamp (stream == StreamGC)
	clock  func() uint64
	plan   *Plan
	frags  []FragEvent         // plan.Frags, in the plan's allocation while eight fit
	metas  []summary.MetaEntry // the TAG of each plan.Pages entry, same order
	runs   []summary.MetaRun   // metas cut by destination EBLOCK
	finals []finalCursor       // where each chunk left its channel

	ch     int   // current chunk's channel
	free   []int // remaining free eblocks (wear order); nil until the first openFresh
	cur    int   // current eblock (-1 none)
	dataWB int   // provisioned data wblocks in cur
	base   int   // entries the summary table holds for cur
	delta  int   // metas[delta:] are this plan's entries in cur
	// current run
	runActive   bool
	runStartWB  int
	runStartBuf int
	runEndBuf   int
}

// finalCursor is a channel's open EBLOCK after its chunk (eb -1: none).
type finalCursor struct{ ch, eb, dataWB int }

func (c *chanPlanner) wbytes() int { return c.p.geo.WBlockBytes }

// loadCursor starts the chunk on channel ch from the provisioner's open
// EBLOCK for the stream (if any).
func (c *chanPlanner) loadCursor(ch int) error {
	c.ch, c.cur, c.free = ch, -1, nil
	eb := c.open[ch]
	if eb < 0 {
		return nil
	}
	d, err := c.p.st.Desc(c.ch, eb)
	if err != nil {
		return err
	}
	if d.State != summary.Open {
		// The cursor is stale: a GC/migration path retired this EBLOCK
		// (erased it, or marked it Bad after a failed erase) without the
		// provisioner hearing about it. Programming a non-Open EBLOCK can
		// never be right, so drop the cursor and allocate fresh. Runs
		// under p.mu (all planners are built inside ProvisionBatch/GC).
		c.p.dropCursor(c.ch, eb)
		return nil
	}
	for _, cl := range c.plan.Closes {
		if cl.Channel == ch && cl.EBlock == eb {
			return nil // closed by this plan (closeListed): the chunk opens afresh
		}
	}
	c.cur = eb
	c.dataWB = int(d.DataWBlocks)
	c.base = c.p.st.MetaLen(c.ch, eb)
	return nil
}

// fits reports whether an LPAGE of length at ebOff leaves room for the
// metadata block covering one more entry.
func (c *chanPlanner) fits(ebOff, length int) bool {
	dataEnd := ebOff + length
	if dataEnd > c.p.geo.EBlockBytes {
		return false
	}
	dataWBEnd := (dataEnd + c.wbytes() - 1) / c.wbytes()
	return dataWBEnd+c.p.metaWBlocksFor(c.base+len(c.metas)-c.delta+1) <= c.p.geo.WBlocksPerEBlock()
}

// endRun finalises the active run: emits its data IOs, advances the data
// cursor, and accounts run-tail fragmentation.
func (c *chanPlanner) endRun() {
	if !c.runActive {
		return
	}
	w := c.wbytes()
	runStartEB := c.runStartWB * w
	runLen := c.runEndBuf - c.runStartBuf
	runEndEB := runStartEB + runLen
	endWB := (runEndEB + w - 1) / w
	for wb := c.runStartWB; wb < endWB; wb++ {
		lo := c.runStartBuf + (wb-c.runStartWB)*w
		hi := lo + w
		if hi > c.runEndBuf {
			hi = c.runEndBuf // device zero-pads; the paper copies junk instead
		}
		c.plan.IOs = append(c.plan.IOs, IO{Channel: c.ch, EBlock: c.cur, WBlock: wb, BufLo: lo, BufHi: hi})
	}
	if frag := endWB*w - runEndEB; frag > 0 {
		c.frags = append(c.frags, FragEvent{Channel: c.ch, EBlock: c.cur, Bytes: frag})
		c.plan.Frags = c.frags
	}
	c.dataWB = endWB
	c.runActive = false
}

// cutRun hands the entries this plan added to cur over to applyLocked.
func (c *chanPlanner) cutRun() {
	if c.delta < len(c.metas) {
		c.runs = append(c.runs, summary.MetaRun{Channel: c.ch, EBlock: c.cur, Entries: c.metas[c.delta:]})
	}
	c.delta = len(c.metas)
}

// closeCur finalises and closes the current EBLOCK, scheduling its
// metadata flush as the trailing I/O commands: the table's entries and the
// plan's, encoded once.
func (c *chanPlanner) closeCur() {
	c.endRun()
	metaImg := c.p.st.EncodeMetaWith(c.ch, c.cur, c.metas[c.delta:])
	c.cutRun()
	w := c.wbytes()
	metaWB := (len(metaImg) + w - 1) / w
	for k := 0; k < metaWB; k++ {
		lo := k * w
		hi := lo + w
		if hi > len(metaImg) {
			hi = len(metaImg)
		}
		c.plan.IOs = append(c.plan.IOs, IO{Channel: c.ch, EBlock: c.cur, WBlock: c.dataWB + k, Inline: metaImg[lo:hi]})
	}
	ts := c.srcTS
	if c.stream == record.StreamUser {
		ts = c.clock()
	}
	tail := (c.p.geo.WBlocksPerEBlock() - c.dataWB - metaWB) * w
	c.plan.Closes = append(c.plan.Closes, CloseEvent{
		Channel: c.ch, EBlock: c.cur, Timestamp: ts,
		DataWBlocks: c.dataWB, MetaWBlocks: metaWB, TailFrag: tail,
	})
	c.cur = -1
	c.dataWB = 0
}

// closeListed closes each listed EBLOCK still Open at its fill, as place
// closes a full one; a GC EBLOCK keeps its timestamp. A ref that is no
// longer Open was closed or erased since the caller listed it.
func (c *chanPlanner) closeListed(refs []summary.OpenRef) error {
	stream, srcTS := c.stream, c.srcTS
	for _, ref := range refs {
		d, err := c.p.st.Desc(ref.Channel, ref.EBlock)
		if err != nil {
			return err
		}
		if d.State != summary.Open {
			continue
		}
		c.ch, c.cur, c.dataWB = ref.Channel, ref.EBlock, int(d.DataWBlocks)
		c.stream, c.srcTS = d.Stream, d.Timestamp
		c.closeCur()
	}
	c.stream, c.srcTS = stream, srcTS
	return nil
}

// openFresh takes the next free EBLOCK for the stream. Non-GC streams
// leave GCReserveEBlocks behind so garbage collection always has a
// relocation destination on this channel.
func (c *chanPlanner) openFresh() error {
	reserve := 0
	if c.stream != record.StreamGC {
		reserve = GCReserveEBlocks
	}
	if c.free == nil {
		c.free = c.p.st.FreeList(c.ch)
	}
	if len(c.free) <= reserve {
		return fmt.Errorf("%w: channel %d", ErrNoSpace, c.ch)
	}
	eb := c.free[0]
	c.free = c.free[1:]
	c.cur = eb
	c.dataWB = 0
	c.base = 0
	ev := OpenEvent{Channel: c.ch, EBlock: eb, Stream: c.stream}
	if c.stream == record.StreamGC {
		ev.Timestamp = c.srcTS
	}
	c.plan.Opens = append(c.plan.Opens, ev)
	return nil
}

// place provisions the chunk's pages in buffer order.
func (c *chanPlanner) place(pages []BatchPage) error {
	for _, pg := range pages {
		if pg.Length <= 0 || !addr.IsAligned(pg.Length) || !addr.IsAligned(pg.BufOff) {
			return fmt.Errorf("%w: lpid %d length %d off %d", ErrBadPage, pg.LPID, pg.Length, pg.BufOff)
		}
		if pg.Length > c.p.MaxLPageBytes() {
			return fmt.Errorf("%w: lpid %d length %d > %d", ErrPageTooLarge, pg.LPID, pg.Length, c.p.MaxLPageBytes())
		}
		for {
			if c.cur < 0 {
				if err := c.openFresh(); err != nil {
					return err
				}
			}
			if c.runActive && pg.BufOff != c.runEndBuf {
				// Non-contiguous buffer extents cannot share a run; end
				// the run at a WBLOCK boundary and start fresh.
				c.endRun()
			}
			if !c.runActive {
				c.runStartWB = c.dataWB
				c.runStartBuf = pg.BufOff
				c.runEndBuf = pg.BufOff
				c.runActive = true
			}
			ebOff := c.runStartWB*c.wbytes() + (pg.BufOff - c.runStartBuf)
			if c.fits(ebOff, pg.Length) {
				a, err := addr.Pack(c.ch, c.cur, ebOff, pg.Length)
				if err != nil {
					return err
				}
				c.plan.Pages = append(c.plan.Pages, PlacedPage{LPID: pg.LPID, Type: pg.Type, Addr: a, BufOff: pg.BufOff})
				c.metas = append(c.metas, summary.MetaEntry{LPID: pg.LPID, Type: pg.Type, Offset: ebOff, Length: pg.Length})
				c.runEndBuf = pg.BufOff + pg.Length
				break
			}
			// No room: close the EBLOCK (its metadata becomes the final
			// I/O commands) and retry in a fresh one.
			c.closeCur()
		}
	}
	c.endRun()
	c.cutRun()
	c.finals = append(c.finals, finalCursor{c.ch, c.cur, c.dataWB})
	return nil
}

// --- public planning entry points -----------------------------------------

// newPlanner starts a plan for n pages expected to program about nwb
// WBLOCKs (closes and run splits add a few), sizing what it returns once.
// The planner and what it gathers for applyLocked are p.pl's, reused.
func (p *Provisioner) newPlanner(stream record.StreamKind, srcTS uint64, clock func() uint64, n, nwb int) *chanPlanner {
	open := p.userOpen
	if stream == record.StreamGC {
		open = p.gcOpen
	}
	pa := &planAlloc{plan: Plan{Pages: make([]PlacedPage, 0, n), IOs: make([]IO, 0, nwb)}}
	c := &p.pl
	clear(c.runs) // the entries they name belong to the last plan
	*c = chanPlanner{
		p: p, stream: stream, open: open, srcTS: srcTS, clock: clock, plan: &pa.plan, frags: pa.frags[:0],
		metas: c.metas[:0], runs: c.runs[:0], finals: c.finals[:0],
	}
	return c
}

// ProvisionBatch plans placement for a user write buffer across all
// channels (global + channel tiers). clock supplies the update-sequence
// timestamp used when EBLOCKs close. The plan first closes the open EBLOCKs
// closes lists (a checkpoint's long-open ones), and no chunk continues one.
// The plan is already applied to the summary table when this returns.
func (p *Provisioner) ProvisionBatch(pages []BatchPage, clock func() uint64, lsnHint record.LSN, closes ...summary.OpenRef) (*Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(pages) == 0 {
		return &Plan{}, nil
	}
	chunks, nwb := p.partition(pages)
	c := p.newPlanner(record.StreamUser, 0, clock, len(pages), nwb)
	if err := c.closeListed(closes); err != nil {
		return nil, err
	}
	for i, chunk := range chunks {
		if err := c.loadCursor((p.rotate + i) % p.geo.Channels); err != nil {
			return nil, err
		}
		if err := c.place(chunk); err != nil {
			return nil, err
		}
	}
	p.rotate = (p.rotate + nwb) % p.geo.Channels
	return p.applyLocked(c, lsnHint)
}

// SkipChannel moves the next buffer's deal on by one channel, for a batch
// whose channel has no space left that garbage collection could free.
func (p *Provisioner) SkipChannel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rotate = (p.rotate + 1) % p.geo.Channels
}

// ProvisionGC plans placement for a GC (or migration) buffer within one
// channel, appending the pages to the channel's open GC EBLOCK. An EBLOCK
// opened for it takes srcTS, the victim's timestamp, as its own.
func (p *Provisioner) ProvisionGC(ch int, pages []BatchPage, srcTS uint64, clock func() uint64, lsnHint record.LSN) (*Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(pages) == 0 {
		return &Plan{}, nil
	}
	c := p.newPlanner(record.StreamGC, srcTS, clock, len(pages), min(len(pages), p.geo.WBlocksPerEBlock()))
	if err := c.loadCursor(ch); err != nil {
		return nil, err
	}
	if err := c.place(pages); err != nil {
		return nil, err
	}
	return p.applyLocked(c, lsnHint)
}

// applyLocked commits a successful plan to the summary table and cursors.
func (p *Provisioner) applyLocked(c *chanPlanner, lsn record.LSN) (*Plan, error) {
	plan := c.plan
	for _, ev := range plan.Opens {
		if err := p.st.OpenEBlock(ev.Channel, ev.EBlock, ev.Stream, lsn); err != nil {
			return nil, err
		}
		if ev.Stream == record.StreamGC {
			if err := p.st.SetTimestamp(ev.Channel, ev.EBlock, ev.Timestamp, lsn); err != nil {
				return nil, err
			}
		}
	}
	if err := p.st.AppendMetaRuns(c.runs); err != nil {
		return nil, err
	}
	for _, f := range plan.Frags {
		if err := p.st.AddAvail(f.Channel, f.EBlock, f.Bytes, lsn); err != nil {
			return nil, err
		}
	}
	for _, cl := range plan.Closes {
		if err := p.st.SetDataWBlocks(cl.Channel, cl.EBlock, cl.DataWBlocks, lsn); err != nil {
			return nil, err
		}
		if err := p.st.CloseEBlock(cl.Channel, cl.EBlock, cl.Timestamp, cl.MetaWBlocks, lsn); err != nil {
			return nil, fmt.Errorf("provision: apply close (cursor was %v): %w", cl, err)
		}
		if cl.TailFrag > 0 {
			if err := p.st.AddAvail(cl.Channel, cl.EBlock, cl.TailFrag, lsn); err != nil {
				return nil, err
			}
		}
		p.dropCursor(cl.Channel, cl.EBlock)
	}
	for _, f := range c.finals {
		if f.eb >= 0 {
			if err := p.st.SetDataWBlocks(f.ch, f.eb, f.dataWB, lsn); err != nil {
				return nil, err
			}
		}
		c.open[f.ch] = f.eb
	}
	return plan, nil
}

func (p *Provisioner) dropCursor(ch, eb int) {
	if p.userOpen[ch] == eb {
		p.userOpen[ch] = -1
	}
	if p.gcOpen[ch] == eb {
		p.gcOpen[ch] = -1
	}
}

// partition is the global tier: it cuts the buffer into at most Channels
// contiguous chunks of whole LPAGEs, sized in WBLOCKs rather than bytes.
// A channel run starts on a WBLOCK boundary and is padded to one, so the
// batch's nwb = ceil(total/WBlockBytes) WBLOCKs are dealt round-robin —
// chunk i gets a quota of nwb/Channels, one more for the first
// nwb%Channels chunks, none (channel unused) beyond that — and each chunk
// is filled in buffer order up to quota*WBlockBytes. Stripe width thus
// follows batch size: a batch of k < Channels WBLOCKs programs k channels
// once instead of every channel with a mostly empty WBLOCK. Page-boundary
// slack can leave pages over; then one more WBLOCK is dealt and the cut
// redone. A page larger than its chunk's quota is a chunk of its own.
// nwb is the number of WBLOCKs dealt; the caller advances the deal's start
// channel by it, i.e. past the chunks that got the larger quota, so the
// extra WBLOCK (and the short tail chunk) move across channels.
func (p *Provisioner) partition(pages []BatchPage) (chunks [][]BatchPage, nwb int) {
	total := 0
	for _, pg := range pages {
		total += pg.Length
	}
	n, w := p.geo.Channels, p.geo.WBlockBytes
	chunks = p.chunks[:0]
	defer func() { p.chunks = chunks }()
	for nwb = max(1, (total+w-1)/w); ; nwb++ {
		chunks = chunks[:0]
		base, extra, next := nwb/n, nwb%n, 0
		for c := 0; c < n && next < len(pages); c++ {
			quota := base
			if c < extra {
				quota++
			}
			if quota == 0 {
				break
			}
			start, room := next, quota*w
			for next < len(pages) && (pages[next].Length <= room || next == start) {
				room -= pages[next].Length
				next++
			}
			chunks = append(chunks, pages[start:next])
		}
		if next == len(pages) {
			return chunks, nwb
		}
	}
}

// --- log stream -------------------------------------------------------------

// ProvisionLogSlots hands out the next n log-page WBLOCK slots,
// alternating between the two open log EBLOCK streams and opening fresh
// EBLOCKs (rotating channels) as streams exhaust. Unlike batch
// provisioning this mutates immediately: the WAL requests slots while
// forcing a page, and a failed program is handled by the WAL's forward
// candidates, not by aborting.
func (p *Provisioner) ProvisionLogSlots(n int, lsnHint record.LSN) ([]wal.Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []wal.Slot
	for len(out) < n {
		st := &p.logStreams[p.logParity]
		if st.eb < 0 || st.wb >= p.geo.WBlocksPerEBlock() {
			if st.eb >= 0 {
				d, err := p.st.Desc(st.ch, st.eb)
				if err != nil {
					return nil, err
				}
				// Retire only if still open: a previous provisioning may
				// have closed this EBLOCK and then failed to allocate a
				// successor (out of space until GC ran), leaving the
				// cursor pointing at an already-retired EBLOCK.
				if d.State == summary.Open && d.Stream == record.StreamLog {
					if err := p.st.CloseEBlock(st.ch, st.eb, d.Timestamp, 0, lsnHint); err != nil {
						return nil, fmt.Errorf("provision: retire log stream %d at wb=%d: %w", p.logParity, st.wb, err)
					}
				}
			}
			ch, eb, err := p.takeLogEBlock(st.ch, p.logStreams[1-p.logParity].ch, lsnHint)
			if err != nil {
				return nil, err
			}
			st.ch, st.eb, st.wb = ch, eb, 0
		}
		out = append(out, wal.Slot{Channel: st.ch, EBlock: st.eb, WBlock: st.wb})
		st.wb++
		p.logParity = 1 - p.logParity
	}
	return out, nil
}

// takeLogEBlock allocates a free EBLOCK for a log stream, preferring a
// channel different from both the stream's previous channel and its
// sibling stream's channel, so a failed program (which disables a whole
// EBLOCK) never threatens consecutive forward candidates.
func (p *Provisioner) takeLogEBlock(prevCh, siblingCh int, lsn record.LSN) (int, int, error) {
	start := (prevCh + 1) % p.geo.Channels
	if prevCh < 0 {
		start = 0
	}
	// First pass: avoid the sibling's channel; second pass: anything free.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < p.geo.Channels; i++ {
			ch := (start + i) % p.geo.Channels
			if pass == 0 && ch == siblingCh && p.geo.Channels > 1 {
				continue
			}
			if p.st.FreeCount(ch) <= GCReserveEBlocks {
				continue // leave the GC relocation reserve untouched
			}
			if eb, ok := p.st.TakeFree(ch); ok {
				if err := p.st.OpenEBlock(ch, eb, record.StreamLog, lsn); err != nil {
					return 0, 0, err
				}
				return ch, eb, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("%w: log stream", ErrNoSpace)
}

// AbandonLogEBlock retires a log EBLOCK whose program failed, so fresh
// slots come from a new EBLOCK. Safe to call for non-current EBLOCKs.
func (p *Provisioner) AbandonLogEBlock(ch, eb int, lsnHint record.LSN) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, err := p.st.Desc(ch, eb)
	if err != nil {
		return err
	}
	if d.State == summary.Open && d.Stream == record.StreamLog {
		// A failed program disables the rest of the EBLOCK, so no future
		// slot writes can land here: the current hint bounds its contents.
		ts := d.Timestamp
		if uint64(lsnHint) > ts {
			ts = uint64(lsnHint)
		}
		if err := p.st.CloseEBlock(ch, eb, ts, 0, lsnHint); err != nil {
			return err
		}
	}
	for i := range p.logStreams {
		if p.logStreams[i].ch == ch && p.logStreams[i].eb == eb {
			p.logStreams[i].eb = -1 // next provisioning opens fresh
		}
	}
	return nil
}

// UserOpen returns the channel's open user EBLOCK (-1 if none).
func (p *Provisioner) UserOpen(ch int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.userOpen[ch]
}

// GCOpen returns the channel's open GC EBLOCK (-1 if none).
func (p *Provisioner) GCOpen(ch int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gcOpen[ch]
}

// DropOpen forgets a cursor for an EBLOCK (used when migration retires an
// open EBLOCK after a write failure).
func (p *Provisioner) DropOpen(ch, eb int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropCursor(ch, eb)
}
