// Package summary implements the EBLOCK summary table of §III-B.
//
// Every EBLOCK has a descriptor holding its state (free / open / used /
// bad / reserved), erase count, counts of data and metadata WBLOCKs, the
// amount of reclaimable space (AVAIL) and a timestamp (an update sequence
// number proxy). Descriptors are under 32 bytes, and the table is
// paginated; a locator table with one address per summary page is small
// enough to live in the checkpoint record.
//
// Open EBLOCKs additionally carry in-memory metadata — one 16-byte entry
// (the paper's TAG) per stored LPAGE recording its LPID, type, offset and
// length — which is flushed to the EBLOCK's last WBLOCKs when it closes
// (§IV-A1) and is what garbage collection reads to find valid pages (§VI).
//
// Replay of summary updates is not idempotent by itself, so each summary
// page records the LSN at which it was flushed; recovery compares record
// LSNs against the flush LSN (§VIII-C3).
package summary

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
)

// State is an EBLOCK lifecycle state.
type State uint8

const (
	// Free: erased and available for allocation.
	Free State = iota
	// Open: partially written by one of the write streams.
	Open
	// Used: full, metadata flushed, eligible for GC.
	Used
	// Bad: exceeded erase limit or otherwise retired.
	Bad
	// Reserved: excluded from normal provisioning (checkpoint area).
	Reserved
)

func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Open:
		return "open"
	case Used:
		return "used"
	case Bad:
		return "bad"
	case Reserved:
		return "reserved"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(s))
	}
}

// Descriptor is the persistent per-EBLOCK state.
type Descriptor struct {
	State       State
	Stream      record.StreamKind // valid when Open or Used (which stream owns it)
	EraseCount  uint32
	DataWBlocks uint32 // WBLOCKs provisioned for data
	MetaWBlocks uint32 // WBLOCKs holding flushed metadata
	Avail       uint64 // reclaimable bytes (obsolete LPAGEs + fragmentation)
	Timestamp   uint64 // close time (update seq); for log EBLOCKs the max LSN
}

// MetaEntry is one TAG: the identity and extent of a stored LPAGE.
type MetaEntry struct {
	LPID   addr.LPID
	Type   addr.PageType
	Offset int // byte offset within the EBLOCK
	Length int // byte length
}

// perPage is the number of EBLOCK descriptors per summary page. It is part
// of the media format: a page image records it and loadPageLocked rejects
// any other, so changing it means bumping core's formatEpoch.
const perPage = 64

// Table is the EBLOCK summary table. Safe for concurrent use.
type Table struct {
	mu  sync.Mutex
	geo flash.Geometry

	desc [][]Descriptor // [channel][eblock]
	free []int          // [channel] descriptors in state Free, kept by setState

	meta    map[[2]int][]MetaEntry // open-EBLOCK metadata
	spare   [][]MetaEntry          // cleared metadata slices for the next opens, at most one per channel
	openLSN map[[2]int]record.LSN  // LSN at open, for the truncation LSN

	dirty    map[int]record.LSN // page index -> recLSN
	flushLSN map[int]record.LSN // page index -> LSN at last flush
	locator  []addr.PhysAddr    // page index -> flash address
}

// New creates a summary table for the geometry.
func New(geo flash.Geometry) (*Table, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		geo:      geo,
		desc:     make([][]Descriptor, geo.Channels),
		free:     make([]int, geo.Channels),
		meta:     make(map[[2]int][]MetaEntry),
		openLSN:  make(map[[2]int]record.LSN),
		dirty:    make(map[int]record.LSN),
		flushLSN: make(map[int]record.LSN),
		locator:  make([]addr.PhysAddr, (geo.Channels*geo.EBlocksPerChannel+perPage-1)/perPage),
	}
	for ch := range t.desc {
		t.desc[ch] = make([]Descriptor, geo.EBlocksPerChannel)
		t.free[ch] = geo.EBlocksPerChannel
	}
	return t, nil
}

// NumPages returns how many summary pages cover the table.
func (t *Table) NumPages() int { return len(t.locator) }

func (t *Table) pageOf(ch, eb int) int {
	return (ch*t.geo.EBlocksPerChannel + eb) / perPage
}

func (t *Table) markDirty(ch, eb int, lsn record.LSN) {
	idx := t.pageOf(ch, eb)
	if _, ok := t.dirty[idx]; !ok {
		t.dirty[idx] = lsn
	}
}

func (t *Table) check(ch, eb int) error {
	if ch < 0 || ch >= t.geo.Channels || eb < 0 || eb >= t.geo.EBlocksPerChannel {
		return fmt.Errorf("summary: eblock (%d,%d) out of range", ch, eb)
	}
	return nil
}

// setState is the one way a state changes: it keeps free equal to a scan.
func (t *Table) setState(ch, eb int, s State) {
	if t.desc[ch][eb].State == Free {
		t.free[ch]--
	}
	if s == Free {
		t.free[ch]++
	}
	t.desc[ch][eb].State = s
}

// Desc returns a copy of the descriptor.
func (t *Table) Desc(ch, eb int) (Descriptor, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return Descriptor{}, err
	}
	return t.desc[ch][eb], nil
}

// SetDesc installs a descriptor wholesale (recovery only).
func (t *Table) SetDesc(ch, eb int, d Descriptor, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	t.setState(ch, eb, d.State)
	t.desc[ch][eb] = d
	t.markDirty(ch, eb, lsn)
	return nil
}

// Reserve excludes an EBLOCK from provisioning (checkpoint area).
func (t *Table) Reserve(ch, eb int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	t.setState(ch, eb, Reserved)
	t.markDirty(ch, eb, 1)
	return nil
}

// FreeCount returns the number of free EBLOCKs in a channel.
func (t *Table) FreeCount(ch int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.free[ch]
}

// TakeFree returns the free EBLOCK with the lowest erase count in the
// channel (wear-levelling), without changing its state.
func (t *Table) TakeFree(ch int) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	best, bestErase := -1, uint32(0)
	for eb := range t.desc[ch] {
		d := &t.desc[ch][eb]
		if d.State != Free {
			continue
		}
		if best < 0 || d.EraseCount < bestErase {
			best, bestErase = eb, d.EraseCount
		}
	}
	return best, best >= 0
}

// Errors for state transitions.
var (
	ErrNotFree = errors.New("summary: eblock not free")
	ErrNotOpen = errors.New("summary: eblock not open")
	ErrNotUsed = errors.New("summary: eblock not used")
)

// OpenEBlock transitions Free -> Open for the given stream.
func (t *Table) OpenEBlock(ch, eb int, stream record.StreamKind, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	d := &t.desc[ch][eb]
	if d.State != Free {
		return fmt.Errorf("%w: (%d,%d) is %v", ErrNotFree, ch, eb, d.State)
	}
	t.setState(ch, eb, Open)
	d.Stream = stream
	d.DataWBlocks = 0
	d.MetaWBlocks = 0
	d.Avail = 0
	d.Timestamp = 0
	var m []MetaEntry // a cleared EBLOCK's slice, so the new one's does not regrow from nil
	if n := len(t.spare); n > 0 && stream != record.StreamLog {
		m, t.spare = t.spare[n-1], t.spare[:n-1]
	}
	t.meta[[2]int{ch, eb}] = m
	t.openLSN[[2]int{ch, eb}] = lsn
	t.markDirty(ch, eb, lsn)
	return nil
}

// CloseEBlock transitions Open -> Used, recording the closing timestamp and
// how many WBLOCKs hold metadata. The in-memory metadata stays until
// ClearMeta: the close is decided at provisioning time, before the
// flushed copy is programmed, and a failed metadata program must not
// orphan the committed pages the EBLOCK already holds.
func (t *Table) CloseEBlock(ch, eb int, ts uint64, metaWBlocks int, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	d := &t.desc[ch][eb]
	if d.State != Open {
		return fmt.Errorf("%w: (%d,%d) is %v", ErrNotOpen, ch, eb, d.State)
	}
	t.setState(ch, eb, Used)
	d.Timestamp = ts
	d.MetaWBlocks = uint32(metaWBlocks)
	delete(t.openLSN, [2]int{ch, eb})
	t.markDirty(ch, eb, lsn)
	return nil
}

// FreeEBlock transitions Used (or Open, after migration) -> Free following
// an erase, bumping the erase count.
func (t *Table) FreeEBlock(ch, eb int, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	d := &t.desc[ch][eb]
	if d.State != Used && d.State != Open {
		return fmt.Errorf("%w: (%d,%d) is %v", ErrNotUsed, ch, eb, d.State)
	}
	t.setState(ch, eb, Free)
	*d = Descriptor{State: Free, EraseCount: d.EraseCount + 1}
	delete(t.meta, [2]int{ch, eb})
	delete(t.openLSN, [2]int{ch, eb})
	t.markDirty(ch, eb, lsn)
	return nil
}

// MarkBad retires an EBLOCK.
func (t *Table) MarkBad(ch, eb int, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	t.setState(ch, eb, Bad)
	delete(t.meta, [2]int{ch, eb})
	delete(t.openLSN, [2]int{ch, eb})
	t.markDirty(ch, eb, lsn)
	return nil
}

// SetDataWBlocks sets the provisioned-data cursor (recovery fix-up).
func (t *Table) SetDataWBlocks(ch, eb, n int, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	t.desc[ch][eb].DataWBlocks = uint32(n)
	t.markDirty(ch, eb, lsn)
	return nil
}

// AddAvail adds n reclaimable bytes to the EBLOCK (obsolete versions,
// fragmentation, aborted writes).
func (t *Table) AddAvail(ch, eb, n int, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	t.desc[ch][eb].Avail += uint64(n)
	t.markDirty(ch, eb, lsn)
	return nil
}

// Credit is reclaimable space: the extent at Addr, made garbage by the log
// record at LSN.
type Credit struct {
	Addr addr.PhysAddr
	LSN  record.LSN
}

// AddAvails is AddAvail of each credit's extent, in order, under one hold
// of the lock: how an install's garbage arrives.
func (t *Table) AddAvails(cs []Credit) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cs {
		ch, eb := c.Addr.Channel(), c.Addr.EBlock()
		if err := t.check(ch, eb); err != nil {
			return err
		}
		t.desc[ch][eb].Avail += uint64(c.Addr.Length())
		t.markDirty(ch, eb, c.LSN)
	}
	return nil
}

// SetTimestamp updates the EBLOCK timestamp (log EBLOCKs track their
// highest contained LSN here, enabling truncation-based reclaim).
func (t *Table) SetTimestamp(ch, eb int, ts uint64, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	t.desc[ch][eb].Timestamp = ts
	t.markDirty(ch, eb, lsn)
	return nil
}

// RaiseTimestamp raises the EBLOCK timestamp to at least ts. Log EBLOCKs
// track the highest LSN actually programmed into them this way, so a page
// written into a slot provisioned before the EBLOCK was retired still
// protects the EBLOCK from premature truncation-reclaim.
func (t *Table) RaiseTimestamp(ch, eb int, ts uint64, lsn record.LSN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	if ts > t.desc[ch][eb].Timestamp {
		t.desc[ch][eb].Timestamp = ts
		t.markDirty(ch, eb, lsn)
	}
	return nil
}

// AppendMeta appends a TAG to an open EBLOCK's in-memory metadata.
func (t *Table) AppendMeta(ch, eb int, e MetaEntry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(ch, eb); err != nil {
		return err
	}
	k := [2]int{ch, eb}
	t.meta[k] = append(t.meta[k], e)
	return nil
}

// MetaRun is a run of TAGs bound for one EBLOCK, in append order.
type MetaRun struct {
	Channel, EBlock int
	Entries         []MetaEntry
}

// AppendMetaRuns appends every run to its EBLOCK's in-memory metadata
// under one hold of the lock, one map update per run: how a provisioning
// plan's TAGs arrive.
func (t *Table) AppendMetaRuns(runs []MetaRun) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range runs {
		if err := t.check(r.Channel, r.EBlock); err != nil {
			return err
		}
		k := [2]int{r.Channel, r.EBlock}
		t.meta[k] = append(t.meta[k], r.Entries...)
	}
	return nil
}

// Meta returns a copy of an EBLOCK's in-memory metadata entries in append
// order: those of an open EBLOCK, or of a closed one whose flushed copy
// is not yet known durable (see CloseEBlock).
func (t *Table) Meta(ch, eb int) []MetaEntry { return t.MetaWith(ch, eb, nil) }

// MetaWith returns Meta's copy followed by extra, sized and allocated once
// (nil when both are empty): the list an EBLOCK closes with.
func (t *Table) MetaWith(ch, eb int, extra []MetaEntry) []MetaEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Concat(t.meta[[2]int{ch, eb}], extra)
}

// EncodeMetaWith encodes MetaWith's list (EncodeMetaBlock) straight from the
// table's entries: the list an EBLOCK closes with is not copied first.
func (t *Table) EncodeMetaWith(ch, eb int, extra []MetaEntry) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return EncodeMetaBlock(t.meta[[2]int{ch, eb}], extra)
}

// MetaLen returns how many entries Meta would return, without copying them.
func (t *Table) MetaLen(ch, eb int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta[[2]int{ch, eb}])
}

// ClearMeta drops an EBLOCK's in-memory metadata once its flushed copy is
// durable: when the close record is logged, and on recovery's replay of
// each record that starts or ends a life. The emptied slice serves the
// next OpenEBlock.
func (t *Table) ClearMeta(ch, eb int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]int{ch, eb}
	if m := t.meta[k]; cap(m) > 0 && len(t.spare) < len(t.desc) {
		t.spare = append(t.spare, m[:0])
	}
	delete(t.meta, k)
}

// OpenRef identifies an open EBLOCK and the stream that owns it.
type OpenRef struct {
	Channel int
	EBlock  int
	Stream  record.StreamKind
	OpenLSN record.LSN
}

// OpenEBlocks lists all open EBLOCKs.
func (t *Table) OpenEBlocks() []OpenRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []OpenRef
	for ch := range t.desc {
		for eb := range t.desc[ch] {
			if t.desc[ch][eb].State == Open {
				out = append(out, OpenRef{
					Channel: ch, EBlock: eb,
					Stream:  t.desc[ch][eb].Stream,
					OpenLSN: t.openLSN[[2]int{ch, eb}],
				})
			}
		}
	}
	return out
}

// SetOpenLSN restores an open EBLOCK's open-LSN (recovery).
func (t *Table) SetOpenLSN(ch, eb int, lsn record.LSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.openLSN[[2]int{ch, eb}] = lsn
}

// FreeList returns the channel's free EBLOCKs ordered by ascending erase
// count (wear-levelling order). Planners pop from the front.
func (t *Table) FreeList(ch int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, t.free[ch])
	for eb := range t.desc[ch] {
		if t.desc[ch][eb].State == Free {
			out = append(out, eb)
		}
	}
	slices.SortFunc(out, func(a, b int) int {
		return cmp.Or(cmp.Compare(t.desc[ch][a].EraseCount, t.desc[ch][b].EraseCount), cmp.Compare(a, b))
	})
	return out
}

// UsedEBlocks lists the used EBLOCKs of a channel.
func (t *Table) UsedEBlocks(ch int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for eb := range t.desc[ch] {
		if t.desc[ch][eb].State == Used {
			out = append(out, eb)
		}
	}
	return out
}

// --- pagination / persistence ---------------------------------------------

const (
	pageMagic = 0x53554D4D // "SUMM"
	descBytes = 32
)

// DirtyPages returns indices of dirty summary pages, ascending.
func (t *Table) DirtyPages() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.dirty))
	for idx := range t.dirty {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// MinRecLSN returns the smallest LSN that dirtied any summary page.
func (t *Table) MinRecLSN() record.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min record.LSN
	for _, l := range t.dirty {
		if l != 0 && (min == 0 || l < min) {
			min = l
		}
	}
	return min
}

// SerializePage returns the flash image of summary page idx; flushLSN is
// embedded so recovery can guard replay (§VIII-C3).
func (t *Table) SerializePage(idx int, flushLSN record.LSN) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 20 + perPage*descBytes + 4
	buf := make([]byte, addr.AlignUp(n))
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(idx))
	binary.LittleEndian.PutUint32(buf[8:], uint32(perPage))
	binary.LittleEndian.PutUint64(buf[12:], uint64(flushLSN))
	off := 20
	for i := 0; i < perPage; i++ {
		global := idx*perPage + i
		ch, eb := global/t.geo.EBlocksPerChannel, global%t.geo.EBlocksPerChannel
		var d Descriptor
		if ch < t.geo.Channels {
			d = t.desc[ch][eb]
		}
		buf[off] = byte(d.State)
		buf[off+1] = byte(d.Stream)
		binary.LittleEndian.PutUint32(buf[off+4:], d.EraseCount)
		binary.LittleEndian.PutUint32(buf[off+8:], d.DataWBlocks)
		binary.LittleEndian.PutUint32(buf[off+12:], d.MetaWBlocks)
		binary.LittleEndian.PutUint64(buf[off+16:], d.Avail)
		binary.LittleEndian.PutUint64(buf[off+24:], d.Timestamp)
		off += descBytes
	}
	crc := crc32.ChecksumIEEE(buf[:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return buf
}

// MarkFlushed records that summary page idx was durably written at a with
// flush LSN lsn; the page becomes clean.
func (t *Table) MarkFlushed(idx int, a addr.PhysAddr, lsn record.LSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.dirty, idx)
	t.flushLSN[idx] = lsn
	if idx >= 0 && idx < len(t.locator) {
		t.locator[idx] = a
	}
}

// Locator returns a copy of the locator table for the checkpoint record.
func (t *Table) Locator() []addr.PhysAddr {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]addr.PhysAddr(nil), t.locator...)
}

// PageAddrIf conditionally relocates summary page idx (GC of a PageSummary
// LPAGE).
func (t *Table) PageAddrIf(idx int, old, new addr.PhysAddr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.locator) || t.locator[idx] != old {
		return false
	}
	t.locator[idx] = new
	return true
}

// SetPageAddr installs a summary-page address directly (recovery pass 1).
func (t *Table) SetPageAddr(idx int, a addr.PhysAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx >= 0 && idx < len(t.locator) {
		t.locator[idx] = a
	}
}

// ErrBadPage reports a corrupt summary page image.
var ErrBadPage = errors.New("summary: bad page image")

// LoadFromLocator rebuilds descriptors from flushed summary pages at
// recovery. Pages with invalid locator entries retain zero descriptors.
func (t *Table) LoadFromLocator(locator []addr.PhysAddr, load func(addr.PhysAddr) ([]byte, error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	copy(t.locator, locator)
	for idx, a := range locator {
		if !a.IsValid() {
			continue
		}
		raw, err := load(a)
		if err != nil {
			return fmt.Errorf("summary: load page %d: %w", idx, err)
		}
		if err := t.loadPageLocked(idx, raw); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) loadPageLocked(idx int, raw []byte) error {
	if len(raw) < 24 {
		return fmt.Errorf("%w: short", ErrBadPage)
	}
	if binary.LittleEndian.Uint32(raw[0:]) != pageMagic {
		return fmt.Errorf("%w: magic", ErrBadPage)
	}
	if int(binary.LittleEndian.Uint32(raw[4:])) != idx {
		return fmt.Errorf("%w: index mismatch", ErrBadPage)
	}
	per := int(binary.LittleEndian.Uint32(raw[8:]))
	if per != perPage {
		return fmt.Errorf("%w: perPage mismatch", ErrBadPage)
	}
	flush := record.LSN(binary.LittleEndian.Uint64(raw[12:]))
	need := 20 + per*descBytes + 4
	if len(raw) < need {
		return fmt.Errorf("%w: truncated", ErrBadPage)
	}
	if crc32.ChecksumIEEE(raw[:20+per*descBytes]) != binary.LittleEndian.Uint32(raw[20+per*descBytes:]) {
		return fmt.Errorf("%w: checksum", ErrBadPage)
	}
	off := 20
	for i := 0; i < per; i++ {
		global := idx*per + i
		ch, eb := global/t.geo.EBlocksPerChannel, global%t.geo.EBlocksPerChannel
		if ch >= t.geo.Channels {
			break
		}
		t.setState(ch, eb, State(raw[off]))
		t.desc[ch][eb] = Descriptor{
			State:       State(raw[off]),
			Stream:      record.StreamKind(raw[off+1]),
			EraseCount:  binary.LittleEndian.Uint32(raw[off+4:]),
			DataWBlocks: binary.LittleEndian.Uint32(raw[off+8:]),
			MetaWBlocks: binary.LittleEndian.Uint32(raw[off+12:]),
			Avail:       binary.LittleEndian.Uint64(raw[off+16:]),
			Timestamp:   binary.LittleEndian.Uint64(raw[off+24:]),
		}
		off += descBytes
	}
	t.flushLSN[idx] = flush
	return nil
}

// FlushLSNFor returns the flush LSN guarding the summary page covering
// (ch, eb): updates with record LSNs at or below it are already reflected.
func (t *Table) FlushLSNFor(ch, eb int) record.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLSN[t.pageOf(ch, eb)]
}

// DropVolatile discards all volatile state (crash simulation).
func (t *Table) DropVolatile() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ch := range t.desc {
		clear(t.desc[ch])
		t.free[ch] = len(t.desc[ch]) // the zero descriptor is Free
	}
	t.meta = make(map[[2]int][]MetaEntry)
	t.openLSN = make(map[[2]int]record.LSN)
	t.dirty = make(map[int]record.LSN)
	t.flushLSN = make(map[int]record.LSN)
	for i := range t.locator {
		t.locator[i] = 0
	}
}

// --- EBLOCK metadata block (flushed TAGs) ----------------------------------

const metaMagic = 0x4D455441 // "META"

// EncodeMetaBlock serializes TAG entries into the byte image flushed to an
// EBLOCK's final WBLOCKs on close.
func EncodeMetaBlock(lists ...[]MetaEntry) []byte {
	count := 0
	for _, l := range lists {
		count += len(l)
	}
	buf := make([]byte, addr.AlignUp(12+count*16+4))
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(count))
	off := 12
	for _, l := range lists {
		for _, e := range l {
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.LPID))
			packed := uint64(e.Type)<<48 | uint64(e.Offset/addr.Align)<<24 | uint64(e.Length/addr.Align)
			binary.LittleEndian.PutUint64(buf[off+8:], packed)
			off += 16
		}
	}
	crc := crc32.ChecksumIEEE(buf[:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return buf
}

// ErrBadMeta reports a corrupt or absent metadata block.
var ErrBadMeta = errors.New("summary: bad eblock metadata block")

// DecodeMetaBlock parses a metadata block image.
func DecodeMetaBlock(raw []byte) ([]MetaEntry, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("%w: short", ErrBadMeta)
	}
	if binary.LittleEndian.Uint32(raw[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: magic", ErrBadMeta)
	}
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	need := 12 + n*16 + 4
	if n < 0 || len(raw) < need {
		return nil, fmt.Errorf("%w: truncated", ErrBadMeta)
	}
	if crc32.ChecksumIEEE(raw[:12+n*16]) != binary.LittleEndian.Uint32(raw[12+n*16:]) {
		return nil, fmt.Errorf("%w: checksum", ErrBadMeta)
	}
	out := make([]MetaEntry, n)
	for i := 0; i < n; i++ {
		off := 12 + i*16
		packed := binary.LittleEndian.Uint64(raw[off+8:])
		out[i] = MetaEntry{
			LPID:   addr.LPID(binary.LittleEndian.Uint64(raw[off:])),
			Type:   addr.PageType(packed >> 48),
			Offset: int(packed>>24&(1<<24-1)) * addr.Align,
			Length: int(packed&(1<<24-1)) * addr.Align,
		}
	}
	return out, nil
}

// MetaBlockLen returns the bytes DecodeMetaBlock reads of the block whose
// first bytes are head — a count past the flushed area included, so that
// decoding the area still reports it truncated — or 0 when head is too
// short to carry the count or has the wrong magic.
func MetaBlockLen(head []byte) int {
	if len(head) < 16 || binary.LittleEndian.Uint32(head[0:]) != metaMagic {
		return 0
	}
	return 12 + int(binary.LittleEndian.Uint32(head[4:]))*16 + 4
}

// MetaBlockSize returns the encoded size for n entries, 64-byte aligned.
func MetaBlockSize(n int) int { return addr.AlignUp(12 + n*16 + 4) }
