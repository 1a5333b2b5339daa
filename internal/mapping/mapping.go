// Package mapping implements the three-level mapping table of §III-B.
//
// The bottom level maps each LPID to the packed physical address (which
// includes the LPAGE length) of its latest version. Mapping pages are too
// numerous to pin in memory, so a *small table* records the flash address
// of every mapping page, and a *tiny table* records the flash addresses of
// the small table's own pages; the tiny table is small enough to live in
// the checkpoint record.
//
// Mapping pages and small-table pages are stored on flash as ordinary
// LPAGEs (namespaced LPIDs), so garbage collection relocates them with the
// same machinery as user data; recovery's first log pass repairs their
// addresses before the second pass needs them (§VIII-C1).
//
// The page cache is striped across shards keyed by mapping-page index, so
// concurrent installs and lookups of different pages do not serialize on
// one mutex. It is unbounded: a page once loaded stays until DropCache.
package mapping

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"eleos/internal/addr"
	"eleos/internal/record"
)

// Loader reads a previously flushed table page from flash given its
// physical address. Supplied by the controller.
type Loader func(a addr.PhysAddr) ([]byte, error)

// The page sizes are part of the media format: a page image records its
// entry count and decodePage rejects any other, so changing one means
// bumping core's formatEpoch.
const (
	// entriesPerPage is the number of LPID slots per mapping page
	// (~2 KB images).
	entriesPerPage = 256
	// addrsPerSmallPage is the number of mapping-page addresses per
	// small-table page.
	addrsPerSmallPage = 256
)

type page struct {
	entries []addr.PhysAddr
	dirty   bool
	recLSN  record.LSN // LSN that first dirtied the page since its last flush
}

func (p *page) markDirty(lsn record.LSN) {
	if !p.dirty {
		p.dirty = true
		p.recLSN = lsn
	}
}

// numShards stripes the page cache. Must be a power of two.
const numShards = 16

type shard struct {
	mu    sync.Mutex
	pages map[int]*page
}

// Table is the in-memory face of the mapping table. Safe for concurrent
// use: page operations lock only the owning shard (plus the small-table
// mutex on a miss), so lookups and installs of different pages proceed in
// parallel.
//
// Lock order: shard.mu -> tablesMu.
type Table struct {
	shards [numShards]shard

	tablesMu   sync.Mutex
	loader     Loader
	small      []addr.PhysAddr // flash address of mapping page i (0 = never flushed)
	smallDirty map[int]record.LSN
	// smallSince is smallDirty restricted to changes made after the page's
	// image was last taken (SerializeSmallPage): what a flush of that image
	// does not hold, so what MarkSmallFlushed must leave dirty.
	smallSince map[int]record.LSN
	tiny       []addr.PhysAddr // flash address of small page j (checkpoint record)
}

// New creates an empty table.
func New() *Table {
	t := &Table{smallDirty: make(map[int]record.LSN), smallSince: make(map[int]record.LSN)}
	for i := range t.shards {
		t.shards[i].pages = make(map[int]*page)
	}
	return t
}

// SetLoader installs the flash reader used for cache misses.
func (t *Table) SetLoader(l Loader) {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	t.loader = l
}

func pageOf(lpid addr.LPID) (pageIdx, slot int) {
	return int(lpid.TableIndex()) / entriesPerPage, int(lpid.TableIndex()) % entriesPerPage
}

func (t *Table) shard(idx int) *shard { return &t.shards[idx&(numShards-1)] }

// getPageLocked returns the page for idx in sh, loading it from flash if it
// was flushed before. Caller holds sh.mu. A page that was never flushed and
// is not cached is implicitly all-unmapped; create is false → nil is
// returned for such pages.
func (t *Table) getPageLocked(sh *shard, idx int, create bool) (*page, error) {
	if p, ok := sh.pages[idx]; ok {
		return p, nil
	}
	t.tablesMu.Lock()
	var home addr.PhysAddr
	if idx < len(t.small) {
		home = t.small[idx]
	}
	loader := t.loader
	t.tablesMu.Unlock()
	if home.IsValid() {
		if loader == nil {
			return nil, errors.New("mapping: page not cached and no loader installed")
		}
		raw, err := loader(home)
		if err != nil {
			return nil, fmt.Errorf("mapping: load page %d: %w", idx, err)
		}
		p, err := decodePage(raw, idx, entriesPerPage)
		if err != nil {
			return nil, err
		}
		sh.pages[idx] = p
		return p, nil
	}
	if !create {
		return nil, nil
	}
	p := &page{entries: make([]addr.PhysAddr, entriesPerPage)}
	sh.pages[idx] = p
	return p, nil
}

// Get returns the latest physical address of lpid (invalid if unmapped).
func (t *Table) Get(lpid addr.LPID) (addr.PhysAddr, error) {
	idx, slot := pageOf(lpid)
	sh := t.shard(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, err := t.getPageLocked(sh, idx, false)
	if err != nil || p == nil {
		return 0, err
	}
	return p.entries[slot], nil
}

// Swap installs a new address for lpid and returns the one it replaced
// (invalid if unmapped): a user write's install and its redo, one shard lock
// for the lookup and the update. lsn is the log record LSN backing it.
func (t *Table) Swap(lpid addr.LPID, a addr.PhysAddr, lsn record.LSN) (addr.PhysAddr, error) {
	idx, slot := pageOf(lpid)
	sh := t.shard(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, err := t.getPageLocked(sh, idx, true)
	if err != nil {
		return 0, err
	}
	old := p.entries[slot]
	p.entries[slot] = a
	p.markDirty(lsn)
	return old, nil
}

// SetIf installs a new address only if the current address equals old —
// the conditional install used by GC commits (§VI-C). It reports whether
// the install happened.
func (t *Table) SetIf(lpid addr.LPID, old, new addr.PhysAddr, lsn record.LSN) (bool, error) {
	idx, slot := pageOf(lpid)
	sh := t.shard(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, err := t.getPageLocked(sh, idx, true)
	if err != nil || p.entries[slot] != old {
		return false, err
	}
	p.entries[slot] = new
	p.markDirty(lsn)
	return true, nil
}

// DirtyPages returns the indices of dirty mapping pages, ascending.
func (t *Table) DirtyPages() []int {
	var out []int
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for idx, p := range sh.pages {
			if p.dirty {
				out = append(out, idx)
			}
		}
		sh.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

// SerializePage returns the on-flash image of mapping page idx, 64-byte
// aligned for storage as an LPAGE.
func (t *Table) SerializePage(idx int) ([]byte, error) {
	sh := t.shard(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, err := t.getPageLocked(sh, idx, true)
	if err != nil {
		return nil, err
	}
	return encodePage(p.entries, idx), nil
}

// MarkFlushed records that mapping page idx was durably written at a; the
// page becomes clean and the small table (dirtying its small page) is
// updated. lsn is the flush's log LSN.
func (t *Table) MarkFlushed(idx int, a addr.PhysAddr, lsn record.LSN) {
	sh := t.shard(idx)
	sh.mu.Lock()
	if p, ok := sh.pages[idx]; ok {
		p.dirty = false
		p.recLSN = 0
	}
	sh.mu.Unlock()
	t.tablesMu.Lock()
	t.setSmallLocked(idx, a, lsn)
	t.tablesMu.Unlock()
}

// setSmallLocked requires tablesMu.
func (t *Table) setSmallLocked(idx int, a addr.PhysAddr, lsn record.LSN) {
	for idx >= len(t.small) {
		t.small = append(t.small, 0)
	}
	t.small[idx] = a
	sp := idx / addrsPerSmallPage
	if _, ok := t.smallDirty[sp]; !ok {
		t.smallDirty[sp] = lsn
	}
	if _, ok := t.smallSince[sp]; !ok {
		t.smallSince[sp] = lsn
	}
}

// PageAddr returns the flash address of mapping page idx (invalid if the
// page was never flushed).
func (t *Table) PageAddr(idx int) addr.PhysAddr {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	if idx < 0 || idx >= len(t.small) {
		return 0
	}
	return t.small[idx]
}

// SetPageAddr installs a mapping-page address directly (recovery pass 1).
func (t *Table) SetPageAddr(idx int, a addr.PhysAddr, lsn record.LSN) {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	t.setSmallLocked(idx, a, lsn)
}

// SetPageAddrIf conditionally relocates mapping page idx from old to new
// (GC of a PageMap LPAGE). Reports whether the install happened.
func (t *Table) SetPageAddrIf(idx int, old, new addr.PhysAddr, lsn record.LSN) bool {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	if idx < 0 || idx >= len(t.small) || t.small[idx] != old {
		return false
	}
	// The cached copy (if any) stays valid: the content did not change,
	// only its flash home.
	t.setSmallLocked(idx, new, lsn)
	return true
}

// --- small table pagination ----------------------------------------------

// DirtySmallPages returns the indices of dirty small-table pages.
func (t *Table) DirtySmallPages() []int {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	out := make([]int, 0, len(t.smallDirty))
	for sp := range t.smallDirty {
		out = append(out, sp)
	}
	sort.Ints(out)
	return out
}

// SerializeSmallPage returns the on-flash image of small-table page sp.
func (t *Table) SerializeSmallPage(sp int) []byte {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	delete(t.smallSince, sp)
	lo := sp * addrsPerSmallPage
	entries := make([]addr.PhysAddr, addrsPerSmallPage)
	for i := range entries {
		if lo+i < len(t.small) {
			entries[i] = t.small[lo+i]
		}
	}
	return encodePage(entries, sp)
}

// MarkSmallFlushed records that the image of small page sp last taken was
// durably written at a, updating the tiny table. The page is clean unless
// it changed after the image was taken — a checkpoint flushes mapping pages
// and their small page in one action, and the mapping pages' new homes
// reach the small table after its image.
func (t *Table) MarkSmallFlushed(sp int, a addr.PhysAddr) {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	delete(t.smallDirty, sp)
	if lsn, ok := t.smallSince[sp]; ok {
		t.smallDirty[sp] = lsn
	}
	for sp >= len(t.tiny) {
		t.tiny = append(t.tiny, 0)
	}
	t.tiny[sp] = a
}

// SmallPageAddrIf conditionally relocates small page sp (GC of a
// PageSmallMap LPAGE) in the tiny table.
func (t *Table) SmallPageAddrIf(sp int, old, new addr.PhysAddr) bool {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	if sp < 0 || sp >= len(t.tiny) || t.tiny[sp] != old {
		return false
	}
	t.tiny[sp] = new
	return true
}

// SmallPageAddr returns the flash address of small-table page sp (invalid
// if never flushed).
func (t *Table) SmallPageAddr(sp int) addr.PhysAddr {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	if sp < 0 || sp >= len(t.tiny) {
		return 0
	}
	return t.tiny[sp]
}

// TinyTable returns a copy of the tiny table for the checkpoint record.
func (t *Table) TinyTable() []addr.PhysAddr {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	return append([]addr.PhysAddr(nil), t.tiny...)
}

// LoadFromTiny rebuilds the small table at recovery: the tiny table comes
// from the checkpoint record; each small page is read via the loader.
// Small pages that were never flushed contribute unmapped ranges.
func (t *Table) LoadFromTiny(tiny []addr.PhysAddr) error {
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	if t.loader == nil {
		return errors.New("mapping: no loader installed")
	}
	t.tiny = append([]addr.PhysAddr(nil), tiny...)
	t.small = t.small[:0]
	for sp, a := range tiny {
		if !a.IsValid() {
			continue
		}
		raw, err := t.loader(a)
		if err != nil {
			return fmt.Errorf("mapping: load small page %d: %w", sp, err)
		}
		p, err := decodePage(raw, sp, addrsPerSmallPage)
		if err != nil {
			return err
		}
		lo := sp * addrsPerSmallPage
		for i, e := range p.entries {
			for lo+i >= len(t.small) {
				t.small = append(t.small, 0)
			}
			t.small[lo+i] = e
		}
	}
	return nil
}

// MinRecLSN returns the smallest LSN that dirtied any cached mapping page
// or small page (0 if nothing is dirty). Used for the truncation LSN
// (§VIII-B).
func (t *Table) MinRecLSN() record.LSN {
	var min record.LSN
	consider := func(l record.LSN) {
		if l != 0 && (min == 0 || l < min) {
			min = l
		}
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, p := range sh.pages {
			if p.dirty {
				consider(p.recLSN)
			}
		}
		sh.mu.Unlock()
	}
	t.tablesMu.Lock()
	for _, l := range t.smallDirty {
		consider(l)
	}
	t.tablesMu.Unlock()
	return min
}

// DropCache discards all cached pages and volatile state (crash
// simulation). The small/tiny tables are volatile too; recovery rebuilds
// them.
func (t *Table) DropCache() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.pages = make(map[int]*page)
		sh.mu.Unlock()
	}
	t.tablesMu.Lock()
	t.small = nil
	t.smallDirty = make(map[int]record.LSN)
	t.smallSince = make(map[int]record.LSN)
	t.tiny = nil
	t.tablesMu.Unlock()
}

// --- page images -----------------------------------------------------------

const pageMagic = 0x4D415050 // "MAPP"

// encodePage lays out: magic u32 | idx u32 | count u32 | entries 8B each |
// crc u32, padded to the 64-byte LPAGE alignment.
func encodePage(entries []addr.PhysAddr, idx int) []byte {
	n := 12 + len(entries)*8 + 4
	buf := make([]byte, addr.AlignUp(n))
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(idx))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entries)))
	off := 12
	for _, e := range entries {
		binary.LittleEndian.PutUint64(buf[off:], uint64(e))
		off += 8
	}
	crc := crc32.ChecksumIEEE(buf[:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return buf
}

// ErrBadPage reports a corrupt table page image.
var ErrBadPage = errors.New("mapping: bad table page image")

func decodePage(raw []byte, wantIdx, wantEntries int) (*page, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("%w: short", ErrBadPage)
	}
	if binary.LittleEndian.Uint32(raw[0:]) != pageMagic {
		return nil, fmt.Errorf("%w: magic", ErrBadPage)
	}
	idx := int(binary.LittleEndian.Uint32(raw[4:]))
	count := int(binary.LittleEndian.Uint32(raw[8:]))
	if idx != wantIdx {
		return nil, fmt.Errorf("%w: index %d, want %d", ErrBadPage, idx, wantIdx)
	}
	if count != wantEntries {
		return nil, fmt.Errorf("%w: %d entries, want %d", ErrBadPage, count, wantEntries)
	}
	need := 12 + count*8 + 4
	if len(raw) < need {
		return nil, fmt.Errorf("%w: truncated", ErrBadPage)
	}
	if crc32.ChecksumIEEE(raw[:12+count*8]) != binary.LittleEndian.Uint32(raw[12+count*8:]) {
		return nil, fmt.Errorf("%w: checksum", ErrBadPage)
	}
	p := &page{entries: make([]addr.PhysAddr, count)}
	for i := 0; i < count; i++ {
		p.entries[i] = addr.PhysAddr(binary.LittleEndian.Uint64(raw[12+i*8:]))
	}
	return p, nil
}
