// Package bwtree implements the key-value store used in the paper's
// evaluation (§IX-A3): a Bw-tree modified exactly as the authors describe —
// updates are applied in place on pages (no delta chains), the tree no
// longer tracks SSD locations of its pages (the batch interface's LPIDs
// replace that), and host garbage collection is delegated to the page
// store.
//
// Pages are variable size up to a maximum (4 KB in the paper); a buffer
// cache sized as a fraction of the dataset holds decoded leaves, and dirty
// leaves evicted from the cache accumulate in a write buffer (1 MB in the
// paper) that is flushed to the PageStore as one batch. The interior
// search layer is held in memory, as interior nodes are a fraction of a
// percent of the data and always cache-resident in the paper's runs.
package bwtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Page is one serialized tree page handed to the page store.
type Page struct {
	PID  uint64
	Data []byte
}

// PageStore abstracts the storage backend: ELEOS batch (variable or fixed
// pages) or a host log-structured store over a block SSD.
type PageStore interface {
	// FlushBatch durably writes a buffer of pages as one batch.
	FlushBatch(pages []Page) error
	// ReadPage returns the latest version of a page.
	ReadPage(pid uint64) ([]byte, error)
	// BytesWritten reports total bytes sent to the SSD (Fig. 10(b)).
	BytesWritten() int64
}

// Config tunes the tree.
type Config struct {
	MaxPageBytes     int   // split threshold (paper: 4 KB)
	WriteBufferBytes int   // flush threshold (paper: 1 MB)
	CacheBytes       int64 // buffer cache capacity
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{MaxPageBytes: 4096, WriteBufferBytes: 1 << 20, CacheBytes: 64 << 20}
}

// Errors.
var (
	ErrNotFound = errors.New("bwtree: key not found")
	ErrBadPage  = errors.New("bwtree: bad page image")
)

// Stats counts tree activity.
type Stats struct {
	Lookups     int64
	Updates     int64
	Inserts     int64
	CacheHits   int64
	CacheMisses int64
	Evictions   int64
	Splits      int64
	Flushes     int64
	PagesOut    int64
}

type leaf struct {
	keys  []uint64
	vals  [][]byte
	bytes int // serialized size
	dirty bool
}

const (
	pageHeader  = 8 // magic u32 + count u32
	recOverhead = 12
)

func (l *leaf) size() int { return pageHeader + l.bytes }

// Tree is the Bw-tree store. Safe for concurrent use.
type Tree struct {
	mu    sync.Mutex
	store PageStore
	cfg   Config

	bounds  []bound // sorted by min key; leaf i covers [min_i, min_{i+1})
	cache   map[uint64]*leaf
	lru     []uint64
	used    int64
	nextPID uint64

	writeBuf      []Page
	writeBufBytes int
	buffered      map[uint64][]byte // pages in writeBuf, readable until flushed

	stats Stats
}

type bound struct {
	min uint64
	pid uint64
}

// New creates an empty tree over the store.
func New(store PageStore, cfg Config) (*Tree, error) {
	if cfg.MaxPageBytes < 64 || cfg.WriteBufferBytes < cfg.MaxPageBytes {
		return nil, errors.New("bwtree: bad page/buffer sizes")
	}
	if cfg.CacheBytes < int64(cfg.MaxPageBytes) {
		return nil, errors.New("bwtree: cache smaller than one page")
	}
	t := &Tree{
		store:    store,
		cfg:      cfg,
		cache:    make(map[uint64]*leaf),
		buffered: make(map[uint64][]byte),
		nextPID:  1,
	}
	// One empty root leaf covering the whole key space.
	t.bounds = []bound{{min: 0, pid: t.allocPID()}}
	t.cache[t.bounds[0].pid] = &leaf{dirty: true}
	return t, nil
}

func (t *Tree) allocPID() uint64 {
	pid := t.nextPID
	t.nextPID++
	return pid
}

// Stats returns a snapshot of the counters.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// leafFor returns the index in bounds covering key.
func (t *Tree) leafFor(key uint64) int {
	i := sort.Search(len(t.bounds), func(i int) bool { return t.bounds[i].min > key })
	return i - 1
}

func (t *Tree) touch(pid uint64) {
	for i, v := range t.lru {
		if v == pid {
			t.lru = append(append(t.lru[:i], t.lru[i+1:]...), pid)
			return
		}
	}
	t.lru = append(t.lru, pid)
}

// loadLocked returns the decoded leaf, reading it from the store on a miss.
func (t *Tree) loadLocked(pid uint64) (*leaf, error) {
	if l, ok := t.cache[pid]; ok {
		t.stats.CacheHits++
		t.touch(pid)
		return l, nil
	}
	t.stats.CacheMisses++
	raw, ok := t.buffered[pid]
	if !ok {
		var err error
		raw, err = t.store.ReadPage(pid)
		if err != nil {
			return nil, err
		}
	}
	l, err := decodeLeaf(raw)
	if err != nil {
		return nil, err
	}
	t.cache[pid] = l
	t.used += int64(l.size())
	t.touch(pid)
	return l, t.evictLocked(pid)
}

// evictLocked evicts LRU leaves while the cache is over budget; dirty
// victims enter the write buffer (§IX-A3's write path).
func (t *Tree) evictLocked(keep uint64) error {
	for t.used > t.cfg.CacheBytes && len(t.lru) > 1 {
		victim := uint64(0)
		for _, pid := range t.lru {
			if pid != keep {
				victim = pid
				break
			}
		}
		if victim == 0 {
			return nil
		}
		l := t.cache[victim]
		if l.dirty {
			if err := t.bufferPageLocked(victim, l); err != nil {
				return err
			}
		}
		delete(t.cache, victim)
		for i, v := range t.lru {
			if v == victim {
				t.lru = append(t.lru[:i], t.lru[i+1:]...)
				break
			}
		}
		t.used -= int64(l.size())
		t.stats.Evictions++
	}
	return nil
}

// bufferPageLocked serializes a dirty leaf into the write buffer, flushing
// the buffer when it reaches the configured size.
func (t *Tree) bufferPageLocked(pid uint64, l *leaf) error {
	img := encodeLeaf(l)
	t.writeBuf = append(t.writeBuf, Page{PID: pid, Data: img})
	t.buffered[pid] = img
	t.writeBufBytes += l.size()
	l.dirty = false
	if t.writeBufBytes >= t.cfg.WriteBufferBytes {
		return t.flushBufLocked()
	}
	return nil
}

func (t *Tree) flushBufLocked() error {
	if len(t.writeBuf) == 0 {
		return nil
	}
	if err := t.store.FlushBatch(t.writeBuf); err != nil {
		return err
	}
	t.stats.Flushes++
	t.stats.PagesOut += int64(len(t.writeBuf))
	t.writeBuf = nil
	t.writeBufBytes = 0
	t.buffered = make(map[uint64][]byte)
	return nil
}

// FlushAll writes out every dirty page, in ascending PID order, and
// drains the write buffer. The order is fixed (not the cache map's) so
// that the page-write traces and store contents the paper experiments
// replay are the same on every run.
func (t *Tree) FlushAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dirty []uint64
	for pid, l := range t.cache {
		if l.dirty {
			dirty = append(dirty, pid)
		}
	}
	slices.Sort(dirty)
	for _, pid := range dirty {
		if err := t.bufferPageLocked(pid, t.cache[pid]); err != nil {
			return err
		}
	}
	return t.flushBufLocked()
}

// Set inserts or updates a record (in place — the paper's modified
// Bw-tree).
func (t *Tree) Set(key uint64, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bi := t.leafFor(key)
	l, err := t.loadLocked(t.bounds[bi].pid)
	if err != nil {
		return err
	}
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		t.used += int64(len(val) - len(l.vals[i]))
		l.bytes += len(val) - len(l.vals[i])
		l.vals[i] = append([]byte(nil), val...)
		t.stats.Updates++
	} else {
		l.keys = append(l.keys, 0)
		copy(l.keys[i+1:], l.keys[i:])
		l.keys[i] = key
		l.vals = append(l.vals, nil)
		copy(l.vals[i+1:], l.vals[i:])
		l.vals[i] = append([]byte(nil), val...)
		l.bytes += recOverhead + len(val)
		t.used += int64(recOverhead + len(val))
		t.stats.Inserts++
	}
	l.dirty = true
	if l.size() > t.cfg.MaxPageBytes {
		t.splitLocked(bi, l)
	}
	return t.evictLocked(t.bounds[t.leafFor(key)].pid)
}

// splitLocked splits an oversized leaf at its byte midpoint.
func (t *Tree) splitLocked(bi int, l *leaf) {
	half := l.bytes / 2
	acc := 0
	cut := 0
	for i := range l.keys {
		acc += recOverhead + len(l.vals[i])
		if acc >= half {
			cut = i + 1
			break
		}
	}
	if cut == 0 || cut >= len(l.keys) {
		return // single giant record: cannot split further
	}
	right := &leaf{
		keys:  append([]uint64(nil), l.keys[cut:]...),
		vals:  append([][]byte(nil), l.vals[cut:]...),
		dirty: true,
	}
	for i := range right.vals {
		right.bytes += recOverhead + len(right.vals[i])
	}
	l.keys = l.keys[:cut]
	l.vals = l.vals[:cut]
	l.bytes -= right.bytes
	l.dirty = true
	t.used -= int64(right.bytes) // the left leaf shrank by the moved records

	pid := t.allocPID()
	t.cache[pid] = right
	t.used += int64(right.size())
	t.touch(pid)
	nb := bound{min: right.keys[0], pid: pid}
	t.bounds = append(t.bounds, bound{})
	copy(t.bounds[bi+2:], t.bounds[bi+1:])
	t.bounds[bi+1] = nb
	t.stats.Splits++
}

// Get returns the value for key.
func (t *Tree) Get(key uint64) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Lookups++
	bi := t.leafFor(key)
	l, err := t.loadLocked(t.bounds[bi].pid)
	if err != nil {
		return nil, err
	}
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i >= len(l.keys) || l.keys[i] != key {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	out := append([]byte(nil), l.vals[i]...)
	return out, t.evictLocked(t.bounds[bi].pid)
}

// Len returns the number of leaves.
func (t *Tree) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.bounds)
}

// AvgLeafFill returns the mean serialized leaf size divided by the max
// page size — the B-tree storage utilization the paper puts at ~70%
// (§I-B). Only cached leaves are sampled.
func (t *Tree) AvgLeafFill() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cache) == 0 {
		return 0
	}
	total := 0
	for _, l := range t.cache {
		total += l.size()
	}
	return float64(total) / float64(len(t.cache)) / float64(t.cfg.MaxPageBytes)
}

// --- page images -------------------------------------------------------------

const leafMagic = 0x42574C46 // "BWLF"

func encodeLeaf(l *leaf) []byte {
	buf := make([]byte, pageHeader, l.size())
	binary.LittleEndian.PutUint32(buf[0:], leafMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(l.keys)))
	for i, k := range l.keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.vals[i])))
		buf = append(buf, l.vals[i]...)
	}
	return buf
}

func decodeLeaf(raw []byte) (*leaf, error) {
	if len(raw) < pageHeader || binary.LittleEndian.Uint32(raw[0:]) != leafMagic {
		return nil, ErrBadPage
	}
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	l := &leaf{keys: make([]uint64, 0, n), vals: make([][]byte, 0, n)}
	off := pageHeader
	for i := 0; i < n; i++ {
		if off+recOverhead > len(raw) {
			return nil, ErrBadPage
		}
		k := binary.LittleEndian.Uint64(raw[off:])
		vl := int(binary.LittleEndian.Uint32(raw[off+8:]))
		off += recOverhead
		if vl < 0 || off+vl > len(raw) {
			return nil, ErrBadPage
		}
		l.keys = append(l.keys, k)
		l.vals = append(l.vals, append([]byte(nil), raw[off:off+vl]...))
		l.bytes += recOverhead + vl
		off += vl
	}
	return l, nil
}
