// Package readcache provides the server-side read cache for the
// production read path: a variable-size-page cache sized in bytes (pages
// in this system range from tiny log records to full WBLOCKs, so an
// entry-count budget would be meaningless), evicting in LRU order with an
// ARC-style ghost list that remembers recently evicted keys and grants
// re-admitted entries a second chance before the next eviction.
//
// The cache is deliberately dumb about coherence: it never reads flash
// and never looks at the mapping table. The owning controller drives it —
// Invalidate on every mapping install and GC relocation, a fresh cache on
// every crash→Open — so the only coherence rule the cache itself enforces
// is the single-flight poison protocol: a Flight registered before the
// owner's mapping lookup is poisoned by any concurrent Invalidate, which
// guarantees a fill racing an install can deliver its (then-current)
// bytes to waiters but can never install stale bytes into the cache.
//
// Lock order: the controller's mutex is always taken before the cache's;
// the cache calls back into nothing.
package readcache

import (
	"container/list"
	"sync"

	"eleos/internal/metrics"
)

// Config sizes the cache.
type Config struct {
	// CapacityBytes is the byte budget for cached page payloads.
	CapacityBytes int64
	// Metrics registers the read.cache_* instruments; nil leaves the
	// cache uninstrumented.
	Metrics *metrics.Registry
}

// entry is one cached page.
type entry struct {
	key  uint64
	data []byte
	// hot grants one extra LRU round-trip: set when the key was found in
	// the ghost list at insert (it was recently evicted and came back —
	// the ARC "frequency" signal) or on a cache hit.
	hot bool
}

// Flight is one in-flight fill. The leader loads from flash and calls
// Cache.Complete; everyone else blocks in Wait. A Flight poisoned by
// Invalidate still delivers its bytes to waiters — they looked up before
// the install, so those bytes are a legal read result — but the bytes are
// not cached.
type Flight struct {
	done     chan struct{}
	data     []byte
	err      error
	poisoned bool
}

// Wait blocks until the leader completes the fill and returns its result.
func (f *Flight) Wait() ([]byte, error) {
	<-f.done
	return f.data, f.err
}

// Cache is a byte-budget LRU with ghost list and single-flight fills.
// All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	lru      *list.List               // front = MRU; values are *entry
	index    map[uint64]*list.Element // key -> lru element
	flights  map[uint64]*Flight
	ghost    *list.List               // front = most recently evicted; values are uint64 keys
	ghostIdx map[uint64]*list.Element // key -> ghost element
	ghostCap int

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	ghostHits *metrics.Counter
	bytesG    *metrics.Gauge
	entriesG  *metrics.Gauge
}

// New creates a cache. A non-positive capacity yields a cache that never
// stores anything but still single-flights concurrent fills.
func New(cfg Config) *Cache {
	c := &Cache{
		capacity: cfg.CapacityBytes,
		lru:      list.New(),
		index:    make(map[uint64]*list.Element),
		flights:  make(map[uint64]*Flight),
		ghost:    list.New(),
		ghostIdx: make(map[uint64]*list.Element),
		ghostCap: max(int(cfg.CapacityBytes/512), 64), // one key per plausible entry (512 B), at least 64
	}
	reg := cfg.Metrics // nil hands out nil, no-op instruments
	c.hits = reg.Counter("read.cache_hits")
	c.misses = reg.Counter("read.cache_misses")
	c.evictions = reg.Counter("read.cache_evictions")
	c.ghostHits = reg.Counter("read.cache_ghost_hits")
	c.bytesG = reg.Gauge("read.cached_bytes")
	c.entriesG = reg.Gauge("read.cache_entries")
	return c
}

// CapacityBytes returns the configured byte budget.
func (c *Cache) CapacityBytes() int64 { return c.capacity }

// Bytes returns the bytes currently cached.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// GetOrStart is the miss-coalescing lookup. Exactly one of three shapes
// comes back:
//
//	data != nil:              cache hit; data aliases the immutable cached
//	                          payload (safe: payloads are never mutated,
//	                          eviction only drops the reference).
//	flight != nil, !leader:   another goroutine is filling this key;
//	                          call flight.Wait().
//	flight != nil, leader:    the caller owns the fill: load from flash
//	                          and call Complete (on error too, or waiters
//	                          hang).
//
// Callers must register the flight BEFORE their mapping lookup so that a
// concurrent install's Invalidate poisons the fill (see package comment).
func (c *Cache) GetOrStart(key uint64) (data []byte, flight *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		e.hot = true
		c.lru.MoveToFront(el)
		c.hits.Inc()
		return e.data, nil, false
	}
	c.misses.Inc()
	if f, ok := c.flights[key]; ok {
		return nil, f, false
	}
	f := &Flight{done: make(chan struct{})}
	c.flights[key] = f
	return nil, f, true
}

// Complete finishes a leader's fill: waiters wake with (data, err), and
// on success the payload is cached unless the flight was poisoned by an
// Invalidate or the fill errored.
func (c *Cache) Complete(key uint64, f *Flight, data []byte, err error) {
	c.mu.Lock()
	f.data, f.err = data, err
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if err == nil && !f.poisoned && data != nil {
		c.insertLocked(key, data)
	}
	c.mu.Unlock()
	close(f.done)
}

// Get is a plain lookup with no fill protocol, for callers that fall back
// to an uncoalesced flash read on miss.
func (c *Cache) Get(key uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		e.hot = true
		c.lru.MoveToFront(el)
		c.hits.Inc()
		return e.data, true
	}
	c.misses.Inc()
	return nil, false
}

// Invalidate removes the key's entry and poisons any in-flight fill, so a
// racing load can no longer install bytes read under the old mapping. The
// flight is also unregistered: a lookup arriving after the install starts
// a fresh fill against the new mapping instead of joining the stale one.
// Called by the controller on every mapping install and GC relocation.
func (c *Cache) Invalidate(key uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.removeLocked(el, false)
	}
	if f, ok := c.flights[key]; ok {
		f.poisoned = true
		delete(c.flights, key)
	}
}

// insertLocked admits a payload, evicting from the LRU tail until the
// byte budget holds. Payloads larger than the whole budget are not
// cached.
func (c *Cache) insertLocked(key uint64, data []byte) {
	if int64(len(data)) > c.capacity {
		return
	}
	if el, ok := c.index[key]; ok {
		// Possible when Complete races another leader after an
		// Invalidate cycle; keep the newer payload.
		c.removeLocked(el, false)
	}
	e := &entry{key: key, data: data}
	if gel, ok := c.ghostIdx[key]; ok {
		// Recently evicted and back again: the ARC frequency signal.
		c.ghost.Remove(gel)
		delete(c.ghostIdx, key)
		e.hot = true
		c.ghostHits.Inc()
	}
	c.index[key] = c.lru.PushFront(e)
	c.bytes += int64(len(data))
	for c.bytes > c.capacity {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		te := tail.Value.(*entry)
		if te.hot && tail != c.lru.Front() {
			// Second chance: one extra round-trip for hot entries.
			te.hot = false
			c.lru.MoveToFront(tail)
			continue
		}
		c.removeLocked(tail, true)
		c.evictions.Inc()
	}
	c.bytesG.Set(c.bytes)
	c.entriesG.Set(int64(c.lru.Len()))
}

// removeLocked drops an entry; toGhost remembers its key in the ghost
// list (evictions do, invalidations must not — an invalidated key coming
// back is a fresh write, not a frequency signal).
func (c *Cache) removeLocked(el *list.Element, toGhost bool) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.index, e.key)
	c.bytes -= int64(len(e.data))
	if toGhost {
		if gel, ok := c.ghostIdx[e.key]; ok {
			c.ghost.Remove(gel)
		}
		c.ghostIdx[e.key] = c.ghost.PushFront(e.key)
		for c.ghost.Len() > c.ghostCap {
			old := c.ghost.Back()
			delete(c.ghostIdx, old.Value.(uint64))
			c.ghost.Remove(old)
		}
	}
	c.bytesG.Set(c.bytes)
	c.entriesG.Set(int64(c.lru.Len()))
}
