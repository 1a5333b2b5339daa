package core

import (
	"errors"
	"fmt"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/readcache"
	"eleos/internal/trace"
)

// The read path (§V, made concurrent): one path, for one page or many.
//
// Reads do not hold the global controller lock across the flash transfer.
// A read is: a short c.mu section that resolves the mappings and pins the
// target EBLOCKs, the media reads with c.mu released, and a second short
// c.mu section that unpins (readFenced). The pin is the read/installation
// fence — it extends the pinned-EBLOCK protocol that already protects the
// commit-force window of writes to readers:
//
//   - GC victim selection (selectVictimLocked) skips pinned EBLOCKs,
//     migration waits on ioCond for pins to drain (waitInflightLocked) and
//     the erase path for a reader that pinned a victim during its metadata
//     read, so no EBLOCK is erased between a lookup and its transfer;
//   - the lookup and the pin happen atomically under c.mu, and every
//     mapping install and relocation also runs under c.mu, so a pinned
//     address is current at pin time and the pinned EBLOCK keeps its
//     bytes until the unpin — the read returns either the version that
//     was current at lookup or (trivially) the same bytes relocated
//     elsewhere, never erased flash.
//
// Readers use the same c.pinned map as writers, so the quiesce invariant
// ("PinnedEBlocks()==0 after drain") covers them, and the chaos checker
// needs no new bookkeeping.
//
// With a read cache configured (Config.ReadCacheBytes), the fence is
// wrapped in the cache's single-flight protocol (readPages): the Flight is
// registered BEFORE the locked lookup, so a mapping install racing the
// fill — which invalidates the LPID under c.mu — always poisons the fill
// and the cache can never retain pre-install bytes. See internal/readcache.

// pageRead is one page of a read: its LPID going in, its bytes or its error
// coming out. ErrNotFound is the only error that means "absent".
type pageRead struct {
	lpid addr.LPID
	data []byte
	err  error
	// load marks a page this call reads from flash. flight, set only with a
	// cache configured and no hit, is the page's in-flight fill: this call's
	// to Complete when load is set, another reader's to Wait for when not.
	load   bool
	flight *readcache.Flight
}

// Read returns the current content of an LPAGE (§V): a batch read of one
// page whose absence is ErrNotFound. The mapping table yields the physical
// address (with exact length); the covering RBLOCKs are transferred and the
// exact extent is returned — adjacent LPAGEs' bytes are never revealed.
func (c *Controller) Read(lpid addr.LPID) ([]byte, error) {
	t0 := time.Now()
	page := [1]pageRead{{lpid: lpid}}
	c.readPages(page[:])
	if page[0].err != nil {
		return nil, page[0].err
	}
	c.met.reads.Inc()
	c.met.readNS.ObserveDuration(time.Since(t0))
	return page[0].data, nil
}

// ReadBatch reads many LPAGEs at once: one flash.ReadAll gathers every
// page's extent on the calling goroutine, the channels overlapping in
// device time. The result slice is indexed like lpids; an unmapped LPID
// yields a nil entry (the batch succeeds — per-page absence is data, not
// failure), any other page error fails the batch. With a cache configured,
// hits and coalesced in-flight fills are served without touching flash,
// and only the remaining misses are read.
func (c *Controller) ReadBatch(lpids []addr.LPID) ([][]byte, error) {
	if len(lpids) == 0 {
		return nil, nil
	}
	t0 := time.Now()
	pages := make([]pageRead, len(lpids))
	for i, lpid := range lpids {
		pages[i].lpid = lpid
	}
	c.readPages(pages)
	out := make([][]byte, len(lpids))
	for i := range pages {
		if err := pages[i].err; err != nil && !IsNotFound(err) {
			return nil, err
		}
		out[i] = pages[i].data
	}
	c.met.readBatches.Inc()
	c.met.reads.Add(int64(len(lpids)))
	c.met.readNS.ObserveDuration(time.Since(t0))
	return out, nil
}

// readPages fills in every page's data or err. Without a cache it is the
// fenced read of all of them; with one it is the cache's single-flight pass
// around the fenced read of the misses this call leads: serve hits, claim
// leaderships, join the fills already in flight.
func (c *Controller) readPages(pages []pageRead) {
	// A cache hit must not touch c.mu, but a dead controller still rejects
	// every call.
	if c.port.dead() {
		for i := range pages {
			pages[i].err = ErrCrashed
		}
		return
	}
	loads := 0
	for i := range pages {
		p := &pages[i]
		p.load = true
		if c.rcache != nil {
			if p.data, p.flight, p.load = c.rcache.GetOrStart(uint64(p.lpid)); p.data != nil {
				c.trc.Emit(trace.KReadCacheHit, 0, 0, 0, int64(p.lpid), int64(len(p.data)))
			}
		}
		if p.load {
			loads++
		}
	}
	if loads > 0 {
		c.readFenced(pages)
	}
	if c.rcache == nil {
		return
	}
	// Complete every fill this call leads (on error too, or waiters hang)
	// before waiting on anyone else's: a later page of this call may have
	// joined an earlier one's flight. An unmapped page completes with its
	// typed not-found error, so waiters see that and not a silent nil.
	for i := range pages {
		if p := &pages[i]; p.load {
			c.rcache.Complete(uint64(p.lpid), p.flight, p.data, p.err)
		}
	}
	for i := range pages {
		p := &pages[i]
		if p.load || p.flight == nil {
			continue
		}
		if p.data, p.err = p.flight.Wait(); p.err != nil {
			// The leader's load failed for ITS lookup, which may not be
			// ours: retry this page alone.
			p.data, p.err, p.load = nil, nil, true
			c.readFenced(pages[i : i+1])
		}
	}
}

// readFenced is the one fenced flash read, of every page marked load:
// resolve and pin under c.mu, read every extent in one flash.ReadAll with
// the lock released, unpin under c.mu again and wake the pin-drain waiters
// (GC, checkpoint and migration wait on ioCond). A page whose lookup or
// media read fails gets that error and pins nothing.
func (c *Controller) readFenced(pages []pageRead) {
	type pin struct {
		i int // index into pages
		a addr.PhysAddr
	}
	var few [8]pin // with fewReads, on the stack for up to eight pages
	var fewReads [8]flash.Read
	pins := few[:0]
	tl := time.Now()
	looked, notFound := 0, 0
	c.mu.Lock()
	for i := range pages {
		p := &pages[i]
		if !p.load {
			continue
		}
		looked++
		a, err := c.lookupLocked(p.lpid)
		if err != nil {
			p.err = err
			if errors.Is(err, ErrNotFound) {
				notFound++
			}
			continue
		}
		key := [2]int{a.Channel(), a.EBlock()}
		c.pinned[key]++
		pins = append(pins, pin{i: i, a: a})
	}
	c.mu.Unlock()
	c.trc.Span(trace.KReadLookup, 0, 0, 0, tl, int64(looked), int64(len(pins)))
	if notFound > 0 {
		c.met.readNotFound.Add(int64(notFound))
	}
	if len(pins) == 0 {
		return
	}

	tf := time.Now()
	reads := fewReads[:0]
	for _, pn := range pins {
		p := &pages[pn.i]
		p.data = make([]byte, pn.a.Length())
		// The Read carries its one segment: no segment list to allocate.
		reads = append(reads, flash.Read{Channel: pn.a.Channel(), EBlock: pn.a.EBlock(), Seg: flash.ReadSeg{Off: pn.a.Offset(), Dst: p.data}})
	}
	c.port.readAll(reads)
	var nPages, nRBlocks int64
	for k, r := range reads {
		if r.Err != nil {
			p := &pages[pins[k].i]
			p.data, p.err = nil, r.Err
			continue
		}
		nPages++
		nRBlocks += int64(r.RBlocks)
	}
	c.trc.Span(trace.KReadFlash, 0, 0, 0, tf, int64(len(pins)), 0)
	c.met.readFlashLoads.Add(nPages)
	c.met.readRBlocks.Add(nRBlocks)

	c.mu.Lock()
	for _, pn := range pins {
		c.dropCount(c.pinned, [2]int{pn.a.Channel(), pn.a.EBlock()})
	}
	c.mu.Unlock()
}

// lookupLocked resolves an LPID under c.mu, returning typed errors:
// ErrCrashed on a dead controller, ErrNotFound (wrapped with the LPID)
// when unmapped.
func (c *Controller) lookupLocked(lpid addr.LPID) (addr.PhysAddr, error) {
	if c.port.dead() {
		return 0, ErrCrashed
	}
	a, err := c.mt.Get(lpid)
	if err != nil {
		return 0, err
	}
	if !a.IsValid() {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, lpid)
	}
	return a, nil
}

// invalidateRead drops an LPID from the read cache and poisons any
// in-flight fill. Must be called (under c.mu, like all installs) whenever
// the LPID's mapping changes: user-page install and GC relocation.
func (c *Controller) invalidateRead(lpid addr.LPID) {
	if c.rcache != nil {
		c.rcache.Invalidate(uint64(lpid))
	}
}

// Length returns the stored (aligned) length of an LPAGE without reading
// its data. Like Read it holds c.mu only for the mapping lookup.
func (c *Controller) Length(lpid addr.LPID) (int, error) {
	c.mu.Lock()
	a, err := c.lookupLocked(lpid)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return a.Length(), nil
}

// IsNotFound reports whether err is the typed not-found error every
// metadata query returns for an unmapped LPID.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }
