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

// The read path (§V, made concurrent).
//
// Reads no longer hold the global controller lock across the flash
// transfer. A read is: a short c.mu section that resolves the mapping and
// pins the target EBLOCK, the flash ReadExtent with c.mu released, and a
// second short c.mu section that unpins. The pin is the read/installation
// fence — it extends the pinned-EBLOCK protocol that already protects the
// commit-force window of writes to readers:
//
//   - GC victim selection (selectVictimLocked) skips pinned EBLOCKs, and
//     migration/checkpoint force-close wait on ioCond for pins to drain
//     (waitInflightLocked), so an EBLOCK can never be erased between a
//     reader's lookup and its flash transfer;
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
// wrapped in the cache's single-flight protocol: the Flight is registered
// BEFORE the locked lookup, so a mapping install racing the fill — which
// invalidates the LPID under c.mu — always poisons the fill and the cache
// can never retain pre-install bytes. See internal/readcache.

// Read returns the current content of an LPAGE (§V). The mapping table
// yields the physical address (with exact length); the covering RBLOCKs
// are transferred and the exact extent is returned — adjacent LPAGEs'
// bytes are never revealed.
func (c *Controller) Read(lpid addr.LPID) ([]byte, error) {
	t0 := time.Now()
	var data []byte
	var err error
	if c.rcache != nil {
		data, err = c.readCached(lpid)
	} else {
		data, err = c.readFenced(lpid)
	}
	if err != nil {
		return nil, err
	}
	c.met.reads.Inc()
	c.met.readNS.ObserveDuration(time.Since(t0))
	return data, nil
}

// readCached serves one page through the cache's single-flight protocol.
// The dead-controller check is the lock-free mirror: a cache hit must not
// touch c.mu, but a dead controller still rejects every call.
func (c *Controller) readCached(lpid addr.LPID) ([]byte, error) {
	if c.crashedA.Load() {
		return nil, ErrCrashed
	}
	data, f, leader := c.rcache.GetOrStart(uint64(lpid))
	if data != nil {
		c.trc.Emit(trace.KReadCacheHit, 0, 0, 0, int64(lpid), int64(len(data)))
		return data, nil
	}
	if !leader {
		data, err := f.Wait()
		if err != nil {
			// The leader's load failed for ITS lookup; retry ours once
			// rather than propagate a possibly unrelated error.
			if data, err2 := c.readFenced(lpid); err2 == nil {
				return data, nil
			}
			return nil, err
		}
		return data, nil
	}
	data, err := c.readFenced(lpid)
	c.rcache.Complete(uint64(lpid), f, data, err)
	return data, err
}

// readFenced is the concurrent fenced flash read: lookup+pin under c.mu,
// ReadExtent outside it, unpin under c.mu again.
func (c *Controller) readFenced(lpid addr.LPID) ([]byte, error) {
	tl := time.Now()
	c.mu.Lock()
	a, err := c.lookupLocked(lpid)
	if err != nil {
		c.mu.Unlock()
		if errors.Is(err, ErrNotFound) {
			c.met.readNotFound.Inc()
		}
		return nil, err
	}
	key := [2]int{a.Channel(), a.EBlock()}
	c.pinned[key]++
	c.mu.Unlock()
	c.trc.Span(trace.KReadLookup, 0, 0, 0, tl, int64(lpid), 0)

	tf := time.Now()
	data, nR, rerr := c.dev.ReadExtent(a.Channel(), a.EBlock(), a.Offset(), a.Length())
	c.trc.Span(trace.KReadFlash, 0, 0, 0, tf, int64(lpid), int64(len(data)))

	c.mu.Lock()
	c.unpinReadLocked(key)
	c.mu.Unlock()
	if rerr != nil {
		return nil, rerr
	}
	c.met.readFlashLoads.Inc()
	c.met.readRBlocks.Add(int64(nR))
	return data, nil
}

// ReadBatch reads many LPAGEs at once, scatter-gathering the flash
// transfers through the per-channel I/O workers: one locked pass resolves
// and pins every address, the device executes the per-channel segments
// concurrently, and one more locked pass unpins. The result slice is
// indexed like lpids; an unmapped LPID yields a nil entry (the batch
// succeeds — per-page absence is data, not failure). With a cache
// configured, hits and coalesced in-flight fills are served without
// touching flash, and only the remaining misses are submitted.
func (c *Controller) ReadBatch(lpids []addr.LPID) ([][]byte, error) {
	if len(lpids) == 0 {
		return nil, nil
	}
	if c.crashedA.Load() {
		return nil, ErrCrashed
	}
	t0 := time.Now()
	out := make([][]byte, len(lpids))

	// Cache pass: serve hits, join in-flight fills, claim leaderships.
	// flights[i] != nil marks a slot this call must fill and Complete.
	var flights []*flightSlot
	var waiters []waitSlot
	load := lpids
	loadIdx := make([]int, 0, len(lpids))
	if c.rcache != nil {
		load = load[:0:0]
		for i, lpid := range lpids {
			data, f, leader := c.rcache.GetOrStart(uint64(lpid))
			switch {
			case data != nil:
				c.trc.Emit(trace.KReadCacheHit, 0, 0, 0, int64(lpid), int64(len(data)))
				out[i] = data
			case leader:
				flights = append(flights, &flightSlot{i: i, f: f})
				load = append(load, lpid)
				loadIdx = append(loadIdx, i)
			default:
				waiters = append(waiters, waitSlot{i: i, f: f})
			}
		}
	} else {
		for i := range lpids {
			loadIdx = append(loadIdx, i)
		}
	}

	var firstErr error
	if len(load) > 0 {
		errsAt, err := c.readManyFenced(load, loadIdx, out)
		firstErr = err
		// Complete leaderships (on error too, or waiters hang). flights
		// and load were appended in lockstep, so flights[fi] owns load
		// slot fi. A page that resolved to nothing completes with the
		// typed not-found error so single-page waiters on the same
		// flight see it, not a silent nil.
		for fi, fs := range flights {
			ferr := firstErr
			if ferr == nil && errsAt != nil {
				ferr = errsAt[fi]
			}
			if ferr == nil && out[fs.i] == nil {
				ferr = fmt.Errorf("%w: %d", ErrNotFound, lpids[fs.i])
			}
			c.rcache.Complete(uint64(lpids[fs.i]), fs.f, out[fs.i], ferr)
		}
	}
	for _, ws := range waiters {
		data, err := ws.f.Wait()
		if err != nil {
			// Retry this page alone; its leader's failure may not be ours.
			data, err = c.readFenced(lpids[ws.i])
			if err != nil && !IsNotFound(err) {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		out[ws.i] = data
	}
	if firstErr != nil {
		return nil, firstErr
	}
	c.met.readBatches.Inc()
	c.met.reads.Add(int64(len(lpids)))
	c.met.readNS.ObserveDuration(time.Since(t0))
	return out, nil
}

type flightSlot struct {
	i int // index into lpids/out
	f *readcache.Flight
}

type waitSlot struct {
	i int // index into lpids/out
	f *readcache.Flight
}

// readManyFenced resolves, pins, scatter-reads and unpins a set of LPIDs,
// writing results into out at outIdx. It returns per-load errors (nil
// slice when all loads succeeded; not-found is recorded as a nil page,
// not an error) and the first hard media error, if any.
func (c *Controller) readManyFenced(load []addr.LPID, outIdx []int, out [][]byte) ([]error, error) {
	tl := time.Now()
	type pinned struct {
		key  [2]int
		cmd  flash.ReadCmd
		slot int // index into load/outIdx
	}
	pins := make([]pinned, 0, len(load))
	notFound := 0
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return nil, ErrCrashed
	}
	for si, lpid := range load {
		a, err := c.lookupLocked(lpid)
		if err != nil {
			notFound++
			continue // unmapped: nil entry
		}
		key := [2]int{a.Channel(), a.EBlock()}
		c.pinned[key]++
		pins = append(pins, pinned{
			key: key,
			cmd: flash.ReadCmd{
				Channel: a.Channel(), EBlock: a.EBlock(),
				Offset: a.Offset(), Length: a.Length(),
				Index: len(pins),
			},
			slot: si,
		})
	}
	c.mu.Unlock()
	c.trc.Span(trace.KReadLookup, 0, 0, 0, tl, int64(len(load)), int64(len(pins)))
	c.met.readNotFound.Add(int64(notFound))
	if len(pins) == 0 {
		return nil, nil
	}

	tf := time.Now()
	cmds := make([]flash.ReadCmd, len(pins))
	for i, p := range pins {
		cmds[i] = p.cmd
	}
	results := c.dev.SubmitReads(len(pins), cmds).Wait()
	c.trc.Span(trace.KReadFlash, 0, 0, 0, tf, int64(len(pins)), 0)

	var errsAt []error
	var firstErr error
	var nPages, nRBlocks int64
	for i, p := range pins {
		res := results[i]
		if res.Err != nil {
			if errsAt == nil {
				errsAt = make([]error, len(load))
			}
			errsAt[p.slot] = res.Err
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		out[outIdx[p.slot]] = res.Data
		nPages++
		nRBlocks += int64(res.RBlocks)
	}
	c.met.readFlashLoads.Add(nPages)
	c.met.readRBlocks.Add(nRBlocks)

	c.mu.Lock()
	for _, p := range pins {
		if c.pinned[p.key]--; c.pinned[p.key] <= 0 {
			delete(c.pinned, p.key)
		}
	}
	c.ioCond.Broadcast()
	c.mu.Unlock()
	return errsAt, firstErr
}

// lookupLocked resolves an LPID under c.mu, returning typed errors:
// ErrCrashed on a dead controller, ErrNotFound (wrapped with the LPID)
// when unmapped.
func (c *Controller) lookupLocked(lpid addr.LPID) (addr.PhysAddr, error) {
	if c.crashed {
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

// unpinReadLocked releases one reader pin and wakes pin-drain waiters
// (GC, checkpoint and migration wait on ioCond).
func (c *Controller) unpinReadLocked(key [2]int) {
	if c.pinned[key]--; c.pinned[key] <= 0 {
		delete(c.pinned, key)
	}
	c.ioCond.Broadcast()
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

// Exists reports whether an LPID is currently mapped, holding c.mu only
// for the lookup.
func (c *Controller) Exists(lpid addr.LPID) (bool, error) {
	c.mu.Lock()
	a, err := c.lookupLocked(lpid)
	c.mu.Unlock()
	if err != nil {
		if IsNotFound(err) {
			return false, nil
		}
		return false, err
	}
	return a.IsValid(), nil
}

// IsNotFound reports whether err is the typed not-found error every
// metadata query returns for an unmapped LPID.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }
