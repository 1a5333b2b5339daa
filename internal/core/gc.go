package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"eleos/internal/addr"
	"eleos/internal/bufpool"
	"eleos/internal/flash"
	"eleos/internal/provision"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/trace"
)

// maybeGCLocked starts a GC pass when some channel's free-EBLOCK fraction
// has fallen below the configured threshold (§VI), and reports whether it
// ran one. A trigger that finds a pass in flight starts no second one.
func (c *Controller) maybeGCLocked() bool {
	for ch := 0; ch < c.geo.Channels && !c.gcBusy; ch++ {
		if c.freeFractionLocked(ch) < c.cfg.GCFreeFraction {
			_ = c.gcPassLocked(-1, false) // counted in core.gc.errors
			return true
		}
	}
	return false
}

// gcAllLocked collects on all channels regardless of thresholds (used when
// provisioning runs out of space). It first takes a checkpoint so the log
// truncation LSN advances and truncated log EBLOCKs become reclaimable —
// under log-heavy workloads those are usually the bulk of the reclaimable
// space. The pass releases c.mu while it reads metadata and erases
// (DESIGN.md §4.1), so callers re-derive what they read before the call.
func (c *Controller) gcAllLocked() {
	if !c.inCheckpoint {
		_ = c.checkpointLocked()
	}
	_ = c.gcPassLocked(-1, true) // counted in core.gc.errors
}

// GCNow forces a GC pass on one channel (tests and benchmarks).
func (c *Controller) GCNow(ch int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.port.dead() {
		return ErrCrashed
	}
	return c.gcPassLocked(ch, true)
}

func (c *Controller) freeFractionLocked(ch int) float64 {
	return float64(c.st.FreeCount(ch)) / float64(c.geo.EBlocksPerChannel)
}

// gcPassLocked runs one GC pass, round-major: in each round every
// collecting channel selects, reads (c.mu released) and relocates one
// victim, then the round's victims are erased as one batch with c.mu
// released (eraseAndFreeLocked), so a channel sees select → read →
// relocate → erase → free → select. only ≥ 0 restricts the pass to that
// channel; force collects a victim in round 0 whatever the free fraction.
// Without force the channels below GCFreeFraction select by policy and
// relocate, and every other channel joins, up to the same high-water mark,
// with victims that need no relocation (DESIGN.md §4 decision 11). Passes
// never overlap: a caller waits for the one in flight. It returns the
// pass's first error and counts each in core.gc.errors.
func (c *Controller) gcPassLocked(only int, force bool) (first error) {
	for c.gcBusy {
		c.ioCond.Wait()
	}
	if c.port.dead() {
		return ErrCrashed
	}
	c.gcBusy = true
	defer func() {
		c.gcBusy = false
		c.ioCond.Broadcast()
	}()
	fail := func(err error) {
		c.met.gcErrors.Inc()
		if first == nil {
			first = err
		}
	}
	n := c.geo.Channels
	done, deadOnly := make([]bool, n), make([]bool, n)
	for ch := range done {
		done[ch] = only >= 0 && ch != only
		deadOnly[ch] = !force && c.freeFractionLocked(ch) >= c.cfg.GCFreeFraction
	}
	victims := make([][2]int, 0, n)
	for round := 0; round < c.cfg.GCMaxRounds; round++ {
		victims = victims[:0]
		for ch := 0; ch < n && !c.port.dead(); ch++ {
			if done[ch] {
				continue
			}
			done[ch] = true // unless this round collects a victim
			if (round > 0 || !force) && c.freeFractionLocked(ch) >= c.cfg.GCFreeFraction*1.5 {
				continue
			}
			eb, ok := c.selectVictimLocked(ch, deadOnly[ch])
			c.met.gcVictims.Inc()
			if !ok {
				continue
			}
			k := [2]int{ch, eb}
			c.inflight[k]++ // its collector's count: see eraseAndFreeLocked
			if err := c.gcEBlockLocked(ch, eb); err != nil {
				c.dropCount(c.inflight, k)
				fail(err)
				continue
			}
			victims = append(victims, k)
			done[ch] = false
		}
		if len(victims) > 0 && !c.port.dead() {
			if err := c.eraseAndFreeLocked(victims...); err != nil {
				fail(err)
			}
		}
		for _, k := range victims {
			c.dropCount(c.inflight, k)
		}
		if len(victims) == 0 || c.port.dead() {
			break
		}
	}
	return first
}

// selectVictimLocked picks a used EBLOCK to collect. It never offers an
// EBLOCK with inflight or pinned actions, takes a truncated log EBLOCK at
// once (no data movement), skips data EBLOCKs with nothing reclaimable,
// and ranks the rest by victimScore, lowest first. deadOnly restricts the
// choice to EBLOCKs with nothing to relocate: truncated log EBLOCKs and
// data EBLOCKs whose every data WBLOCK is reclaimable.
func (c *Controller) selectVictimLocked(ch int, deadOnly bool) (int, bool) {
	best, bestScore := -1, math.Inf(1)
	for _, eb := range c.st.UsedEBlocks(ch) {
		if c.inflight[[2]int{ch, eb}] > 0 || c.pinned[[2]int{ch, eb}] > 0 {
			// A concurrent action still has programs queued against this
			// EBLOCK (it fills and closes in the same plan, so it can be
			// Used before its last program lands), or has landed programs
			// but is still waiting on its commit force with c.mu released
			// and its mapping install pending. Either way the validity
			// scan would see its pages as unreferenced and erasing the
			// EBLOCK would lose committed data; skip it this round.
			continue
		}
		d, err := c.st.Desc(ch, eb)
		if err != nil {
			continue
		}
		if d.Stream == record.StreamLog {
			if record.LSN(d.Timestamp) < c.lastTruncLSN {
				return eb, true // reclaim immediately, no movement
			}
			continue
		}
		if d.Avail == 0 || deadOnly && d.Avail < uint64(d.DataWBlocks)*uint64(c.geo.WBlockBytes) {
			continue // nothing reclaimable, or live pages to move
		}
		age := c.updateSeq - d.Timestamp + 1
		if c.updateSeq < d.Timestamp {
			age = 1
		}
		if score := c.victimScore(d.Avail, age); score < bestScore {
			best, bestScore = eb, score
		}
	}
	return best, best >= 0
}

// victimScore is the paper's minimum cost decline (§VI-A), (1-E)/(E²·age):
// E is the reclaimable fraction of the EBLOCK, clamped to 1 because Avail
// counts fragmentation too, and age is the update-sequence distance since
// the EBLOCK closed. Low scores go first, so collection favours cold,
// mostly-garbage EBLOCKs; a full-garbage one scores 0. Callers pass
// avail > 0 and age >= 1.
func (c *Controller) victimScore(avail, age uint64) float64 {
	e := min(float64(avail)/float64(c.geo.EBlockBytes), 1)
	return (1 - e) / (e * e * float64(age))
}

// gcEBlockLocked prepares one victim for the round's erase batch: it moves
// the EBLOCK's valid LPAGEs to open GC EBLOCKs of similar age (§VI). On a
// nil return nothing reachable is left in it.
func (c *Controller) gcEBlockLocked(ch, eb int) error {
	d, err := c.st.Desc(ch, eb)
	if err != nil {
		return err
	}
	defer c.trc.Span(trace.KGC, 0, 0, 0, time.Now(), int64(ch), int64(eb))
	c.met.gcRounds.Inc()
	if d.Stream == record.StreamLog {
		return nil
	}
	entries, err := c.readMetaLocked(ch, eb, d)
	if errors.Is(err, ErrCrashed) {
		return err
	}
	if err != nil {
		// Metadata unreadable: the EBLOCK was erased after a committed GC
		// pre-crash (nothing reachable lives here) — reclaim it.
		c.met.gcMetaUnreadable.Inc()
		return nil
	}
	if err := c.relocateLocked(ch, eb, entries, d.Timestamp, record.ActionGC); err != nil {
		return err
	}
	return c.crashIf("gc.before-erase")
}

// readMetaLocked returns a closed EBLOCK's metadata: the in-memory copy
// while the summary table still holds one — the closing action never
// logged the close, so the flushed block may have failed to program —
// otherwise the flushed block, read with c.mu released and the EBLOCK in
// c.inflight (DESIGN.md §4.1, GC media waits): its first RBLOCK, then the
// RBLOCKs its header says it occupies, never past the area.
func (c *Controller) readMetaLocked(ch, eb int, d summary.Descriptor) ([]summary.MetaEntry, error) {
	if entries := c.st.Meta(ch, eb); len(entries) > 0 {
		return entries, nil
	}
	if d.MetaWBlocks == 0 {
		return nil, fmt.Errorf("core: eblock (%d,%d) has no metadata", ch, eb)
	}
	w, r, k := c.geo.WBlockBytes, c.geo.RBlockBytes, [2]int{ch, eb}
	area, off := int(d.MetaWBlocks)*w, int(d.DataWBlocks)*w
	raw := bufpool.Get(area) // decoded into fresh entries, so pooled
	defer raw.Release()
	buf, n := raw.Bytes(), min(r, area)
	c.inflight[k]++
	c.mu.Unlock()
	reads := [1]flash.Read{{Channel: ch, EBlock: eb, Seg: flash.ReadSeg{Off: off, Dst: buf[:n]}}}
	c.port.readAll(reads[:])
	nR, err := reads[0].RBlocks, reads[0].Err
	if end := min(summary.MetaBlockLen(buf[:n]), area); err == nil && end > n {
		reads[0].Seg = flash.ReadSeg{Off: off + n, Dst: buf[n:end]}
		c.port.readAll(reads[:])
		nR, n, err = nR+reads[0].RBlocks, end, reads[0].Err
	}
	c.met.readRBlocks.Add(int64(nR))
	c.met.gcBytesRead.Add(int64(nR * r))
	c.mu.Lock()
	c.dropCount(c.inflight, k)
	switch {
	case c.port.dead():
		return nil, ErrCrashed
	case err != nil:
		return nil, err
	}
	return summary.DecodeMetaBlock(buf[:n])
}

// currentAddrLocked returns the authoritative current address of a page,
// dispatching on its type (user data, mapping page, small-table page,
// summary page, session snapshot).
func (c *Controller) currentAddrLocked(lpid addr.LPID, ty addr.PageType) (addr.PhysAddr, error) {
	idx := int(lpid.TableIndex())
	switch ty {
	case addr.PageUser:
		return c.mt.Get(lpid)
	case addr.PageMap:
		return c.mt.PageAddr(idx), nil
	case addr.PageSmallMap:
		return c.mt.SmallPageAddr(idx), nil
	case addr.PageSummary:
		loc := c.st.Locator()
		if idx < 0 || idx >= len(loc) {
			return 0, nil
		}
		return loc[idx], nil
	case addr.PageSession:
		return c.sessSnapAddr, nil
	default:
		return 0, nil
	}
}

// setHomeLocked installs new as a table page's checkpointed home, which
// marks it clean (a user page's install is installLocked's mapping swap).
func (c *Controller) setHomeLocked(lpid addr.LPID, ty addr.PageType, new addr.PhysAddr, lsn record.LSN) {
	idx := int(lpid.TableIndex())
	switch ty {
	case addr.PageMap:
		c.mt.MarkFlushed(idx, new, lsn)
	case addr.PageSmallMap:
		c.mt.MarkSmallFlushed(idx, new)
	case addr.PageSummary:
		c.st.MarkFlushed(idx, new, lsn)
	case addr.PageSession:
		c.sessSnapAddr = new
	}
}

// installRelocationLocked conditionally installs a relocation old->new for
// the page's type (§VI-C). It reports whether the install happened.
func (c *Controller) installRelocationLocked(lpid addr.LPID, ty addr.PageType, old, new addr.PhysAddr, lsn record.LSN) (bool, error) {
	idx := int(lpid.TableIndex())
	switch ty {
	case addr.PageUser:
		ok, err := c.mt.SetIf(lpid, old, new, lsn)
		if ok {
			// Relocation preserves content but retires the old address;
			// invalidating keeps the cache's coherence rule uniform: any
			// mapping change drops the entry and poisons in-flight fills.
			c.invalidateRead(lpid)
		}
		return ok, err
	case addr.PageMap:
		return c.mt.SetPageAddrIf(idx, old, new, lsn), nil
	case addr.PageSmallMap:
		return c.mt.SmallPageAddrIf(idx, old, new), nil
	case addr.PageSummary:
		return c.st.PageAddrIf(idx, old, new), nil
	case addr.PageSession:
		if c.sessSnapAddr != old {
			return false, nil
		}
		c.sessSnapAddr = new
		return true, nil
	default:
		return false, nil
	}
}

// relocateLocked moves every still-valid LPAGE out of (ch, eb) with a
// GC/migration system action. Validity uses the paper's monotonic scan:
// processing TAGs newest to oldest, valid pages' addresses strictly
// decrease; an entry whose mapped address is not below the previous valid
// one is an obsolete duplicate (§VI-C, Fig. 6).
func (c *Controller) relocateLocked(ch, eb int, entries []summary.MetaEntry, srcTS uint64, kind record.ActionKind) error {
	type victim struct {
		e   summary.MetaEntry
		old addr.PhysAddr
	}
	var valid []victim
	prevOff := c.geo.EBlockBytes + 1
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		cur, err := c.currentAddrLocked(e.LPID, e.Type)
		if err != nil {
			return err
		}
		want, err := addr.Pack(ch, eb, e.Offset, e.Length)
		if err != nil {
			continue
		}
		if cur == want && e.Offset < prevOff {
			valid = append(valid, victim{e: e, old: want})
			prevOff = e.Offset
		}
	}
	if len(valid) == 0 {
		return nil
	}
	// Restore oldest-first (ascending offset) order for contiguous packing.
	for i, j := 0, len(valid)-1; i < j; i, j = i+1, j-1 {
		valid[i], valid[j] = valid[j], valid[i]
	}

	// One gather read puts each valid page straight into its place in one
	// pooled move buffer of exactly their total size, transferring an RBLOCK
	// that neighbours share once. The deferred release runs after the
	// action's round has waited for the programs that read it.
	total := 0
	for _, v := range valid {
		total += v.e.Length
	}
	pb := bufpool.Get(total)
	defer pb.Release()
	dbg("relocate (%d,%d): move buffer %p", ch, eb, pb)
	buf := pb.Bytes()
	bps := make([]provision.BatchPage, 0, len(valid))
	olds := make([]addr.PhysAddr, 0, len(valid))
	segs := make([]flash.ReadSeg, 0, len(valid))
	off := 0
	for _, v := range valid {
		segs = append(segs, flash.ReadSeg{Off: v.e.Offset, Dst: buf[off : off+v.e.Length]})
		bps = append(bps, provision.BatchPage{LPID: v.e.LPID, Type: v.e.Type, Length: v.e.Length, BufOff: off})
		olds = append(olds, v.old)
		off += v.e.Length
	}
	reads := [1]flash.Read{{Channel: ch, EBlock: eb, Segs: segs}}
	c.port.readAll(reads[:])
	nR, err := reads[0].RBlocks, reads[0].Err
	if err != nil {
		return err
	}
	c.met.readRBlocks.Add(int64(nR))
	c.met.gcBytesRead.Add(int64(nR * c.geo.RBlockBytes))

	// System action: same code path as user writes (§VI-C). Its installs
	// are conditional: a page that moved on meanwhile stays where it went,
	// and its relocated copy is garbage (the GCUpdate logged the old address).
	a := &action{kind: kind, buf: buf, sum: crc32.Checksum(buf, pageSum), bps: bps, olds: olds, hint: c.lsnHint()}
	plan, err := c.prov.ProvisionGC(ch, bps, srcTS, c.clock, a.hint)
	if err != nil {
		return err
	}
	if err := c.runLocked(a, plan); err != nil {
		return err
	}
	c.met.gcPagesMoved.Add(int64(len(valid)))
	c.met.gcBytesMoved.Add(int64(total))
	return nil
}

// dbgFn, when set by tests, receives internal debug traces (distinct
// from the flight recorder in internal/trace, which is always on).
var dbgFn func(format string, args ...any)

func dbg(format string, args ...any) {
	if dbgFn != nil {
		dbgFn(format, args...)
	}
}

// eraseAndFreeLocked is the one erase path of GC and migration: it erases
// the victims as one batch with c.mu released, then returns each to the
// free list, logging the transition (unforced; recovery tolerates a lost
// free record by re-collecting the EBLOCK), or marks it bad. The caller
// counts each victim in c.inflight until this returns, so selection and
// a checkpoint's closes skip it and migration waits; nothing maps into
// it (the caller relocated) and provisioning only takes Free EBLOCKs.
func (c *Controller) eraseAndFreeLocked(victims ...[2]int) error {
	// An action whose Done is not durable is proven at recovery by
	// reading its pages back, dead duplicates included: its Done goes first.
	for _, k := range victims {
		if lsn, ok := c.doneLSN[k]; ok && lsn > c.log.DurableLSN() {
			if err := c.forceLog(); err != nil {
				return err
			}
		}
		delete(c.doneLSN, k)
	}
	for _, k := range victims {
		for c.pinned[k] > 0 && !c.port.dead() { // a reader that looked it up during its metadata read
			c.ioCond.Wait()
		}
		if c.port.dead() {
			return ErrCrashed
		}
		if c.inflight[k] != 1 || c.pinned[k] > 0 {
			// Should be unreachable: selection and migration take only
			// EBLOCKs no one else counts, and hold them. Counted rather
			// than panicking so a chaos schedule that finds a hole in the
			// protocol fails its invariant check with a replayable seed.
			c.met.eraseWhilePinned.Inc()
		}
		// Drop any provisioner cursor BEFORE attempting the erase: whether
		// the erase succeeds (EBLOCK goes Free) or fails (MarkBad), this
		// EBLOCK must never be programmed through a stale open-stream
		// cursor again. Dropping only on the success path left a window
		// where a migration of an open user EBLOCK hit an injected erase
		// fault, marked the EBLOCK Bad, and the next ProvisionBatch planned
		// into the dead cursor — the chaos corpus surfaced it as `apply
		// close: eblock not open: (ch,eb) is bad` (see
		// TestGCMarkBadDropsCursor).
		c.prov.DropOpen(k[0], k[1])
	}
	t0 := time.Now()
	c.mu.Unlock()
	failed, err := c.port.erase(victims...)
	c.mu.Lock()
	c.met.gcEraseWaitNS.ObserveDuration(time.Since(t0))
	if c.port.dead() || err != nil {
		return ErrCrashed
	}
	if err := c.crashIf("gc.after-erase"); err != nil {
		return err
	}
	var first error
	for _, k := range victims {
		var err error
		if slices.Contains(failed, k) {
			_ = c.st.MarkBad(k[0], k[1], c.lsnHint()) // cannot fail: the address came from the summary table
			err = fmt.Errorf("%w: ch=%d eb=%d", flash.ErrEraseFailed, k[0], k[1])
		} else if err = c.st.FreeEBlock(k[0], k[1], c.lsnHint()); err == nil {
			if c.freedLSN, err = c.append(record.FreeEBlock{Channel: uint32(k[0]), EBlock: uint32(k[1])}); err == nil {
				c.met.gcFreed.Inc()
			}
		}
		if first == nil {
			first = err
		}
	}
	return first
}
