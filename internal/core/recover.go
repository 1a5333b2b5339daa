package core

import (
	"fmt"
	"hash/crc32"
	"slices"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/wal"
)

// Open recovers a controller from a formatted device (§VIII-C): it reads
// the most recent complete checkpoint record from the well-known area and
// performs the two-pass log replay — pass one repairs the flash addresses
// of system-table pages that garbage collection moved after they were
// checkpointed, pass two redoes committed system actions against the
// loaded tables, guarded by per-page flush LSNs.
func Open(dev *flash.Device, cfg Config) (*Controller, error) {
	c, err := newController(dev, cfg)
	if err != nil {
		return nil, err
	}
	// Programs issued during recovery (WAL resume, fix-ups) are
	// attributed to SrcRecovery for the write-amplification accounting.
	c.recovering.Store(true)
	defer c.recovering.Store(false)
	ck, areaEB, areaWB, err := scanCheckpointArea(c)
	if err != nil {
		return nil, err
	}
	c.ckptSeq = ck.Seq
	c.ckptEB, c.ckptWB = areaEB, areaWB
	c.lastTruncLSN = ck.TruncLSN
	c.updateSeq = ck.UpdateSeq
	c.nextAction = ck.NextAction

	// Walk the log chain once, collecting records at or past the
	// truncation LSN, and determining which actions committed.
	type logged struct {
		lsn record.LSN
		rec record.Record
	}
	var recs []logged
	sink := logSink{c}
	tail, err := wal.FollowChain(sink, ck.StartSlots, ck.StartLSN, func(p *wal.ChainPage) error {
		lsn := p.FirstLSN
		for _, r := range p.Records {
			if lsn >= ck.TruncLSN {
				recs = append(recs, logged{lsn: lsn, rec: r})
			}
			lsn++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// An action is committed when its Commit record is durable, no Abort
	// follows it and its data is proven. A GC, migration or checkpoint action
	// forces its commit after its programs. A user action forces it beside
	// them, so its proof is a Done record (it installed) or, for the few the
	// crash caught before that, pages that read back to the checksum its
	// Commit carries and closes whose metadata decodes.
	type proof struct {
		want, got uint32
		ok        bool
	}
	committed := make(map[uint64]record.ActionKind)
	unproven := make(map[uint64]*proof)
	for _, lr := range recs {
		var id uint64
		switch r := lr.rec.(type) {
		case record.Commit:
			committed[r.Action] = r.AKind
			if r.AKind == record.ActionUser {
				unproven[r.Action] = &proof{want: r.Sum, ok: true}
			}
		case record.Abort:
			delete(committed, r.Action)
			delete(unproven, r.Action)
		case record.Done:
			delete(unproven, r.Action)
		case record.Update:
			id = r.Action
		case record.GCUpdate:
			id = r.Action
		}
		// Track the highest action id seen so new actions are unique.
		if id >= c.nextAction {
			c.nextAction = id + 1
		}
	}
	for _, lr := range recs {
		switch r := lr.rec.(type) {
		case record.Update:
			if p := unproven[r.Action]; p != nil && p.ok {
				p.got, p.ok = c.readBack(p.got, r.New)
			}
		case record.CloseEBlock:
			if p := unproven[r.Action]; p != nil && p.ok {
				p.ok = c.metaReadable(r)
			}
		}
	}
	var readBack []uint64
	for id, p := range unproven {
		readBack = append(readBack, id)
		c.met.recoverVerified.Inc()
		if p.ok = p.ok && p.got == p.want; !p.ok {
			c.met.recoverRejected.Inc()
			delete(committed, id)
		}
	}

	// --- Pass 1: repair table-page addresses (§VIII-C1) ---------------------
	tiny := append([]addr.PhysAddr(nil), ck.Tiny...)
	locator := append([]addr.PhysAddr(nil), ck.Locator...)
	sessAddr := ck.SessAddr
	setAt := func(s *[]addr.PhysAddr, idx int, a addr.PhysAddr) {
		for idx >= len(*s) {
			*s = append(*s, 0)
		}
		(*s)[idx] = a
	}
	setIfAt := func(s *[]addr.PhysAddr, idx int, old, a addr.PhysAddr) {
		if idx < len(*s) && (*s)[idx] == old {
			(*s)[idx] = a
		}
	}
	for _, lr := range recs {
		switch r := lr.rec.(type) {
		case record.Update:
			if _, ok := committed[r.Action]; !ok {
				continue
			}
			idx := int(r.LPID.TableIndex())
			switch r.Type {
			case addr.PageSmallMap:
				setAt(&tiny, idx, r.New)
			case addr.PageSummary:
				setAt(&locator, idx, r.New)
			case addr.PageSession:
				sessAddr = r.New
			}
		case record.GCUpdate:
			if _, ok := committed[r.Action]; !ok {
				continue
			}
			idx := int(r.LPID.TableIndex())
			switch r.Type {
			case addr.PageSmallMap:
				setIfAt(&tiny, idx, r.Old, r.New)
			case addr.PageSummary:
				setIfAt(&locator, idx, r.Old, r.New)
			case addr.PageSession:
				if sessAddr == r.Old {
					sessAddr = r.New
				}
			}
		}
	}
	if err := c.mt.LoadFromTiny(tiny); err != nil {
		return nil, err
	}
	for _, lr := range recs {
		switch r := lr.rec.(type) {
		case record.Update:
			if _, ok := committed[r.Action]; ok && r.Type == addr.PageMap {
				c.mt.SetPageAddr(int(r.LPID.TableIndex()), r.New, lr.lsn)
			}
		case record.GCUpdate:
			if _, ok := committed[r.Action]; ok && r.Type == addr.PageMap {
				c.mt.SetPageAddrIf(int(r.LPID.TableIndex()), r.Old, r.New, lr.lsn)
			}
		}
	}
	// Grow the locator to the table's full size before loading.
	full := make([]addr.PhysAddr, c.st.NumPages())
	copy(full, locator)
	if err := c.st.LoadFromLocator(full, c.loadExtent); err != nil {
		return nil, err
	}
	if sessAddr.IsValid() {
		img, err := c.loadExtent(sessAddr)
		if err != nil {
			return nil, err
		}
		if err := c.sess.Load(img); err != nil {
			return nil, err
		}
		c.sessSnapAddr = sessAddr
	}

	// --- Pass 2: redo committed actions (§VIII-C2, C3) ----------------------
	ctx := &replayCtx{committed: committed, lastEnd: make(map[[2]int]int), post: make(map[[2]int]bool)}
	for _, lr := range recs {
		if err := c.replayRecordLocked(lr.lsn, lr.rec, ctx); err != nil {
			return nil, err
		}
		if lr.rec.Kind() == record.KindUpdate || lr.rec.Kind() == record.KindGCUpdate {
			c.updateSeq++
		}
	}

	// --- Fix-ups (§VIII-C3) --------------------------------------------------
	// Fix-up state is derived from the device itself (position probes, the
	// chain walk), not from log records, so it is re-derived on any future
	// recovery: dirty it at the log tail so it never pins the truncation
	// LSN back.
	fixLSN := tail.LastLSN + 1
	candidateEBs := make(map[[2]int]bool)
	for _, s := range tail.Candidates {
		if s.IsValid() {
			candidateEBs[[2]int{s.Channel, s.EBlock}] = true
		}
	}
	chainEBs := make(map[[2]int]bool)
	for _, p := range tail.Pages {
		chainEBs[[2]int{p.Slot.Channel, p.Slot.EBlock}] = true
		// Timestamp raises from post-flush programs are volatile; restore
		// them from the chain so live log pages stay reclaim-protected.
		if err := c.st.RaiseTimestamp(p.Slot.Channel, p.Slot.EBlock, uint64(p.Last), fixLSN); err != nil {
			return nil, err
		}
	}
	for k := range candidateEBs {
		chainEBs[k] = true
	}
	// The chain is authoritative for log EBLOCKs: anything it touches that
	// the summary believes free must be claimed for the log stream.
	for k := range chainEBs {
		d, err := c.st.Desc(k[0], k[1])
		if err != nil {
			return nil, err
		}
		if d.State == summary.Free {
			d.State = summary.Open
			d.Stream = record.StreamLog
			if err := c.st.SetDesc(k[0], k[1], d, fixLSN); err != nil {
				return nil, err
			}
		}
	}
	for ch := 0; ch < c.geo.Channels; ch++ {
		for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
			d, err := c.st.Desc(ch, eb)
			if err != nil {
				return nil, err
			}
			if d.State != summary.Open {
				continue
			}
			if d.Stream == record.StreamLog {
				// Stale open-log EBLOCKs (not hosting the resume
				// candidates) are retired so truncation can reclaim them.
				if !candidateEBs[[2]int{ch, eb}] {
					if err := c.st.CloseEBlock(ch, eb, uint64(tail.LastLSN), 0, fixLSN); err != nil {
						return nil, err
					}
				}
				continue
			}
			// Fix the write position of open user/GC EBLOCKs by probing
			// for the first unwritten WBLOCK; WBLOCKs written by actions
			// whose log records were lost count as aborted-write garbage.
			pos, err := c.dev.NextProgramPosition(ch, eb)
			if err != nil {
				return nil, err
			}
			if pos > int(d.DataWBlocks) {
				if err := c.st.AddAvail(ch, eb, (pos-int(d.DataWBlocks))*c.geo.WBlockBytes, fixLSN); err != nil {
					return nil, err
				}
			}
			if err := c.st.SetDataWBlocks(ch, eb, pos, fixLSN); err != nil {
				return nil, err
			}
		}
	}

	// Resume the log at the tail candidates and rebuild cursors.
	var resumeCands []wal.Slot
	for _, s := range tail.Candidates {
		if s.IsValid() {
			resumeCands = append(resumeCands, s)
		}
	}
	if len(resumeCands) == 0 {
		return nil, fmt.Errorf("core: log chain has no resume candidates")
	}
	c.prov.SetLogCursorFromCandidates(resumeCands)
	c.log, err = wal.Resume(sink, c.geo.WBlockBytes, tail.LastLSN+1, resumeCands, tail.Pages, wal.WithRegistry(c.reg), wal.WithTracer(c.trc))
	if err != nil {
		return nil, err
	}
	c.hintLSN.Store(uint64(tail.LastLSN + 1))
	c.prov.RebuildFromSummary()
	c.lastCkptLSN = tail.LastLSN + 1
	// What this recovery read back it settles for every later one. A rejected
	// action's Commit is still in the log: the Abort overrides it, whatever is
	// programmed where it failed to. A verified action gets the Done its
	// install never logged, and eraseAndFreeLocked forces it before an EBLOCK
	// that proved the action goes, as it does for a live install.
	slices.Sort(readBack)
	var settled record.LSN
	for _, id := range readBack {
		var r record.Record = record.Done{Action: id}
		if !unproven[id].ok {
			r = record.Abort{Action: id}
		}
		if settled, err = c.append(r); err != nil {
			return nil, err
		}
	}
	for _, lr := range recs {
		var id uint64
		var eb [2]int
		switch r := lr.rec.(type) {
		case record.Update:
			id, eb = r.Action, [2]int{r.New.Channel(), r.New.EBlock()}
		case record.CloseEBlock:
			id, eb = r.Action, [2]int{int(r.Channel), int(r.EBlock)}
		}
		if p := unproven[id]; p != nil && p.ok {
			c.doneLSN[eb] = settled // the last one: a force covers them all
		}
	}
	return c, nil
}

// readBack extends sum, the CRC-32C of an unproven action's pages so far,
// with what the media holds at a. ok is false when the extent's last WBLOCK
// was never programmed: the simulator reads that as zeroes, not an ECC error.
func (c *Controller) readBack(sum uint32, a addr.PhysAddr) (_ uint32, ok bool) {
	written, err := c.dev.IsWritten(a.Channel(), a.EBlock(), (a.End()-1)/c.geo.WBlockBytes)
	if err != nil || !written {
		return 0, false
	}
	data, _, err := c.dev.ReadExtent(a.Channel(), a.EBlock(), a.Offset(), a.Length())
	c.met.recoverVerifyBytes.Add(int64(len(data)))
	return crc32.Update(sum, pageSum, data), err == nil
}

// metaReadable reports whether the metadata block a conditional close
// describes is on the media (it is programmed last, DESIGN.md §4 decision 4).
func (c *Controller) metaReadable(r record.CloseEBlock) bool {
	w := c.geo.WBlockBytes
	raw, _, err := c.dev.ReadExtent(int(r.Channel), int(r.EBlock), int(r.DataWBlocks)*w, int(r.MetaWBlocks)*w)
	if err == nil {
		c.met.recoverVerifyBytes.Add(int64(len(raw)))
		_, err = summary.DecodeMetaBlock(raw)
	}
	return err == nil
}

// replayCtx carries pass-2 state: the committed-action set and, per open
// EBLOCK, the end offset of the last replayed write, which lets replay
// reconstruct fragmentation gaps (run tails and placement padding) that
// were only ever recorded in the volatile AVAIL counters.
type replayCtx struct {
	committed map[uint64]record.ActionKind
	lastEnd   map[[2]int]int
	post      map[[2]int]bool // saw a post-flush record for this EBLOCK
}

// replayRecordLocked applies one log record during pass 2 using the
// paper's flush-LSN-guarded case analysis (§VIII-C3).
func (c *Controller) replayRecordLocked(lsn record.LSN, r record.Record, ctx *replayCtx) error {
	switch rec := r.(type) {
	case record.Update:
		_, isCommitted := ctx.committed[rec.Action]
		return c.replayWriteLocked(lsn, rec.LPID, rec.Type, 0, rec.New, isCommitted, false, ctx)
	case record.GCUpdate:
		_, isCommitted := ctx.committed[rec.Action]
		return c.replayWriteLocked(lsn, rec.LPID, rec.Type, rec.Old, rec.New, isCommitted, true, ctx)
	case record.Commit:
		if _, ok := ctx.committed[rec.Action]; ok && rec.SID != 0 {
			c.sess.AdvanceTo(rec.SID, rec.WSN)
		}
	case record.Garbage:
		for _, p := range rec.Pairs {
			ch, eb := p.Addr.Channel(), p.Addr.EBlock()
			if lsn > c.st.FlushLSNFor(ch, eb) {
				if err := c.st.AddAvail(ch, eb, p.Addr.Length(), lsn); err != nil {
					return err
				}
			}
		}
	case record.OpenEBlock:
		ch, eb := int(rec.Channel), int(rec.EBlock)
		flush := c.st.FlushLSNFor(ch, eb)
		d, err := c.st.Desc(ch, eb)
		if err != nil {
			return err
		}
		if lsn > flush || d.State != summary.Open {
			d = summary.Descriptor{State: summary.Open, Stream: rec.Stream, EraseCount: d.EraseCount}
			if err := c.st.SetDesc(ch, eb, d, lsn); err != nil {
				return err
			}
			c.st.ClearMeta(ch, eb)
			ctx.lastEnd[[2]int{ch, eb}] = 0
			ctx.post[[2]int{ch, eb}] = true
		}
		c.st.SetOpenLSN(ch, eb, lsn)
	case record.CloseEBlock:
		if _, ok := ctx.committed[rec.Action]; !ok && rec.Action != 0 {
			return nil // logged ahead of its metadata by an action that did not commit
		}
		ch, eb := int(rec.Channel), int(rec.EBlock)
		flush := c.st.FlushLSNFor(ch, eb)
		d, err := c.st.Desc(ch, eb)
		if err != nil {
			return err
		}
		if d.State == summary.Used && lsn <= flush {
			return nil // case 2: already reflected
		}
		d.State = summary.Used
		d.Timestamp = rec.Timestamp
		d.DataWBlocks = rec.DataWBlocks
		d.MetaWBlocks = rec.MetaWBlocks
		if err := c.st.SetDesc(ch, eb, d, lsn); err != nil {
			return err
		}
		c.st.ClearMeta(ch, eb)
		c.st.SetOpenLSN(ch, eb, 0)
		if lsn > flush {
			// Reconstruct the fragmentation only the volatile AVAIL knew:
			// the gap between the last data byte and the metadata region,
			// plus the unusable tail after the metadata.
			w := c.geo.WBlockBytes
			frag := 0
			if le, ok := ctx.lastEnd[[2]int{ch, eb}]; ok && int(rec.DataWBlocks)*w > le {
				frag += int(rec.DataWBlocks)*w - le
			}
			frag += (c.geo.WBlocksPerEBlock() - int(rec.DataWBlocks) - int(rec.MetaWBlocks)) * w
			if frag > 0 {
				if err := c.st.AddAvail(ch, eb, frag, lsn); err != nil {
					return err
				}
			}
		}
		delete(ctx.lastEnd, [2]int{ch, eb})
		delete(ctx.post, [2]int{ch, eb})
	case record.FreeEBlock:
		ch, eb := int(rec.Channel), int(rec.EBlock)
		flush := c.st.FlushLSNFor(ch, eb)
		d, err := c.st.Desc(ch, eb)
		if err != nil {
			return err
		}
		if lsn > flush && d.State != summary.Free {
			d = summary.Descriptor{State: summary.Free, EraseCount: d.EraseCount + 1}
			if err := c.st.SetDesc(ch, eb, d, lsn); err != nil {
				return err
			}
			c.st.ClearMeta(ch, eb)
			c.st.SetOpenLSN(ch, eb, 0)
			delete(ctx.lastEnd, [2]int{ch, eb})
			delete(ctx.post, [2]int{ch, eb})
		}
	case record.SessionOpen:
		c.sess.RestoreOpen(rec.SID, rec.Tenant, rec.Priority)
	case record.SessionClose:
		c.sess.RestoreClose(rec.SID)
	}
	return nil
}

// replayWriteLocked redoes one LPAGE write record: summary-table case 1
// plus the mapping-table install (user pages committed actions only;
// table pages were handled in pass 1; aborted actions contribute their new
// addresses to AVAIL).
func (c *Controller) replayWriteLocked(lsn record.LSN, lpid addr.LPID, ty addr.PageType, old, new addr.PhysAddr, isCommitted, conditional bool, ctx *replayCtx) error {
	ch, eb := new.Channel(), new.EBlock()
	key := [2]int{ch, eb}
	flush := c.st.FlushLSNFor(ch, eb)
	d, err := c.st.Desc(ch, eb)
	if err != nil {
		return err
	}
	// Case 1 (§VIII-C3): skip only when the EBLOCK is closed and the
	// summary page already reflects this record.
	if !(d.State != summary.Open && lsn <= flush) {
		if d.State != summary.Open {
			// The write implies the EBLOCK was open; restore that.
			d = summary.Descriptor{State: summary.Open, Stream: record.StreamUser, EraseCount: d.EraseCount}
			if err := c.st.SetDesc(ch, eb, d, lsn); err != nil {
				return err
			}
			c.st.ClearMeta(ch, eb)
			c.st.SetOpenLSN(ch, eb, lsn)
			ctx.lastEnd[key] = 0
			ctx.post[key] = true
		}
		if err := c.st.AppendMeta(ch, eb, summary.MetaEntry{LPID: lpid, Type: ty, Offset: new.Offset(), Length: new.Length()}); err != nil {
			return err
		}
		if lsn > flush {
			// Reconstruct fragmentation: a gap between the previous write
			// end and this offset is run-tail padding that only the
			// volatile AVAIL counter knew about. The first post-flush
			// record measures from the flushed DataWBlocks boundary (runs
			// always end at WBLOCK boundaries before a flush); subsequent
			// records measure byte-exact from the previous record's end.
			le, ok := ctx.lastEnd[key]
			if !ctx.post[key] {
				if base := int(d.DataWBlocks) * c.geo.WBlockBytes; !ok || base > le {
					le = base
				}
				ctx.post[key] = true
			} else if !ok {
				le = 0
			}
			if new.Offset() > le {
				if err := c.st.AddAvail(ch, eb, new.Offset()-le, lsn); err != nil {
					return err
				}
			}
			w := c.geo.WBlockBytes
			wbEnd := (new.End() + w - 1) / w
			if wbEnd > int(d.DataWBlocks) {
				if err := c.st.SetDataWBlocks(ch, eb, wbEnd, lsn); err != nil {
					return err
				}
			}
		}
		if new.End() > ctx.lastEnd[key] {
			ctx.lastEnd[key] = new.End()
		}
	}
	if !isCommitted {
		// Aborted action: the provisioned space is garbage (case 3).
		if lsn > flush {
			return c.st.AddAvail(ch, eb, new.Length(), lsn)
		}
		return nil
	}
	if ty != addr.PageUser {
		return nil // table-page homes were repaired in pass 1
	}
	if conditional {
		_, err = c.mt.SetIf(lpid, old, new, lsn)
		return err
	}
	return c.mt.Set(lpid, new, lsn)
}

// scanCheckpointArea finds the most recent complete checkpoint record and
// returns it with the area cursor (EBLOCK and next free WBLOCK).
func scanCheckpointArea(c *Controller) (*ckptRecord, int, int, error) {
	type found struct {
		eb, firstWB, total int
		parts              map[int][]byte
	}
	best := (*found)(nil)
	var bestSeq uint64
	w := c.geo.WBlockBytes
	for _, eb := range []int{ckptEBlockA, ckptEBlockB} {
		var cur *found
		var curSeq uint64
		for wb := 0; wb < c.geo.WBlocksPerEBlock(); wb++ {
			raw, _, err := c.dev.ReadExtent(ckptChannel, eb, wb*w, w)
			if err != nil {
				return nil, 0, 0, err
			}
			part, err := decodeCkptPart(raw)
			if err != nil {
				cur = nil
				continue
			}
			if cur == nil || part.seq != curSeq || part.part != len(cur.parts) {
				cur = &found{eb: eb, firstWB: wb, total: part.total, parts: map[int][]byte{}}
				curSeq = part.seq
				if part.part != 0 {
					cur = nil
					continue
				}
			}
			cur.parts[part.part] = part.payload
			if len(cur.parts) == cur.total {
				if best == nil || curSeq > bestSeq {
					cp := *cur
					best, bestSeq = &cp, curSeq
				}
				cur = nil
			}
		}
	}
	if best == nil {
		return nil, 0, 0, ErrNoCheckpoint
	}
	var body []byte
	for i := 0; i < best.total; i++ {
		body = append(body, best.parts[i]...)
	}
	ck, err := decodeCkpt(body)
	if err != nil {
		return nil, 0, 0, err
	}
	return ck, best.eb, best.firstWB + best.total, nil
}
