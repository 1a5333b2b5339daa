package core

import (
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/wal"
)

// Open recovers a controller from a formatted device (§VIII-C): it loads
// the most recent complete checkpoint record and replays the log in the
// passes recoveryPhases lists, timing each into core.recover.<phase>_ns.
func Open(dev *flash.Device, cfg Config) (*Controller, error) {
	c, err := newController(dev, cfg)
	if err != nil {
		return nil, err
	}
	// Programs issued during recovery (WAL resume, fix-ups) are
	// attributed to SrcRecovery for the write-amplification accounting.
	c.recovering.Store(true)
	defer c.recovering.Store(false)
	r := &recovery{c: c}
	for _, p := range recoveryPhases {
		start := time.Now()
		err := p.run(r)
		c.reg.Counter("core.recover." + p.name + "_ns").Add(time.Since(start).Nanoseconds())
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// recoveryPhases are Open's passes in order (DESIGN.md §4, "Recovery
// phases"). Only analyze, prove, repairTables, findCarried and redo walk
// the records.
var recoveryPhases = []struct {
	name string
	run  func(*recovery) error
}{
	{"scan_checkpoint", (*recovery).scanCheckpoint},
	{"walk_log", (*recovery).walkLog},
	{"analyze", (*recovery).analyze},
	{"prove", (*recovery).prove},
	{"repair_tables", (*recovery).repairTables}, // §VIII-C1
	{"find_carried", (*recovery).findCarried},
	{"redo", (*recovery).redo},      // §VIII-C2, C3
	{"fix_ups", (*recovery).fixUps}, // §VIII-C3
	{"reconcile", (*recovery).reconcile},
	{"resume_log", (*recovery).resumeLog},
	{"settle", (*recovery).settle},
}

// recovery is what Open's phases hand each other.
type recovery struct {
	c       *Controller
	ck      *ckptRecord
	recs    []logged // the log from the checkpoint's truncation LSN on
	tail    *wal.ChainTail
	cands   []wal.Slot      // the tail's valid forward candidates
	last    record.LSN      // where recs reach: the chain's end, or a carried set's
	carried []record.Record // recs past the chain's end

	// committed: Commit durable, no Abort, and a Done or a proof.
	// unproven: the actions with no Done, proven by reading them back;
	// readIDs are their ids, sorted.
	committed   map[uint64]bool
	unproven    map[uint64]*proof
	readIDs     []uint64
	verifyBytes int64 // media bytes prove read

	// The homes pass 1 repairs: tiny table, locator, session snapshot (one).
	tiny, locator, sess []addr.PhysAddr

	open  map[[2]int]openWrites // pass 2's view of the EBLOCKs open at redo
	freed [][2]int              // open EBLOCKs reconcile found erased
}

// openWrites is where an open EBLOCK's AVAIL is counted up to (its replayed
// writes, its flushed boundary) and whether a post-flush record was seen:
// what lets redo reconstruct gaps only the volatile AVAIL counters knew.
type openWrites struct {
	end  int
	post bool
}

type logged struct {
	lsn record.LSN
	rec record.Record
}

// proof is an unproven action's read-back: the checksum its Commit carries,
// the one its pages read back to so far, the EBLOCKs read; the versions its
// durable Garbage names, and those redo credited for it, which settle logs.
type proof struct {
	want, got uint32
	ok        bool
	ebs       [][2]int
	garbage   map[record.AddrPair]bool
	credited  []record.AddrPair
}

// pageWrite returns an LPAGE write record as a GCUpdate and whether its
// install is conditional: an Update installs New wherever the page was.
func pageWrite(rec record.Record) (w record.GCUpdate, conditional, ok bool) {
	switch rec := rec.(type) {
	case record.Update:
		return record.GCUpdate{Action: rec.Action, LPID: rec.LPID, Type: rec.Type, New: rec.New}, false, true
	case record.GCUpdate:
		return rec, true, true
	}
	return w, false, false
}

// scanCheckpoint finds the most recent complete checkpoint record in the
// well-known area and restores the controller's counters and the area
// cursor (EBLOCK and next free WBLOCK) from it.
func (r *recovery) scanCheckpoint() error {
	c := r.c
	type found struct {
		seq                uint64
		eb, firstWB, total int
		parts              [][]byte
	}
	var best, cur *found
	w := c.geo.WBlockBytes
	for _, eb := range []int{ckptEBlockA, ckptEBlockB} {
		cur = nil
		for wb := 0; wb < c.geo.WBlocksPerEBlock(); wb++ {
			raw, _, err := c.port.read(ckptChannel, eb, wb*w, w)
			if err != nil {
				return err
			}
			part, err := decodeCkptPart(raw)
			switch {
			case err == nil && part.part == 0:
				cur = &found{seq: part.seq, eb: eb, firstWB: wb, total: part.total}
			case err != nil || cur == nil || part.seq != cur.seq || part.part != len(cur.parts):
				cur = nil
				continue
			}
			if cur.parts = append(cur.parts, part.payload); len(cur.parts) == cur.total {
				if best == nil || cur.seq > best.seq {
					best = cur
				}
				cur = nil
			}
		}
	}
	if best == nil {
		return ErrNoCheckpoint
	}
	ck, err := decodeCkpt(slices.Concat(best.parts...))
	if err == nil {
		r.ck, c.ckptSeq, c.lastTruncLSN = ck, ck.Seq, ck.TruncLSN
		c.ckptEB, c.ckptWB = best.eb, best.firstWB+best.total
		c.updateSeq, c.nextAction = ck.UpdateSeq, ck.NextAction
	}
	return err
}

// walkLog follows the log chain once from the checkpoint's start slots,
// collecting the records at or past its truncation LSN.
func (r *recovery) walkLog() error {
	var err error
	r.tail, err = wal.FollowChain(logSink{r.c}, r.ck.StartSlots, r.ck.StartLSN, func(p *wal.ChainPage) error {
		lsn := p.FirstLSN
		for _, rec := range p.Records {
			if lsn >= r.ck.TruncLSN {
				r.recs = append(r.recs, logged{lsn: lsn, rec: rec})
			}
			lsn++
		}
		return nil
	})
	if err == nil {
		r.cands = slices.DeleteFunc(slices.Clone(r.tail.Candidates), func(s wal.Slot) bool { return !s.IsValid() })
		r.last = r.tail.LastLSN
	}
	return err
}

// analyze finds the actions whose Commit is durable with no Abort after it.
// Every action forces its Commit beside its data programs, so unless a Done
// follows (it installed) it stays unproven until prove reads it back.
func (r *recovery) analyze() error {
	r.committed = make(map[uint64]bool)
	r.unproven = make(map[uint64]*proof)
	for _, lr := range r.recs {
		switch rec := lr.rec.(type) {
		case record.Commit:
			r.committed[rec.Action] = true
			r.unproven[rec.Action] = &proof{want: rec.Sum, ok: true, garbage: map[record.AddrPair]bool{}}
		case record.Abort:
			delete(r.committed, rec.Action)
			delete(r.unproven, rec.Action)
		case record.Done:
			delete(r.unproven, rec.Action)
		}
		// Track the highest action id seen so new actions are unique.
		if w, _, ok := pageWrite(lr.rec); ok && w.Action >= r.c.nextAction {
			r.c.nextAction = w.Action + 1
		}
	}
	return nil
}

// prove reads back every unproven action: its pages must read back to the
// checksum its Commit carries and its closes' metadata must decode. An
// action that fails is no longer committed. It also collects what the
// unproven actions' durable Garbage records name.
func (r *recovery) prove() error {
	r.readIDs, r.verifyBytes = nil, 0
	for _, lr := range r.recs {
		if w, _, ok := pageWrite(lr.rec); ok {
			if p := r.unproven[w.Action]; p != nil && p.ok {
				p.ebs = append(p.ebs, [2]int{w.New.Channel(), w.New.EBlock()})
				p.got, p.ok = r.readBack(p.got, w.New)
			}
			continue
		}
		switch rec := lr.rec.(type) {
		case record.CloseEBlock:
			if p := r.unproven[rec.Action]; p != nil && p.ok {
				p.ebs = append(p.ebs, [2]int{int(rec.Channel), int(rec.EBlock)})
				p.ok = r.metaReadable(rec)
			}
		case record.Garbage:
			if p := r.unproven[rec.Action]; p != nil {
				for _, g := range rec.Pairs {
					p.garbage[g] = true
				}
			}
		}
	}
	for id, p := range r.unproven {
		r.readIDs = append(r.readIDs, id)
		if p.ok = p.ok && p.got == p.want; !p.ok {
			delete(r.committed, id)
		}
	}
	slices.Sort(r.readIDs)
	return nil
}

// repairTables is pass 1 (§VIII-C1): it repairs the homes of the table
// pages moved since the checkpoint record, then loads the tables from them.
func (r *recovery) repairTables() error {
	c := r.c
	r.tiny = slices.Clone(r.ck.Tiny)
	r.locator = slices.Clone(r.ck.Locator)
	r.sess = []addr.PhysAddr{r.ck.SessAddr}
	for _, lr := range r.recs {
		if w, cond, ok := pageWrite(lr.rec); ok && r.committed[w.Action] {
			r.setHome(w, cond)
		}
	}
	if err := c.mt.LoadFromTiny(r.tiny); err != nil {
		return err
	}
	for _, lr := range r.recs {
		if w, cond, ok := pageWrite(lr.rec); ok && r.committed[w.Action] && w.Type == addr.PageMap {
			idx := int(w.LPID.TableIndex())
			if cond {
				c.mt.SetPageAddrIf(idx, w.Old, w.New, lr.lsn)
			} else {
				c.mt.SetPageAddr(idx, w.New, lr.lsn)
			}
		}
	}
	// Grow the locator to the table's full size before loading.
	full := make([]addr.PhysAddr, c.st.NumPages())
	copy(full, r.locator)
	if err := c.st.LoadFromLocator(full, c.loadExtent); err != nil {
		return err
	}
	if a := r.sess[0]; a.IsValid() {
		img, err := c.loadExtent(a)
		if err == nil {
			err = c.sess.Load(img)
		}
		c.sessSnapAddr = a
		return err
	}
	return nil
}

// setHome applies a committed write of a small-table, summary or session
// page: an Update sets its slot, a GCUpdate only if it still holds old.
func (r *recovery) setHome(w record.GCUpdate, conditional bool) {
	var s *[]addr.PhysAddr
	idx := int(w.LPID.TableIndex())
	switch w.Type {
	case addr.PageSmallMap:
		s = &r.tiny
	case addr.PageSummary:
		s = &r.locator
	case addr.PageSession:
		s, idx = &r.sess, 0
	default:
		return
	}
	switch {
	case !conditional:
		for idx >= len(*s) {
			*s = append(*s, 0)
		}
		(*s)[idx] = w.New
	case idx < len(*s) && (*s)[idx] == w.Old:
		(*s)[idx] = w.New
	}
}

// findCarried extends the records past the chain with the farthest carried
// set (DESIGN.md §4 decision 14) that names a page the walk visited. Every
// non-log EBLOCK Free or Open at the chain's end is read from the first
// WBLOCK the chain does not explain up to its program position; a WBLOCK
// outside that window belongs to an action whose records the chain holds.
// analyze and prove then run again over chain and carried records. A
// carried set holds no committed table-page write — system actions force
// their commits — so the homes repairTables set stand.
func (r *recovery) findCarried() error {
	c, w := r.c, r.c.geo.WBlockBytes
	named := make(map[wal.Slot]record.LSN)
	skip := make(map[[2]int]bool) // log EBLOCKs: the chain's and its candidates'
	for _, p := range r.tail.Pages {
		named[p.Slot] = p.Last
		skip[[2]int{p.Slot.Channel, p.Slot.EBlock}] = true
	}
	for _, s := range r.cands {
		skip[[2]int{s.Channel, s.EBlock}] = true
	}
	type span struct {
		from     int  // the first WBLOCK the chain does not explain
		reopened bool // the chain opens or frees the EBLOCK
	}
	spans := make(map[[2]int]span)
	for _, lr := range r.recs {
		switch rec := lr.rec.(type) {
		case record.OpenEBlock:
			spans[[2]int{int(rec.Channel), int(rec.EBlock)}] = span{reopened: true}
		case record.FreeEBlock:
			spans[[2]int{int(rec.Channel), int(rec.EBlock)}] = span{reopened: true}
		}
		if wr, _, ok := pageWrite(lr.rec); ok {
			k := [2]int{wr.New.Channel(), wr.New.EBlock()}
			s := spans[k]
			spans[k] = span{from: max(s.from, (wr.New.End()-1)/w), reopened: s.reopened}
		}
	}
	var best *wal.Carried
	reach := r.last
	for ch := 0; ch < c.geo.Channels; ch++ {
		for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
			k := [2]int{ch, eb}
			d, err := c.st.Desc(ch, eb)
			s, inChain := spans[k]
			if !inChain {
				s.from = int(d.DataWBlocks)
			}
			if err != nil || skip[k] || !s.reopened && (d.State != summary.Free && d.State != summary.Open || d.Stream == record.StreamLog) {
				continue
			}
			end, err := c.port.nextProgramPosition(ch, eb)
			if s.from > end {
				s.from = 0 // the window starts past it: erased and written again since
			}
			for wb := s.from; err == nil && wb < end; wb++ {
				raw, _, _ := c.port.read(ch, eb, wb*w, w) // unreadable: nil, which decodes as nothing
				if set, err := wal.DecodeCarried(raw); err == nil {
					if last, ok := named[set.Named]; ok && last == set.First-1 && set.Last() > reach {
						best, reach = set, set.Last()
					}
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	for i, rec := range best.Records {
		if lsn := best.First + record.LSN(i); lsn > r.last {
			r.recs = append(r.recs, logged{lsn: lsn, rec: rec})
			r.carried = append(r.carried, rec)
		}
	}
	r.last = reach
	if err := r.analyze(); err != nil {
		return err
	}
	return r.prove()
}

// redo is pass 2 (§VIII-C2, C3): every record against the loaded tables.
func (r *recovery) redo() error {
	r.open = make(map[[2]int]openWrites)
	for _, lr := range r.recs {
		if err := r.replayRecordLocked(lr.lsn, lr.rec); err != nil {
			return err
		}
	}
	return nil
}

// fixUps (§VIII-C3) restores from the device what the log cannot say. It
// is re-derived by any future recovery, so it is dirtied at the log tail,
// where it never pins the truncation LSN back.
func (r *recovery) fixUps() error {
	c := r.c
	fixLSN := r.last + 1
	resume := make(map[[2]int]bool) // EBLOCKs hosting a resume candidate
	for _, s := range r.cands {
		resume[[2]int{s.Channel, s.EBlock}] = true
	}
	chain := maps.Clone(resume) // EBLOCKs the log chain touches
	for _, p := range r.tail.Pages {
		chain[[2]int{p.Slot.Channel, p.Slot.EBlock}] = true
		// Timestamp raises from post-flush programs are volatile; restore
		// them from the chain so live log pages stay reclaim-protected.
		if err := c.st.RaiseTimestamp(p.Slot.Channel, p.Slot.EBlock, uint64(p.Last), fixLSN); err != nil {
			return err
		}
	}
	for ch := 0; ch < c.geo.Channels; ch++ {
		for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
			k := [2]int{ch, eb}
			// The chain is authoritative for log EBLOCKs: anything it
			// touches that the summary believes free is claimed for the log.
			d, err := c.st.Desc(ch, eb)
			if err == nil && chain[k] && d.State == summary.Free {
				d.State, d.Stream = summary.Open, record.StreamLog
				err = c.st.SetDesc(ch, eb, d, fixLSN)
			}
			if err == nil && d.State == summary.Open && d.Stream == record.StreamLog && !resume[k] {
				// Stale open-log EBLOCKs (not hosting the resume candidates)
				// are retired so truncation can reclaim them.
				err = c.st.CloseEBlock(ch, eb, uint64(r.last), 0, fixLSN)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// reconcile sets each open data EBLOCK's write position to the device's:
// WBLOCKs of actions whose records were lost are aborted-write garbage. One
// holding fewer WBLOCKs than redo replayed and erased more often than the
// summary says lost the FreeEBlock of a GC or migration erase: it is freed,
// and settle logs that, so it is never rewritten from WBLOCK 0 unlogged.
func (r *recovery) reconcile() (err error) {
	c, fixLSN := r.c, r.last+1
	for _, o := range c.st.OpenEBlocks() {
		ch, eb := o.Channel, o.EBlock
		d, _ := c.st.Desc(ch, eb) // in range, as the table listed it
		pos, _ := c.port.nextProgramPosition(ch, eb)
		erases, _ := c.port.eraseCount(ch, eb)
		switch {
		case o.Stream == record.StreamLog:
		case pos < int(d.DataWBlocks) && erases > int(d.EraseCount):
			r.freed = append(r.freed, [2]int{ch, eb})
			err = c.st.FreeEBlock(ch, eb, fixLSN)
		case pos > int(d.DataWBlocks):
			err = c.st.AddAvail(ch, eb, (pos-int(d.DataWBlocks))*c.geo.WBlockBytes, fixLSN)
			fallthrough
		default:
			if err == nil {
				err = c.st.SetDataWBlocks(ch, eb, pos, fixLSN)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// resumeLog resumes the log at the tail candidates, the carried records
// its buffer, and rebuilds the provisioner's cursors.
func (r *recovery) resumeLog() error {
	c := r.c
	if len(r.cands) == 0 {
		return fmt.Errorf("core: log chain has no resume candidates")
	}
	c.prov.SetLogCursorFromCandidates(r.cands)
	var err error
	c.log, err = wal.Resume(logSink{c}, c.geo.WBlockBytes, r.tail.LastLSN+1, r.cands, r.tail.Pages, wal.WithRegistry(c.reg), wal.WithTracer(c.trc))
	if err != nil {
		return err
	}
	for _, rec := range r.carried { // they take back the LSNs they were found at
		put(c, rec)
	}
	if _, err := c.logFrames(); err != nil {
		return err
	}
	c.hintLSN.Store(uint64(r.last + 1))
	c.prov.RebuildFromSummary()
	c.lastCkptLSN = r.last + 1
	return r.forceCarried()
}

// settle makes what this recovery read back hold for every later one: a
// rejected action gets an Abort, a verified one the Garbage and Done its
// install never logged — the Garbage names what redo credited, so a Done
// means its action's Garbage is complete — and eraseAndFreeLocked forces
// them before an EBLOCK that proved the action goes, as for a live install.
func (r *recovery) settle() error {
	r.c.met.recoverVerifyBytes.Add(r.verifyBytes)
	for _, id := range r.readIDs {
		r.c.met.recoverVerified.Inc()
		p := r.unproven[id]
		if !p.ok {
			r.c.met.recoverRejected.Inc()
		}
		var err error
		switch {
		case r.c.log.Dead(): // forceCarried met a dead log: nothing appended could be durable
		case p.ok:
			err = r.c.lazyGarbageLocked(id, p.credited)
		default:
			_, err = r.c.append(record.Abort{Action: id})
		}
		if err != nil {
			return err
		}
	}
	for _, k := range r.freed { // the first flush after it then forces (carryLocked)
		var err error
		if r.c.freedLSN, err = r.c.append(record.FreeEBlock{Channel: uint32(k[0]), EBlock: uint32(k[1])}); err != nil && !r.c.log.Dead() {
			return err
		}
	}
	settled := r.c.lsnHint() - 1
	for _, id := range r.readIDs {
		if p := r.unproven[id]; p.ok {
			for _, eb := range p.ebs {
				r.c.doneLSN[eb] = settled // the last one: a force covers them all
			}
		}
	}
	return nil
}

// forceCarried lands a page holding the carried records recovery found, so
// a second crash does not depend on a trailer GC may erase. On a dead log
// they stay in their trailers, as writes fail.
func (r *recovery) forceCarried() error {
	c := r.c
	if len(r.carried) == 0 || c.forceLog() != nil {
		return nil
	}
	// The page moved the log's tail: retire the log EBLOCKs fixUps kept
	// open for candidates the log no longer uses, as the next Open would.
	cands, err := c.log.StartCandidates()
	for _, s := range r.cands {
		d, derr := c.st.Desc(s.Channel, s.EBlock)
		if err == nil && derr == nil && d.State == summary.Open && !slices.ContainsFunc(cands, func(n wal.Slot) bool { return n.Channel == s.Channel && n.EBlock == s.EBlock }) {
			err = c.st.CloseEBlock(s.Channel, s.EBlock, uint64(r.last), 0, r.last+1)
		}
	}
	return err
}

// readBack extends sum, an unproven action's CRC-32C so far, with what the
// media holds at a; not ok if a's last WBLOCK was never programmed (the
// simulator reads that as zeroes, not an ECC error).
func (r *recovery) readBack(sum uint32, a addr.PhysAddr) (_ uint32, ok bool) {
	next, err := r.c.port.nextProgramPosition(a.Channel(), a.EBlock())
	if err != nil || (a.End()-1)/r.c.geo.WBlockBytes >= next {
		return 0, false
	}
	data, _, err := r.c.port.read(a.Channel(), a.EBlock(), a.Offset(), a.Length())
	r.verifyBytes += int64(len(data))
	return crc32.Update(sum, pageSum, data), err == nil
}

// metaReadable reports whether the metadata block a conditional close
// describes is on the media (it is programmed last, DESIGN.md §4 decision 4).
func (r *recovery) metaReadable(cl record.CloseEBlock) bool {
	w := r.c.geo.WBlockBytes
	raw, _, err := r.c.port.read(int(cl.Channel), int(cl.EBlock), int(cl.DataWBlocks)*w, int(cl.MetaWBlocks)*w)
	if err == nil {
		r.verifyBytes += int64(len(raw))
		_, err = summary.DecodeMetaBlock(raw)
	}
	return err == nil
}

// replayRecordLocked applies one log record during pass 2 using the
// paper's flush-LSN-guarded case analysis (§VIII-C3).
func (r *recovery) replayRecordLocked(lsn record.LSN, rec record.Record) error {
	c := r.c
	if w, cond, ok := pageWrite(rec); ok {
		c.updateSeq++
		return r.replayWriteLocked(lsn, w, cond)
	}
	switch rec := rec.(type) {
	case record.Commit:
		if r.committed[rec.Action] && rec.SID != 0 {
			c.sess.AdvanceTo(rec.SID, rec.WSN)
		}
	case record.Garbage:
		for _, p := range rec.Pairs {
			if _, err := r.credit(p.Addr, lsn); err != nil {
				return err
			}
		}
	case record.OpenEBlock:
		ch, eb := int(rec.Channel), int(rec.EBlock)
		d, err := c.st.Desc(ch, eb)
		if err != nil {
			return err
		}
		if lsn > c.st.FlushLSNFor(ch, eb) || d.State != summary.Open {
			return r.reopen(ch, eb, rec.Stream, d, lsn)
		}
		c.st.SetOpenLSN(ch, eb, lsn)
	case record.CloseEBlock:
		if !r.committed[rec.Action] && rec.Action != 0 {
			return nil // logged ahead of its metadata by an action that did not commit
		}
		ch, eb := int(rec.Channel), int(rec.EBlock)
		flush := c.st.FlushLSNFor(ch, eb)
		d, err := c.st.Desc(ch, eb)
		if err != nil || d.State == summary.Used && lsn <= flush {
			return err // case 2: already reflected
		}
		d.State, d.Timestamp, d.DataWBlocks, d.MetaWBlocks = summary.Used, rec.Timestamp, rec.DataWBlocks, rec.MetaWBlocks
		if err := c.st.SetDesc(ch, eb, d, lsn); err != nil {
			return err
		}
		if lsn > flush {
			// Reconstruct the fragmentation only the volatile AVAIL knew:
			// the gap between the last data byte and the metadata region,
			// plus the unusable tail after the metadata.
			w := c.geo.WBlockBytes
			frag := (c.geo.WBlocksPerEBlock() - int(rec.DataWBlocks) - int(rec.MetaWBlocks)) * w
			if o, ok := r.open[[2]int{ch, eb}]; ok && int(rec.DataWBlocks)*w > o.end {
				frag += int(rec.DataWBlocks)*w - o.end
			}
			if frag > 0 {
				if err := c.st.AddAvail(ch, eb, frag, lsn); err != nil {
					return err
				}
			}
		}
		r.forget(ch, eb)
	case record.FreeEBlock:
		ch, eb := int(rec.Channel), int(rec.EBlock)
		d, err := c.st.Desc(ch, eb)
		if err != nil || lsn <= c.st.FlushLSNFor(ch, eb) || d.State == summary.Free {
			return err
		}
		if err := c.st.SetDesc(ch, eb, summary.Descriptor{State: summary.Free, EraseCount: d.EraseCount + 1}, lsn); err != nil {
			return err
		}
		r.forget(ch, eb)
	case record.SessionOpen:
		c.sess.RestoreOpen(rec.SID, rec.Tenant, rec.Priority)
	case record.SessionClose:
		c.sess.RestoreClose(rec.SID)
	}
	return nil
}

// reopen redoes the opening of EBLOCK (ch, eb) for stream at lsn.
func (r *recovery) reopen(ch, eb int, stream record.StreamKind, d summary.Descriptor, lsn record.LSN) error {
	d = summary.Descriptor{State: summary.Open, Stream: stream, EraseCount: d.EraseCount}
	if err := r.c.st.SetDesc(ch, eb, d, lsn); err != nil {
		return err
	}
	r.c.st.ClearMeta(ch, eb)
	r.c.st.SetOpenLSN(ch, eb, lsn)
	r.open[[2]int{ch, eb}] = openWrites{post: true}
	return nil
}

// forget drops the open-EBLOCK state of (ch, eb), closed or freed at redo.
func (r *recovery) forget(ch, eb int) {
	r.c.st.ClearMeta(ch, eb)
	r.c.st.SetOpenLSN(ch, eb, 0)
	delete(r.open, [2]int{ch, eb})
}

// replayWriteLocked redoes one LPAGE write: summary-table case 1, then the
// mapping install of a committed user page (table pages had pass 1); an
// aborted action's new address is AVAIL.
func (r *recovery) replayWriteLocked(lsn record.LSN, w record.GCUpdate, conditional bool) error {
	c := r.c
	ch, eb := w.New.Channel(), w.New.EBlock()
	flush := c.st.FlushLSNFor(ch, eb)
	d, err := c.st.Desc(ch, eb)
	if err != nil {
		return err
	}
	// Case 1 (§VIII-C3): skip only when the EBLOCK is closed and the
	// summary page already reflects this record.
	if d.State == summary.Open || lsn > flush {
		if d.State != summary.Open {
			// The write implies the EBLOCK was open; restore that.
			if err := r.reopen(ch, eb, record.StreamUser, d, lsn); err != nil {
				return err
			}
			d.DataWBlocks = 0
		}
		if err := c.st.AppendMeta(ch, eb, summary.MetaEntry{LPID: w.LPID, Type: w.Type, Offset: w.New.Offset(), Length: w.New.Length()}); err != nil {
			return err
		}
		o := r.open[[2]int{ch, eb}]
		if lsn > flush {
			// A gap before this offset is run-tail padding. The flushed
			// summary page counts what lies below its DataWBlocks boundary
			// (runs end at WBLOCK boundaries before a flush): gaps count
			// byte-exact from there or the previous record's end, the later.
			if !o.post {
				o.end = max(o.end, int(d.DataWBlocks)*c.geo.WBlockBytes)
			}
			o.post = true
			if w.New.Offset() > o.end {
				if err := c.st.AddAvail(ch, eb, w.New.Offset()-o.end, lsn); err != nil {
					return err
				}
			}
			wb := c.geo.WBlockBytes
			if wbEnd := (w.New.End() + wb - 1) / wb; wbEnd > int(d.DataWBlocks) {
				if err := c.st.SetDataWBlocks(ch, eb, wbEnd, lsn); err != nil {
					return err
				}
			}
		}
		o.end = max(o.end, w.New.End())
		r.open[[2]int{ch, eb}] = o
	}
	if !r.committed[w.Action] {
		_, err := r.credit(w.New, lsn) // aborted action: the provisioned space is garbage (case 3)
		return err
	}
	if w.Type != addr.PageUser {
		return nil // table-page homes were repaired in pass 1
	}
	// What an install supersedes is AVAIL (DESIGN.md §4 decision 13): a
	// relocation's victim page always, an Update's old version when the
	// action has no Done and no durable Garbage record names it.
	if conditional {
		if moved, err := c.mt.SetIf(w.LPID, w.Old, w.New, lsn); err != nil || !moved {
			return err
		}
		_, err = r.credit(w.Old, lsn)
		return err
	}
	p := r.unproven[w.Action]
	if p == nil {
		return c.mt.Set(w.LPID, w.New, lsn)
	}
	old, err := c.mt.Swap(w.LPID, w.New, lsn)
	g := record.AddrPair{LPID: w.LPID, Addr: old}
	if err != nil || old == w.New || p.garbage[g] {
		return err
	}
	credited, err := r.credit(old, lsn)
	if credited {
		p.credited = append(p.credited, g)
	}
	return err
}

// credit counts a superseded version as AVAIL as a Garbage record at lsn
// does, and reports whether it did: not when its EBLOCK's summary page was
// flushed after lsn, which counts it already or describes a later life.
func (r *recovery) credit(a addr.PhysAddr, lsn record.LSN) (bool, error) {
	ch, eb := a.Channel(), a.EBlock()
	if !a.IsValid() || lsn <= r.c.st.FlushLSNFor(ch, eb) {
		return false, nil
	}
	return true, r.c.st.AddAvail(ch, eb, a.Length(), lsn)
}
