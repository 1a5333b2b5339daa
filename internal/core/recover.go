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

	// The homes pass 1 repairs: tiny table, locator, session snapshot (one);
	// gone is the home each table-page write it installed superseded.
	tiny, locator, sess []addr.PhysAddr
	gone                map[record.LSN]addr.PhysAddr

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
	r.gone = make(map[record.LSN]addr.PhysAddr)
	for _, lr := range r.recs {
		if w, cond, ok := pageWrite(lr.rec); ok && r.committed[w.Action] {
			r.setHome(lr.lsn, w, cond)
		}
	}
	if err := c.mt.LoadFromTiny(r.tiny); err != nil {
		return err
	}
	for _, lr := range r.recs {
		if w, cond, ok := pageWrite(lr.rec); ok && r.committed[w.Action] && w.Type == addr.PageMap {
			idx := int(w.LPID.TableIndex())
			if old := c.mt.PageAddr(idx); !cond || old == w.Old {
				c.mt.SetPageAddr(idx, w.New, lr.lsn)
				r.gone[lr.lsn] = old
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
// page at lsn: an Update sets its slot, a GCUpdate only if it still holds old.
func (r *recovery) setHome(lsn record.LSN, w record.GCUpdate, conditional bool) {
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
	for idx >= len(*s) {
		*s = append(*s, 0)
	}
	if old := (*s)[idx]; !conditional || old == w.Old {
		(*s)[idx], r.gone[lsn] = w.New, old
	}
}

// findCarried extends the records past the chain with the farthest carried
// set (DESIGN.md §4 decision 14) whose chain of trailers descends from a
// page the walk visited. Every non-log EBLOCK Free or Open at the chain's
// end is read from the first WBLOCK the chain does not explain up to its
// program position; a WBLOCK outside that window belongs to an action whose
// records the chain holds. A set's links are read where it names them.
// analyze and prove then run again over chain and carried records. A
// carried set holds no committed table-page write — system actions force
// their commits — so the homes repairTables set stand.
func (r *recovery) findCarried() error {
	c, w := r.c, r.c.geo.WBlockBytes
	// The pages the walk visited, each a set of no records that ends where
	// the page does, and every WBLOCK read: its linked set, or nil.
	sets := make(map[wal.Slot]*wal.Carried)
	skip := make(map[[2]int]bool) // log EBLOCKs: the chain's and its candidates'
	for _, p := range r.tail.Pages {
		sets[p.Slot] = &wal.Carried{Root: p.Slot, First: p.Last + 1}
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
	// linked returns the set at s if each link it names, hop by hop, is on
	// the media, roots at the set's page and ends one LSN before the set
	// after it, back to a page the walk visited; otherwise nil.
	var linked func(s wal.Slot) *wal.Carried
	linked = func(s wal.Slot) *wal.Carried {
		set, ok := sets[s]
		if !ok {
			// Until it is decoded, a set that names itself, or a later
			// one, links to nothing.
			sets[s] = nil
			raw, _, _ := c.port.read(s.Channel, s.EBlock, s.WBlock*w, w) // unreadable: nil, which decodes as nothing
			if set, _ = wal.DecodeCarried(raw); set != nil {
				if prev := linked(set.Named); prev == nil || prev.Root != set.Root || prev.Last() != set.First-1 {
					set = nil
				}
			}
			sets[s] = set
		}
		return set
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
				if set := linked(wal.Slot{Channel: ch, EBlock: eb, WBlock: wb}); set != nil && set.Last() > reach {
					best, reach = set, set.Last()
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	var chain []*wal.Carried // newest first
	for set := best; len(set.Records) > 0; set = sets[set.Named] {
		chain = append(chain, set)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for j, rec := range chain[i].Records {
			if lsn := chain[i].First + record.LSN(j); lsn > r.last {
				r.recs = append(r.recs, logged{lsn: lsn, rec: rec})
				r.carried = append(r.carried, rec)
			}
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

// replayRecordLocked applies one log record during pass 2. §VIII-C3 is one
// rule: a record the flushed summary page of its EBLOCK reflects changes
// nothing in that page, and the volatile state — the metadata list, the
// open LSN, r.open — follows every record in log order.
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
		return r.life(int(rec.Channel), int(rec.EBlock), lsn, true, func(d *summary.Descriptor) {
			*d = summary.Descriptor{State: summary.Open, Stream: rec.Stream, EraseCount: d.EraseCount}
		})
	case record.CloseEBlock:
		if !r.committed[rec.Action] {
			return nil // logged ahead of its metadata by an action that did not commit
		}
		o, w := r.open[[2]int{int(rec.Channel), int(rec.EBlock)}], c.geo.WBlockBytes
		return r.life(int(rec.Channel), int(rec.EBlock), lsn, false, func(d *summary.Descriptor) {
			// Reconstruct the fragmentation only the volatile AVAIL knew: the
			// gap between the last data byte and the metadata region, plus
			// the unusable tail after the metadata.
			if !o.post {
				o.end = max(o.end, int(d.DataWBlocks)*w)
			}
			frag := max(0, int(rec.DataWBlocks)*w-o.end) + (c.geo.WBlocksPerEBlock()-int(rec.DataWBlocks)-int(rec.MetaWBlocks))*w
			d.State, d.Timestamp, d.DataWBlocks, d.MetaWBlocks = summary.Used, rec.Timestamp, rec.DataWBlocks, rec.MetaWBlocks
			d.Avail += uint64(frag)
		})
	case record.FreeEBlock:
		return r.life(int(rec.Channel), int(rec.EBlock), lsn, false, func(d *summary.Descriptor) {
			if d.State != summary.Free { // a second record of one erase counts it once
				*d = summary.Descriptor{State: summary.Free, EraseCount: d.EraseCount + 1}
			}
		})
	case record.SessionOpen:
		c.sess.RestoreOpen(rec.SID, rec.Tenant, rec.Priority)
	case record.SessionClose:
		c.sess.RestoreClose(rec.SID)
	}
	return nil
}

// reflected reports whether the flushed summary page covering (ch, eb)
// already holds what the record at lsn did to the EBLOCK (§VIII-C3).
func (r *recovery) reflected(ch, eb int, lsn record.LSN) bool {
	return lsn <= r.c.st.FlushLSNFor(ch, eb)
}

// life replays a life-cycle record of (ch, eb) at lsn: an OpenEBlock (open)
// starts a life, a CloseEBlock or FreeEBlock ends one. The volatile state
// restarts either way; redo changes the descriptor as the record did unless
// the page reflects it.
func (r *recovery) life(ch, eb int, lsn record.LSN, open bool, redo func(*summary.Descriptor)) error {
	k, openLSN, reflected := [2]int{ch, eb}, record.LSN(0), r.reflected(ch, eb, lsn)
	r.c.st.ClearMeta(ch, eb)
	delete(r.open, k)
	if open {
		openLSN, r.open[k] = lsn, openWrites{post: !reflected}
	}
	r.c.st.SetOpenLSN(ch, eb, openLSN)
	if reflected {
		return nil
	}
	d, err := r.c.st.Desc(ch, eb)
	if err == nil {
		redo(&d)
		err = r.c.st.SetDesc(ch, eb, d, lsn)
	}
	return err
}

// replayWriteLocked redoes one LPAGE write: its TAG, what no summary page
// reflects of it, then a committed action's install (a table page's home
// moved in pass 1) and what that superseded; an aborted action's new
// address is AVAIL.
func (r *recovery) replayWriteLocked(lsn record.LSN, w record.GCUpdate, conditional bool) error {
	c := r.c
	ch, eb, wb := w.New.Channel(), w.New.EBlock(), c.geo.WBlockBytes
	if err := c.st.AppendMeta(ch, eb, summary.MetaEntry{LPID: w.LPID, Type: w.Type, Offset: w.New.Offset(), Length: w.New.Length()}); err != nil {
		return err
	}
	o := r.open[[2]int{ch, eb}]
	if !r.reflected(ch, eb, lsn) {
		// A gap before this offset is run-tail padding. The flushed summary
		// page counts what lies below its DataWBlocks boundary (runs end at
		// WBLOCK boundaries before a flush): gaps count byte-exact from
		// there or the previous record's end, the later.
		d, err := c.st.Desc(ch, eb)
		if !o.post {
			o.end = max(o.end, int(d.DataWBlocks)*wb)
		}
		o.post = true
		if err == nil && w.New.Offset() > o.end {
			err = c.st.AddAvail(ch, eb, w.New.Offset()-o.end, lsn)
		}
		if wbEnd := (w.New.End() + wb - 1) / wb; err == nil && wbEnd > int(d.DataWBlocks) {
			err = c.st.SetDataWBlocks(ch, eb, wbEnd, lsn)
		}
		if err != nil {
			return err
		}
	}
	o.end = max(o.end, w.New.End())
	r.open[[2]int{ch, eb}] = o
	if !r.committed[w.Action] {
		_, err := r.credit(w.New, lsn) // aborted action: the provisioned space is garbage
		return err
	}
	// What an install supersedes is AVAIL (DESIGN.md §4 decision 13): a
	// relocation's victim page always, an Update's old version when the
	// action has no Done and no durable Garbage record names it. A table
	// page's home moved in pass 1, which kept what it superseded.
	old, moved, err := w.Old, true, error(nil)
	switch {
	case w.Type != addr.PageUser:
		old, moved = r.gone[lsn]
	case conditional:
		moved, err = c.mt.SetIf(w.LPID, w.Old, w.New, lsn)
	default:
		old, err = c.mt.Swap(w.LPID, w.New, lsn)
	}
	if err != nil || !moved {
		return err
	}
	if conditional {
		_, err = r.credit(old, lsn)
		return err
	}
	p := r.unproven[w.Action]
	g := record.AddrPair{LPID: w.LPID, Addr: old}
	if p == nil || old == w.New || p.garbage[g] {
		return nil
	}
	// No page holds this install's credit: a checkpoint sealed after it
	// would have forced its Done. So the credit counts as logged past the
	// log's end, where no page reflects it.
	credited, err := r.credit(old, r.last+1)
	if credited {
		p.credited = append(p.credited, g)
	}
	return err
}

// credit counts a superseded version as AVAIL as a Garbage record at lsn
// does, and reports whether it did: not when its EBLOCK's summary page
// reflects lsn, which counts it already or describes a later life.
func (r *recovery) credit(a addr.PhysAddr, lsn record.LSN) (bool, error) {
	if !a.IsValid() || r.reflected(a.Channel(), a.EBlock(), lsn) {
		return false, nil
	}
	return true, r.c.st.AddAvail(a.Channel(), a.EBlock(), a.Length(), lsn)
}
