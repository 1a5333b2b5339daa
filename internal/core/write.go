package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"eleos/internal/addr"
	"eleos/internal/bufpool"
	"eleos/internal/flash"
	"eleos/internal/provision"
	"eleos/internal/record"
	"eleos/internal/session"
	"eleos/internal/summary"
	"eleos/internal/trace"
)

// flushRef identifies one (sid, wsn) flush carried by an action: one per
// sub-flush of the group, and the commit, session-advance and trace
// machinery fan out over them.
type flushRef struct {
	sid   uint64
	wsn   uint64
	tid   uint64 // flight-recorder trace ID (0 = untraced)
	pages int    // logical page count of this flush
	bytes int64  // logical byte count of this flush
}

// action carries one system action — a user flush or a coalesced group of
// them, a GC relocation, an EBLOCK migration, a checkpoint's table flush —
// through the steps every kind shares: initLocked logs it and queues its
// programs, one device round programs the data beside the commit force, and
// landLocked settles and installs it. Keeping it explicit (instead of
// controller fields) lets many actions be in flight at once.
type action struct {
	id   uint64
	kind record.ActionKind
	hint record.LSN // lsnHint at init; pins the truncation LSN while active

	buf   []byte                // aligned page images, back to back
	sum   uint32                // CRC-32C of buf: what the Commit records carry (pageSum)
	pb    *bufpool.Buf          // a user action's pooled buf; released by finishRoundLocked after writeUser
	bps   []provision.BatchPage // layout handed to the provisioner
	plan  *provision.Plan
	first record.LSN // plan.Pages[i]'s Update (GCUpdate) record has LSN first+i
	// olds are a relocation's source addresses: each page installs only if
	// it is still there (GCUpdate). nil for the other kinds.
	olds []addr.PhysAddr
	// seal, set by a checkpoint, completes buf once the plan's records have
	// their LSNs — a summary page embeds its own (§VIII-C3) — and sets sum.
	seal func(first record.LSN)

	subs    []flushRef  // the flushes this action carries (≥1; a system action's one is zero)
	subsArr [1]flushRef // inline storage for the group of one

	// The data WBLOCK carrying the commit (carryLocked): its image, released
	// with pb, and its trailer's size; 0 when the round forces the log.
	img     *bufpool.Buf
	carried int
}

// kinds names what a kind changes in the shared steps: its programs' source
// and crash points (init logged, round landed, a media failure's Abort).
var kinds = [...]struct {
	src               flash.Source
	init, land, abort string
}{
	record.ActionUser:       {flash.SrcUser, "write.after-init", "write.after-exec", "write.after-abort"},
	record.ActionGC:         {flash.SrcGC, "gc.after-init", "gc.after-commit", "gc.after-abort"},
	record.ActionMigration:  {flash.SrcGC, "migrate.after-init", "migrate.after-commit", "migrate.after-abort"},
	record.ActionCheckpoint: {flash.SrcCheckpoint, "ckpt.after-init", "ckpt.after-commit", "ckpt.after-abort"},
}

// SubFlush is one host flush: a buffer of pages with its own (SID, WSN)
// ack semantics, trace attribution and outcome. The network front-end
// hands WriteBatchGroup one per request, or — coalescing — one per
// merged connection. Pages may be zero-copy views into pooled frames;
// the caller keeps those frames alive until WriteBatchGroup returns.
type SubFlush struct {
	SID     uint64
	WSN     uint64
	TraceID uint64 // flight-recorder trace ID (0 = assign when tracing)
	Pages   []LPage
	Err     error // per-sub outcome, valid after WriteBatchGroup returns

	state subState
}

// subState tracks a sub-flush through WriteBatchGroup's claim rounds.
type subState uint8

const (
	subPending subState = iota // no claim yet: waits for its WSN's turn
	subClaimed                 // holds its (sid, wsn) claim for this round's action
	subDone                    // Err is final
)

// WriteBatch durably writes a buffer of variable-size logical pages as one
// atomic system action (§IV) — a group of one. Pages are applied in buffer
// order: a later page for the same LPID overwrites an earlier one.
//
// sid/wsn order buffers within a session (§III-A2): pass sid = 0 for
// unordered writes. A WSN already applied returns nil without re-applying
// (the paper re-ACKs the highest WSN); a WSN ahead of its predecessors
// blocks until they arrive.
//
// WriteBatch is safe for concurrent use. Concurrent batches pipeline: each
// holds c.mu only for the claim, the provision/log/submit critical section,
// and the install; the flash programs run on the device's per-channel FIFOs
// and the commit force runs beside them, both with the lock released
// (committers share forced log pages — group commit).
func (c *Controller) WriteBatch(sid, wsn uint64, pages []LPage) error {
	s := SubFlush{SID: sid, WSN: wsn, Pages: pages}
	c.WriteBatchGroup([]*SubFlush{&s})
	return s.Err
}

// WriteBatchGroup durably writes independent flushes through shared
// system actions: every sub whose WSN can be claimed now joins one
// provision/program/commit cycle, and the rest are claimed again once
// that action has installed. Each sub-flush keeps its own semantics:
//
//   - A stale WSN is re-ACKed (Err = nil) without joining an action. An
//     early WSN, or a duplicate of an in-flight one, waits for a later
//     round — on wsnCond only when no sub of the group is claimable, so a
//     gap in one session never stalls the other subs' write.
//   - One Commit record is appended per sub, all with the action's id and
//     checksum, so every merged (sid, wsn) commits atomically with the
//     action and recovery advances each session independently.
//   - A malformed sub is rejected alone (its Err set, claim released);
//     its groupmates still write.
//
// On return every sub's Err is set. An action's media failures and crash
// outcomes apply to all subs it carried.
func (c *Controller) WriteBatchGroup(subs []*SubFlush) {
	for _, s := range subs {
		s.Err, s.state = nil, subPending
		if s.TraceID == 0 {
			s.TraceID = c.trc.NewTraceID()
		}
		c.trc.Emit(trace.KBatchStart, s.TraceID, s.SID, s.WSN, int64(len(s.Pages)), 0)
	}
	// Claim stage: lock acquisition plus WSN admission (which may wait for
	// predecessor WSNs).
	tClaim := time.Now()
	c.mu.Lock()
	for c.claimLocked(subs) {
		c.mu.Unlock()
		c.met.claimNS.ObserveDuration(time.Since(tClaim))
		for _, s := range subs {
			if s.state == subClaimed {
				c.trc.Span(trace.KClaim, s.TraceID, s.SID, s.WSN, tClaim, 0, 0)
			}
		}
		// Validating, copying and padding the pages is per-action work,
		// done outside the lock.
		a := layoutClaimed(subs)
		c.mu.Lock()
		c.finishRoundLocked(a, subs)
		tClaim = time.Now()
	}
	c.mu.Unlock()
	for _, s := range subs {
		var fail int64
		if s.Err != nil {
			fail = 1
		}
		c.trc.Emit(trace.KBatchEnd, s.TraceID, s.SID, s.WSN, fail, 0)
	}
}

// claimLocked gates every pending sub on its session's write sequence
// number (§III-A2) and claims (sid, wsn) for those whose turn it is, so a
// concurrent duplicate submission of the same WSN cannot be admitted while
// this one runs outside the lock. Stale and erroneous subs are finished
// in place. It reports whether any sub holds a claim; when none does but
// some still wait for a predecessor (or for an in-flight duplicate to
// resolve), it blocks on wsnCond and tries again.
func (c *Controller) claimLocked(subs []*SubFlush) bool {
	for {
		claimed, waiting := false, false
		for _, s := range subs {
			if s.state != subPending {
				continue
			}
			key := [2]uint64{s.SID, s.WSN}
			v := session.Apply // unordered (sid 0) writes are always next
			var err error
			switch {
			case c.port.dead():
				err = ErrCrashed
			case len(s.Pages) == 0:
				err = ErrEmptyBatch
			case s.SID != 0:
				v, _, err = c.sess.Check(s.SID, s.WSN)
			}
			switch {
			case err != nil:
				s.Err, s.state = err, subDone
			case v == session.Stale:
				// Already applied; the re-ACK is the success path.
				c.met.staleWrites.Inc()
				s.state = subDone
			case v == session.Early || c.wsnInflight[key]:
				waiting = true
			default:
				if s.SID != 0 {
					c.wsnInflight[key] = true
				}
				s.state, claimed = subClaimed, true
			}
		}
		if claimed || !waiting {
			return claimed
		}
		c.wsnCond.Wait()
	}
}

// layoutClaimed lays the claimed subs' pages back to back (64-byte
// aligned) in one pooled write buffer, exactly as a batch arrives over
// the wire, so the steady-state write path allocates no per-action
// program buffer. Validation is per sub so one malformed flush drops out
// alone, its Err set; it returns nil when no claimed sub was valid.
func layoutClaimed(subs []*SubFlush) *action {
	total, npages, nsubs := 0, 0, 0
	for _, s := range subs {
		if s.state != subClaimed {
			continue
		}
		n, err := validatePages(s.Pages)
		if err != nil {
			s.Err = err
			continue
		}
		total += n
		npages += len(s.Pages)
		nsubs++
	}
	if nsubs == 0 {
		return nil
	}
	a := &action{kind: record.ActionUser, pb: bufpool.Get(total), bps: make([]provision.BatchPage, 0, npages)}
	a.buf, a.subs = a.pb.Bytes(), a.subsArr[:0]
	if nsubs > 1 {
		a.subs = make([]flushRef, 0, nsubs)
	}
	off := 0
	for _, s := range subs {
		if s.state != subClaimed || s.Err != nil {
			continue
		}
		a.subs = append(a.subs, flushRef{sid: s.SID, wsn: s.WSN, tid: s.TraceID, pages: len(s.Pages), bytes: logicalBytes(s.Pages)})
		a.bps, off = layoutPages(a.buf, a.bps, off, s.Pages)
	}
	a.sum = crc32.Checksum(a.buf[:off], pageSum)
	return a
}

// pageSum is the polynomial of the checksum an action's Commit carries over
// its page images: CRC-32C, which amd64 and arm64 compute in hardware.
var pageSum = crc32.MakeTable(crc32.Castagnoli)

// finishRoundLocked runs the round's action (nil when every claimed sub
// was malformed) and ends the round: the one place that returns the
// pooled program buffer and releases WSN claims. The flash programs have
// completed (or were never submitted) when writeUser returns, so nothing
// reads a.buf past this point.
func (c *Controller) finishRoundLocked(a *action, subs []*SubFlush) {
	var err error
	if a != nil {
		if c.port.dead() {
			err = ErrCrashed
		} else {
			err = c.writeUser(a)
		}
		a.pb.Release()
		if a.img != nil {
			a.img.Release()
		}
	}
	for _, s := range subs {
		if s.state != subClaimed {
			continue
		}
		s.state = subDone
		if s.Err == nil {
			s.Err = err
		}
		if s.SID != 0 {
			delete(c.wsnInflight, [2]uint64{s.SID, s.WSN})
		}
	}
	c.wsnCond.Broadcast()
	if a != nil && err == nil {
		// The flush that tips a channel under the GC threshold, or the log
		// over the checkpoint threshold, waits here between its install
		// and its ack; the span says so under its trace ID.
		t0 := time.Now()
		gc := c.maybeGCLocked()
		if ckpt := c.maybeCheckpointLocked(); gc || ckpt {
			c.spanSubs(trace.KMaintain, a, t0, time.Now())
		}
	}
}

// logicalBytes sums the pages' logical (pre-alignment) sizes.
func logicalBytes(pages []LPage) int64 {
	var n int64
	for _, p := range pages {
		n += int64(len(p.Data))
	}
	return n
}

// validatePages rejects empty or non-user pages and returns the total
// aligned buffer size the sub-flush needs. Split from layoutPages so each
// sub-flush is validated in isolation before all of them are laid into
// one shared buffer.
func validatePages(pages []LPage) (alignedTotal int, err error) {
	total := 0
	for _, p := range pages {
		if len(p.Data) == 0 {
			return 0, fmt.Errorf("%w: LPID %d has no data", ErrEmptyBatch, p.LPID)
		}
		if !p.LPID.IsUser() {
			return 0, fmt.Errorf("%w: %d", ErrBadLPID, p.LPID)
		}
		total += addr.AlignUp(len(p.Data))
	}
	return total, nil
}

// layoutPages copies already-validated pages into buf starting at off,
// zeroing each page's alignment padding (pooled buffers arrive dirty),
// and appends the provisioning layout to bps. It returns the extended
// layout and the next free offset.
func layoutPages(buf []byte, bps []provision.BatchPage, off int, pages []LPage) ([]provision.BatchPage, int) {
	for _, p := range pages {
		n := addr.AlignUp(len(p.Data))
		bps = append(bps, provision.BatchPage{LPID: p.LPID, Type: addr.PageUser, Length: n, BufOff: off})
		copy(buf[off:], p.Data)
		clear(buf[off+len(p.Data) : off+n])
		off += n
	}
	return bps, off
}

// spanSubs emits one span from t0 to t1 per flush the action carries, so
// every merged sub-flush of a coalesced group (and the single flush of a
// plain batch) sees the action's stage under its own trace ID.
func (c *Controller) spanSubs(k trace.Kind, a *action, t0, t1 time.Time) {
	for i := range a.subs {
		s := &a.subs[i]
		c.trc.SpanUntil(k, s.tid, s.sid, s.wsn, t0, t1, 0, 0)
	}
}

// writeUser runs one user system action — one flush, or a coalesced
// group of them sharing the provision/program/commit machinery. Called
// and returned with c.mu held; the lock is released for the one device
// round in which the flash programs execute and the commit record is
// forced. The caller owns a.pb and releases it after writeUser returns:
// every read of a.buf (the flash programs included) has completed by then.
func (c *Controller) writeUser(a *action) error {
	c.updateSeq += uint64(len(a.bps))
	tInit := time.Now()

	// Initialization phase (§IV-A).
	a.hint = c.lsnHint()
	plan, err := c.prov.ProvisionBatch(a.bps, c.clock, a.hint)
	if errors.Is(err, provision.ErrNoSpace) {
		// Waits for a pass in flight, then runs its own; c.mu was released
		// meanwhile, so the hint is read again.
		c.gcAllLocked()
		a.hint = c.lsnHint()
		plan, err = c.prov.ProvisionBatch(a.bps, c.clock, a.hint)
		// A channel GC could not free (its EBLOCKs worn out) does not stop
		// a batch that fits the others: the deal starts one channel on.
		for n := 1; n < c.geo.Channels && errors.Is(err, provision.ErrNoSpace); n++ {
			c.prov.SkipChannel()
			plan, err = c.prov.ProvisionBatch(a.bps, c.clock, a.hint)
		}
	}
	if err != nil {
		return err
	}
	a.plan = plan
	batch, err := c.initLocked(a)
	if errors.Is(err, provision.ErrNoSpace) {
		// Log space ran out mid-init; GC plus the checkpoint it takes first
		// free truncated log EBLOCKs, so the caller's retry can proceed.
		c.gcAllLocked()
		return fmt.Errorf("%w: log space exhausted: %v", ErrWriteFailed, err)
	}
	if err != nil {
		return err
	}

	// Execution phase (§IV-B, with §IV-C's force inside it): one device
	// round. The data programs are queued on their channels' FIFOs and the
	// commit page is forced on the log's channel. Under wall latency the
	// channel workers run the data beside the force, so a flush pays one
	// program latency, not two — or none, when a data WBLOCK carries the
	// commit; with it off, Wait below runs the data after the force. A user
	// action releases c.mu for the round; a system action runs the same
	// round holding it (runLocked).
	tExec := time.Now()
	c.met.initNS.ObserveDuration(tExec.Sub(tInit))
	c.spanSubs(trace.KInit, a, tInit, tExec)
	c.mu.Unlock()
	var forceErr error
	if a.carried == 0 {
		forceErr = c.log.Force()
	}
	res := c.port.wait(batch)
	// The stages stay a sum: program_wait ends when the data is complete,
	// force_wait is the rest until the commit page is durable (≈ 0 if it won).
	tData, tForced := res.Done, time.Now()
	c.met.programWaitNS.ObserveDuration(tData.Sub(tExec))
	c.spanSubs(trace.KProgramWait, a, tExec, tData)
	c.met.forceWaitNS.ObserveDuration(tForced.Sub(tData))
	c.spanSubs(trace.KForceWait, a, tData, tForced)
	c.mu.Lock()
	if len(res.FailedEBlocks) > 0 {
		c.met.mediaAborts.Inc()
		for i := range a.subs {
			s := &a.subs[i]
			c.trc.Emit(trace.KMediaAbort, s.tid, s.sid, s.wsn, int64(len(res.FailedEBlocks)), 0)
		}
	}
	tInstall := time.Now()
	if err := c.landLocked(a, res, forceErr); err != nil {
		return err
	}

	for i := range a.subs {
		s := &a.subs[i]
		c.met.bytesAccepted.Add(s.bytes)
		c.met.pages.Add(int64(s.pages))
		c.met.batchPages.Observe(int64(s.pages))
		c.tenantWriteLocked(s.sid, s.bytes, int64(s.pages))
	}
	if len(a.subs) > 1 {
		c.met.groupWrites.Inc()
		c.met.groupedFlushes.Add(int64(len(a.subs)))
	}
	c.met.bytesStored.Add(int64(len(a.buf))) // the aligned pages, back to back
	c.met.batches.Add(int64(len(a.subs)))
	tEnd := time.Now()
	c.met.installNS.ObserveDuration(tEnd.Sub(tInstall))
	c.spanSubs(trace.KInstall, a, tInstall, tEnd)
	return nil
}

// runLocked runs a GC, migration or checkpoint action provisioned as plan
// through writeUser's steps, holding c.mu through the device round. It
// carries one zero flush: one Commit, for no session.
func (c *Controller) runLocked(a *action, plan *provision.Plan) error {
	a.plan, a.subs = plan, a.subsArr[:1]
	batch, err := c.initLocked(a)
	if err != nil {
		return err
	}
	forceErr := c.log.Force()
	return c.landLocked(a, c.port.wait(batch), forceErr)
}

// initLocked ends a provisioned action's init phase in the c.mu hold that
// provisioned it — recovery's replay, the GC validity scan and the NAND rule
// need the log and each channel's FIFO to see WBLOCK ranges in ascending
// order: it logs the action and queues its programs, or aborts it.
func (c *Controller) initLocked(a *action) (*flash.Batch, error) {
	a.id = c.nextAction
	c.nextAction++
	c.active[a.id] = a.hint
	if err := c.logActionLocked(a); err != nil {
		c.abortActionLocked(a.id, a.plan)
		return nil, err
	}
	if err := c.crashIf(kinds[a.kind].init); err != nil {
		return nil, err
	}
	if a.kind == record.ActionUser {
		c.carryLocked(a)
	}
	return c.submitPlanLocked(a.buf, a.plan, kinds[a.kind].src)
}

// carryLocked lets a user action commit in its own data WBLOCK (DESIGN.md
// §4 decision 14): the log's carried set, its Commit among them, goes at
// the end of the plan's data WBLOCK with the most run-tail padding, which
// is then programmed as an inline image, and the round skips the force. It
// declines when the set does not fit, and while the last FreeEBlock is not
// durable: the freed EBLOCK may be open again — by this plan, or by another
// writer's whose force has not landed — and recovery would take it for Used
// and not look there.
func (c *Controller) carryLocked(a *action) {
	var io *provision.IO // the data WBLOCK with the most run-tail padding
	for i := range a.plan.IOs {
		if x := &a.plan.IOs[i]; x.Inline == nil && (io == nil || x.BufHi-x.BufLo < io.BufHi-io.BufLo) {
			io = x
		}
	}
	w := c.geo.WBlockBytes
	if io == nil || io.BufHi-io.BufLo == w || c.freedLSN > c.log.DurableLSN() {
		return
	}
	img := bufpool.Get(w)
	n := copy(img.Bytes(), a.buf[io.BufLo:io.BufHi])
	clear(img.Bytes()[n:])
	if a.carried = c.log.Carry(img.Bytes()[n:]); a.carried == 0 {
		img.Release()
		return
	}
	a.img, io.Inline = img, img.Bytes()
	// The erase guard covers the set until the install raises it to the
	// Done: an abort never does.
	k := [2]int{io.Channel, io.EBlock}
	c.doneLSN[k] = max(c.doneLSN[k], c.lsnHint()-1)
}

// logActionLocked logs an action's init-phase records in one log append:
// an OpenEBlock per data EBLOCK the plan opens, an Update (a relocation's
// GCUpdate) per page, a CloseEBlock per EBLOCK it closes, conditional on
// the action (§VIII-C), and a Commit per carried flush with the action's id
// and checksum: every merged (sid, wsn) of a group commits atomically with
// the action. A checkpoint's pages are appended first, so that seal has
// their LSNs before the Commit carries its checksum. The close of an EBLOCK
// the plan writes no page to precedes the Updates, so the summary pages a
// checkpoint seals reflect it.
func (c *Controller) logActionLocked(a *action) error {
	for _, op := range a.plan.Opens { // a user or GC stream's: a log EBLOCK's record is the chain
		put(c, record.OpenEBlock{Channel: uint32(op.Channel), EBlock: uint32(op.EBlock), Stream: op.Stream})
	}
	for _, cl := range a.plan.Closes {
		if !writesTo(a.plan, cl) {
			putClose(c, a.id, cl)
		}
	}
	opens := record.LSN(c.nframes)
	for i, pg := range a.plan.Pages {
		if a.olds != nil {
			put(c, record.GCUpdate{Action: a.id, LPID: pg.LPID, Type: pg.Type, Old: a.olds[i], New: pg.Addr})
		} else {
			put(c, record.Update{Action: a.id, LPID: pg.LPID, Type: pg.Type, New: pg.Addr})
		}
	}
	if a.seal != nil {
		first, err := c.logFrames()
		if err != nil {
			return err
		}
		a.first, opens = first+opens, 0
		a.seal(a.first)
	}
	for _, cl := range a.plan.Closes {
		if writesTo(a.plan, cl) {
			putClose(c, a.id, cl)
		}
	}
	for _, s := range a.subs {
		put(c, record.Commit{Action: a.id, AKind: a.kind, SID: s.sid, WSN: s.wsn, Sum: a.sum})
	}
	first, err := c.logFrames()
	if a.seal == nil {
		a.first = first + opens
	}
	return err
}

// writesTo reports whether the plan places a page in the EBLOCK cl closes.
func writesTo(plan *provision.Plan, cl provision.CloseEvent) bool {
	for _, pg := range plan.Pages {
		if pg.Addr.Channel() == cl.Channel && pg.Addr.EBlock() == cl.EBlock {
			return true
		}
	}
	return false
}

// putClose puts the CloseEBlock record of cl, conditional on action id.
func putClose(c *Controller, id uint64, cl provision.CloseEvent) {
	put(c, record.CloseEBlock{Channel: uint32(cl.Channel), EBlock: uint32(cl.EBlock), Timestamp: cl.Timestamp,
		DataWBlocks: uint32(cl.DataWBlocks), MetaWBlocks: uint32(cl.MetaWBlocks), Action: id})
}

// landLocked settles an action after its round (res; forceErr from the log
// force). A media failure aborts it and migrates the failed EBLOCKs (§VII).
// Otherwise its closes are final, its pages install, its sessions advance
// and its Garbage and Done are appended (§VIII-C2); until the Done is
// durable recovery proves it by read-back, so c.doneLSN guards its EBLOCKs.
func (c *Controller) landLocked(a *action, res flash.BatchResult, forceErr error) error {
	c.finishPlanLocked(a.plan, res)
	// The submit pinned the plan's EBLOCKs against GC/migration erase. Every
	// exit from here on releases the pins — after the install or the abort,
	// whichever ends the action; the migration of an abort waits on pins and
	// would wait on its own, so that path releases them first.
	unpinned := false
	unpin := func() {
		if !unpinned {
			unpinned = true
			c.unpinPlanLocked(a.plan)
		}
	}
	defer unpin()
	if c.port.dead() {
		return ErrCrashed
	}
	if err := c.crashIf(kinds[a.kind].land); err != nil {
		return err
	}
	if len(res.FailedEBlocks) > 0 {
		// The commit record may be durable already: the Abort overrides it,
		// and until the Abort is durable the data does not verify.
		c.abortActionLocked(a.id, a.plan)
		if err := c.crashIf(kinds[a.kind].abort); err != nil {
			return err
		}
		unpin()
		c.migrateFailedLocked(res.FailedEBlocks, a.subs[0].tid)
		if c.port.dead() {
			return ErrCrashed // in the migration
		}
		return fmt.Errorf("%w: %v action %d", ErrWriteFailed, a.kind, a.id)
	}
	if err := c.commitForcedLocked(a, forceErr); err != nil {
		return err
	}
	for _, cl := range a.plan.Closes {
		c.closedLocked(cl.Channel, cl.EBlock)
	}
	garbage, err := c.installLocked(a)
	if err != nil {
		return err
	}
	for i := range a.subs {
		if s := &a.subs[i]; s.sid != 0 {
			if err := c.sess.Advance(s.sid, s.wsn); err != nil {
				return err
			}
		}
	}
	if err := c.lazyGarbageLocked(a.id, garbage); err != nil {
		return err
	}
	done := c.lsnHint() - 1
	for _, io := range a.plan.IOs {
		c.doneLSN[[2]int{io.Channel, io.EBlock}] = done
	}
	delete(c.active, a.id)
	return nil
}

// installLocked publishes an action's new addresses (§IV-C, §VI-C): an
// Update moves its page wherever it was, a GCUpdate only if the page is
// still where the relocation read it. What each install supersedes — or a
// relocation that lost its page — is garbage: it is credited to AVAIL and
// returned for the Garbage records.
func (c *Controller) installLocked(a *action) ([]record.AddrPair, error) {
	// c.mu's scratch: lazyGarbageLocked logs the garbage before c.mu is released.
	garbage, credits := c.garbage[:0], c.credits[:0]
	for i, pg := range a.plan.Pages {
		lsn := a.first + record.LSN(i)
		var gone addr.PhysAddr // what the install leaves behind
		var err error
		if a.olds != nil {
			var moved bool
			if moved, err = c.installRelocationLocked(pg.LPID, pg.Type, a.olds[i], pg.Addr, lsn); !moved {
				gone = pg.Addr
			}
		} else if pg.Type != addr.PageUser {
			gone, _ = c.currentAddrLocked(pg.LPID, pg.Type) // a table page's home: no lookup to fail
			c.setHomeLocked(pg.LPID, pg.Type, pg.Addr, lsn)
		} else if gone, err = c.mt.Swap(pg.LPID, pg.Addr, lsn); err == nil { // one shard lock
			c.invalidateRead(pg.LPID) // the read cache never serves pre-install bytes
		}
		if err != nil {
			return nil, err
		}
		if gone.IsValid() {
			garbage = append(garbage, record.AddrPair{LPID: pg.LPID, Addr: gone})
			credits = append(credits, summary.Credit{Addr: gone, LSN: lsn})
		}
	}
	c.garbage, c.credits = garbage, credits
	return garbage, c.st.AddAvails(credits)
}

// commitForcedLocked settles the round's force, which returned forceErr. A
// failed force kills the log: the commit is not durable. A system action
// aborts — inside a GC pass or a checkpoint the rescue's gcAllLocked would
// wait for itself. A user action gets one rescue (checkpoint + GC, a second
// force), then the controller crashes and recovery resolves the action.
func (c *Controller) commitForcedLocked(a *action, forceErr error) error {
	if forceErr != nil && a.kind != record.ActionUser {
		c.abortActionLocked(a.id, a.plan)
		return forceErr
	}
	if forceErr != nil && !c.port.dead() && !c.log.Dead() {
		c.gcAllLocked()
		c.mu.Unlock()
		forceErr = c.log.Force()
		c.mu.Lock()
	}
	switch {
	case forceErr == nil && a.carried > 0:
		c.met.commitsCarried.Inc()
		c.met.carriedBytes.Add(int64(a.carried))
		return nil
	case forceErr == nil:
		c.met.logForces.Inc()
		return nil
	}
	if c.port.dead() {
		return ErrCrashed
	}
	c.dieLocked()
	delete(c.active, a.id)
	c.met.aborted.Inc()
	return fmt.Errorf("%w: commit force failed: %v", ErrCrashed, forceErr)
}

// closedLocked retires what outlives an EBLOCK's close until its metadata
// is durable: the summary table's in-memory copy, a provisioner cursor.
func (c *Controller) closedLocked(ch, eb int) {
	c.st.ClearMeta(ch, eb)
	c.prov.DropOpen(ch, eb)
}

// submitPlanLocked queues a plan's I/O commands on the per-channel device
// workers and marks their EBLOCKs in flight. Must run in the same c.mu
// critical section as the provisioning: within a channel the FIFO queue
// must receive WBLOCK programs in provisioning order.
func (c *Controller) submitPlanLocked(buf []byte, plan *provision.Plan, src flash.Source) (*flash.Batch, error) {
	cmds := c.cmds[:0] // c.mu's scratch: SubmitBatch copies the commands out
	for _, io := range plan.IOs {
		data := io.Inline
		if data == nil {
			data = buf[io.BufLo:io.BufHi]
		}
		cmds = append(cmds, flash.BatchCmd{Channel: io.Channel, EBlock: io.EBlock, WBlock: io.WBlock, Data: data, Src: c.attributeSrc(src)})
	}
	c.cmds = cmds
	batch, err := c.port.submit(cmds)
	if err != nil {
		return nil, err
	}
	for _, io := range plan.IOs {
		key := [2]int{io.Channel, io.EBlock}
		c.inflight[key]++
		c.pinned[key]++
	}
	return batch, nil
}

// unpinPlanLocked releases the erase-protection pins taken at submit.
// Called once per plan when the owning action installs or aborts.
func (c *Controller) unpinPlanLocked(plan *provision.Plan) {
	for _, io := range plan.IOs {
		c.dropCount(c.pinned, [2]int{io.Channel, io.EBlock})
	}
}

// dropCount takes one count of k off a per-EBLOCK counter (c.inflight,
// c.pinned), deleting the entry at zero, and wakes the ioCond waiters.
func (c *Controller) dropCount(m map[[2]int]int, k [2]int) {
	if m[k]--; m[k] <= 0 {
		delete(m, k)
	}
	c.ioCond.Broadcast()
}

// finishPlanLocked retires a completed batch's in-flight bookkeeping and
// wakes waiters (GC, checkpoint and migration drain on ioCond).
func (c *Controller) finishPlanLocked(plan *provision.Plan, res flash.BatchResult) {
	for _, io := range plan.IOs {
		c.dropCount(c.inflight, [2]int{io.Channel, io.EBlock})
	}
	c.met.ioCommands.Add(int64(res.Attempted))
}

// waitInflightLocked blocks until no queued programs target (ch, eb) and
// no landed-but-uninstalled action pins it. The wait is bounded: queued
// programs always complete (the workers depend only on device locks), and
// pins drain when their action installs or aborts — both of which happen
// on every landLocked exit path.
func (c *Controller) waitInflightLocked(ch, eb int) {
	key := [2]int{ch, eb}
	for c.inflight[key] > 0 || c.pinned[key] > 0 {
		c.ioCond.Wait()
	}
}

// abortActionLocked aborts a system action: the provisioned space is
// treated as garbage via AVAIL (§IV-C); nothing is installed.
func (c *Controller) abortActionLocked(id uint64, plan *provision.Plan) {
	put(c, record.Abort{Action: id})
	lsn, _ := c.logFrames()
	for _, pg := range plan.Pages {
		_ = c.st.AddAvail(pg.Addr.Channel(), pg.Addr.EBlock(), pg.Addr.Length(), lsn)
	}
	delete(c.active, id)
	c.met.aborted.Inc()
}

// garbagePairsPerRecord chunks lazy Garbage log records.
const garbagePairsPerRecord = 256

// lazyGarbageLocked appends the lazy old-address records and the DONE
// record for a committed action (§VIII-C2). They are not forced.
func (c *Controller) lazyGarbageLocked(id uint64, pairs []record.AddrPair) error {
	for len(pairs) > 0 {
		n := min(garbagePairsPerRecord, len(pairs))
		put(c, record.Garbage{Action: id, Pairs: pairs[:n]})
		pairs = pairs[n:]
	}
	put(c, record.Done{Action: id})
	_, err := c.logFrames()
	return err
}

// migrateFailedLocked migrates every EBLOCK that suffered a write failure:
// committed LPAGEs still stored there are moved to new locations with the
// GC machinery, then the EBLOCK is erased (§VII). traceID attributes the
// migrations to the batch whose program failure triggered them (0 when
// the trigger was a GC/checkpoint action).
func (c *Controller) migrateFailedLocked(failed [][2]int, traceID uint64) {
	for _, f := range failed {
		if err := c.migrateEBlockLocked(f[0], f[1], traceID); err != nil {
			// Migration failures cascade into further migrations; a hard
			// error here leaves the EBLOCK for GC to retry.
			continue
		}
	}
}

func (c *Controller) migrateEBlockLocked(ch, eb int, traceID uint64) error {
	if c.migrationDepth >= 8 {
		return fmt.Errorf("core: migration depth exceeded for (%d,%d)", ch, eb)
	}
	c.migrationDepth++
	defer func() { c.migrationDepth-- }()
	defer c.trc.Span(trace.KMigration, traceID, 0, 0, time.Now(), int64(ch), int64(eb))

	// Other actions may still have programs queued against this EBLOCK;
	// they must land (and fail, feeding those actions' own abort paths)
	// before the migration reads metadata and erases.
	c.waitInflightLocked(ch, eb)

	d, err := c.st.Desc(ch, eb)
	if err != nil {
		return err
	}
	var entries []summary.MetaEntry
	switch d.State {
	case summary.Open:
		entries = c.st.Meta(ch, eb)
	case summary.Used:
		entries, err = c.readMetaLocked(ch, eb, d)
		if errors.Is(err, ErrCrashed) {
			return err
		}
		if err != nil {
			entries = nil // unreadable: nothing reachable lives here
			c.met.gcMetaUnreadable.Inc()
		}
	default:
		return nil
	}
	err = c.relocateLocked(ch, eb, entries, d.Timestamp, record.ActionMigration)
	if err != nil {
		return err
	}
	c.met.migrations.Inc()
	c.inflight[[2]int{ch, eb}]++ // its collector's count: see eraseAndFreeLocked
	defer c.dropCount(c.inflight, [2]int{ch, eb})
	return c.eraseAndFreeLocked([2]int{ch, eb})
}
