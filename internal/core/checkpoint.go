package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/provision"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/trace"
	"eleos/internal/wal"
)

// Checkpoint performs a fuzzy checkpoint (§VIII-B): it flushes dirty
// mapping / small / summary pages and a full session-table snapshot with a
// checkpoint system action, which also closes long-open EBLOCKs, then
// determines the log truncation LSN and persists a checkpoint record to the
// reserved well-known area.
func (c *Controller) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.port.dead() {
		return ErrCrashed
	}
	return c.checkpointLocked()
}

// maybeCheckpointLocked takes the auto checkpoint when it is due and
// reports whether it did.
func (c *Controller) maybeCheckpointLocked() bool {
	due := c.cfg.AutoCheckpointLogBytes > 0 && c.logBytes() >= c.cfg.AutoCheckpointLogBytes
	if due {
		_ = c.checkpointLocked()
	}
	return due
}

func (c *Controller) checkpointLocked() error {
	if c.inCheckpoint {
		return nil
	}
	c.inCheckpoint = true
	defer func() { c.inCheckpoint = false }()
	t0 := time.Now()

	// The flush closes the EBLOCKs open since before the previous
	// checkpoint (a GC EBLOCK can stay open a long time); one with programs
	// in flight waits for the next checkpoint. A log EBLOCK is never closed
	// here and pins nothing: it logged no OpenEBlock (the chain is its
	// record) and is never a GC victim, and a log whose commits ride data
	// WBLOCKs keeps one open a long time.
	var closes []summary.OpenRef
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream != record.StreamLog && ref.OpenLSN != 0 && ref.OpenLSN < c.lastCkptLSN &&
			c.inflight[[2]int{ref.Channel, ref.EBlock}] == 0 {
			closes = append(closes, ref)
		}
	}
	if err := c.flushTablesLocked(true, closes); err != nil {
		return err
	}
	if err := c.crashIf("ckpt.after-flush"); err != nil {
		return err
	}
	// The flush's Garbage and Done are durable before its record: a crash
	// that lost them would leave the homes it superseded uncredited.
	if err := c.forceLog(); err != nil {
		return err
	}
	// Truncation LSN = min(active actions, dirty table pages, open
	// EBLOCKs) (§VIII-B), taken after the flush: the pages it wrote are
	// clean, so the log keeps only what the flush's own install and the
	// still-open EBLOCKs need, not the interval since the last checkpoint.
	trunc := c.log.NextLSN()
	consider := func(l record.LSN) {
		if l != 0 && l < trunc {
			trunc = l
		}
	}
	for _, l := range c.active {
		consider(l)
	}
	consider(c.mt.MinRecLSN())
	consider(c.st.MinRecLSN())
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream != record.StreamLog {
			consider(ref.OpenLSN)
		}
	}
	if trunc < c.lastTruncLSN {
		trunc = c.lastTruncLSN
	}

	// Assemble and persist the checkpoint record.
	ck := ckptRecord{
		Seq:        c.ckptSeq + 1,
		TruncLSN:   trunc,
		Tiny:       c.mt.TinyTable(),
		Locator:    c.st.Locator(),
		SessAddr:   c.sessSnapAddr,
		UpdateSeq:  c.updateSeq,
		NextAction: c.nextAction,
	}
	if s, first, ok := c.log.PageFor(trunc); ok {
		ck.StartSlots = []wal.Slot{s}
		ck.StartLSN = first
	} else if s, first, ok := c.log.LastPage(); ok {
		ck.StartSlots = []wal.Slot{s}
		ck.StartLSN = first
	} else {
		cands, err := c.log.StartCandidates()
		if err != nil {
			return err
		}
		ck.StartSlots = cands
		ck.StartLSN = c.log.NextLSN()
	}
	if err := c.writeCkptRecordLocked(&ck); err != nil {
		return err
	}
	c.ckptSeq = ck.Seq
	c.lastTruncLSN = trunc
	c.lastCkptLSN = c.log.NextLSN()
	c.log.Truncate(trunc)
	c.ckptPages = c.log.Stats().PageWrites
	c.met.checkpoints.Inc()
	c.met.checkpointNS.ObserveDuration(time.Since(t0))
	c.trc.Span(trace.KCheckpoint, 0, 0, 0, t0, int64(ck.Seq), 0)
	return nil
}

// flushTablesLocked writes dirty mapping pages, dirty small-table pages,
// dirty summary pages, and a full session snapshot as one checkpoint
// system action through the write path's steps; its install gives each
// page its new home and makes the old one garbage. Its plan also closes the
// open EBLOCKs closes lists, so their CloseEBlock records are its own. When
// there is no room and mayGC allows, it collects garbage and starts over.
func (c *Controller) flushTablesLocked(mayGC bool, closes []summary.OpenRef) error {
	mapDirty := c.mt.DirtyPages()
	smallDirty := c.mt.DirtySmallPages()
	sessImg := c.sess.Serialize()

	// Mapping, small-table and session images are stable now; summary
	// images must be serialized after provisioning (provisioning mutates
	// the summary table), so only their sizes are fixed here.
	var bps []provision.BatchPage
	var imgs [][]byte // nil for a summary page
	off := 0
	add := func(ty addr.PageType, idx int, img []byte, n int) {
		bps = append(bps, provision.BatchPage{LPID: addr.MakeTableLPID(ty, uint64(idx)), Type: ty, Length: n, BufOff: off})
		imgs = append(imgs, img)
		off += n
	}
	for _, idx := range mapDirty {
		img, err := c.mt.SerializePage(idx)
		if err != nil {
			return err
		}
		add(addr.PageMap, idx, img, len(img))
	}
	for _, sp := range smallDirty {
		img := c.mt.SerializeSmallPage(sp)
		add(addr.PageSmallMap, sp, img, len(img))
	}
	sumSize := len(c.st.SerializePage(0, 0))
	for _, idx := range c.st.DirtyPages() {
		add(addr.PageSummary, idx, nil, sumSize)
	}
	add(addr.PageSession, 0, sessImg, len(sessImg))

	a := &action{kind: record.ActionCheckpoint, buf: make([]byte, off), bps: bps}
	for i, img := range imgs {
		copy(a.buf[bps[i].BufOff:], img)
	}
	// Summary pages are serialized once the plan is logged, each embedding
	// its own update-record LSN as its flush LSN (§VIII-C3).
	a.seal = func(first record.LSN) {
		for i, pg := range a.plan.Pages {
			if pg.Type == addr.PageSummary {
				copy(a.buf[pg.BufOff:], c.st.SerializePage(int(pg.LPID.TableIndex()), first+record.LSN(i)))
			}
		}
		a.sum = crc32.Checksum(a.buf, pageSum)
	}
	a.hint = c.lsnHint()
	plan, err := c.prov.ProvisionBatch(bps, c.clock, a.hint, closes...)
	if errors.Is(err, provision.ErrNoSpace) && mayGC {
		// The pass relocates pages and releases c.mu while it erases, so
		// other writers install too: the images above are stale, and a
		// listed EBLOCK may be closed already (the plan skips it).
		c.gcAllLocked()
		return c.flushTablesLocked(false, closes)
	}
	if err != nil {
		return err
	}
	return c.runLocked(a, plan)
}

// --- checkpoint record -------------------------------------------------------

// ckptRecord is the state persisted at the well-known location.
type ckptRecord struct {
	Seq        uint64
	TruncLSN   record.LSN
	StartSlots []wal.Slot // where replay probes for the first log page
	StartLSN   record.LSN // expected first LSN at the start page
	Tiny       []addr.PhysAddr
	Locator    []addr.PhysAddr
	SessAddr   addr.PhysAddr
	UpdateSeq  uint64
	NextAction uint64
}

const (
	ckptMagic = 0x434B5045 // "CKPE": a checkpoint record, its format epoch next
	// ckptMagicNoEpoch opened the records of the builds before the epoch,
	// whose GC, migration and checkpoint commits carry no checksum.
	ckptMagicNoEpoch = 0x434B5054 // "CKPT"
	ckptPartMagic    = 0x434B5050 // "CKPP"
)

// formatEpoch names what this build's log and media mean, not only their
// bytes. Epoch 1: an action is proven by a durable Commit, no Abort, then a
// Done or a read-back matching its checksum; a Done's Garbage is complete.
// Epoch 2 let log pages overlap. Epoch 3 adds carried sets: a data WBLOCK's
// padding may end in log records (DESIGN.md §4 decision 14), which recovery
// reads. Epoch 4 has one log page in flight, so pages never overlap again.
// Epoch 5 keeps one open GC EBLOCK per channel; an older image may hold
// three. Epoch 6 logs every CloseEBlock with the action whose plan closes
// it, a checkpoint's long-open closes included, so redo replays a close only
// if its action committed; an older image holds closes of no action.
// Epoch 7 chains carried sets: a trailer names its predecessor and its
// chain's root page, in a header an older image's trailers do not have.
const formatEpoch = 7

func encodeCkpt(ck *ckptRecord) []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u32(ckptMagic)
	u32(formatEpoch)
	u64(ck.Seq)
	u64(uint64(ck.TruncLSN))
	u64(uint64(ck.StartLSN))
	u32(uint32(len(ck.StartSlots)))
	for _, s := range ck.StartSlots {
		u32(uint32(int32(s.Channel)))
		u32(uint32(int32(s.EBlock)))
		u32(uint32(int32(s.WBlock)))
	}
	u32(uint32(len(ck.Tiny)))
	for _, a := range ck.Tiny {
		u64(uint64(a))
	}
	u32(uint32(len(ck.Locator)))
	for _, a := range ck.Locator {
		u64(uint64(a))
	}
	u64(uint64(ck.SessAddr))
	u64(ck.UpdateSeq)
	u64(ck.NextAction)
	crc := crc32.ChecksumIEEE(b)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return b
}

var errBadCkpt = errors.New("core: bad checkpoint record")

// decodeCkpt checks every read against the bytes the CRC covers and caps
// every count by them: a CRC is no proof the body is well formed. A record
// of another format epoch, or of none, is ErrImageFormat.
func decodeCkpt(b []byte) (*ckptRecord, error) {
	if len(b) < 8 || crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errBadCkpt
	}
	b, pos, short := b[:len(b)-4], 0, false
	next := func(n int) []byte {
		if short = short || len(b)-pos < n; short {
			return make([]byte, 8)
		}
		pos += n
		return b[pos-n : pos]
	}
	u64 := func() uint64 { return binary.LittleEndian.Uint64(next(8)) }
	u32 := func() uint32 { return binary.LittleEndian.Uint32(next(4)) }
	count := func(size int) int { return min(int(u32()), (len(b)-pos)/size) }
	switch u32() {
	case ckptMagic:
	case ckptMagicNoEpoch:
		return nil, fmt.Errorf("%w: a checkpoint record without an epoch; this build reads epoch %d", ErrImageFormat, formatEpoch)
	default:
		return nil, errBadCkpt
	}
	if e := u32(); !short && e != formatEpoch {
		return nil, fmt.Errorf("%w: epoch %d; this build reads epoch %d", ErrImageFormat, e, formatEpoch)
	}
	ck := &ckptRecord{}
	ck.Seq = u64()
	ck.TruncLSN = record.LSN(u64())
	ck.StartLSN = record.LSN(u64())
	for n := count(12); n > 0; n-- {
		ck.StartSlots = append(ck.StartSlots, wal.Slot{
			Channel: int(int32(u32())), EBlock: int(int32(u32())), WBlock: int(int32(u32())),
		})
	}
	for n := count(8); n > 0; n-- {
		ck.Tiny = append(ck.Tiny, addr.PhysAddr(u64()))
	}
	for n := count(8); n > 0; n-- {
		ck.Locator = append(ck.Locator, addr.PhysAddr(u64()))
	}
	ck.SessAddr = addr.PhysAddr(u64())
	ck.UpdateSeq = u64()
	ck.NextAction = u64()
	if short {
		return nil, errBadCkpt
	}
	return ck, nil
}

// part header: magic u32 | seq u64 | part u16 | totalParts u16 |
// payloadLen u32 | crc u32 (over header sans crc + payload).
const ckptPartHeader = 4 + 8 + 2 + 2 + 4 + 4

// encodeCkptParts cuts the encoded record body of checkpoint seq into the
// WBLOCK-sized parts the checkpoint area stores.
func (c *Controller) encodeCkptParts(seq uint64, body []byte) [][]byte {
	w := c.geo.WBlockBytes
	per := w - ckptPartHeader
	total := (len(body) + per - 1) / per
	parts := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		payload := body[i*per : min((i+1)*per, len(body))]
		hdr := make([]byte, ckptPartHeader-4)
		binary.LittleEndian.PutUint32(hdr[0:], ckptPartMagic)
		binary.LittleEndian.PutUint64(hdr[4:], seq)
		binary.LittleEndian.PutUint16(hdr[12:], uint16(i))
		binary.LittleEndian.PutUint16(hdr[14:], uint16(total))
		binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
		crc := crc32.ChecksumIEEE(hdr)
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		part := make([]byte, 0, ckptPartHeader+len(payload))
		part = append(part, hdr...)
		part = binary.LittleEndian.AppendUint32(part, crc)
		part = append(part, payload...)
		parts = append(parts, part)
	}
	return parts
}

type ckptPart struct {
	seq     uint64
	part    int
	total   int
	payload []byte
}

func decodeCkptPart(raw []byte) (*ckptPart, error) {
	if len(raw) < ckptPartHeader {
		return nil, errBadCkpt
	}
	if binary.LittleEndian.Uint32(raw[0:]) != ckptPartMagic {
		return nil, errBadCkpt
	}
	seq := binary.LittleEndian.Uint64(raw[4:])
	part := int(binary.LittleEndian.Uint16(raw[12:]))
	total := int(binary.LittleEndian.Uint16(raw[14:]))
	plen := int(binary.LittleEndian.Uint32(raw[16:]))
	if plen < 0 || ckptPartHeader+plen > len(raw) || total == 0 || part >= total {
		return nil, errBadCkpt
	}
	payload := raw[ckptPartHeader : ckptPartHeader+plen]
	crc := crc32.ChecksumIEEE(raw[:16+4])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if binary.LittleEndian.Uint32(raw[20:]) != crc {
		return nil, errBadCkpt
	}
	return &ckptPart{seq: seq, part: part, total: total, payload: payload}, nil
}

// writeCkptRecordLocked writes the record's parts into the checkpoint
// area, switching (and erasing) the other area EBLOCK when the current one
// is full. The previous complete record always survives until the new one
// is fully durable. A program failure in the current EBLOCK (which
// disables its remaining WBLOCKs) fails over to the other EBLOCK once.
func (c *Controller) writeCkptRecordLocked(ck *ckptRecord) error {
	parts := c.encodeCkptParts(ck.Seq, encodeCkpt(ck))
	if len(parts) > c.geo.WBlocksPerEBlock() {
		return fmt.Errorf("core: checkpoint record too large (%d parts)", len(parts))
	}
	switchArea := func() error {
		other := ckptEBlockA
		if c.ckptEB == ckptEBlockA {
			other = ckptEBlockB
		}
		if failed, err := c.port.erase([2]int{ckptChannel, other}); err != nil {
			return err
		} else if len(failed) > 0 {
			return fmt.Errorf("%w: checkpoint area eblock %d", flash.ErrEraseFailed, other)
		}
		c.ckptEB, c.ckptWB = other, 0
		return nil
	}
	if c.ckptWB+len(parts) > c.geo.WBlocksPerEBlock() {
		if err := switchArea(); err != nil {
			return err
		}
	}
	for attempt := 0; attempt < 2; attempt++ {
		err := func() error {
			for i, part := range parts {
				if err := c.port.program(c.attributeSrc(flash.SrcCheckpoint), ckptChannel, c.ckptEB, c.ckptWB+i, part); err != nil {
					return err
				}
				c.met.ioCommands.Inc()
			}
			return nil
		}()
		if err == nil {
			c.ckptWB += len(parts)
			return nil
		}
		if attempt == 0 {
			// A torn partial record in the old EBLOCK is harmless: the
			// recovery scan only accepts complete part sets.
			if serr := switchArea(); serr != nil {
				return serr
			}
			continue
		}
		return fmt.Errorf("core: checkpoint area write failed in both eblocks")
	}
	return nil
}
