// Package lsstore implements a host-based log-structured store in the
// style of LLAMA (§II-A), the paper's "Block" configuration for the
// Bw-tree: variable-size pages are packed into 1 MB segments in host
// memory and flushed to a conventional block-interface SSD one 4 KB block
// command at a time.
//
// Because the SSD exposes only blocks, the host must duplicate the log
// structuring the SSD already performs internally (§I): it keeps its own
// LPID→location mapping and runs its own garbage collection, organising
// segments as a circular log — the oldest segment (head) is cleaned by
// reading it back *in full*, parsing it to find still-live pages, and
// re-appending those at the tail (§IX-C2). That whole-segment read is the
// read amplification the paper measures in Fig. 10(c).
//
// Transport costs are charged to the supplied nvme.Meter: one command (and
// thus one SSD write context) per block, versus one per buffer for ELEOS.
package lsstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"eleos/internal/blockftl"
	"eleos/internal/nvme"
)

// Config tunes the store.
type Config struct {
	SegmentBytes   int     // host write buffer / cleaning unit (paper: 1 MB)
	GCFreeFraction float64 // clean when free segments fall below this fraction
	// HostParsePerByte is the host CPU cost of parsing a segment during
	// cleaning (charged to the meter's host resource).
	HostParsePerByte time.Duration
	// PersistMappingEvery, when non-zero, checkpoints the host mapping
	// table into the log every N flushed segments — the durability burden
	// §I charges host-based log structuring with ("the latest location
	// where the page has been written must be durable across system
	// crashes"). ELEOS needs no equivalent: its FTL mapping is durable in
	// the controller.
	PersistMappingEvery int
}

// DefaultConfig returns the paper's setup.
func DefaultConfig() Config {
	return Config{SegmentBytes: 1 << 20, GCFreeFraction: 0.1, HostParsePerByte: time.Nanosecond}
}

// Errors.
var (
	ErrNotFound  = errors.New("lsstore: page not found")
	ErrTooLarge  = errors.New("lsstore: page larger than a segment")
	ErrStoreFull = errors.New("lsstore: no free segments")
)

// Stats counts host-side log structuring work.
type Stats struct {
	PagesWritten     int64
	BytesWritten     int64 // segment bytes flushed to the SSD
	SegmentsFlushed  int64
	SegmentsCleaned  int64
	PagesMoved       int64
	GCBytesRead      int64 // whole-segment reads during cleaning
	MappingSnapshots int64
	SnapshotBytes    int64 // serialized host-mapping bytes written
}

const entryHeader = 12 // lpid u64 + len u32

// Each segment starts with a 16-byte header (magic, fill sequence, and —
// filled in at flush time — the payload end offset) so recovery can order
// segments and parse exactly the bytes this generation wrote, ignoring
// stale data from a previous use of the same blocks.
const (
	segMagic       = 0x4C535347 // "LSSG"
	segHeaderBytes = 16
)

// Mapping-snapshot chunks are stored under reserved LPIDs counting down
// from the top of the LPID space.
const mappingSnapshotLPID = ^uint64(0)

type location struct {
	seg, off, length int
}

type segState struct {
	inUse bool
	live  int    // live payload bytes
	seq   uint64 // fill sequence, for oldest-first cleaning
}

// Store is the host log-structured store. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	ftl   *blockftl.FTL
	meter *nvme.Meter
	cfg   Config

	blockBytes   int
	blocksPerSeg int
	numSegs      int

	mapping map[uint64]location
	segs    []segState
	seq     uint64

	cur        []byte // current segment accumulating in host memory
	curSeg     int    // -1 when none
	curOff     int
	cleaning   bool // re-entrancy guard: cleaning flushes the tail itself
	persisting bool // re-entrancy guard: snapshots flow through Write

	stats Stats
}

// New creates a store over the block FTL. The FTL's logical space is
// partitioned into segments.
func New(ftl *blockftl.FTL, meter *nvme.Meter, cfg Config) (*Store, error) {
	if cfg.SegmentBytes <= 0 || cfg.SegmentBytes%ftl.BlockBytes() != 0 {
		return nil, fmt.Errorf("lsstore: segment size %d must be a multiple of block size %d", cfg.SegmentBytes, ftl.BlockBytes())
	}
	blocksPerSeg := cfg.SegmentBytes / ftl.BlockBytes()
	numSegs := ftl.LBAs() / blocksPerSeg
	if numSegs < 3 {
		return nil, errors.New("lsstore: need at least 3 segments")
	}
	return &Store{
		ftl:          ftl,
		meter:        meter,
		cfg:          cfg,
		blockBytes:   ftl.BlockBytes(),
		blocksPerSeg: blocksPerSeg,
		numSegs:      numSegs,
		mapping:      make(map[uint64]location),
		segs:         make([]segState, numSegs),
		curSeg:       -1,
	}, nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Write appends one variable-size page to the log. The page becomes
// persistent when its segment flushes (Flush forces it).
func (s *Store) Write(lpid uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lpid == 0 {
		return errors.New("lsstore: lpid 0 is reserved")
	}
	if lpid >= mappingSnapshotLPID-64 {
		return errors.New("lsstore: lpid reserved for mapping snapshots")
	}
	return s.writeLocked(lpid, data)
}

func (s *Store) writeLocked(lpid uint64, data []byte) error {
	need := entryHeader + len(data)
	if need > s.cfg.SegmentBytes-segHeaderBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	if s.curSeg >= 0 && s.curOff+need > s.cfg.SegmentBytes {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	if s.curSeg < 0 {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	// Entry: self-describing header so cleaning can parse the segment.
	binary.LittleEndian.PutUint64(s.cur[s.curOff:], lpid)
	binary.LittleEndian.PutUint32(s.cur[s.curOff+8:], uint32(len(data)))
	copy(s.cur[s.curOff+entryHeader:], data)
	s.installLocked(lpid, location{seg: s.curSeg, off: s.curOff, length: len(data)})
	s.curOff += need
	s.stats.PagesWritten++
	return nil
}

// installLocked points lpid at loc, decrementing the old segment's live
// bytes.
func (s *Store) installLocked(lpid uint64, loc location) {
	if old, ok := s.mapping[lpid]; ok {
		s.segs[old.seg].live -= entryHeader + old.length
	}
	s.mapping[lpid] = loc
	s.segs[loc.seg].live += entryHeader + loc.length
}

func (s *Store) openSegmentLocked() error {
	for i := 0; i < s.numSegs; i++ {
		if !s.segs[i].inUse {
			s.seq++
			s.segs[i] = segState{inUse: true, seq: s.seq}
			s.curSeg = i
			if s.cur == nil {
				s.cur = make([]byte, s.cfg.SegmentBytes)
			}
			for j := range s.cur {
				s.cur[j] = 0
			}
			binary.LittleEndian.PutUint32(s.cur[0:], segMagic)
			binary.LittleEndian.PutUint64(s.cur[4:], s.seq)
			s.curOff = segHeaderBytes
			return nil
		}
	}
	return ErrStoreFull
}

// Flush writes the current partial segment to the SSD, block at a time.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curSeg < 0 || s.curOff <= segHeaderBytes {
		return nil
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	base := s.curSeg * s.blocksPerSeg
	binary.LittleEndian.PutUint32(s.cur[12:], uint32(s.curOff)) // payload end
	nBlocks := (s.curOff + s.blockBytes - 1) / s.blockBytes
	// The host issues the whole segment as one range write; the transport
	// splits it into packets, and the block SSD — which "does not know any
	// logical relationship among the packets" — creates one write context
	// per packet (§IX-C1: 17 contexts per 1 MB).
	if err := s.ftl.WriteRange(base, s.cur[:nBlocks*s.blockBytes]); err != nil {
		return err
	}
	s.meter.WriteCommand(nBlocks*s.blockBytes, 0, nvme.Packets(nBlocks*s.blockBytes))
	s.stats.SegmentsFlushed++
	s.stats.BytesWritten += int64(nBlocks * s.blockBytes)
	s.curSeg = -1
	s.curOff = 0
	if !s.cleaning {
		s.maybeCleanLocked()
	}
	if s.cfg.PersistMappingEvery > 0 && !s.persisting && !s.cleaning &&
		s.stats.SegmentsFlushed%int64(s.cfg.PersistMappingEvery) == 0 {
		if err := s.persistMappingLocked(); err != nil {
			return err
		}
	}
	return nil
}

// persistMappingLocked checkpoints the host mapping table by appending its
// serialized image to the log under reserved LPIDs (LLAMA-style). Old
// snapshots become garbage automatically once the new chunks install.
func (s *Store) persistMappingLocked() error {
	s.persisting = true
	defer func() { s.persisting = false }()
	// Serialize: lpid u64 | seg u32 | off u32 | len u32 per entry.
	blob := make([]byte, 0, len(s.mapping)*20)
	for lpid, loc := range s.mapping {
		if lpid >= mappingSnapshotLPID-64 {
			continue // do not snapshot prior snapshots
		}
		var rec [20]byte
		binary.LittleEndian.PutUint64(rec[0:], lpid)
		binary.LittleEndian.PutUint32(rec[8:], uint32(loc.seg))
		binary.LittleEndian.PutUint32(rec[12:], uint32(loc.off))
		binary.LittleEndian.PutUint32(rec[16:], uint32(loc.length))
		blob = append(blob, rec[:]...)
	}
	// Chunk into segment-sized pieces under descending reserved LPIDs.
	chunk := s.cfg.SegmentBytes / 2
	for i := 0; len(blob) > 0; i++ {
		n := chunk
		if n > len(blob) {
			n = len(blob)
		}
		if err := s.writeLocked(mappingSnapshotLPID-uint64(i), blob[:n]); err != nil {
			return err
		}
		s.stats.SnapshotBytes += int64(n)
		blob = blob[n:]
	}
	s.stats.MappingSnapshots++
	return nil
}

// Read returns the latest version of a page.
func (s *Store) Read(lpid uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.mapping[lpid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, lpid)
	}
	return s.readLocked(loc, true)
}

func (s *Store) readLocked(loc location, charge bool) ([]byte, error) {
	// Pages still in the host write buffer are served from memory.
	if loc.seg == s.curSeg {
		out := make([]byte, loc.length)
		copy(out, s.cur[loc.off+entryHeader:loc.off+entryHeader+loc.length])
		return out, nil
	}
	base := loc.seg * s.blocksPerSeg
	first := loc.off / s.blockBytes
	last := (loc.off + entryHeader + loc.length - 1) / s.blockBytes
	buf := make([]byte, 0, (last-first+1)*s.blockBytes)
	for b := first; b <= last; b++ {
		blk, err := s.ftl.ReadBlock(base + b)
		if err != nil {
			return nil, err
		}
		if charge {
			s.meter.ReadCommand(s.blockBytes)
		}
		buf = append(buf, blk...)
	}
	lo := loc.off - first*s.blockBytes + entryHeader
	return append([]byte(nil), buf[lo:lo+loc.length]...), nil
}

func (s *Store) freeSegmentsLocked() int {
	n := 0
	for i := range s.segs {
		if !s.segs[i].inUse {
			n++
		}
	}
	return n
}

func (s *Store) maybeCleanLocked() {
	min := int(s.cfg.GCFreeFraction * float64(s.numSegs))
	if min < 2 {
		min = 2
	}
	for s.freeSegmentsLocked() < min {
		if !s.cleanOneLocked() {
			return
		}
	}
}

// Recover rebuilds a store from the SSD after a host crash: every segment
// is self-describing (a sequence-numbered header followed by
// LPID+length-framed entries), so scanning segments in fill order and
// replaying their entries reproduces the mapping — the LLAMA-style host
// recovery whose burden the paper's design removes. Pages still in the
// host's volatile write buffer at the crash are lost, as in any host
// log-structured store.
func Recover(ftl *blockftl.FTL, meter *nvme.Meter, cfg Config) (*Store, error) {
	s, err := New(ftl, meter, cfg)
	if err != nil {
		return nil, err
	}
	type segHit struct {
		seg int
		seq uint64
	}
	var hits []segHit
	for seg := 0; seg < s.numSegs; seg++ {
		blk, err := ftl.ReadBlock(seg * s.blocksPerSeg)
		if err != nil {
			continue // never written
		}
		meter.ReadCommand(s.blockBytes)
		if binary.LittleEndian.Uint32(blk[0:]) != segMagic {
			continue
		}
		hits = append(hits, segHit{seg: seg, seq: binary.LittleEndian.Uint64(blk[4:])})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	for _, h := range hits {
		// Whole-segment read, exactly like cleaning.
		base := h.seg * s.blocksPerSeg
		seg := make([]byte, 0, cfg.SegmentBytes)
		for b := 0; b < s.blocksPerSeg; b++ {
			blk, err := ftl.ReadBlock(base + b)
			if err != nil {
				blk = make([]byte, s.blockBytes)
			}
			meter.ReadCommand(s.blockBytes)
			seg = append(seg, blk...)
		}
		s.segs[h.seg] = segState{inUse: true, seq: h.seq}
		if h.seq > s.seq {
			s.seq = h.seq
		}
		end := int(binary.LittleEndian.Uint32(seg[12:]))
		if end < segHeaderBytes || end > len(seg) {
			end = len(seg)
		}
		off := segHeaderBytes
		for off+entryHeader <= end {
			lpid := binary.LittleEndian.Uint64(seg[off:])
			length := int(binary.LittleEndian.Uint32(seg[off+8:]))
			if lpid == 0 && length == 0 {
				break
			}
			if length < 0 || off+entryHeader+length > end {
				break
			}
			s.installLocked(lpid, location{seg: h.seg, off: off, length: length})
			off += entryHeader + length
		}
	}
	return s, nil
}

// cleanOneLocked cleans the oldest flushed segment: reads it back in full,
// parses it, re-appends live pages at the tail, and frees it.
func (s *Store) cleanOneLocked() bool {
	if s.cleaning {
		return false
	}
	s.cleaning = true
	defer func() { s.cleaning = false }()
	victim, victimSeq := -1, uint64(0)
	for i := range s.segs {
		if !s.segs[i].inUse || i == s.curSeg {
			continue
		}
		if victim < 0 || s.segs[i].seq < victimSeq {
			victim, victimSeq = i, s.segs[i].seq
		}
	}
	if victim < 0 {
		return false
	}
	// Whole-segment read: the host cannot know which bytes are live
	// without parsing (§IX-C2) — this is Block's read amplification.
	base := victim * s.blocksPerSeg
	seg := make([]byte, 0, s.cfg.SegmentBytes)
	for b := 0; b < s.blocksPerSeg; b++ {
		blk, err := s.ftl.ReadBlock(base + b)
		if err != nil {
			// Unwritten tail blocks of a partial segment read as absent.
			blk = make([]byte, s.blockBytes)
		}
		s.meter.ReadCommand(s.blockBytes)
		seg = append(seg, blk...)
	}
	s.stats.GCBytesRead += int64(len(seg))
	s.meter.HostCompute(time.Duration(len(seg)) * s.cfg.HostParsePerByte)

	// Parse and re-append live pages, bounded by the header's payload end
	// (stale bytes from a previous generation of these blocks lie beyond).
	end := int(binary.LittleEndian.Uint32(seg[12:]))
	if end < segHeaderBytes || end > len(seg) {
		end = len(seg)
	}
	off := segHeaderBytes
	type moved struct {
		lpid uint64
		data []byte
	}
	var live []moved
	for off+entryHeader <= end {
		lpid := binary.LittleEndian.Uint64(seg[off:])
		length := int(binary.LittleEndian.Uint32(seg[off+8:]))
		if lpid == 0 && length == 0 {
			break // zero fill: end of segment content
		}
		if length < 0 || off+entryHeader+length > end {
			break
		}
		if loc, ok := s.mapping[lpid]; ok && loc.seg == victim && loc.off == off {
			live = append(live, moved{lpid: lpid, data: append([]byte(nil), seg[off+entryHeader:off+entryHeader+length]...)})
		}
		off += entryHeader + length
	}
	// Free the victim before re-appending so the tail has room.
	s.segs[victim] = segState{}
	s.stats.SegmentsCleaned++
	for _, m := range live {
		need := entryHeader + len(m.data)
		if s.curSeg >= 0 && s.curOff+need > s.cfg.SegmentBytes {
			if err := s.flushLocked(); err != nil {
				return false
			}
		}
		if s.curSeg < 0 {
			if err := s.openSegmentLocked(); err != nil {
				return false
			}
		}
		binary.LittleEndian.PutUint64(s.cur[s.curOff:], m.lpid)
		binary.LittleEndian.PutUint32(s.cur[s.curOff+8:], uint32(len(m.data)))
		copy(s.cur[s.curOff+entryHeader:], m.data)
		s.installLocked(m.lpid, location{seg: s.curSeg, off: s.curOff, length: len(m.data)})
		s.curOff += need
		s.stats.PagesMoved++
	}
	return true
}
