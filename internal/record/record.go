// Package record defines the redo-log record taxonomy of the ELEOS
// controller and its binary encoding.
//
// ELEOS follows a no-steal policy (§IV-A3): log records carry only redo
// information for the mapping table, the EBLOCK summary table, and the
// session table. Per §VIII-C2, system actions additionally produce lazy
// Garbage records (old addresses whose space becomes reclaimable) followed
// by a Done record, which recovery uses to reconstruct EBLOCK AVAIL values.
//
// Records are individually framed (kind, length, payload, CRC32) so a torn
// log page tail is detected and ignored.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"eleos/internal/addr"
)

// LSN is a log sequence number. LSNs are assigned densely by the log
// manager starting at 1; 0 means "no LSN".
type LSN uint64

// Kind identifies a record type on disk.
type Kind uint8

// Record kinds.
const (
	KindInvalid Kind = iota
	// KindUpdate: a system action wrote an LPAGE (data or table page) to a
	// new physical address.
	KindUpdate
	// KindGCUpdate: a GC/migration action relocated an LPAGE; carries the
	// old address for the conditional install (§VI-C).
	KindGCUpdate
	// KindCommit: a system action committed; forced before installing.
	KindCommit
	// KindAbort: a system action aborted (best effort; absence of a commit
	// record also implies abort).
	KindAbort
	// KindGarbage: lazy old-address records for AVAIL maintenance
	// (§VIII-C2). The listed addresses' space is reclaimable.
	KindGarbage
	// KindDone: no more records will be produced for the action.
	KindDone
	// KindOpenEBlock: an EBLOCK was opened for a write stream.
	KindOpenEBlock
	// KindCloseEBlock: an EBLOCK was closed (metadata flushed) (§VIII-C).
	KindCloseEBlock
	// KindSessionOpen / KindSessionClose: session lifetime (§III-A2).
	KindSessionOpen
	KindSessionClose
	// KindFreeEBlock: an EBLOCK was erased and returned to the free list.
	KindFreeEBlock
	kindMax
)

func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindGCUpdate:
		return "gcupdate"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindGarbage:
		return "garbage"
	case KindDone:
		return "done"
	case KindOpenEBlock:
		return "open-eblock"
	case KindCloseEBlock:
		return "close-eblock"
	case KindSessionOpen:
		return "session-open"
	case KindSessionClose:
		return "session-close"
	case KindFreeEBlock:
		return "free-eblock"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// ActionKind classifies the system action that produced a record.
type ActionKind uint8

// Action kinds (§IV, §VI, §VII, §VIII-B).
const (
	ActionUser ActionKind = iota + 1
	ActionGC
	ActionCheckpoint
	ActionMigration
)

func (k ActionKind) String() string {
	switch k {
	case ActionUser:
		return "user"
	case ActionGC:
		return "gc"
	case ActionCheckpoint:
		return "checkpoint"
	case ActionMigration:
		return "migration"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// StreamKind identifies which open-EBLOCK write stream an EBLOCK serves
// (§IV-A1: one open EBLOCK per type of write).
type StreamKind uint8

const (
	StreamUser StreamKind = iota + 1
	StreamGC
	StreamLog
)

func (k StreamKind) String() string {
	switch k {
	case StreamUser:
		return "user"
	case StreamGC:
		return "gc"
	case StreamLog:
		return "log"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Record is a decoded log record.
type Record interface {
	Kind() Kind
	encodePayload(dst []byte) []byte
}

// AddrPair names an LPAGE instance at a particular physical address.
type AddrPair struct {
	LPID addr.LPID
	Addr addr.PhysAddr
}

// Update records that action Action stored the LPAGE (LPID, Type) at New.
type Update struct {
	Action uint64
	LPID   addr.LPID
	Type   addr.PageType
	New    addr.PhysAddr
}

// GCUpdate records a relocation of (LPID, Type) from Old to New by a GC or
// migration action; installed conditionally.
type GCUpdate struct {
	Action uint64
	LPID   addr.LPID
	Type   addr.PageType
	Old    addr.PhysAddr
	New    addr.PhysAddr
}

// Commit marks action Action committed. SID/WSN are zero for sessionless
// writes and for GC/checkpoint actions. A user action's commit is forced
// while its data is still being programmed, so it carries Sum, the CRC-32C
// of the action's page images in Update-record order: recovery counts the
// action committed only if its data reads back to it (or a Done follows).
type Commit struct {
	Action uint64
	AKind  ActionKind
	SID    uint64
	WSN    uint64
	Sum    uint32
}

// Abort marks action Action aborted; it overrides an earlier Commit.
type Abort struct {
	Action uint64
}

// Garbage lists addresses whose storage became reclaimable due to action
// Action (old versions overwritten by a commit, or relocations abandoned by
// a conditional-install failure).
type Garbage struct {
	Action uint64
	Pairs  []AddrPair
}

// Done marks that action Action will produce no further records.
type Done struct {
	Action uint64
}

// OpenEBlock records that (Channel, EBlock) was opened for Stream.
type OpenEBlock struct {
	Channel uint32
	EBlock  uint32
	Stream  StreamKind
}

// CloseEBlock records that (Channel, EBlock) was closed with its metadata
// flushed; Timestamp is the EBLOCK's closing timestamp (update sequence
// number proxy, §IV-A1). A non-zero Action makes the close conditional on
// that user action being committed: it was logged before the metadata landed.
type CloseEBlock struct {
	Channel     uint32
	EBlock      uint32
	Timestamp   uint64
	DataWBlocks uint32
	MetaWBlocks uint32
	Action      uint64
}

// SessionOpen records creation of session SID, tagged with the opening
// client's tenant name and priority (empty/zero for untagged sessions).
type SessionOpen struct {
	SID      uint64
	Priority uint8
	Tenant   string
}

// SessionClose records closing of session SID.
type SessionClose struct {
	SID uint64
}

// FreeEBlock records that (Channel, EBlock) was erased and freed.
type FreeEBlock struct {
	Channel uint32
	EBlock  uint32
}

func (Update) Kind() Kind       { return KindUpdate }
func (GCUpdate) Kind() Kind     { return KindGCUpdate }
func (Commit) Kind() Kind       { return KindCommit }
func (Abort) Kind() Kind        { return KindAbort }
func (Garbage) Kind() Kind      { return KindGarbage }
func (Done) Kind() Kind         { return KindDone }
func (OpenEBlock) Kind() Kind   { return KindOpenEBlock }
func (CloseEBlock) Kind() Kind  { return KindCloseEBlock }
func (SessionOpen) Kind() Kind  { return KindSessionOpen }
func (SessionClose) Kind() Kind { return KindSessionClose }
func (FreeEBlock) Kind() Kind   { return KindFreeEBlock }

func putU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func putU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

func (r Update) encodePayload(dst []byte) []byte {
	dst = putU64(dst, r.Action)
	dst = putU64(dst, uint64(r.LPID))
	dst = append(dst, byte(r.Type))
	dst = putU64(dst, uint64(r.New))
	return dst
}

func (r GCUpdate) encodePayload(dst []byte) []byte {
	dst = putU64(dst, r.Action)
	dst = putU64(dst, uint64(r.LPID))
	dst = append(dst, byte(r.Type))
	dst = putU64(dst, uint64(r.Old))
	dst = putU64(dst, uint64(r.New))
	return dst
}

func (r Commit) encodePayload(dst []byte) []byte {
	dst = putU64(dst, r.Action)
	dst = append(dst, byte(r.AKind))
	dst = putU64(dst, r.SID)
	dst = putU64(dst, r.WSN)
	return putU32(dst, r.Sum)
}

func (r Abort) encodePayload(dst []byte) []byte { return putU64(dst, r.Action) }

func (r Garbage) encodePayload(dst []byte) []byte {
	dst = putU64(dst, r.Action)
	dst = putU32(dst, uint32(len(r.Pairs)))
	for _, p := range r.Pairs {
		dst = putU64(dst, uint64(p.LPID))
		dst = putU64(dst, uint64(p.Addr))
	}
	return dst
}

func (r Done) encodePayload(dst []byte) []byte { return putU64(dst, r.Action) }

func (r OpenEBlock) encodePayload(dst []byte) []byte {
	dst = putU32(dst, r.Channel)
	dst = putU32(dst, r.EBlock)
	return append(dst, byte(r.Stream))
}

func (r CloseEBlock) encodePayload(dst []byte) []byte {
	dst = putU32(dst, r.Channel)
	dst = putU32(dst, r.EBlock)
	dst = putU64(dst, r.Timestamp)
	dst = putU32(dst, r.DataWBlocks)
	dst = putU32(dst, r.MetaWBlocks)
	return putU64(dst, r.Action)
}

func (r SessionOpen) encodePayload(dst []byte) []byte {
	dst = putU64(dst, r.SID)
	dst = append(dst, r.Priority)
	t := r.Tenant
	if len(t) > 255 {
		t = t[:255]
	}
	dst = append(dst, byte(len(t)))
	return append(dst, t...)
}

func (r SessionClose) encodePayload(dst []byte) []byte { return putU64(dst, r.SID) }

func (r FreeEBlock) encodePayload(dst []byte) []byte {
	dst = putU32(dst, r.Channel)
	return putU32(dst, r.EBlock)
}

// Frame layout: kind(1) | payloadLen(4) | payload | crc32(4) where the CRC
// covers kind, payloadLen and payload.
const frameOverhead = 1 + 4 + 4

// payloadBytes is each fixed-size kind's encodePayload length; Garbage and
// SessionOpen are variable and sized in EncodedSize.
var payloadBytes = [kindMax]int{
	KindUpdate: 25, KindGCUpdate: 33, KindCommit: 29, KindAbort: 8, KindDone: 8,
	KindOpenEBlock: 9, KindCloseEBlock: 32, KindSessionClose: 8, KindFreeEBlock: 8,
}

// EncodedSize returns the framed size of r, len(Append(nil, r)), by
// arithmetic: the log sizes every record before appending it.
func EncodedSize(r Record) int {
	switch r := r.(type) {
	case Garbage:
		return frameOverhead + 12 + 16*len(r.Pairs)
	case SessionOpen:
		return frameOverhead + 10 + min(len(r.Tenant), 255)
	}
	return frameOverhead + payloadBytes[r.Kind()]
}

// Append appends the framed encoding of r to dst. It is generic so that a
// caller naming a concrete kind encodes it unboxed: an action's records go
// into one scratch buffer with no allocation beyond that buffer's growth.
func Append[R Record](dst []byte, r R) []byte {
	start := len(dst)
	dst = append(dst, byte(r.Kind()))
	dst = putU32(dst, 0) // payload length placeholder
	dst = r.encodePayload(dst)
	payloadLen := len(dst) - start - 5
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(payloadLen))
	crc := crc32.ChecksumIEEE(dst[start:])
	return putU32(dst, crc)
}

// Decode errors.
var (
	ErrTruncated = errors.New("record: truncated frame")
	ErrBadCRC    = errors.New("record: checksum mismatch")
	ErrBadKind   = errors.New("record: unknown kind")
	ErrMalformed = errors.New("record: malformed payload")
)

type reader struct {
	b   []byte
	err error
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = ErrMalformed
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = ErrMalformed
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = ErrMalformed
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.err = ErrMalformed
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrMalformed
	}
	return nil
}

// FrameSize returns the length of the frame at the front of b, the bytes
// Decode would consume, from its header alone: the CRC is not checked.
// ErrTruncated means b does not hold a whole frame.
func FrameSize(b []byte) (int, error) {
	if len(b) < frameOverhead {
		return 0, ErrTruncated
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[1:]))
	if payloadLen < 0 || len(b) < frameOverhead+payloadLen {
		return 0, ErrTruncated
	}
	return frameOverhead + payloadLen, nil
}

// Decode decodes one framed record from the front of b, returning the
// record and the number of bytes consumed.
func Decode(b []byte) (Record, int, error) {
	total, err := FrameSize(b)
	if err != nil {
		return nil, 0, err
	}
	kind := Kind(b[0])
	payloadLen := total - frameOverhead
	wantCRC := binary.LittleEndian.Uint32(b[5+payloadLen:])
	if crc32.ChecksumIEEE(b[:5+payloadLen]) != wantCRC {
		return nil, 0, ErrBadCRC
	}
	rd := &reader{b: b[5 : 5+payloadLen]}
	var rec Record
	switch kind {
	case KindUpdate:
		r := Update{Action: rd.u64(), LPID: addr.LPID(rd.u64())}
		r.Type = addr.PageType(rd.u8())
		r.New = addr.PhysAddr(rd.u64())
		rec = r
	case KindGCUpdate:
		r := GCUpdate{Action: rd.u64(), LPID: addr.LPID(rd.u64())}
		r.Type = addr.PageType(rd.u8())
		r.Old = addr.PhysAddr(rd.u64())
		r.New = addr.PhysAddr(rd.u64())
		rec = r
	case KindCommit:
		r := Commit{Action: rd.u64()}
		r.AKind = ActionKind(rd.u8())
		r.SID = rd.u64()
		r.WSN = rd.u64()
		r.Sum = rd.u32()
		rec = r
	case KindAbort:
		rec = Abort{Action: rd.u64()}
	case KindGarbage:
		r := Garbage{Action: rd.u64()}
		n := int(rd.u32())
		if rd.err == nil && n > payloadLen/16 {
			return nil, 0, ErrMalformed
		}
		r.Pairs = make([]AddrPair, 0, n)
		for i := 0; i < n; i++ {
			p := AddrPair{LPID: addr.LPID(rd.u64()), Addr: addr.PhysAddr(rd.u64())}
			r.Pairs = append(r.Pairs, p)
		}
		rec = r
	case KindDone:
		rec = Done{Action: rd.u64()}
	case KindOpenEBlock:
		r := OpenEBlock{Channel: rd.u32(), EBlock: rd.u32()}
		r.Stream = StreamKind(rd.u8())
		rec = r
	case KindCloseEBlock:
		r := CloseEBlock{Channel: rd.u32(), EBlock: rd.u32()}
		r.Timestamp = rd.u64()
		r.DataWBlocks = rd.u32()
		r.MetaWBlocks = rd.u32()
		r.Action = rd.u64()
		rec = r
	case KindSessionOpen:
		r := SessionOpen{SID: rd.u64()}
		if payloadLen > 8 {
			r.Priority = rd.u8()
			r.Tenant = string(rd.bytes(int(rd.u8())))
		}
		// payloadLen == 8 is the pre-tenant encoding: untagged session.
		rec = r
	case KindSessionClose:
		rec = SessionClose{SID: rd.u64()}
	case KindFreeEBlock:
		rec = FreeEBlock{Channel: rd.u32(), EBlock: rd.u32()}
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	if err := rd.done(); err != nil {
		return nil, 0, err
	}
	return rec, total, nil
}

// DecodeAll decodes every framed record in b (e.g. a log page payload).
func DecodeAll(b []byte) ([]Record, error) {
	var out []Record
	for len(b) > 0 {
		rec, n, err := Decode(b)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
		b = b[n:]
	}
	return out, nil
}
