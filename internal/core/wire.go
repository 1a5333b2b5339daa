package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"eleos/internal/addr"
)

// The batch wire format (§IX-A2): flush_batch ships one opaque buffer and
// the controller identifies the pages by parsing metadata *within* the
// batch. Layout:
//
//	magic u32 | count u32 | { lpid u64 | len u32 | payload } ... | crc u32
//
// The CRC covers everything before it.

const batchMagic = 0x454C4246 // "ELBF"

// ErrBadBatch reports a malformed wire batch.
var ErrBadBatch = errors.New("core: malformed batch buffer")

// EncodeBatch serialises pages into the wire format a host sends with one
// flush_batch command.
func EncodeBatch(pages []LPage) []byte {
	n := 8 + 4
	for _, p := range pages {
		n += 12 + len(p.Data)
	}
	return AppendBatch(make([]byte, 0, n), pages)
}

// AppendBatch is EncodeBatch appending into caller scratch, so a client
// encoding batches in a loop reuses one buffer instead of allocating
// per flush.
func AppendBatch(dst []byte, pages []LPage) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, batchMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for _, p := range pages {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.LPID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Data)))
		dst = append(dst, p.Data...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// AppendBatchView parses a wire batch appending into dst, with each
// page's Data aliasing wire — the zero-copy decode of the network hot
// path. The views are valid only while the caller keeps the wire buffer
// alive (for pooled frames: until the frame's refcount is released,
// which the server does only after the flash programs complete).
func AppendBatchView(dst []LPage, wire []byte) ([]LPage, error) {
	if len(wire) < 12 {
		return nil, fmt.Errorf("%w: short", ErrBadBatch)
	}
	if binary.LittleEndian.Uint32(wire[0:]) != batchMagic {
		return nil, fmt.Errorf("%w: magic", ErrBadBatch)
	}
	body, tail := wire[:len(wire)-4], wire[len(wire)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum", ErrBadBatch)
	}
	count := int(binary.LittleEndian.Uint32(wire[4:]))
	// Every page costs at least its 12-byte header, so the buffer itself
	// bounds a plausible count: a forged count field (from a host that
	// computed a valid CRC over hostile content) must not size the
	// preallocation, or 4 bytes of input could demand a multi-GB make.
	if count > (len(body)-8)/12 {
		return nil, fmt.Errorf("%w: count %d exceeds buffer capacity", ErrBadBatch, count)
	}
	pages := dst
	if cap(pages)-len(pages) < count {
		grown := make([]LPage, len(pages), len(pages)+count)
		copy(grown, pages)
		pages = grown
	}
	off := 8
	for i := 0; i < count; i++ {
		if off+12 > len(body) {
			return nil, fmt.Errorf("%w: truncated page header", ErrBadBatch)
		}
		lpid := addr.LPID(binary.LittleEndian.Uint64(body[off:]))
		l := int(binary.LittleEndian.Uint32(body[off+8:]))
		off += 12
		// Bound the length before any use: l is attacker-controlled and
		// must index only within the CRC-covered body.
		if l < 0 || l > len(body)-off {
			return nil, fmt.Errorf("%w: truncated page payload", ErrBadBatch)
		}
		pages = append(pages, LPage{LPID: lpid, Data: body[off : off+l : off+l]})
		off += l
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadBatch)
	}
	return pages, nil
}
