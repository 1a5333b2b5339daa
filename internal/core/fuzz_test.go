package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"eleos/internal/addr"
	"eleos/internal/wal"
)

// TestDecodeBatchNeverPanics hammers the wire-batch parser (§IX-A2) with
// arbitrary bytes — a hostile host must not crash the controller.
func TestDecodeBatchNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		pages, err := AppendBatchView(nil, b)
		if err == nil && pages == nil {
			t.Fatal("nil pages with nil error")
		}
	}
}

// TestDecodeBatchForgedCount plants hostile count and per-page length
// fields behind VALID checksums — a host can always produce a correct
// CRC over malicious content, so the CRC is no defence. The parser must
// reject them cheaply, never sizing an allocation from the forged field.
func TestDecodeBatchForgedCount(t *testing.T) {
	forge := func(mutate func(body []byte) []byte) []byte {
		body := binary.LittleEndian.AppendUint32(nil, 0x454C4246) // batchMagic
		body = binary.LittleEndian.AppendUint32(body, 1)
		body = binary.LittleEndian.AppendUint64(body, 42)                       // lpid
		body = binary.LittleEndian.AppendUint32(body, 4)                        // len
		body = append(body, 'd', 'a', 't', 'a')                                 //
		body = mutate(body)                                                     //
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)) // valid CRC
	}
	cases := map[string][]byte{
		// count = 4G claims ~200 GB of []LPage backing: must be rejected
		// by the buffer-capacity bound, not allocated.
		"count 0xFFFFFFFF": forge(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0xFFFFFFFF)
			return b
		}),
		"count just past capacity": forge(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 2)
			return b
		}),
		// page length pointing far past the CRC-covered body.
		"len 0xFFFFFFF0": forge(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 0xFFFFFFF0)
			return b
		}),
	}
	for name, wire := range cases {
		if _, err := AppendBatchView(nil, wire); !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: err = %v, want ErrBadBatch", name, err)
		}
	}
	// The unmutated encoding stays decodable (the bound is not too tight).
	good := forge(func(b []byte) []byte { return b })
	pages, err := AppendBatchView(nil, good)
	if err != nil || len(pages) != 1 || string(pages[0].Data) != "data" {
		t.Fatalf("well-formed batch rejected: %v", err)
	}
}

// FuzzDecodeBatch fuzzes the wire-batch parser directly: any input must
// either decode or fail with ErrBadBatch — no panics, no giant
// allocations — round-tripping a decoded batch must be stable, and the
// decoded views must alias the wire buffer (the server feeds
// AppendBatchView straight from pooled request frames and programs flash
// from the views, so a stray copy or a view past the frame is silent
// data corruption).
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch([]LPage{{LPID: 1, Data: []byte("x")}}))
	f.Add(EncodeBatch([]LPage{
		{LPID: 7, Data: make([]byte, 100)},
		{LPID: 9, Data: []byte("variable size")},
	}))
	hostile := binary.LittleEndian.AppendUint32(nil, 0x454C4246)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xFFFFFFFF)
	f.Add(binary.LittleEndian.AppendUint32(hostile, crc32.ChecksumIEEE(hostile)))
	f.Fuzz(func(t *testing.T, wire []byte) {
		pages, err := AppendBatchView(make([]LPage, 0, 4), wire)
		if err != nil {
			if !errors.Is(err, ErrBadBatch) {
				t.Fatalf("non-ErrBadBatch failure: %v", err)
			}
			return
		}
		for i := range pages {
			if len(pages[i].Data) == 0 {
				continue
			}
			base := uintptr(unsafe.Pointer(&wire[0]))
			d := uintptr(unsafe.Pointer(&pages[i].Data[0]))
			if d < base || d >= base+uintptr(len(wire)) {
				t.Fatalf("page %d view does not alias the wire buffer", i)
			}
		}
		// Anything that decodes must re-encode to a decodable batch with
		// identical content.
		again, err := AppendBatchView(nil, EncodeBatch(pages))
		if err != nil || len(again) != len(pages) {
			t.Fatalf("round trip: %d pages, %v", len(again), err)
		}
		for i := range pages {
			if again[i].LPID != pages[i].LPID || !bytes.Equal(again[i].Data, pages[i].Data) {
				t.Fatalf("page %d content changed across round trip", i)
			}
		}
	})
}

// TestDecodeCkptPartNeverPanics hammers the checkpoint part parser.
func TestDecodeCkptPartNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		_, _ = decodeCkptPart(b)
	}
}

// TestDecodeCkptNeverPanics hammers the checkpoint record parser.
func TestDecodeCkptNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(400))
		rng.Read(b)
		_, _ = decodeCkpt(b)
	}
	// Mutations of a valid record must be caught by the CRC.
	valid := encodeCkpt(&ckptRecord{Seq: 3, TruncLSN: 7, StartLSN: 1})
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), valid...)
		b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		if ck, err := decodeCkpt(b); err == nil && ck == nil {
			t.Fatal("nil record with nil error")
		}
	}
}

// FuzzDecodeCkpt fuzzes the checkpoint record parser behind a valid CRC, as
// an image loaded from disk (eleosd -img, eleosctl -img) can carry: any
// body must decode or fail with errBadCkpt or ErrImageFormat, and what
// decodes re-encodes to itself.
func FuzzDecodeCkpt(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint32(nil, ckptMagic)) // magic | crc: read past the end
	f.Add(encodeCkpt(&ckptRecord{Seq: 3, TruncLSN: 7, StartLSN: 1})[:4+4+24+4])
	full := encodeCkpt(&ckptRecord{Seq: 9, StartSlots: []wal.Slot{{Channel: 1, EBlock: 2, WBlock: 3}},
		Tiny: []addr.PhysAddr{5}, Locator: []addr.PhysAddr{6, 7}, SessAddr: 8, UpdateSeq: 10, NextAction: 11})
	body := full[:len(full)-4]
	f.Add(body)
	f.Add(noEpoch(body))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, ckptMagic), formatEpoch+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := decodeCkpt(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			if !errors.Is(err, errBadCkpt) && !errors.Is(err, ErrImageFormat) {
				t.Fatalf("failure neither errBadCkpt nor ErrImageFormat: %v", err)
			}
			return
		}
		again, err := decodeCkpt(encodeCkpt(ck))
		if err != nil || !reflect.DeepEqual(again, ck) {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, ck)
		}
	})
}

// noEpoch lays a record body (no CRC) out as the builds before the format
// epoch wrote it: their magic, and no epoch after it.
func noEpoch(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, ckptMagicNoEpoch), body[8:]...)
}
