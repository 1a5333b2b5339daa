package summary

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"eleos/internal/record"
)

// TestDecodeMetaBlockNeverPanics hammers the TAG-block parser — GC reads
// these from flash, where a crashed close may have left anything.
func TestDecodeMetaBlockNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(600))
		rng.Read(b)
		entries, err := DecodeMetaBlock(b)
		if err == nil && entries == nil && len(b) >= 16 {
			// nil entries are fine only for an empty valid block.
			continue
		}
	}
}

// TestLoadPageNeverPanics hammers the summary-page parser with encoded
// pages mutated past the magic, so inputs reach the index, count and CRC
// checks, and — half of them with the CRC recomputed — the descriptor
// loop. A change inside the checksummed span must be rejected unless
// its CRC was recomputed.
func TestLoadPageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tb := newTestTable(t)
	for eb := 0; eb < 8; eb++ {
		if err := tb.OpenEBlock(0, eb, record.StreamUser, record.LSN(eb+1)); err != nil {
			t.Fatal(err)
		}
	}
	seeds := make([][]byte, tb.NumPages())
	for idx := range seeds {
		seeds[idx] = tb.SerializePage(idx, record.LSN(100+idx))
		if err := tb.loadPageLocked(idx, seeds[idx]); err != nil {
			t.Fatalf("seed page %d: %v", idx, err)
		}
	}
	crcOff := 20 + perPage*descBytes
	for i := 0; i < 10000; i++ {
		idx := rng.Intn(len(seeds))
		b := append([]byte(nil), seeds[idx]...)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			b[4+rng.Intn(len(b)-4)] ^= byte(1 + rng.Intn(255))
		}
		fixed := rng.Intn(2) == 0
		if fixed {
			binary.LittleEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[:crcOff]))
		}
		if rng.Intn(4) == 0 {
			b = b[:4+rng.Intn(len(b)-4)]
		}
		err := tb.loadPageLocked(idx, b)
		if err == nil && !fixed && !bytes.Equal(b[:crcOff+4], seeds[idx][:crcOff+4]) {
			t.Fatalf("iteration %d: page %d changed inside its checksum loaded", i, idx)
		}
	}
}
