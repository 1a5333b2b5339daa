package wal

import (
	"math/rand"
	"testing"

	"eleos/internal/record"
)

// TestDecodePageNeverPanics hammers the log-page parser with arbitrary
// bytes; stale or torn pages must be rejected, never crash recovery.
func TestDecodePageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(2*testPageBytes))
		rng.Read(b)
		_, _ = DecodePage(Slot{}, b)
	}
	// Mutations of a valid page.
	payload := record.Append(nil, record.Done{Action: 1})
	valid := encodePage(make([]byte, testPageBytes), 1, 1, payload, []Slot{{0, 0, 1}})
	for i := 0; i < 3000; i++ {
		b := append([]byte(nil), valid...)
		b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		_, _ = DecodePage(Slot{}, b)
	}
}

// TestPageLSNRangeRandom ensures the cheap header parser never panics and
// stays consistent with the full decoder on valid pages.
func TestPageLSNRangeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		_, _, _ = PageLSNRange(b)
	}
	payload := record.Append(record.Append(nil, record.Done{Action: 1}), record.Done{Action: 2})
	page := encodePage(make([]byte, testPageBytes), 41, 2, payload, nil)
	first, last, ok := PageLSNRange(page)
	if !ok || first != 41 || last != 42 {
		t.Fatalf("PageLSNRange = %d %d %v", first, last, ok)
	}
}
