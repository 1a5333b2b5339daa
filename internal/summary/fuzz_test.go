package summary

import (
	"math/rand"
	"testing"
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

// TestLoadPageNeverPanics hammers the summary-page parser.
func TestLoadPageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tb := newTestTable(t)
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(2400)) // up to past one summary page
		rng.Read(b)
		_ = tb.loadPageLocked(0, b)
	}
}
