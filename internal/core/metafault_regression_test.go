package core

import (
	"errors"
	"testing"

	"eleos/internal/addr"
)

// Regression: an EBLOCK is closed (Open -> Used, metadata flushed to its
// tail) at provisioning time, before the programs land. The summary table
// used to drop the in-memory metadata at that moment, so when a program
// of the closing EBLOCK failed, the migration found a Used EBLOCK with
// unreadable flushed metadata, took it for empty, and erased it — losing
// every committed page it held from earlier actions. (Seen as the 1-in-10
// TestFaultSchedule/burst failure "Read differs from acknowledged
// version"; a single writer loses ~30 acknowledged pages when the fault
// lands on program attempt 78, 80, 83 or 86 of this workload.)
//
// The sweep plants one program fault at each offset across a window that
// spans several EBLOCK closes, retries the aborted flush as a host would,
// and requires every acknowledged page back byte-exact.
func TestProgramFaultOnClosingEBlockKeepsCommittedPages(t *testing.T) {
	const batches, pagesPerBatch = 60, 6
	size := func(k int) int { return 3000 + k*500 }
	want := make(map[addr.LPID][]byte)
	for b := 1; b <= batches; b++ {
		for k := 0; k < pagesPerBatch; k++ {
			lpid := addr.LPID(b*100 + k)
			want[lpid] = pageContent(uint64(lpid), 1, size(k))
		}
	}
	for n := 70; n <= 90; n++ {
		c, dev := newFormatted(t)
		dev.FailNthProgram(n)
		for b := 1; b <= batches; b++ {
			pages := make([]LPage, pagesPerBatch)
			for k := range pages {
				lpid := addr.LPID(b*100 + k)
				pages[k] = LPage{LPID: lpid, Data: want[lpid]}
			}
			err := c.WriteBatch(0, 0, pages)
			if errors.Is(err, ErrWriteFailed) {
				err = c.WriteBatch(0, 0, pages)
			}
			if err != nil {
				t.Fatalf("fault at program %d, batch %d: %v", n, b, err)
			}
		}
		if dev.Stats().WriteFailures != 1 {
			t.Fatalf("fault at program %d never fired", n)
		}
		for lpid, data := range want {
			checkRead(t, c, lpid, data)
		}
	}
}
