package netproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// --- read_batch request codec ----------------------------------------------

func TestReadBatchRoundTrip(t *testing.T) {
	for _, lpids := range [][]uint64{
		nil,
		{},
		{1},
		{7, 0, 1 << 60, 42, 42},
	} {
		body := AppendReadBatchBody(nil, lpids)
		got, err := ParseReadBatch(body)
		if err != nil {
			t.Fatalf("ParseReadBatch(%v): %v", lpids, err)
		}
		if len(got) != len(lpids) {
			t.Fatalf("round trip length %d, want %d", len(got), len(lpids))
		}
		for i := range lpids {
			if got[i] != lpids[i] {
				t.Fatalf("lpid %d: %d != %d", i, got[i], lpids[i])
			}
		}
		// decode∘encode canonicality
		if re := AppendReadBatchBody(nil, got); !bytes.Equal(re, body) {
			t.Fatalf("non-canonical: %x != %x", re, body)
		}
	}
}

func TestReadBatchForgedCount(t *testing.T) {
	// Count says 1<<30 LPIDs but the body has one: must reject before
	// allocating anything count-sized.
	body := binary.LittleEndian.AppendUint32(nil, 1<<30)
	body = AppendU64(body, 99)
	if _, err := ParseReadBatch(body); err == nil {
		t.Fatalf("forged count accepted")
	}
	// Count above the hard cap with a length that matches.
	big := binary.LittleEndian.AppendUint32(nil, MaxReadBatchPages+1)
	if _, err := ParseReadBatch(big); err == nil {
		t.Fatalf("over-cap count accepted")
	}
}

func TestReadBatchTruncatedAndTrailing(t *testing.T) {
	body := AppendReadBatchBody(nil, []uint64{1, 2, 3})
	for cut := 1; cut < len(body); cut++ {
		if _, err := ParseReadBatch(body[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ParseReadBatch(append(append([]byte{}, body...), 0)); err == nil {
		t.Fatalf("trailing byte accepted")
	}
	if _, err := ParseReadBatch(nil); err == nil {
		t.Fatalf("empty body accepted")
	}
}

// --- read_batch response codec ---------------------------------------------

func respPages() [][]byte {
	return [][]byte{
		bytes.Repeat([]byte{0xA1}, 100),
		nil, // not found
		{},  // present but empty
		bytes.Repeat([]byte{0xB2}, 4096),
	}
}

func TestReadBatchRespRoundTrip(t *testing.T) {
	pages := respPages()
	body := AppendReadBatchResp(nil, pages)
	got, err := ParseReadBatchResp(body)
	if err != nil {
		t.Fatalf("ParseReadBatchResp: %v", err)
	}
	if len(got) != len(pages) {
		t.Fatalf("length %d, want %d", len(got), len(pages))
	}
	for i, p := range pages {
		if (p == nil) != (got[i] == nil) {
			t.Fatalf("entry %d nil-ness differs", i)
		}
		if !bytes.Equal(got[i], p) {
			t.Fatalf("entry %d content differs", i)
		}
	}
	if re := AppendReadBatchResp(nil, got); !bytes.Equal(re, body) {
		t.Fatalf("non-canonical response encoding")
	}
}

func TestReadBatchRespForgedAndTruncated(t *testing.T) {
	// Forged count larger than the body could hold.
	forged := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, err := ParseReadBatchResp(forged); err == nil {
		t.Fatalf("forged response count accepted")
	}
	// Forged per-page length.
	body := binary.LittleEndian.AppendUint32(nil, 1)
	body = append(body, ReadPageOK)
	body = binary.LittleEndian.AppendUint32(body, 1<<30)
	if _, err := ParseReadBatchResp(body); err == nil {
		t.Fatalf("forged page length accepted")
	}
	// Unknown status byte.
	bad := binary.LittleEndian.AppendUint32(nil, 1)
	bad = append(bad, 0x7F)
	if _, err := ParseReadBatchResp(bad); err == nil {
		t.Fatalf("unknown status accepted")
	}
	// Every truncation of a valid body must be rejected.
	full := AppendReadBatchResp(nil, respPages())
	for cut := 1; cut < len(full); cut++ {
		if _, err := ParseReadBatchResp(full[:cut]); err == nil {
			t.Fatalf("response truncation at %d accepted", cut)
		}
	}
	// Trailing bytes rejected.
	if _, err := ParseReadBatchResp(append(append([]byte{}, full...), 0xEE)); err == nil {
		t.Fatalf("response trailing byte accepted")
	}
}

// FuzzDecodeReadBatch: the read_batch request decoder must reject or
// accept arbitrary bytes without panicking or over-allocating, and
// accepted inputs must re-encode byte-identically (canonical codec) —
// the same contract as FuzzDecodeOpenSession.
func FuzzDecodeReadBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendReadBatchBody(nil, nil))
	f.Add(AppendReadBatchBody(nil, []uint64{1, 2, 3, 1 << 50}))
	f.Fuzz(func(t *testing.T, data []byte) {
		lpids, err := ParseReadBatch(data)
		if err != nil {
			return
		}
		if re := AppendReadBatchBody(nil, lpids); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeReadBatchResp: same contract for the response decoder (the
// client-side surface an evil server could attack).
func FuzzDecodeReadBatchResp(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendReadBatchResp(nil, nil))
	f.Add(AppendReadBatchResp(nil, respPages()))
	f.Fuzz(func(t *testing.T, data []byte) {
		pages, err := ParseReadBatchResp(data)
		if err != nil {
			return
		}
		if re := AppendReadBatchResp(nil, pages); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
	})
}

// --- pooled read_page reply path -------------------------------------------

// TestReadReplyAllocFree pins the pooled read_page reply: serving a page
// is WriteFrame2 with no head and the page bytes as the vectored tail —
// zero allocations once the writer's scratch is warm. This is the CI
// gate for the "pooled zero-copy reply frames" claim on the read path.
func TestReadReplyAllocFree(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	page := bytes.Repeat([]byte{0xC3}, 8192) // > vecCopyLimit: vectored
	small := bytes.Repeat([]byte{0x3C}, 256) // <= vecCopyLimit: copied
	scratch := make([]byte, 0, 4096)

	// Warm both paths and the batch-reply scratch.
	if err := fw.WriteFrame2(MsgRespRead, nil, page); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame2(MsgRespRead, nil, small); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		if err := fw.WriteFrame2(MsgRespRead, nil, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("vectored read_page reply allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := fw.WriteFrame2(MsgRespRead, nil, small); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("copied read_page reply allocates: %v allocs/op", n)
	}
	// The read_batch reply body builder reuses caller scratch.
	pages := [][]byte{page, nil, small}
	scratch = AppendReadBatchResp(scratch[:0], pages)
	if n := testing.AllocsPerRun(200, func() {
		scratch = AppendReadBatchResp(scratch[:0], pages)
	}); n != 0 {
		t.Fatalf("AppendReadBatchResp allocates: %v allocs/op", n)
	}
}
