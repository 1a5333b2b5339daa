package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"eleos/internal/addr"
)

func TestBatchWireRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		pages := make([]LPage, n)
		for i := range pages {
			data := make([]byte, 1+rng.Intn(500))
			rng.Read(data)
			pages[i] = LPage{LPID: addr.LPID(rng.Uint64() & uint64(addr.MaxUserLPID)), Data: data}
		}
		got, err := AppendBatchView(nil, EncodeBatch(pages))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].LPID != pages[i].LPID || !bytes.Equal(got[i].Data, pages[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWireCorruption(t *testing.T) {
	wire := EncodeBatch([]LPage{{LPID: 1, Data: []byte("hello")}})
	for _, off := range []int{0, 5, 10, len(wire) - 2} {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0xFF
		if _, err := AppendBatchView(nil, bad); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("corruption at %d not detected", off)
		}
	}
	if _, err := AppendBatchView(nil, nil); !errors.Is(err, ErrBadBatch) {
		t.Fatal("nil accepted")
	}
	if _, err := AppendBatchView(nil, wire[:8]); !errors.Is(err, ErrBadBatch) {
		t.Fatal("truncated accepted")
	}
}

// TestBatchViewEndToEnd writes zero-copy views of a wire buffer — the
// server's flush path in miniature — and reads the pages back.
func TestBatchViewEndToEnd(t *testing.T) {
	c, _ := newFormatted(t)
	wire := EncodeBatch([]LPage{
		{LPID: 1, Data: pageContent(1, 1, 300)},
		{LPID: 2, Data: pageContent(2, 1, 1200)},
	})
	views, err := AppendBatchView(make([]LPage, 0, 4), wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBatch(0, 0, views); err != nil {
		t.Fatal(err)
	}
	checkRead(t, c, 1, pageContent(1, 1, 300))
	checkRead(t, c, 2, pageContent(2, 1, 1200))
	// A corrupted wire buffer is rejected at decode, before any write.
	wire[20] ^= 0xFF
	if _, err := AppendBatchView(views[:0], wire); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("corrupt wire accepted: %v", err)
	}
}

// An empty wire batch decodes (to no pages) and is rejected by the write.
func TestEmptyWireBatch(t *testing.T) {
	c, _ := newFormatted(t)
	views, err := AppendBatchView(nil, EncodeBatch(nil))
	if err != nil || len(views) != 0 {
		t.Fatalf("empty wire batch decode: %d pages, %v", len(views), err)
	}
	if err := c.WriteBatch(0, 0, views); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty wire batch: %v", err)
	}
}
