package record

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"eleos/internal/addr"
)

func roundTrip(t *testing.T, r Record) Record {
	t.Helper()
	b := Append(nil, r)
	got, n, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%v): %v", r, err)
	}
	if n != len(b) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(b))
	}
	if n != EncodedSize(r) {
		t.Fatalf("EncodedSize = %d, frame = %d", EncodedSize(r), n)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	a1 := addr.MustPack(1, 2, 128, 256)
	a2 := addr.MustPack(3, 4, 4096, 1920)
	recs := []Record{
		Update{Action: 7, LPID: 99, Type: addr.PageUser, New: a1},
		GCUpdate{Action: 8, LPID: 100, Type: addr.PageMap, Old: a1, New: a2},
		Commit{Action: 9, AKind: ActionUser, SID: 1234, WSN: 5, Sum: 0xC0FFEE42},
		Commit{Action: 10, AKind: ActionGC},
		Abort{Action: 11},
		Garbage{Action: 12, Pairs: []AddrPair{{LPID: 1, Addr: a1}, {LPID: 2, Addr: a2}}},
		Garbage{Action: 13, Pairs: nil},
		Done{Action: 14},
		OpenEBlock{Channel: 2, EBlock: 17, Stream: StreamGC},
		CloseEBlock{Channel: 1, EBlock: 3, Timestamp: 42, DataWBlocks: 200, MetaWBlocks: 4},
		CloseEBlock{Channel: 1, EBlock: 3, Timestamp: 42, DataWBlocks: 200, MetaWBlocks: 4, Action: 9},
		SessionOpen{SID: 777},
		SessionClose{SID: 777},
	}
	for _, r := range recs {
		got := roundTrip(t, r)
		// Normalise empty vs nil slices for Garbage.
		if g, ok := got.(Garbage); ok && len(g.Pairs) == 0 {
			g.Pairs = nil
			got = g
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("roundtrip mismatch:\n got %#v\nwant %#v", got, r)
		}
		if got.Kind() != r.Kind() {
			t.Errorf("kind mismatch: %v vs %v", got.Kind(), r.Kind())
		}
	}
}

// TestNarrowCommitAndCloseRejected: Commit and CloseEBlock were widened in
// place (a checksum, a conditioning action) without a new kind, so a frame
// of the width they had before — valid CRC and all — is malformed, not a
// record with a zero field: a log written by an older build is not readable.
func TestNarrowCommitAndCloseRejected(t *testing.T) {
	for _, r := range []Record{Commit{Action: 9, AKind: ActionUser, SID: 1234, WSN: 5}, CloseEBlock{Channel: 1, EBlock: 3, Timestamp: 42}} {
		wide := Append(nil, r)
		narrow := payloadBytes[r.Kind()] - map[Kind]int{KindCommit: 4, KindCloseEBlock: 8}[r.Kind()]
		b := append([]byte{byte(r.Kind())}, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(b[1:], uint32(narrow))
		b = append(b, wide[5:5+narrow]...)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
		if rec, _, err := Decode(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%v frame with a %d-byte payload decoded to %+v, %v; want ErrMalformed", r.Kind(), narrow, rec, err)
		}
	}
}

func TestDecodeAllSequence(t *testing.T) {
	var buf []byte
	want := []Record{
		Update{Action: 1, LPID: 5, Type: addr.PageUser, New: addr.MustPack(0, 1, 0, 64)},
		Commit{Action: 1, AKind: ActionUser, SID: 3, WSN: 1},
		Done{Action: 1},
	}
	for _, r := range want {
		buf = Append(buf, r)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sequence mismatch:\n got %#v\nwant %#v", got, want)
	}
}

func TestDecodeCorruption(t *testing.T) {
	b := Append(nil, Commit{Action: 1, AKind: ActionUser})
	// Flip a payload byte.
	b2 := append([]byte(nil), b...)
	b2[7] ^= 0xFF
	if _, _, err := Decode(b2); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("expected ErrBadCRC, got %v", err)
	}
	// Truncate.
	if _, _, err := Decode(b[:len(b)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("expected ErrTruncated, got %v", err)
	}
	// Empty.
	if _, _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("expected ErrTruncated for empty input")
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	b := Append(nil, Done{Action: 1})
	b[0] = byte(kindMax) // unknown kind; CRC covers kind so fix it up by re-CRC
	// Recompute CRC the cheap way: re-frame manually.
	// Easier: corrupt kind and expect either bad CRC or bad kind.
	if _, _, err := Decode(b); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestGarbageLengthLimit(t *testing.T) {
	// A Garbage record claiming more pairs than its payload could hold must
	// be rejected rather than over-allocating.
	g := Garbage{Action: 1, Pairs: []AddrPair{{LPID: 1, Addr: 1}}}
	b := Append(nil, g)
	// Payload: action(8) + count(4) + pair(16). Bump count to a huge value;
	// CRC will catch it first, which is fine — the decode must fail.
	b[13] = 0xFF
	if _, _, err := Decode(b); err == nil {
		t.Fatal("expected error for inflated pair count")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(action, lpid, old, new uint64, ty uint8, sid, wsn uint64) bool {
		recs := []Record{
			Update{Action: action, LPID: addr.LPID(lpid), Type: addr.PageType(ty), New: addr.PhysAddr(new)},
			GCUpdate{Action: action, LPID: addr.LPID(lpid), Type: addr.PageType(ty), Old: addr.PhysAddr(old), New: addr.PhysAddr(new)},
			Commit{Action: action, AKind: ActionKind(ty%4 + 1), SID: sid, WSN: wsn},
		}
		for _, r := range recs {
			b := Append(nil, r)
			got, n, err := Decode(b)
			if err != nil || n != len(b) || !reflect.DeepEqual(got, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGarbageManyPairsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		n := rng.Intn(200)
		g := Garbage{Action: rng.Uint64(), Pairs: make([]AddrPair, n)}
		for j := range g.Pairs {
			g.Pairs[j] = AddrPair{LPID: addr.LPID(rng.Uint64()), Addr: addr.PhysAddr(rng.Uint64())}
		}
		b := Append(nil, g)
		got, _, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		gg := got.(Garbage)
		if len(gg.Pairs) != n {
			t.Fatalf("pair count %d != %d", len(gg.Pairs), n)
		}
		for j := range gg.Pairs {
			if gg.Pairs[j] != g.Pairs[j] {
				t.Fatal("pair mismatch")
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindUpdate; k < kindMax; k++ {
		if k.String() == "" || k.String()[0] == 'i' && k != KindInvalid {
			t.Errorf("kind %d has suspicious String %q", k, k.String())
		}
	}
	if ActionUser.String() != "user" || ActionGC.String() != "gc" ||
		ActionCheckpoint.String() != "checkpoint" || ActionMigration.String() != "migration" {
		t.Error("ActionKind strings wrong")
	}
	if StreamUser.String() != "user" || StreamGC.String() != "gc" || StreamLog.String() != "log" {
		t.Error("StreamKind strings wrong")
	}
}

func TestDecodeAllStopsOnGarbageTail(t *testing.T) {
	buf := Append(nil, Done{Action: 3})
	buf = append(buf, 0xDE, 0xAD) // torn tail
	if _, err := DecodeAll(buf); err == nil {
		t.Fatal("expected error on torn tail")
	}
}

// sizeCases is one record of every kind, with the variable-size kinds at
// their edges: Garbage with 0, 1 and many pairs, SessionOpen with an empty
// tenant, one at the 255-byte clamp and one beyond it.
func sizeCases() []Record {
	pairs := make([]AddrPair, 500)
	for i := range pairs {
		pairs[i] = AddrPair{LPID: addr.LPID(i + 1), Addr: addr.PhysAddr(i)}
	}
	return []Record{
		Update{Action: 1, LPID: 2, Type: addr.PageUser, New: 3},
		GCUpdate{Action: 1, LPID: 2, Type: addr.PageMap, Old: 3, New: 4},
		Commit{Action: 1, AKind: ActionUser, SID: 2, WSN: 3},
		Abort{Action: 1},
		Garbage{Action: 1},
		Garbage{Action: 1, Pairs: pairs[:1]},
		Garbage{Action: 1, Pairs: pairs},
		Done{Action: 1},
		OpenEBlock{Channel: 1, EBlock: 2, Stream: StreamUser},
		CloseEBlock{Channel: 1, EBlock: 2, Timestamp: 3, DataWBlocks: 4, MetaWBlocks: 5},
		SessionOpen{SID: 1},
		SessionOpen{SID: 1, Priority: 2, Tenant: strings.Repeat("t", 255)},
		SessionOpen{SID: 1, Priority: 2, Tenant: strings.Repeat("t", 300)},
		SessionClose{SID: 1},
		FreeEBlock{Channel: 1, EBlock: 2},
	}
}

// TestEncodedSizeMatchesAppend: the arithmetic size is the encoder's, for
// every kind (a kind added without a size fails here).
func TestEncodedSizeMatchesAppend(t *testing.T) {
	seen := map[Kind]bool{}
	for _, r := range sizeCases() {
		seen[r.Kind()] = true
		if got, want := EncodedSize(r), len(Append(nil, r)); got != want {
			t.Errorf("%v %+v: EncodedSize %d, encoded %d", r.Kind(), r, got, want)
		}
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v has no size case", k)
		}
	}
}

// TestEncodedSizeAllocFree: sizing a record allocates nothing (it used to
// encode the payload into a nil slice, three growslices per record), and
// neither does encoding a concrete record of every kind into a warm buffer
// (Append is generic: nothing is boxed) or sizing the frames back with
// FrameSize, as the log does before it appends them.
func TestEncodedSizeAllocFree(t *testing.T) {
	cases := sizeCases()
	pairs := []AddrPair{{LPID: 1, Addr: 2}, {LPID: 3, Addr: 4}}
	buf := make([]byte, 0, 4096)
	var sink int
	if n := testing.AllocsPerRun(200, func() {
		for _, r := range cases {
			sink += EncodedSize(r)
		}
		buf = Append(buf[:0], Update{Action: 1, LPID: 2, Type: addr.PageUser, New: 3})
		buf = Append(buf, GCUpdate{Action: 1, LPID: 2, Type: addr.PageMap, Old: 3, New: 4})
		buf = Append(buf, Commit{Action: 1, AKind: ActionUser, SID: 2, WSN: 3, Sum: 4})
		buf = Append(buf, Abort{Action: 1})
		buf = Append(buf, Garbage{Action: 1, Pairs: pairs})
		buf = Append(buf, Done{Action: 1})
		buf = Append(buf, OpenEBlock{Channel: 1, EBlock: 2, Stream: StreamUser})
		buf = Append(buf, CloseEBlock{Channel: 1, EBlock: 2, Timestamp: 3, DataWBlocks: 4, MetaWBlocks: 1, Action: 5})
		buf = Append(buf, SessionOpen{SID: 1, Priority: 2, Tenant: "t"})
		buf = Append(buf, SessionClose{SID: 1})
		buf = Append(buf, FreeEBlock{Channel: 1, EBlock: 2})
		for b := buf; len(b) > 0; {
			n, err := FrameSize(b)
			if err != nil {
				t.Fatal(err)
			}
			sink, b = sink+n, b[n:]
		}
	}); n != 0 {
		t.Fatalf("sizing or encoding records allocates: %v allocs/op", n)
	}
}

// TestGoldenFrames pins the encoding of every kind byte for byte: a log
// page written by one build must read back in another, so a change to the
// encoder that moves a byte fails here rather than in recovery.
func TestGoldenFrames(t *testing.T) {
	a1 := addr.MustPack(1, 2, 128, 256)
	a2 := addr.MustPack(3, 4, 4096, 1920)
	golden := []struct {
		r   Record
		hex string
	}{
		{Update{Action: 7, LPID: 99, Type: addr.PageUser, New: a1},
			"01190000000700000000000000630000000000000001030008002000000179b2ca3b"},
		{GCUpdate{Action: 8, LPID: 100, Type: addr.PageMap, Old: a1, New: a2},
			"0221000000080000000000000064000000000000000203000800200000011d0000014000000321276e99"},
		{Commit{Action: 9, AKind: ActionUser, SID: 1234, WSN: 5, Sum: 0xC0FFEE42},
			"031d000000090000000000000001d204000000000000050000000000000042eeffc083440bb9"},
		{Abort{Action: 11}, "04080000000b00000000000000bc46ab94"},
		{Garbage{Action: 12, Pairs: []AddrPair{{LPID: 1, Addr: a1}, {LPID: 2, Addr: a2}}},
			"052c0000000c00000000000000020000000100000000000000030008002000000102000000000000001d00000140000003ea734097"},
		{Done{Action: 14}, "06080000000e0000000000000093fd17bc"},
		{OpenEBlock{Channel: 2, EBlock: 17, Stream: StreamGC}, "0709000000020000001100000002772e9bae"},
		{CloseEBlock{Channel: 1, EBlock: 3, Timestamp: 42, DataWBlocks: 200, MetaWBlocks: 4, Action: 9},
			"082000000001000000030000002a00000000000000c8000000040000000900000000000000b0b8b9fa"},
		{SessionOpen{SID: 777, Priority: 2, Tenant: "tenant-a"}, "09120000000903000000000000020874656e616e742d6159b8df8f"},
		{SessionClose{SID: 777}, "0a080000000903000000000000ec57801d"},
		{FreeEBlock{Channel: 5, EBlock: 6}, "0b08000000050000000600000067de3a83"},
	}
	seen := map[Kind]bool{}
	var all []byte
	for _, g := range golden {
		seen[g.r.Kind()] = true
		if got := hex.EncodeToString(Append(nil, g.r)); got != g.hex {
			t.Errorf("%v frame drifted:\n got %s\nwant %s", g.r.Kind(), got, g.hex)
		}
		all = Append(all, g.r)
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v has no golden frame", k)
		}
	}
	// The frames back to back are the log's payload: each sizes and
	// decodes to its own record.
	for _, g := range golden {
		n, err := FrameSize(all)
		if err != nil || n != len(g.hex)/2 {
			t.Fatalf("%v: FrameSize %d, %v; want %d", g.r.Kind(), n, err, len(g.hex)/2)
		}
		if _, err := FrameSize(all[:n-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%v: a frame cut short sizes with %v, want ErrTruncated", g.r.Kind(), err)
		}
		if rec, m, err := Decode(all); err != nil || m != n || !reflect.DeepEqual(rec, g.r) {
			t.Fatalf("%v: decoded %+v, %d, %v", g.r.Kind(), rec, m, err)
		}
		all = all[n:]
	}
}
