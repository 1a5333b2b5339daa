package record

import (
	"math/rand"
	"testing"

	"eleos/internal/addr"
)

// TestDecodeNeverPanicsOnRandomBytes hammers Decode with arbitrary input;
// it must return errors, never panic or over-allocate.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		rec, n, err := Decode(b)
		if err == nil {
			if rec == nil || n <= 0 || n > len(b) {
				t.Fatalf("inconsistent success: rec=%v n=%d len=%d", rec, n, len(b))
			}
		}
	}
}

// TestDecodeMutatedValidFrames flips bytes of valid frames: every mutation
// must be either detected or decode to a well-formed record.
func TestDecodeMutatedValidFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bases := [][]byte{
		Append(nil, Update{Action: 5, LPID: 10, Type: 1, New: 0xABCD}),
		Append(nil, Commit{Action: 5, AKind: ActionUser, SID: 7, WSN: 3, Sum: 0x9E3779B9}),
		Append(nil, CloseEBlock{Channel: 1, EBlock: 2, Timestamp: 3, DataWBlocks: 15, MetaWBlocks: 1, Action: 5}),
	}
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), bases[i%len(bases)]...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		rec, n, err := Decode(b)
		if err == nil && (rec == nil || n <= 0) {
			t.Fatal("inconsistent success on mutated frame")
		}
	}
}

// TestDecodeAllRandom ensures DecodeAll terminates on arbitrary input.
func TestDecodeAllRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(500))
		rng.Read(b)
		_, _ = DecodeAll(b)
	}
}

// TestEncodedSizeRandomRecords: for seeded random records of every kind —
// pair counts and tenant lengths on both sides of their limits included —
// EncodedSize equals the length Append produces.
func TestEncodedSizeRandomRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		var r Record
		switch k := Kind(1 + rng.Intn(int(kindMax)-1)); k {
		case KindUpdate:
			r = Update{Action: rng.Uint64(), LPID: addr.LPID(rng.Uint64()), Type: addr.PageType(rng.Intn(256)), New: addr.PhysAddr(rng.Uint64())}
		case KindGCUpdate:
			r = GCUpdate{Action: rng.Uint64(), LPID: addr.LPID(rng.Uint64()), Old: addr.PhysAddr(rng.Uint64()), New: addr.PhysAddr(rng.Uint64())}
		case KindCommit:
			r = Commit{Action: rng.Uint64(), AKind: ActionKind(rng.Intn(256)), SID: rng.Uint64(), WSN: rng.Uint64(), Sum: rng.Uint32()}
		case KindAbort:
			r = Abort{Action: rng.Uint64()}
		case KindGarbage:
			r = Garbage{Action: rng.Uint64(), Pairs: make([]AddrPair, rng.Intn(300))}
		case KindDone:
			r = Done{Action: rng.Uint64()}
		case KindOpenEBlock:
			r = OpenEBlock{Channel: rng.Uint32(), EBlock: rng.Uint32(), Stream: StreamKind(rng.Intn(256))}
		case KindCloseEBlock:
			r = CloseEBlock{Channel: rng.Uint32(), EBlock: rng.Uint32(), Timestamp: rng.Uint64(), Action: rng.Uint64()}
		case KindSessionOpen:
			r = SessionOpen{SID: rng.Uint64(), Priority: uint8(rng.Intn(256)), Tenant: string(make([]byte, rng.Intn(400)))}
		case KindSessionClose:
			r = SessionClose{SID: rng.Uint64()}
		case KindFreeEBlock:
			r = FreeEBlock{Channel: rng.Uint32(), EBlock: rng.Uint32()}
		default:
			t.Fatalf("kind %v has no generator", k)
		}
		if got, want := EncodedSize(r), len(Append(nil, r)); got != want {
			t.Fatalf("%+v: EncodedSize %d, encoded %d", r, got, want)
		}
	}
}
