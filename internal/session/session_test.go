package session

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpenAssignsUniqueNonZeroSIDs(t *testing.T) {
	tb := New(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		sid := tb.Open()
		if sid == 0 {
			t.Fatal("zero SID")
		}
		if seen[sid] {
			t.Fatal("duplicate SID")
		}
		seen[sid] = true
	}
	if tb.Count() != 1000 {
		t.Fatalf("Count = %d", tb.Count())
	}
}

func TestWSNOrdering(t *testing.T) {
	tb := New(2)
	sid := tb.Open()

	v, high, err := tb.Check(sid, 1)
	if err != nil || v != Apply || high != 0 {
		t.Fatalf("first wsn: %v %d %v", v, high, err)
	}
	// Early: wsn 3 before 1 and 2 applied.
	v, _, err = tb.Check(sid, 3)
	if err != nil || v != Early {
		t.Fatalf("early wsn: %v %v", v, err)
	}
	if err := tb.Advance(sid, 1); err != nil {
		t.Fatal(err)
	}
	// Stale: wsn 1 again.
	v, high, err = tb.Check(sid, 1)
	if err != nil || v != Stale || high != 1 {
		t.Fatalf("stale wsn: %v %d %v", v, high, err)
	}
	// Out-of-order advance rejected.
	if err := tb.Advance(sid, 3); err == nil {
		t.Fatal("out-of-order advance accepted")
	}
	if err := tb.Advance(sid, 2); err != nil {
		t.Fatal(err)
	}
	got, err := tb.HighestWSN(sid)
	if err != nil || got != 2 {
		t.Fatalf("HighestWSN = %d %v", got, err)
	}
}

func TestUnknownSession(t *testing.T) {
	tb := New(3)
	if _, _, err := tb.Check(42, 1); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("expected ErrUnknownSession")
	}
	if err := tb.Advance(42, 1); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("expected ErrUnknownSession")
	}
	if err := tb.Close(42); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("expected ErrUnknownSession")
	}
	if _, err := tb.HighestWSN(42); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("expected ErrUnknownSession")
	}
}

// isOpen reports whether tb knows sid: Tenant fails only for an unknown one.
func isOpen(tb *Table, sid uint64) bool {
	_, _, err := tb.Tenant(sid)
	return err == nil
}

func TestCloseRemovesSession(t *testing.T) {
	tb := New(4)
	sid := tb.Open()
	if !isOpen(tb, sid) {
		t.Fatal("session should be open")
	}
	if err := tb.Close(sid); err != nil {
		t.Fatal(err)
	}
	if isOpen(tb, sid) {
		t.Fatal("session should be closed")
	}
	if _, _, err := tb.Check(sid, 1); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("closed session usable")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tb := New(5)
	sids := make([]uint64, 5)
	for i := range sids {
		sids[i] = tb.Open()
		for w := uint64(1); w <= uint64(i); w++ {
			if err := tb.Advance(sids[i], w); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := tb.Serialize()
	tb2 := New(6)
	if err := tb2.Load(img); err != nil {
		t.Fatal(err)
	}
	for i, sid := range sids {
		got, err := tb2.HighestWSN(sid)
		if err != nil || got != uint64(i) {
			t.Fatalf("session %d: wsn %d %v", i, got, err)
		}
	}
	if tb2.Count() != len(sids) {
		t.Fatalf("Count = %d", tb2.Count())
	}
}

func TestSnapshotCorruption(t *testing.T) {
	tb := New(7)
	tb.Open()
	img := tb.Serialize()
	img[9] ^= 0xFF
	if err := New(8).Load(img); !errors.Is(err, ErrBadImage) {
		t.Fatal("corruption not detected")
	}
	if err := New(8).Load(nil); !errors.Is(err, ErrBadImage) {
		t.Fatal("nil image accepted")
	}
	if err := New(8).Load(make([]byte, 64)); !errors.Is(err, ErrBadImage) {
		t.Fatal("zero image accepted")
	}
}

func TestRecoveryHelpers(t *testing.T) {
	tb := New(9)
	tb.RestoreOpen(100, "", 0)
	tb.RestoreOpen(100, "", 0) // idempotent
	if tb.Count() != 1 {
		t.Fatal("RestoreOpen not idempotent")
	}
	tb.AdvanceTo(100, 5)
	tb.AdvanceTo(100, 3) // lower: no-op
	got, _ := tb.HighestWSN(100)
	if got != 5 {
		t.Fatalf("AdvanceTo: %d", got)
	}
	// AdvanceTo on unknown session creates it (replay may see commits for
	// sessions whose open record predates the truncation point but whose
	// snapshot was lost — tolerated defensively).
	tb.AdvanceTo(200, 7)
	got, _ = tb.HighestWSN(200)
	if got != 7 {
		t.Fatal("AdvanceTo should create missing sessions")
	}
	tb.RestoreClose(200)
	if isOpen(tb, 200) {
		t.Fatal("RestoreClose failed")
	}
	tb.DropVolatile()
	if tb.Count() != 0 {
		t.Fatal("DropVolatile failed")
	}
}

func TestSnapshotExcludesClosed(t *testing.T) {
	tb := New(12)
	kept := tb.Open()
	closed := tb.Open()
	if err := tb.Advance(kept, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(closed); err != nil {
		t.Fatal(err)
	}
	tb2 := New(13)
	if err := tb2.Load(tb.Serialize()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb2.HighestWSN(closed); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("closed session resurrected by snapshot")
	}
	got, err := tb2.HighestWSN(kept)
	if err != nil || got != 1 {
		t.Fatalf("kept session: wsn %d %v", got, err)
	}
	if tb2.Count() != 1 {
		t.Fatalf("Count = %d", tb2.Count())
	}
}

func TestLoadReplacesContents(t *testing.T) {
	src := New(14)
	srcSID := src.Open()
	src.AdvanceTo(srcSID, 9)

	dst := New(15)
	stale := dst.Open()
	if err := dst.Load(src.Serialize()); err != nil {
		t.Fatal(err)
	}
	// Load is a full replacement, not a merge: pre-existing sessions that
	// the snapshot doesn't carry must be gone.
	if isOpen(dst, stale) {
		t.Fatal("Load merged instead of replacing")
	}
	got, err := dst.HighestWSN(srcSID)
	if err != nil || got != 9 {
		t.Fatalf("loaded session: wsn %d %v", got, err)
	}
}

// TestRecoveryReplaySnapshotRoundTrip drives the full recovery shape: a
// table rebuilt via the Restore*/AdvanceTo replay helpers must serialize
// to an image that reproduces it exactly — the invariant checkpointing
// after recovery depends on.
func TestRecoveryReplaySnapshotRoundTrip(t *testing.T) {
	tb := New(16)
	tb.RestoreOpen(100, "", 0)
	tb.AdvanceTo(100, 3)
	tb.AdvanceTo(100, 7)
	tb.RestoreOpen(200, "", 0)
	tb.AdvanceTo(200, 1)
	tb.RestoreOpen(300, "", 0)
	tb.RestoreClose(300) // opened then closed before the crash
	tb.AdvanceTo(400, 5) // commit replayed before its open record

	tb2 := New(17)
	if err := tb2.Load(tb.Serialize()); err != nil {
		t.Fatal(err)
	}
	for sid, want := range map[uint64]uint64{100: 7, 200: 1, 400: 5} {
		got, err := tb2.HighestWSN(sid)
		if err != nil || got != want {
			t.Fatalf("sid %d: wsn %d %v, want %d", sid, got, err, want)
		}
	}
	if isOpen(tb2, 300) {
		t.Fatal("closed session survived replay round trip")
	}
	// The recovered table keeps working: the next WSN applies cleanly.
	if v, _, err := tb2.Check(100, 8); err != nil || v != Apply {
		t.Fatalf("post-recovery check: %v %v", v, err)
	}
}

func TestLoadForgedCount(t *testing.T) {
	tb := New(18)
	tb.Open()
	img := tb.Serialize()
	// A forged count field must fail the length bound before it can size
	// anything; recompute the CRC position honestly so only the count is
	// the lie being tested.
	binary.LittleEndian.PutUint32(img[4:], 0xFFFFFFF0)
	if err := New(19).Load(img); !errors.Is(err, ErrBadImage) {
		t.Fatalf("forged count: %v, want ErrBadImage", err)
	}
}

func TestLoadNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		tb := New(21)
		if err := tb.Load(b); err == nil {
			// Rare but legal: a random buffer that happens to be a valid
			// image must leave a usable table.
			_ = tb.Count()
		}
	}
}

func TestSerializeAligned(t *testing.T) {
	tb := New(10)
	for i := 0; i < 7; i++ {
		tb.Open()
	}
	if len(tb.Serialize())%64 != 0 {
		t.Fatal("snapshot not 64-byte aligned")
	}
}

// Property: for any sequence of WSNs presented in order 1..n with random
// duplicates interleaved, exactly the fresh ones get Apply and the session
// ends at highest = n.
func TestWSNSequenceQuick(t *testing.T) {
	f := func(dups []uint8) bool {
		tb := New(11)
		sid := tb.Open()
		next := uint64(1)
		for _, d := range dups {
			// Present a stale duplicate d% of the time.
			if next > 1 && d%3 == 0 {
				wsn := uint64(d)%(next-1) + 1
				v, high, err := tb.Check(sid, wsn)
				if err != nil || v != Stale || high != next-1 {
					return false
				}
				continue
			}
			v, _, err := tb.Check(sid, next)
			if err != nil || v != Apply {
				return false
			}
			if tb.Advance(sid, next) != nil {
				return false
			}
			next++
		}
		high, err := tb.HighestWSN(sid)
		return err == nil && high == next-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTenantTagRoundTrip(t *testing.T) {
	tb := New(30)
	a := tb.OpenTenant("alpha", 7)
	b := tb.OpenTenant("", 2)
	c := tb.Open()
	if err := tb.Advance(a, 1); err != nil {
		t.Fatal(err)
	}

	check := func(tab *Table, stage string) {
		t.Helper()
		for _, tc := range []struct {
			sid    uint64
			tenant string
			prio   uint8
		}{{a, "alpha", 7}, {b, "", 2}, {c, "", 0}} {
			tenant, prio, err := tab.Tenant(tc.sid)
			if err != nil {
				t.Fatalf("%s: Tenant(%d): %v", stage, tc.sid, err)
			}
			if tenant != tc.tenant || prio != tc.prio {
				t.Fatalf("%s: Tenant(%d) = (%q,%d), want (%q,%d)", stage, tc.sid, tenant, prio, tc.tenant, tc.prio)
			}
		}
	}
	check(tb, "live")

	// Tags survive the snapshot image.
	tb2 := New(31)
	if err := tb2.Load(tb.Serialize()); err != nil {
		t.Fatal(err)
	}
	check(tb2, "snapshot")
	if got, _ := tb2.HighestWSN(a); got != 1 {
		t.Fatalf("wsn after tagged round trip = %d", got)
	}

	// And the replay helpers.
	tb3 := New(32)
	tb3.AdvanceTo(a, 1) // commit replayed before its open record
	tb3.RestoreOpen(a, "alpha", 7)
	tenant, prio, err := tb3.Tenant(a)
	if err != nil || tenant != "alpha" || prio != 7 {
		t.Fatalf("replayed tag = (%q,%d,%v)", tenant, prio, err)
	}
	if _, _, err := tb3.Tenant(999); !errors.Is(err, ErrUnknownSession) {
		t.Fatal("Tenant on unknown session")
	}
}

// TestLoadLegacyV1Image: a v1 snapshot image (magic "SESS", fixed 16-byte
// entries, no tenant tags) is no longer read — no device of this format
// epoch holds one — and fails like any other foreign image, leaving the
// table as it was.
func TestLoadLegacyV1Image(t *testing.T) {
	entries := []struct{ sid, wsn uint64 }{{11, 3}, {22, 0}}
	raw := make([]byte, 8+len(entries)*16+4)
	binary.LittleEndian.PutUint32(raw[0:], 0x53455353) // "SESS"
	binary.LittleEndian.PutUint32(raw[4:], uint32(len(entries)))
	for i, e := range entries {
		binary.LittleEndian.PutUint64(raw[8+i*16:], e.sid)
		binary.LittleEndian.PutUint64(raw[8+i*16+8:], e.wsn)
	}
	crcAt := 8 + len(entries)*16
	binary.LittleEndian.PutUint32(raw[crcAt:], crc32.ChecksumIEEE(raw[:crcAt]))

	tb := New(33)
	sid := tb.Open()
	if err := tb.Load(raw); !errors.Is(err, ErrBadImage) {
		t.Fatalf("v1 image: %v, want ErrBadImage", err)
	}
	if tb.Count() != 1 || !isOpen(tb, sid) {
		t.Fatalf("a rejected image changed the table: %d sessions", tb.Count())
	}
}

func TestVerdictString(t *testing.T) {
	if Apply.String() != "apply" || Stale.String() != "stale" || Early.String() != "early" {
		t.Fatal("verdict strings wrong")
	}
}
