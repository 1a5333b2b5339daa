package core

import (
	"errors"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// TestGCMarkBadDropsCursor pins the exact interleaving behind the chaos
// corpus flake `provision: apply close: eblock not open: (ch,eb) is bad`
// (ROADMAP Known issues): a migration of the *open* user EBLOCK relocates
// its pages, then hits an injected erase fault in eraseAndFreeLocked. The
// EBLOCK is marked Bad, but before the fix the provisioner's user cursor
// was only dropped on the erase success path, so the next ProvisionBatch
// planned pages into the Bad EBLOCK and applyClose failed. Single channel
// makes the interleaving deterministic: the follow-up write has no other
// cursor to land on.
func TestGCMarkBadDropsCursor(t *testing.T) {
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	c, err := Format(dev, DefaultConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}

	// Open the channel's user cursor with real data.
	want1 := pageContent(100, 1, 3000)
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 100, Data: want1}}); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}

	c.mu.Lock()
	eb := -1
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream == record.StreamUser && ref.Channel == 0 {
			eb = ref.EBlock
		}
	}
	if eb < 0 {
		c.mu.Unlock()
		t.Fatal("no open user EBLOCK after a write")
	}

	// Migrate the open user EBLOCK with the next erase armed to fail —
	// exactly what a program fault on the open EBLOCK triggers via
	// migrateFailedLocked. Relocation succeeds (data is safe at its new
	// address), the erase faults, and the EBLOCK goes Bad.
	dev.FailNthErase(1)
	merr := c.migrateEBlockLocked(0, eb, 0)
	c.mu.Unlock()
	if merr == nil {
		t.Fatal("migration succeeded; the armed erase fault never fired")
	}
	if !errors.Is(merr, flash.ErrEraseFailed) {
		t.Fatalf("migration error = %v, want injected erase failure", merr)
	}
	d, err := c.st.Desc(0, eb)
	if err != nil {
		t.Fatalf("Desc: %v", err)
	}
	if d.State != summary.Bad {
		t.Fatalf("EBLOCK state after failed erase = %v, want Bad", d.State)
	}

	// The regression: follow-up writes on this channel must open a fresh
	// EBLOCK, not program through the stale cursor into the Bad one. Write
	// more than one EBLOCK's worth so the cursor EBLOCK fills and closes —
	// the buggy interleaving only surfaced at close time, as applyClose on
	// the Bad EBLOCK.
	wants := map[uint64][]byte{}
	written := 0
	for lpid := uint64(200); written < geo.EBlockBytes+geo.WBlockBytes; lpid++ {
		data := pageContent(lpid, 1, 14000)
		if err := c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(lpid), Data: data}}); err != nil {
			t.Fatalf("WriteBatch after MarkBad planned into the dead cursor: %v", err)
		}
		wants[lpid] = data
		written += len(data)
	}

	checkRead(t, c, 100, want1)
	for lpid, data := range wants {
		checkRead(t, c, addr.LPID(lpid), data)
	}
}
