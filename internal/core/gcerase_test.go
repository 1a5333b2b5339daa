package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/chaos/invariant"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
	"eleos/internal/trace"
)

// GC media-wait tests (DESIGN.md §4.1): a pass waits for a victim's
// metadata read and for its erase with c.mu released; erases are queued
// device commands, one cross-channel batch per round. All of these must
// pass `go test -race`.

const (
	gcEraseBatches  = 40   // full-width batches per version in deadEBlockController
	gcErasePageSize = 4000 // 32 of them fill 8 WBLOCKs of 16 KB
)

func gcEraseLPID(batch, i int) addr.LPID { return addr.LPID(batch*32 + i + 1) }

// gcErasePage is pageContent without the per-byte RNG, which dominates
// these tests' set-up under -race.
func gcErasePage(lp addr.LPID, version uint64) []byte {
	b := make([]byte, gcErasePageSize)
	for i := range b {
		b[i] = byte(uint64(lp)*31 + version*7 + uint64(i)*uint64(lp|1))
	}
	return b
}

// deadEBlockController formats an 8-channel device whose erase takes the
// given wall time once the test turns wall latency on, writes
// gcEraseBatches full-width batches and overwrites every page once, so
// each channel holds at least two Used EBLOCKs with nothing live in them.
// The GC threshold is set so low that no write triggers a pass by itself.
func deadEBlockController(t *testing.T, erase time.Duration) (*Controller, *flash.Device) {
	t.Helper()
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	lat := flash.Latency{ReadRBlock: 5 * time.Microsecond, ProgramWBlock: 20 * time.Microsecond, EraseEBlock: erase}
	dev := flash.MustNewDevice(geo, lat)
	t.Cleanup(dev.Close)
	cfg := DefaultConfig()
	cfg.GCFreeFraction = 0.01
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	for version := uint64(1); version <= 2; version++ {
		for b := 0; b < gcEraseBatches; b++ {
			pages := make([]LPage, 32)
			for i := range pages {
				lp := gcEraseLPID(b, i)
				pages[i] = LPage{LPID: lp, Data: gcErasePage(lp, version)}
			}
			mustWrite(t, c, pages...)
		}
	}
	return c, dev
}

func checkDeadEBlockContent(t *testing.T, c *Controller) {
	t.Helper()
	for b := 0; b < gcEraseBatches; b++ {
		for i := 0; i < 32; i++ {
			lp := gcEraseLPID(b, i)
			checkRead(t, c, lp, gcErasePage(lp, 2))
		}
	}
}

// quietChannel writes a one-page probe and returns it with a channel that
// holds neither the probe, nor the next one-WBLOCK batch, nor an open log
// EBLOCK: one-WBLOCK batches go to successive channels, so the probe
// tells where the next one lands.
func quietChannel(t *testing.T, c *Controller) (probe addr.LPID, probeData []byte, gcCh int) {
	t.Helper()
	n := c.geo.Channels
	probe = addr.LPID(1 << 20)
	probeData = gcErasePage(probe, 1)
	mustWrite(t, c, LPage{LPID: probe, Data: probeData})
	probeCh := mustAddr(t, c, probe).Channel()
	busy := map[int]bool{probeCh: true, (probeCh + 1) % n: true}
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream == record.StreamLog {
			busy[ref.Channel] = true
		}
	}
	for ch := 0; ch < n; ch++ {
		if !busy[ch] {
			return probe, probeData, ch
		}
	}
	t.Fatal("no channel free of the probe, the next stripe and the log")
	return 0, nil, 0
}

// TestGCEraseReleasesLock: while a pass waits ~300 ms for its erase, a
// Read of a page on another channel and a one-WBLOCK WriteBatch whose
// program and log force avoid the erasing channel both finish — the
// controller lock is not held across the erase.
func TestGCEraseReleasesLock(t *testing.T) {
	const erase = 300 * time.Millisecond
	c, dev := deadEBlockController(t, erase)
	probe, probeData, gcCh := quietChannel(t, c)

	dev.SetWallLatencyScale(1)
	gcDone := make(chan error, 1)
	go func() { gcDone <- c.GCNow(gcCh) }()
	// InflightEBlocks takes c.mu: seeing the queued erase at all means the
	// pass has let go of it.
	for c.InflightEBlocks() == 0 {
		select {
		case err := <-gcDone:
			t.Fatalf("pass returned (%v) before its erase was seen in flight", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	start := time.Now()
	checkRead(t, c, probe, probeData)
	next := addr.LPID(1<<20 + 1)
	nextData := gcErasePage(next, 1)
	mustWrite(t, c, LPage{LPID: next, Data: nextData})
	took := time.Since(start)
	select {
	case err := <-gcDone:
		t.Fatalf("pass returned (%v) before the concurrent read and write did (%v)", err, took)
	default:
	}
	if ch := mustAddr(t, c, next).Channel(); ch == gcCh {
		t.Fatalf("test set-up: the concurrent write landed on the erasing channel %d", ch)
	}
	if err := <-gcDone; err != nil {
		t.Fatalf("GCNow: %v", err)
	}
	dev.SetWallLatencyScale(0)

	snap := c.MetricsSnapshot()
	if hv := snap.Histogram("core.gc.erase_wait_ns"); hv == nil || hv.Count != 1 || hv.Sum < int64(erase) {
		t.Fatalf("core.gc.erase_wait_ns = %+v, want one wait of at least %v", hv, erase)
	}
	if got := snap.Counter("core.erase_while_pinned"); got != 0 {
		t.Fatalf("core.erase_while_pinned = %d", got)
	}
	checkRead(t, c, next, nextData)
	checkDeadEBlockContent(t, c)
}

// The metadata read is the protocol's other media wait: a victim whose
// metadata block is only on media is read with c.mu released, counted in
// c.inflight like an erasing one.

const (
	metaReadPageSize = 128 // 120 of them fill one WBLOCK but its last KB
	metaReadBatch    = 120
	metaReadBatches  = 64 // one-WBLOCK batches per version: 8 per channel
)

func metaReadLPID(i int) addr.LPID { return addr.LPID(i + 1) }

func metaReadPage(i int, version uint64) []byte {
	b := make([]byte, metaReadPageSize)
	for j := range b {
		b[j] = byte(uint64(i)*31 + version*7 + uint64(j)*uint64(i|1))
	}
	return b
}

// metaOnMediaController formats an 8-channel device of 128 KB EBLOCKs
// whose RBLOCK reads take the given wall time once the test turns wall
// latency on, writes metaReadBatches one-WBLOCK batches of small pages
// and overwrites every step-th page: step 1 leaves closed EBLOCKs with
// nothing live in them, step 2 half-dead ones. Their metadata blocks hold
// hundreds of entries over several RBLOCKs, and only the media has them.
// It returns each page's current version.
func metaOnMediaController(t *testing.T, read time.Duration, step int) (*Controller, *flash.Device, []uint64) {
	t.Helper()
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 16,
		EBlockBytes: 128 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{ReadRBlock: read})
	t.Cleanup(dev.Close)
	cfg := DefaultConfig()
	cfg.GCFreeFraction = 0.01
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	version := make([]uint64, metaReadBatches*metaReadBatch)
	for v := uint64(1); v <= 2; v++ {
		for b := 0; b < metaReadBatches; b++ {
			var pages []LPage
			for i := b * metaReadBatch; i < (b+1)*metaReadBatch; i++ {
				if v == 1 || i%step == 0 {
					version[i] = v
					pages = append(pages, LPage{LPID: metaReadLPID(i), Data: metaReadPage(i, v)})
				}
			}
			mustWrite(t, c, pages...)
		}
	}
	return c, dev, version
}

// victimMetaLocked names the EBLOCK a forced pass on ch collects and
// returns the entries of its pages the tables still point at and the
// length of its flushed metadata block, failing the test unless that
// block is on media only and spans several RBLOCKs of its area.
func victimMetaLocked(t *testing.T, c *Controller, ch int) (int, []summary.MetaEntry, int) {
	t.Helper()
	victim, ok := c.selectVictimLocked(ch, false)
	if !ok {
		t.Fatalf("test set-up: no victim on channel %d", ch)
	}
	d, _ := c.st.Desc(ch, victim)
	if len(c.st.Meta(ch, victim)) > 0 {
		t.Fatalf("test set-up: (%d,%d) still has its metadata in memory", ch, victim)
	}
	entries, err := c.readMetaLocked(ch, victim, d)
	if err != nil {
		t.Fatal(err)
	}
	n, r := summary.MetaBlockLen(summary.EncodeMetaBlock(entries)), c.geo.RBlockBytes
	if n <= r || n > int(d.MetaWBlocks)*c.geo.WBlockBytes-r {
		t.Fatalf("test set-up: a %d-byte metadata block in a %d-WBLOCK area tests nothing", n, d.MetaWBlocks)
	}
	var valid []summary.MetaEntry
	seen := make(map[int]bool)
	for _, e := range entries {
		cur, err := c.currentAddrLocked(e.LPID, e.Type)
		if want, _ := addr.Pack(ch, victim, e.Offset, e.Length); err == nil && cur == want && !seen[e.Offset] {
			valid, seen[e.Offset] = append(valid, e), true
		}
	}
	return victim, valid, n
}

// inMetaRead starts run — a GC pass or a migration — and returns once it
// waits in a metadata read: its EBLOCK is in flight and nothing has been
// erased.
func inMetaRead(t *testing.T, c *Controller, dev *flash.Device, run func() error) chan error {
	t.Helper()
	erased := dev.Stats().EraseAttempts
	gcDone := make(chan error, 1)
	go func() { gcDone <- run() }()
	// InflightEBlocks takes c.mu: seeing the victim at all means the pass
	// has let go of it.
	for c.InflightEBlocks() == 0 {
		select {
		case err := <-gcDone:
			t.Fatalf("returned (%v) before its metadata read was seen in flight", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if dev.Stats().EraseAttempts != erased {
		t.Fatal("erasing, not reading metadata")
	}
	return gcDone
}

// TestGCMetaReadReleasesLock: while a pass waits for a victim's metadata
// block — seven RBLOCKs of 40 ms — a Read of a page on another channel and
// a one-WBLOCK WriteBatch that avoids the victim's channel both finish.
// The pass reads exactly the RBLOCKs the block occupies and erases its
// victim once, after the read.
func TestGCMetaReadReleasesLock(t *testing.T) {
	c, dev, version := metaOnMediaController(t, 40*time.Millisecond, 1)
	probe, probeData, gcCh := quietChannel(t, c)
	c.mu.Lock()
	victim, valid, metaLen := victimMetaLocked(t, c, gcCh)
	c.mu.Unlock()
	// Relocation reads the RBLOCKs under the pages a checkpoint left in the
	// victim (every user page in it is overwritten).
	r, covered := c.geo.RBlockBytes, map[int]bool{}
	for _, e := range valid {
		for rb := e.Offset / r; rb <= (e.Offset+e.Length-1)/r; rb++ {
			covered[rb] = true
		}
	}
	want := (metaLen+r-1)/r + len(covered)
	before, erases := c.MetricsSnapshot(), dev.Stats().EraseAttempts

	dev.SetWallLatencyScale(1)
	gcDone := inMetaRead(t, c, dev, func() error { return c.GCNow(gcCh) })
	start := time.Now()
	checkRead(t, c, probe, probeData)
	next := addr.LPID(1<<20 + 1)
	nextData := gcErasePage(next, 1)
	mustWrite(t, c, LPage{LPID: next, Data: nextData})
	took := time.Since(start)
	select {
	case err := <-gcDone:
		t.Fatalf("pass returned (%v) before the concurrent read and write did (%v)", err, took)
	default:
	}
	if got := dev.Stats().EraseAttempts; got != erases {
		t.Fatalf("%d erases before the metadata read ended", got-erases)
	}
	if ch := mustAddr(t, c, next).Channel(); ch == gcCh {
		t.Fatalf("test set-up: the concurrent write landed on the reading channel %d", ch)
	}
	if err := <-gcDone; err != nil {
		t.Fatalf("GCNow: %v", err)
	}
	dev.SetWallLatencyScale(0)

	after := c.MetricsSnapshot()
	if got := dev.Stats().EraseAttempts - erases; got != 1 {
		t.Fatalf("%d erases, want the victim's one", got)
	}
	if d, _ := c.st.Desc(gcCh, victim); d.State != summary.Free {
		t.Fatalf("victim (%d,%d) is %v after the pass", gcCh, victim, d.State)
	}
	if got := after.Counter("core.erase_while_pinned"); got != 0 {
		t.Fatalf("core.erase_while_pinned = %d", got)
	}
	if got := (after.Counter("core.gc.bytes_read") - before.Counter("core.gc.bytes_read")) / int64(r); got != int64(want) {
		t.Fatalf("the pass read %d RBLOCKs, want %d: the %d-byte metadata block's and its survivors'", got, want, metaLen)
	}
	checkRead(t, c, next, nextData)
	for i, v := range version {
		checkRead(t, c, metaReadLPID(i), metaReadPage(i, v))
	}
}

// TestGCMetaReadRacesOverwrite: while the pass reads a half-dead victim's
// metadata, one of its pages is overwritten and a reader pins the victim
// to read another. The pass moves every other valid page, leaves the
// overwritten one where its writer put it, and erases the victim only
// after the reader let go; the invariant set holds before and after a
// crash right after the pass.
func TestGCMetaReadRacesOverwrite(t *testing.T) {
	c, dev, version := metaOnMediaController(t, 40*time.Millisecond, 2)
	probe, probeData, gcCh := quietChannel(t, c)
	c.mu.Lock()
	victim, valid, _ := victimMetaLocked(t, c, gcCh)
	c.mu.Unlock()
	var users []int // the victim's user pages: the first is overwritten, the second read
	for _, e := range valid {
		if e.Type == addr.PageUser {
			users = append(users, int(e.LPID)-1)
		}
	}
	if len(users) < 2 {
		t.Fatalf("test set-up: victim (%d,%d) holds %d valid user pages", gcCh, victim, len(users))
	}
	x, y := users[0], users[1]
	before, erases := c.Stats().GCPagesMoved, dev.Stats().EraseAttempts

	dev.SetWallLatencyScale(1)
	gcDone := inMetaRead(t, c, dev, func() error { return c.GCNow(gcCh) })
	version[x]++
	mustWrite(t, c, LPage{LPID: metaReadLPID(x), Data: metaReadPage(x, version[x])})
	readDone := make(chan error, 1)
	go func() {
		got, err := c.Read(metaReadLPID(y))
		if err == nil && !bytes.Equal(got[:metaReadPageSize], metaReadPage(y, version[y])) {
			err = errors.New("content differs")
		}
		readDone <- err
	}()
	for c.PinnedEBlocks() == 0 {
		select {
		case err := <-gcDone:
			t.Fatalf("pass returned (%v) before the reader pinned its victim", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if dev.Stats().EraseAttempts != erases {
		t.Fatal("test set-up: the reader pinned the victim after its erase began")
	}
	dev.SetWallLatencyScale(0) // the remaining reads need not wait
	if err := <-readDone; err != nil {
		t.Fatalf("Read(%d) during the pass: %v", metaReadLPID(y), err)
	}
	if err := <-gcDone; err != nil {
		t.Fatalf("GCNow: %v", err)
	}
	if a := mustAddr(t, c, metaReadLPID(x)); a.Channel() == gcCh {
		t.Fatalf("test set-up: the overwrite landed on the reading channel %d", gcCh)
	}
	if moved := c.Stats().GCPagesMoved - before; moved != int64(len(valid)-1) {
		t.Fatalf("the pass moved %d pages; %d were valid when it started and one was overwritten during its read", moved, len(valid))
	}
	// MustHold also finds core.erase_while_pinned 0: the erase waited for
	// the reader.
	exp := invariant.Expect{Pages: []invariant.Page{{LPID: probe, Want: probeData}}}
	for i, v := range version {
		exp.Pages = append(exp.Pages, invariant.Page{LPID: metaReadLPID(i), Want: metaReadPage(i, v)})
	}
	invariant.MustHold(t, c, exp)
	c.Crash()
	c2, err := Open(dev, c.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	invariant.MustHold(t, c2, exp)
}

// TestGCMetaReadHoldsEarlierVictims: a round's victims stay in flight
// from selection to their erase, so a migration of the first victim that
// gets c.mu while a later victim's metadata is read waits, finds the
// EBLOCK erased and free, and leaves it alone: one erase per victim.
func TestGCMetaReadHoldsEarlierVictims(t *testing.T) {
	c, dev, version := metaOnMediaController(t, time.Millisecond, 2)
	c.cfg.GCMaxRounds = 1
	migrated := make(chan error, 1)
	var once sync.Once
	dbgFn = func(format string, args ...any) {
		if !strings.HasPrefix(format, "relocate") {
			return
		}
		// The pass holds c.mu here; the migration gets it when the pass
		// releases it for the next channel's metadata read.
		once.Do(func() {
			ch, eb := args[0].(int), args[1].(int)
			go func() {
				c.mu.Lock()
				defer c.mu.Unlock()
				migrated <- c.migrateEBlockLocked(ch, eb, 0)
			}()
		})
	}
	t.Cleanup(func() { dbgFn = nil })
	before, erases := c.Stats(), dev.Stats().EraseAttempts
	dev.SetWallLatencyScale(1)
	c.mu.Lock()
	err := c.gcPassLocked(-1, true)
	c.mu.Unlock()
	dev.SetWallLatencyScale(0)
	if err != nil {
		t.Fatalf("pass: %v", err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("migration of the first victim: %v", err)
	}
	after := c.Stats()
	freed := after.GCEBlocksFreed - before.GCEBlocksFreed
	if got := dev.Stats().EraseAttempts - erases; freed < 2 || got != freed {
		t.Fatalf("%d erases for %d victims freed", got, freed)
	}
	if after.Migrations != before.Migrations {
		t.Fatalf("the migration moved a victim the pass held (%d migrations)", after.Migrations-before.Migrations)
	}
	exp := invariant.Expect{}
	for i, v := range version {
		exp.Pages = append(exp.Pages, invariant.Page{LPID: metaReadLPID(i), Want: metaReadPage(i, v)})
	}
	invariant.MustHold(t, c, exp)
}

// TestGCMetaReadSeesCrash: the controller crashes while a GC pass, or a
// migration, reads a half-dead EBLOCK's metadata. It returns ErrCrashed
// and neither relocates nor erases; Open recovers every page.
func TestGCMetaReadSeesCrash(t *testing.T) {
	for _, migrate := range []bool{false, true} {
		c, dev, version := metaOnMediaController(t, 40*time.Millisecond, 2)
		const ch = 3
		c.mu.Lock()
		victim, _ := c.selectVictimLocked(ch, false)
		c.mu.Unlock()
		run := func() error { return c.GCNow(ch) }
		if migrate {
			run = func() error {
				c.mu.Lock()
				defer c.mu.Unlock()
				return c.migrateEBlockLocked(ch, victim, 0)
			}
		}
		media := dev.Stats()
		dev.SetWallLatencyScale(1)
		done := inMetaRead(t, c, dev, run)
		c.Crash()
		if err := <-done; !errors.Is(err, ErrCrashed) {
			t.Fatalf("migrate %v: returned %v, want ErrCrashed", migrate, err)
		}
		dev.SetWallLatencyScale(0)
		if st := dev.Stats(); st.WBlocksWritten != media.WBlocksWritten || st.EraseAttempts != media.EraseAttempts {
			t.Fatalf("migrate %v: after the crash %d WBLOCKs were programmed and %d EBLOCKs erased", migrate,
				st.WBlocksWritten-media.WBlocksWritten, st.EraseAttempts-media.EraseAttempts)
		}
		c2, err := Open(dev, c.cfg)
		if err != nil {
			t.Fatalf("migrate %v: Open: %v", migrate, err)
		}
		for i, v := range version {
			checkRead(t, c2, metaReadLPID(i), metaReadPage(i, v))
		}
	}
}

// TestCrashClosesMediaPort: a GC pass waits in eraseAndFreeLocked for a
// reader that pinned its victim during the metadata read, and the
// controller crashes while the reader's media read runs. The pass returns
// ErrCrashed; Crash returns once the read has; from then on no program or
// erase reaches the device, and Open reads every page back.
func TestCrashClosesMediaPort(t *testing.T) {
	c, dev, version := metaOnMediaController(t, 10*time.Millisecond, 2)
	const ch, other = 3, 4
	c.mu.Lock()
	victim, _ := c.selectVictimLocked(ch, false)
	k := [2]int{ch, victim}
	var lpids, onVictim []addr.LPID // 60 pages on the other channel, then one on the victim
	for i := range version {
		switch a, _ := c.mt.Get(metaReadLPID(i)); {
		case a.Channel() == other && len(lpids) < 60:
			lpids = append(lpids, metaReadLPID(i))
		case a.Channel() == ch && a.EBlock() == victim:
			onVictim = append(onVictim, metaReadLPID(i))
		}
	}
	c.mu.Unlock()
	if len(onVictim) == 0 || len(lpids) < 60 {
		t.Fatalf("test set-up: %d pages on the victim, %d on channel %d", len(onVictim), len(lpids), other)
	}
	lpids = append(lpids, onVictim[0])
	moved := c.Stats().GCPagesMoved

	dev.SetWallLatencyScale(1)
	gcDone := inMetaRead(t, c, dev, func() error { return c.GCNow(ch) })
	readDone := make(chan error, 1)
	go func() {
		_, err := c.ReadBatch(lpids)
		readDone <- err
	}()
	// The pass relocates under c.mu and then waits on ioCond: holding c.mu
	// after the relocation with the pin still taken is holding it while
	// the pass waits for the reader.
	for parked := false; !parked; {
		select {
		case err := <-gcDone:
			t.Fatalf("test set-up: the pass returned (%v) without waiting for the reader", err)
		case <-time.After(time.Millisecond):
		}
		c.mu.Lock()
		parked = c.met.gcPagesMoved.Value() > moved && c.pinned[k] > 0
		c.mu.Unlock()
	}
	c.Crash()
	media := dev.Stats()
	if err := <-gcDone; !errors.Is(err, ErrCrashed) {
		t.Fatalf("GCNow: %v, want ErrCrashed", err)
	}
	if err := <-readDone; err != nil && !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadBatch: %v", err)
	}
	dev.SetWallLatencyScale(0)
	// The reader's RBLOCKs were all read before Crash returned.
	if st := dev.Stats(); st.WBlocksWritten != media.WBlocksWritten || st.WriteFailures != media.WriteFailures ||
		st.EraseAttempts != media.EraseAttempts || st.RBlocksRead != media.RBlocksRead {
		t.Fatalf("after Crash returned: %d programs, %d program failures, %d erases, %d RBLOCKs read",
			st.WBlocksWritten-media.WBlocksWritten, st.WriteFailures-media.WriteFailures,
			st.EraseAttempts-media.EraseAttempts, st.RBlocksRead-media.RBlocksRead)
	}
	c2, err := Open(dev, c.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, v := range version {
		checkRead(t, c2, metaReadLPID(i), metaReadPage(i, v))
	}
}

// TestGCPassErasesChannelsInParallel: a round's victims are one erase
// batch, so a pass over eight channels waits about one erase, not eight.
func TestGCPassErasesChannelsInParallel(t *testing.T) {
	const erase = 100 * time.Millisecond
	c, dev := deadEBlockController(t, erase)
	c.cfg.GCMaxRounds = 1
	before := c.Stats()
	dev.SetWallLatencyScale(1)
	start := time.Now()
	c.mu.Lock()
	err := c.gcPassLocked(-1, true)
	c.mu.Unlock()
	took := time.Since(start)
	dev.SetWallLatencyScale(0)
	if err != nil {
		t.Fatalf("pass: %v", err)
	}
	after := c.Stats()
	if freed := after.GCEBlocksFreed - before.GCEBlocksFreed; freed != int64(c.geo.Channels) {
		t.Fatalf("pass freed %d EBLOCKs, want one per channel (%d)", freed, c.geo.Channels)
	}
	if took < erase || took > 3*erase {
		t.Fatalf("pass over %d channels took %v; one overlapped round is about %v, serial erases %v",
			c.geo.Channels, took, erase, time.Duration(c.geo.Channels)*erase)
	}
	if hv := c.MetricsSnapshot().Histogram("core.gc.erase_wait_ns"); hv == nil || hv.Count != 1 {
		t.Fatalf("core.gc.erase_wait_ns = %+v, want one batch", hv)
	}
	checkDeadEBlockContent(t, c)
}

// TestGCThresholdPassJoinsDeadEBlocks pins §4 decision 11: when one
// channel falls below GCFreeFraction, the channels still under the 1.5×
// mark give up exactly their dead EBLOCKs — no relocation — in the same
// pass.
func TestGCThresholdPassJoinsDeadEBlocks(t *testing.T) {
	c, _ := deadEBlockController(t, 0)
	n, per := c.geo.Channels, c.geo.EBlocksPerChannel
	// Channel 0 carries the two reserved checkpoint EBLOCKs, so it has the
	// fewest free: put the threshold between it and the rest.
	minFree, nextFree := per, per
	for ch := 0; ch < n; ch++ {
		f := c.st.FreeCount(ch)
		if ch == 0 {
			minFree = f
		} else if f < nextFree {
			nextFree = f
		}
	}
	if minFree >= nextFree {
		t.Fatalf("test set-up: channel 0 has %d free, the others at least %d", minFree, nextFree)
	}
	c.cfg.GCFreeFraction = (float64(minFree) + 0.5) / float64(per)

	census := func(ch int) (used, dead int) {
		for _, eb := range c.st.UsedEBlocks(ch) {
			d, _ := c.st.Desc(ch, eb)
			if d.Stream == record.StreamLog {
				continue
			}
			used++
			if d.Avail >= uint64(d.DataWBlocks)*uint64(c.geo.WBlockBytes) {
				dead++
			}
		}
		return used, dead
	}
	usedBefore, deadBefore := make([]int, n), make([]int, n)
	for ch := 1; ch < n; ch++ {
		usedBefore[ch], deadBefore[ch] = census(ch)
		if deadBefore[ch] == 0 {
			t.Fatalf("test set-up: channel %d has no dead EBLOCK", ch)
		}
	}
	c.mu.Lock()
	ran := c.maybeGCLocked()
	c.mu.Unlock()
	if !ran {
		t.Fatal("no pass although channel 0 is under the threshold")
	}
	for ch := 1; ch < n; ch++ {
		used, deadNow := census(ch)
		if deadNow != 0 || used != usedBefore[ch]-deadBefore[ch] {
			t.Fatalf("channel %d: used %d→%d, dead %d→%d; a joining channel gives up its dead EBLOCKs and nothing else",
				ch, usedBefore[ch], used, deadBefore[ch], deadNow)
		}
	}
	if errs := c.MetricsSnapshot().Counter("core.gc.errors"); errs != 0 {
		t.Fatalf("core.gc.errors = %d", errs)
	}
	checkDeadEBlockContent(t, c)
}

// TestGCEraseFaultMarksBad: an injected erase fault comes back through
// the erase batch's result; the one erase path marks the EBLOCK bad, the
// pass reports and counts the error, and the controller keeps working.
func TestGCEraseFaultMarksBad(t *testing.T) {
	c, dev := deadEBlockController(t, 0)
	bad := func() int {
		n := 0
		for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
			if d, _ := c.st.Desc(3, eb); d.State == summary.Bad {
				n++
			}
		}
		return n
	}
	dev.FailNthErase(1)
	if err := c.GCNow(3); !errors.Is(err, flash.ErrEraseFailed) {
		t.Fatalf("GCNow = %v, want the injected erase failure", err)
	}
	if got := bad(); got != 1 {
		t.Fatalf("%d bad EBLOCKs on channel 3 after a failed erase, want 1", got)
	}
	snap := c.MetricsSnapshot()
	if got := snap.Counter("core.gc.errors"); got != 1 {
		t.Fatalf("core.gc.errors = %d, want 1", got)
	}
	if got := snap.Counter("flash.erase_failures"); got != 1 {
		t.Fatalf("flash.erase_failures = %d, want 1", got)
	}
	if err := c.GCNow(3); err != nil {
		t.Fatalf("GCNow after the fault: %v", err)
	}
	if c.InflightEBlocks() != 0 || c.PinnedEBlocks() != 0 {
		t.Fatalf("inflight %d pinned %d after the passes", c.InflightEBlocks(), c.PinnedEBlocks())
	}
	checkDeadEBlockContent(t, c)
}

// TestCrashAfterEraseBeforeFree: the controller dies after the media
// erase but before FreeEBlock is logged. Open recovers, every
// acknowledged page is byte-exact, and GC collects the EBLOCK again.
func TestCrashAfterEraseBeforeFree(t *testing.T) {
	c, dev := deadEBlockController(t, 0)
	const ch = 5
	c.SetCrashPoint("gc.after-erase")
	if err := c.GCNow(ch); !errors.Is(err, ErrCrashed) {
		t.Fatalf("GCNow = %v, want a crash at gc.after-erase", err)
	}
	// The victim is the Used EBLOCK the media says is erased.
	victim := -1
	for _, eb := range c.st.UsedEBlocks(ch) {
		if d, _ := c.st.Desc(ch, eb); d.Stream == record.StreamLog {
			continue
		}
		if pos, _ := dev.NextProgramPosition(ch, eb); pos == 0 {
			victim = eb
		}
	}
	if victim < 0 {
		t.Fatal("no erased-but-Used EBLOCK after the crash")
	}

	c2, err := Open(dev, c.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkDeadEBlockContent(t, c2)
	if d, _ := c2.st.Desc(ch, victim); d.State != summary.Used {
		t.Fatalf("recovered state of (%d,%d) = %v, want Used (its free record was never logged)", ch, victim, d.State)
	}
	freed := false
	for i := 0; i < c2.geo.EBlocksPerChannel && !freed; i++ {
		if err := c2.GCNow(ch); err != nil {
			t.Fatalf("GCNow after recovery: %v", err)
		}
		d, _ := c2.st.Desc(ch, victim)
		freed = d.State != summary.Used
	}
	if !freed {
		t.Fatalf("(%d,%d) was never collected again", ch, victim)
	}
	if got := c2.Stats().GCMetaUnreadable; got == 0 {
		t.Fatal("the erased EBLOCK was collected without meeting its unreadable metadata")
	}
	checkDeadEBlockContent(t, c2)
}

// TestErasingEBlockIsExclusive: writers, readers, forced passes on every
// channel and checkpoints race with erases that take real time. An
// erasing EBLOCK is never selected, provisioned or erased twice:
// core.erase_while_pinned stays 0, no program fails (a program into an
// erasing or unerased EBLOCK would), and every page reads back.
func TestErasingEBlockIsExclusive(t *testing.T) {
	geo := flash.Geometry{
		Channels: 4, EBlocksPerChannel: 24,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{EraseEBlock: 2 * time.Millisecond})
	t.Cleanup(dev.Close)
	cfg := DefaultConfig()
	cfg.GCFreeFraction = 0.25
	cfg.AutoCheckpointLogBytes = 1 << 20
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	dev.SetWallLatencyScale(1)

	const writers, batches = 4, 120
	sids := make([]uint64, writers)
	for w := range sids {
		if sids[w], err = c.OpenSession(); err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for ch := 0; ch < geo.Channels; ch++ {
		bg.Add(1)
		go func(ch int) {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if ch == 0 && i%4 == 3 {
					err = c.Checkpoint()
				} else {
					err = c.GCNow(ch)
				}
				if err != nil {
					t.Errorf("background channel %d: %v", ch, err)
					return
				}
			}
		}(ch)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Read(stressChurnLPID(i % writers)); err != nil && !IsNotFound(err) {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()
	acked := runStressWriters(t, c, sids, batches)
	close(stop)
	bg.Wait()
	dev.SetWallLatencyScale(0)

	snap := c.MetricsSnapshot()
	if got := snap.Counter("core.erase_while_pinned"); got != 0 {
		t.Fatalf("core.erase_while_pinned = %d", got)
	}
	if got := snap.Counter("flash.program_failures"); got != 0 {
		t.Fatalf("flash.program_failures = %d", got)
	}
	if got := snap.Counter("core.gc.errors"); got != 0 {
		t.Fatalf("core.gc.errors = %d", got)
	}
	if c.InflightEBlocks() != 0 || c.PinnedEBlocks() != 0 {
		t.Fatalf("inflight %d pinned %d after quiesce", c.InflightEBlocks(), c.PinnedEBlocks())
	}
	if st := dev.Stats(); st.EraseAttempts != st.EBlocksErased || st.EBlocksErased == 0 {
		t.Fatalf("device erases: %d attempts, %d erased", st.EraseAttempts, st.EBlocksErased)
	}
	for w := range sids {
		if acked[w] != batches {
			t.Fatalf("writer %d acked %d/%d batches", w, acked[w], batches)
		}
		for wsn := uint64(1); wsn <= batches; wsn++ {
			lpid := stressLPID(w, wsn)
			size := 200 + int((uint64(w)*131+wsn*97)%1800)
			checkRead(t, c, lpid, pageContent(uint64(lpid), wsn, size))
		}
		churn := stressChurnLPID(w)
		checkRead(t, c, churn, pageContent(uint64(churn), batches, 8000))
	}
}

// TestNoSpaceWriterWaitsForPass: two writers overwrite a live set that
// nearly fills a small device while erases take real time, so one runs
// out of space while the other's pass has the lock released. It must wait
// for that pass and retry, not fail: every flush is acknowledged.
func TestNoSpaceWriterWaitsForPass(t *testing.T) {
	geo := flash.Geometry{
		Channels: 2, EBlocksPerChannel: 12,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{EraseEBlock: time.Millisecond})
	t.Cleanup(dev.Close)
	cfg := DefaultConfig()
	cfg.AutoCheckpointLogBytes = 256 << 10
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	// 2 writers × 100 pages × 8 KB = 1.6 MB live on 6 MB raw, of which the
	// checkpoint area, the GC reserve, two log EBLOCKs and the open user
	// and GC EBLOCKs take about 2 MB: the rest is garbage waiting for GC.
	const writers, livePages, rounds, pageSize = 2, 100, 12, 8000
	lpid := func(w, i int) addr.LPID { return addr.LPID(w*1000 + i + 1) }
	dev.SetWallLatencyScale(1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				for i := 0; i < livePages; i += 4 {
					pages := make([]LPage, 4)
					for k := range pages {
						lp := lpid(w, i+k)
						pages[k] = LPage{LPID: lp, Data: pageContent(uint64(lp), uint64(r), pageSize)}
					}
					if err := c.WriteBatch(0, 0, pages); err != nil {
						t.Errorf("writer %d round %d page %d: %v", w, r, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	dev.SetWallLatencyScale(0)
	if t.Failed() {
		return
	}
	if c.Stats().GCEBlocksFreed == 0 {
		t.Fatal("test needs GC activity to be meaningful")
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < livePages; i++ {
			lp := lpid(w, i)
			checkRead(t, c, lp, pageContent(uint64(lp), rounds, pageSize))
		}
	}
}

// TestMaintainSpanExplainsInstallToAck: the flush that triggers a GC pass
// waits for it between its install and its ack; a KMaintain span under
// that flush's trace ID covers the wait.
func TestMaintainSpanExplainsInstallToAck(t *testing.T) {
	c, _ := deadEBlockController(t, 0)
	c.cfg.GCFreeFraction = 0.99 // the next flush triggers a pass
	before := c.Stats().GCEBlocksFreed
	lp := addr.LPID(1 << 20)
	mustWrite(t, c, LPage{LPID: lp, Data: gcErasePage(lp, 1)})
	if c.Stats().GCEBlocksFreed == before {
		t.Fatal("the flush triggered no GC")
	}
	var install, maintain *trace.Event
	evs := c.TraceDump().Events
	for i := range evs {
		switch evs[i].Kind {
		case trace.KInstall:
			install = &evs[i]
		case trace.KMaintain:
			maintain = &evs[i]
		}
	}
	if install == nil || maintain == nil {
		t.Fatalf("install span %v, maintain span %v", install, maintain)
	}
	if maintain.TraceID == 0 || maintain.TraceID != install.TraceID {
		t.Fatalf("maintain span trace ID %d, triggering flush's %d", maintain.TraceID, install.TraceID)
	}
	if maintain.TS < install.TS+install.Dur || maintain.Dur <= 0 {
		t.Fatalf("maintain span [%d,+%d] does not follow install [%d,+%d]", maintain.TS, maintain.Dur, install.TS, install.Dur)
	}
}
