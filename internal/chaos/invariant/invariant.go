// Package invariant holds the shared post-schedule invariant checker used
// by the fault-schedule tests in internal/core and by the chaos harness in
// internal/chaos. It is deliberately a leaf package (it imports only addr,
// flash, and metrics, never core) so that package-core tests can import it
// without a cycle, and there is exactly one implementation of the
// invariants every fault scenario in the repo must hold:
//
//  1. Content integrity — every acknowledged page reads back with the
//     exact content of its highest acknowledged version, at the aligned
//     length, zero-padded past the logical size.
//  2. Session monotonicity — each session's recovered high WSN is at
//     least (or, for uncrashed runs, exactly) the highest WSN the client
//     saw acknowledged.
//  3. No leaked actions — the active-action table is empty once traffic
//     quiesces, or an abort path pinned log truncation forever.
//  4. No leaked pins — the inflight/pinned EBLOCK maps are empty after
//     quiesce, and core.erase_while_pinned is zero: no erase ever raced a
//     commit-force window (the PR 4 data-loss bug class).
//  5. Exact fault accounting — the device counted exactly the injected
//     program/erase faults, and the metrics registry agrees.
//  6. Cache coherence — every content check reads twice; with the tiered
//     read cache enabled the second read is served from cache and must
//     agree byte-for-byte with the first (flash-backed) read.
//  7. Tenant attribution — a tagged session still carries its exact
//     tenant/priority after recovery, so no tenant's acked data can be
//     re-attributed by a crash.
//  8. Quota balance — per-tenant admission accounting is exact after the
//     run quiesces: zero inflight bytes and zero parked waiters per
//     tenant (every admitted byte was released, through kills, media
//     aborts, and crash→recover loops alike), plus optional per-tenant
//     admitted-traffic floors. Together with the per-session progress
//     checks this is the harness's fairness invariant: every tenant both
//     finished its workload and settled its ledger.
//  9. Programmed-byte conservation — the per-source program attribution
//     (user / GC / checkpoint / WAL / recovery) partitions the device's
//     program counters exactly: the source sums equal WBlocksWritten and
//     BytesWritten (the device refuses a program without a source). WAF
//     reported from flash.src.* is therefore reconciled against the
//     media's own ledger, not a parallel estimate. Device-side, so it
//     survives any number of crash→recover registry swaps.
//  10. Erase conservation — every erase pulse the device counted
//     (EraseAttempts, which includes injected failures and over-limit
//     rejections) bumped exactly one EBLOCK's wear counter, so the
//     per-EBLOCK erase counts sum to EraseAttempts and successful
//     erases never exceed attempts. The wear histogram the health
//     telemetry exports is thus an exact partition of real erases.
package invariant

import (
	"bytes"
	"fmt"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/metrics"
)

// Store is the narrow view of *core.Controller the checker needs. It is
// declared here rather than importing core so the checker stays a leaf
// package; core.Controller satisfies it.
type Store interface {
	Read(lpid addr.LPID) ([]byte, error)
	SessionHighestWSN(sid uint64) (uint64, error)
	ActiveActions() int
	InflightEBlocks() int
	PinnedEBlocks() int
	MetricsSnapshot() metrics.Snapshot
	Device() *flash.Device
}

// Page is one acknowledged page: LPID and the exact content of its
// highest acknowledged version.
type Page struct {
	LPID addr.LPID
	Want []byte
}

// Session is one session's acknowledgement high-water mark. With Exact
// unset the store may have recovered beyond MinWSN (a crash can lose the
// ack but not the write); with Exact set the stored WSN must match.
// With CheckTenant set the store must also report exactly the given
// tenant/priority for the session — tags are durable state, so recovery
// must reproduce them bit-for-bit (requires a store implementing
// TenantStore; core.Controller does).
type Session struct {
	SID    uint64
	MinWSN uint64
	Exact  bool

	Tenant      string
	Priority    uint8
	CheckTenant bool
}

// TenantStore is the optional Store extension for tenant attribution.
type TenantStore interface {
	SessionTenant(sid uint64) (tenant string, priority uint8, err error)
}

// QuotaSnapshot is one tenant's admission accounting as observed after
// the run quiesced (mirrors qos.TenantStats without importing qos, so
// this package stays a leaf).
type QuotaSnapshot struct {
	AdmittedBytes  int64
	ThrottledCount int64
	InflightBytes  int64
	Waiters        int
}

// Skip disables an exact-count expectation.
const Skip = -1

// Expect parameterizes the schedule-specific half of the invariant set.
// The structural invariants (no leaked actions, no leaked pins, zero
// erase-while-pinned) are always checked.
type Expect struct {
	// ProgramFaults / EraseFaults are the exact number of injected faults
	// that fired, checked against the device's persistent Stats counters.
	// Skip to ignore (e.g. when a prior run on the same device already
	// consumed faults that this Expect does not account for).
	ProgramFaults int64
	EraseFaults   int64

	// MetricsProgramFaults / MetricsEraseFaults are the same counts as
	// seen by the metrics registry. These reset when a registry is
	// (re)installed on the device — across a crash→Open recovery, pass
	// Skip here while keeping the device-side counts exact.
	MetricsProgramFaults int64
	MetricsEraseFaults   int64

	// MinPrograms, when > 0, requires flash.programs >= MinPrograms —
	// a sanity floor proving the schedule actually generated traffic.
	MinPrograms int64

	// CheckMetricsAttribution additionally requires the metrics
	// registry's flash.src.* and flash.programmed_bytes counters to
	// equal the device's own ledger. Only exact while one registry
	// observed the device's whole life — set it for schedules with no
	// crash→recover registry swap.
	CheckMetricsAttribution bool

	// MinMediaAborts requires core.write.media_aborts >= this. Clients
	// can observe fewer aborts than injected faults (GC and checkpoints
	// absorb some), but core must have counted every abort it returned.
	MinMediaAborts int64

	Sessions []Session
	Pages    []Page

	// Quotas are the per-tenant admission snapshots taken after the final
	// drain, keyed by tenant name ("" = default). For every entry the
	// checker requires an exactly balanced ledger: zero inflight bytes
	// and zero parked waiters.
	Quotas map[string]QuotaSnapshot
	// MinAdmitted requires tenant key's AdmittedBytes ≥ the value — a
	// traffic floor proving the tenant's writers really ran through
	// admission (only meaningful when no recovery reset the counters).
	MinAdmitted map[string]int64
}

// maxPageViolations caps per-page violation reports so a totally corrupt
// store yields a readable summary instead of thousands of lines.
const maxPageViolations = 20

// Check runs the full invariant set against a quiesced store and returns
// human-readable violations; empty means every invariant holds. It never
// mutates the store beyond reads.
func Check(s Store, e Expect) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// Structural invariants: always on.
	if n := s.ActiveActions(); n != 0 {
		fail("active actions: %d entries leaked after quiesce", n)
	}
	if n := s.InflightEBlocks(); n != 0 {
		fail("inflight eblocks: %d entries leaked after quiesce", n)
	}
	if n := s.PinnedEBlocks(); n != 0 {
		fail("pinned eblocks: %d entries leaked after quiesce", n)
	}
	snap := s.MetricsSnapshot()
	if n := snap.Counter("core.erase_while_pinned"); n != 0 {
		fail("erase while pinned: %d erases raced a commit-force window", n)
	}

	// Fault accounting.
	st := s.Device().Stats()
	if e.ProgramFaults != Skip && st.WriteFailures != e.ProgramFaults {
		fail("device WriteFailures = %d, want exactly %d", st.WriteFailures, e.ProgramFaults)
	}
	if e.EraseFaults != Skip && st.EraseFailures != e.EraseFaults {
		fail("device EraseFailures = %d, want exactly %d", st.EraseFailures, e.EraseFaults)
	}
	if e.MetricsProgramFaults != Skip {
		if got := snap.Counter("flash.program_failures"); got != e.MetricsProgramFaults {
			fail("flash.program_failures = %d, want exactly %d", got, e.MetricsProgramFaults)
		}
	}
	if e.MetricsEraseFaults != Skip {
		if got := snap.Counter("flash.erase_failures"); got != e.MetricsEraseFaults {
			fail("flash.erase_failures = %d, want exactly %d", got, e.MetricsEraseFaults)
		}
	}
	if e.MinPrograms > 0 {
		if got := snap.Counter("flash.programs"); got < e.MinPrograms {
			fail("flash.programs = %d, want at least %d", got, e.MinPrograms)
		}
	}
	if got := snap.Counter("core.write.media_aborts"); got < e.MinMediaAborts {
		fail("core.write.media_aborts = %d, below %d client-observed aborts", got, e.MinMediaAborts)
	}

	// Programmed-byte conservation: the source split partitions the
	// device's program ledger exactly, through every kill and recovery.
	var srcWB, srcBytes int64
	for src := flash.Source(0); src < flash.NumSources; src++ {
		srcWB += st.SrcWBlocks[src]
		srcBytes += st.SrcBytes[src]
	}
	if srcWB != st.WBlocksWritten {
		fail("programmed-wblock conservation: sources sum to %d, device wrote %d", srcWB, st.WBlocksWritten)
	}
	if srcBytes != st.BytesWritten {
		fail("programmed-byte conservation: sources sum to %d, device wrote %d", srcBytes, st.BytesWritten)
	}
	if e.CheckMetricsAttribution {
		if got := snap.Counter("flash.programmed_bytes"); got != st.BytesWritten {
			fail("flash.programmed_bytes = %d, device wrote %d", got, st.BytesWritten)
		}
		for src := flash.SrcUser; src < flash.NumSources; src++ {
			name := "flash.src." + src.String()
			if got := snap.Counter(name + ".wblocks"); got != st.SrcWBlocks[src] {
				fail("%s.wblocks = %d, device counted %d", name, got, st.SrcWBlocks[src])
			}
			if got := snap.Counter(name + ".bytes"); got != st.SrcBytes[src] {
				fail("%s.bytes = %d, device counted %d", name, got, st.SrcBytes[src])
			}
		}
	}

	// Erase conservation: every pulse bumped exactly one wear counter.
	dev := s.Device()
	geo := dev.Geometry()
	var wearSum int64
	for ch := 0; ch < geo.Channels; ch++ {
		for eb := 0; eb < geo.EBlocksPerChannel; eb++ {
			if ec, err := dev.EraseCount(ch, eb); err == nil {
				wearSum += int64(ec)
			}
		}
	}
	if wearSum != st.EraseAttempts {
		fail("erase conservation: per-EBLOCK wear sums to %d, device attempted %d erases", wearSum, st.EraseAttempts)
	}
	if st.EBlocksErased > st.EraseAttempts {
		fail("erase accounting: %d successful erases exceed %d attempts", st.EBlocksErased, st.EraseAttempts)
	}

	// Session monotonicity and tenant attribution.
	for _, sess := range e.Sessions {
		high, err := s.SessionHighestWSN(sess.SID)
		if err != nil {
			fail("session %d: SessionHighestWSN: %v", sess.SID, err)
			continue
		}
		if sess.Exact && high != sess.MinWSN {
			fail("session %d: highest WSN %d, want exactly %d", sess.SID, high, sess.MinWSN)
		} else if high < sess.MinWSN {
			fail("session %d: highest WSN %d below acknowledged %d", sess.SID, high, sess.MinWSN)
		}
		if sess.CheckTenant {
			ts, ok := s.(TenantStore)
			if !ok {
				fail("session %d: tenant check requested but store has no SessionTenant", sess.SID)
				continue
			}
			tenant, prio, err := ts.SessionTenant(sess.SID)
			if err != nil {
				fail("session %d: SessionTenant: %v", sess.SID, err)
			} else if tenant != sess.Tenant || prio != sess.Priority {
				fail("session %d: attributed to (%q, %d), want (%q, %d)",
					sess.SID, tenant, prio, sess.Tenant, sess.Priority)
			}
		}
	}

	// Quota balance.
	for tenant, qs := range e.Quotas {
		label := tenant
		if label == "" {
			label = "default"
		}
		if qs.InflightBytes != 0 {
			fail("qos %s: %d inflight bytes leaked after drain", label, qs.InflightBytes)
		}
		if qs.Waiters != 0 {
			fail("qos %s: %d waiters still parked after drain", label, qs.Waiters)
		}
		if min := e.MinAdmitted[tenant]; qs.AdmittedBytes < min {
			fail("qos %s: admitted %d bytes, want at least %d", label, qs.AdmittedBytes, min)
		}
	}
	for tenant, min := range e.MinAdmitted {
		if _, ok := e.Quotas[tenant]; !ok && min > 0 {
			label := tenant
			if label == "" {
				label = "default"
			}
			fail("qos %s: expected at least %d admitted bytes but no accounting was recorded", label, min)
		}
	}

	// Content integrity.
	pageFails := 0
	for _, p := range e.Pages {
		msg := checkPage(s, p)
		if msg == "" {
			continue
		}
		pageFails++
		if pageFails <= maxPageViolations {
			v = append(v, msg)
		}
	}
	if pageFails > maxPageViolations {
		fail("content: … and %d more page violations", pageFails-maxPageViolations)
	}
	return v
}

func checkPage(s Store, p Page) string {
	// Read twice: on a controller with the tiered read cache enabled the
	// first read fills (or already hits) the cache and the second is
	// near-certainly served from it, so the pair checks cache coherence —
	// a cached entry that survived an install or GC relocation it should
	// not have shows up as the second read disagreeing with the first, or
	// with the acknowledged bytes. On cacheless controllers both reads
	// take the flash path and the check degrades to plain content
	// integrity.
	got, err := s.Read(p.LPID)
	if err != nil {
		return fmt.Sprintf("content: Read(%d): %v", p.LPID, err)
	}
	if len(got) != addr.AlignUp(len(p.Want)) {
		return fmt.Sprintf("content: Read(%d) length %d, want aligned %d", p.LPID, len(got), addr.AlignUp(len(p.Want)))
	}
	if !bytes.Equal(got[:len(p.Want)], p.Want) {
		return fmt.Sprintf("content: Read(%d) differs from acknowledged version", p.LPID)
	}
	for _, b := range got[len(p.Want):] {
		if b != 0 {
			return fmt.Sprintf("content: Read(%d) padding not zero", p.LPID)
		}
	}
	again, err := s.Read(p.LPID)
	if err != nil {
		return fmt.Sprintf("content: cached re-Read(%d): %v", p.LPID, err)
	}
	if !bytes.Equal(again, got) {
		return fmt.Sprintf("content: cached re-Read(%d) disagrees with flash read", p.LPID)
	}
	return ""
}

// TB is the sliver of *testing.T the test helper needs; an interface so
// this package does not import testing (which would drag test flags into
// non-test binaries like benchrunner).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// MustHold runs Check and reports every violation through tb.Errorf.
func MustHold(tb TB, s Store, e Expect) {
	tb.Helper()
	for _, viol := range Check(s, e) {
		tb.Errorf("invariant violated: %s", viol)
	}
}
