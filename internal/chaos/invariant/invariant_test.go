package invariant

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/metrics"
)

// fakeStore is a Store whose every answer a test sets: pages read back
// (reread, when set, answers every Read after the first), session WSNs and
// tenants, the action and pin tables, the metrics snapshot, and a small
// real device for the device-side ledgers.
type fakeStore struct {
	pages    map[addr.LPID][]byte
	reread   map[addr.LPID][]byte
	reads    map[addr.LPID]int
	wsn      map[uint64]uint64
	tenant   map[uint64]Session
	active   int
	inflight int
	pinned   int
	counters map[string]int64
	dev      *flash.Device
}

var errNotMapped = errors.New("fake: not mapped")

func (s *fakeStore) Read(lp addr.LPID) ([]byte, error) {
	s.reads[lp]++
	if b, ok := s.reread[lp]; ok && s.reads[lp] > 1 {
		return b, nil
	}
	b, ok := s.pages[lp]
	if !ok {
		return nil, errNotMapped
	}
	return b, nil
}

func (s *fakeStore) SessionHighestWSN(sid uint64) (uint64, error) { return s.wsn[sid], nil }
func (s *fakeStore) SessionTenant(sid uint64) (string, uint8, error) {
	return s.tenant[sid].Tenant, s.tenant[sid].Priority, nil
}
func (s *fakeStore) ActiveActions() int    { return s.active }
func (s *fakeStore) InflightEBlocks() int  { return s.inflight }
func (s *fakeStore) PinnedEBlocks() int    { return s.pinned }
func (s *fakeStore) Device() *flash.Device { return s.dev }
func (s *fakeStore) MetricsSnapshot() metrics.Snapshot {
	var snap metrics.Snapshot
	for name, v := range s.counters {
		snap.Counters = append(snap.Counters, metrics.CounterValue{Name: name, Value: v})
	}
	return snap
}

var fakeGeometry = flash.Geometry{Channels: 1, EBlocksPerChannel: 4, EBlockBytes: 64 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10}

// genHistory generates one run, a sequence of page writes and session
// flushes, each acknowledged or not, and returns what was acknowledged.
func genHistory(rng *rand.Rand) Expect {
	var h Expect
	version := map[addr.LPID]int{}
	acked := map[addr.LPID][]byte{}
	var order []addr.LPID
	for op := 0; op < 4+rng.Intn(20); op++ {
		lp := addr.LPID(1 + rng.Intn(12))
		version[lp]++
		data := make([]byte, 1+rng.Intn(3*addr.Align))
		for i := range data {
			data[i] = byte(int(lp)*31 + version[lp]*7 + i)
		}
		if rng.Intn(4) == 0 {
			continue // never acknowledged
		}
		if acked[lp] == nil {
			order = append(order, lp)
		}
		acked[lp] = data
	}
	for _, lp := range order {
		h.Pages = append(h.Pages, Page{LPID: lp, Want: acked[lp]})
	}
	tenants := []string{"", "alpha", "beta"}
	for sid := uint64(1); sid <= uint64(1+rng.Intn(4)); sid++ {
		sess := Session{SID: sid, Exact: rng.Intn(2) == 0, CheckTenant: true, Tenant: tenants[rng.Intn(len(tenants))], Priority: uint8(rng.Intn(3))}
		for wsn := uint64(1); wsn <= uint64(1+rng.Intn(6)); wsn++ {
			if rng.Intn(3) > 0 {
				sess.MinWSN = wsn
			}
		}
		h.Sessions = append(h.Sessions, sess)
	}
	return h
}

// newFakeStore builds the store that holds exactly h's acknowledged state,
// on a device that has programmed one WBLOCK and erased one EBLOCK.
func newFakeStore(t *testing.T, h Expect) *fakeStore {
	s := &fakeStore{
		pages: map[addr.LPID][]byte{}, reread: map[addr.LPID][]byte{}, reads: map[addr.LPID]int{},
		wsn: map[uint64]uint64{}, tenant: map[uint64]Session{}, counters: map[string]int64{},
		dev: flash.MustNewDevice(fakeGeometry, flash.Latency{}),
	}
	for _, p := range h.Pages {
		s.pages[p.LPID] = append(append([]byte(nil), p.Want...), make([]byte, addr.AlignUp(len(p.Want))-len(p.Want))...)
	}
	for _, sess := range h.Sessions {
		s.wsn[sess.SID] = sess.MinWSN
		s.tenant[sess.SID] = sess
	}
	if err := s.dev.Program(flash.SrcUser, 0, 0, 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	erase(t, s.dev, 0, 1)
	return s
}

// erase erases one EBLOCK through the device's queue and fails t if it fails.
func erase(t *testing.T, dev *flash.Device, ch, eb int) {
	t.Helper()
	if res := dev.SubmitBatch([]flash.BatchCmd{{Op: flash.OpErase, Channel: ch, EBlock: eb}}).Wait(); len(res.FailedEBlocks) > 0 {
		t.Fatalf("erase (%d,%d) failed", ch, eb)
	}
}

// invariantRow arranges one outcome of a run and returns the violations
// Check must report for it, exactly and in order: none for a row that must
// hold.
type invariantRow struct {
	invariant string // the package comment's numbered name
	fires     bool
	arrange   func(t *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string
}

// flip returns b with one byte of its first n changed.
func flip(rng *rand.Rand, b []byte, n int) []byte {
	b = append([]byte(nil), b...)
	b[rng.Intn(n)] ^= 0x5A
	return b
}

var invariantRows = []invariantRow{
	{"content integrity", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		p := e.Pages[rng.Intn(len(e.Pages))]
		s.pages[p.LPID] = flip(rng, s.pages[p.LPID], len(p.Want))
		return []string{fmt.Sprintf("content: Read(%d) differs from acknowledged version", p.LPID)}
	}},
	{"content integrity", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		// An LPID no acknowledged write touched may hold anything.
		lp := addr.LPID(100 + rng.Intn(10))
		s.pages[lp] = []byte("torn")
		return nil
	}},
	{"session monotonicity", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		sess := &e.Sessions[rng.Intn(len(e.Sessions))]
		sess.MinWSN++
		if sess.Exact {
			return []string{fmt.Sprintf("session %d: highest WSN %d, want exactly %d", sess.SID, sess.MinWSN-1, sess.MinWSN)}
		}
		return []string{fmt.Sprintf("session %d: highest WSN %d below acknowledged %d", sess.SID, sess.MinWSN-1, sess.MinWSN)}
	}},
	{"session monotonicity", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		// A crash lost the ack of a flush that landed.
		sess := &e.Sessions[rng.Intn(len(e.Sessions))]
		sess.Exact = false
		s.wsn[sess.SID] += 1 + uint64(rng.Intn(3))
		return nil
	}},
	{"no leaked actions", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		s.active = 1 + rng.Intn(3)
		return []string{fmt.Sprintf("active actions: %d entries leaked after quiesce", s.active)}
	}},
	{"no leaked actions", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		s.counters["core.aborted_actions"] = int64(1 + rng.Intn(5)) // aborted and retired
		return nil
	}},
	{"no leaked pins", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		s.inflight, s.pinned = 1+rng.Intn(2), 1+rng.Intn(2)
		s.counters["core.erase_while_pinned"] = 1
		return []string{
			fmt.Sprintf("inflight eblocks: %d entries leaked after quiesce", s.inflight),
			fmt.Sprintf("pinned eblocks: %d entries leaked after quiesce", s.pinned),
			"erase while pinned: 1 erases raced a commit-force window",
		}
	}},
	{"no leaked pins", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		s.counters["flash.erases"] = int64(1 + rng.Intn(9)) // erases that raced nothing
		return nil
	}},
	{"exact fault accounting", true, func(t *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		failProgram(t, s.dev)
		return []string{"device WriteFailures = 1, want exactly 0"}
	}},
	{"exact fault accounting", false, func(t *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		failProgram(t, s.dev)
		e.ProgramFaults, e.MetricsProgramFaults = 1, 1
		s.counters["flash.program_failures"] = 1
		return nil
	}},
	{"cache coherence", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		p := e.Pages[rng.Intn(len(e.Pages))]
		s.reread[p.LPID] = flip(rng, s.pages[p.LPID], len(s.pages[p.LPID]))
		return []string{fmt.Sprintf("content: cached re-Read(%d) disagrees with flash read", p.LPID)}
	}},
	{"cache coherence", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		p := e.Pages[rng.Intn(len(e.Pages))]
		s.reread[p.LPID] = append([]byte(nil), s.pages[p.LPID]...) // served from another buffer
		return nil
	}},
	{"tenant attribution", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		sess := e.Sessions[rng.Intn(len(e.Sessions))]
		s.tenant[sess.SID] = Session{Tenant: sess.Tenant + "-other", Priority: sess.Priority}
		return []string{fmt.Sprintf("session %d: attributed to (%q, %d), want (%q, %d)", sess.SID, sess.Tenant+"-other", sess.Priority, sess.Tenant, sess.Priority)}
	}},
	{"tenant attribution", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		// A session the harness does not check may carry any tag.
		sess := &e.Sessions[rng.Intn(len(e.Sessions))]
		sess.CheckTenant = false
		s.tenant[sess.SID] = Session{Tenant: "someone-else", Priority: 7}
		return nil
	}},
	{"quota balance", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		n := int64(1+rng.Intn(8)) << 12
		e.Quotas = map[string]QuotaSnapshot{"": {AdmittedBytes: n, InflightBytes: n, Waiters: 1}}
		return []string{
			fmt.Sprintf("qos default: %d inflight bytes leaked after drain", n),
			"qos default: 1 waiters still parked after drain",
		}
	}},
	{"quota balance", false, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		n := int64(1+rng.Intn(8)) << 12
		e.Quotas = map[string]QuotaSnapshot{"alpha": {AdmittedBytes: n, ThrottledCount: 3}}
		e.MinAdmitted = map[string]int64{"alpha": n}
		return nil
	}},
	{"programmed-byte conservation", true, func(t *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		// The registry saw the user program but missed a GC one. The device
		// charges a program the whole WBLOCK.
		w := int64(fakeGeometry.WBlockBytes)
		s.counters["flash.programmed_bytes"] = w
		s.counters["flash.src.user.wblocks"], s.counters["flash.src.user.bytes"] = 1, w
		e.CheckMetricsAttribution = true
		if err := s.dev.Program(flash.SrcGC, 0, 2, 0, make([]byte, 1+rng.Intn(fakeGeometry.WBlockBytes))); err != nil {
			t.Fatal(err)
		}
		return []string{
			fmt.Sprintf("flash.programmed_bytes = %d, device wrote %d", w, 2*w),
			"flash.src.gc.wblocks = 0, device counted 1",
			fmt.Sprintf("flash.src.gc.bytes = 0, device counted %d", w),
		}
	}},
	{"programmed-byte conservation", false, func(t *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		src := flash.SrcUser + flash.Source(rng.Intn(int(flash.NumSources-flash.SrcUser)))
		if err := s.dev.Program(src, 0, 2, 0, make([]byte, 1+rng.Intn(fakeGeometry.WBlockBytes))); err != nil {
			t.Fatal(err)
		}
		return nil
	}},
	{"erase conservation", true, func(_ *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		s.dev.ResetStats() // the wear stays, the ledger forgets the erase
		return []string{"erase conservation: per-EBLOCK wear sums to 1, device attempted 0 erases"}
	}},
	{"erase conservation", false, func(t *testing.T, rng *rand.Rand, s *fakeStore, e *Expect) []string {
		for i := rng.Intn(3); i >= 0; i-- {
			erase(t, s.dev, 0, rng.Intn(fakeGeometry.EBlocksPerChannel))
		}
		return nil
	}},
}

// failProgram injects one program failure into an empty EBLOCK and meets it.
func failProgram(t *testing.T, dev *flash.Device) {
	t.Helper()
	dev.FailNextProgram(0, 3, 0)
	if err := dev.Program(flash.SrcUser, 0, 3, 0, make([]byte, 64)); !errors.Is(err, flash.ErrWriteFailed) {
		t.Fatalf("injected program failure: %v", err)
	}
}

// TestInvariantTable runs every row over generated histories: each of the
// ten invariants must report exactly its own violation when its row breaks
// it, and nothing when its row does what a correct store may do.
func TestInvariantTable(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genHistory(rng)
		if len(h.Pages) == 0 {
			continue // nothing acknowledged: no page to corrupt
		}
		if v := Check(newFakeStore(t, h), h); len(v) != 0 {
			t.Fatalf("seed %d: the store holding exactly the acknowledged state violates %q", seed, v)
		}
		for _, row := range invariantRows {
			s, e := newFakeStore(t, h), h
			e.Pages = append([]Page(nil), e.Pages...)
			e.Sessions = append([]Session(nil), e.Sessions...)
			want := row.arrange(t, rng, s, &e)
			if got := Check(s, e); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s (fires=%v): violations %q, want %q", seed, row.invariant, row.fires, got, want)
			}
			if row.fires != (len(want) > 0) {
				t.Fatalf("row %s: fires=%v but expects %q", row.invariant, row.fires, want)
			}
		}
	}
	// Every invariant the package comment numbers has a row of each kind.
	kinds := map[string][2]bool{}
	for _, row := range invariantRows {
		k := kinds[row.invariant]
		if row.fires {
			k[0] = true
		} else {
			k[1] = true
		}
		kinds[row.invariant] = k
	}
	if len(kinds) != 10 {
		t.Fatalf("%d invariants have rows, want 10", len(kinds))
	}
	for name, k := range kinds {
		if !k[0] || !k[1] {
			t.Errorf("invariant %s: a row that fires %v, one that holds %v", name, k[0], k[1])
		}
	}
}
