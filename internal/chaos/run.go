package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eleos/internal/addr"
	"eleos/internal/chaos/invariant"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/provision"
	"eleos/internal/qos"
	"eleos/internal/server"
	"eleos/internal/trace"
)

// Options tunes one schedule execution. The zero value is usable.
type Options struct {
	// Deadline bounds the whole run; a writer that cannot make progress
	// past it reports a harness violation instead of hanging. Default 90s.
	Deadline time.Duration
	// ForceViolation corrupts one invariant expectation on purpose so the
	// red path — seed printing, trace capture, schedule minimization — can
	// be demonstrated and tested against a healthy store.
	ForceViolation bool
	// Logf, when set, receives progress lines (crashes, recoveries).
	Logf func(format string, args ...any)
}

// Result is the outcome of executing one schedule.
type Result struct {
	Schedule   Schedule
	Violations []string // empty = every invariant held

	// Coverage accounting for reports.
	FiredProgramFaults int64
	FiredEraseFaults   int64
	Kills              int
	Recoveries         int
	Acked              int64
	MediaAborts        int64 // client-observed ErrWriteFailed returns
	VerifiedReads      int64 // reader-verified byte-exact reads of acked pages

	// Trace is the final controller's flight-recorder dump, captured only
	// on failure so the doomed schedule can be rendered as a Chrome trace.
	Trace *trace.Dump
}

// Failed reports whether any invariant (or the harness itself) failed.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

func chaosGeometry() flash.Geometry {
	return flash.Geometry{
		Channels: 4, EBlocksPerChannel: 48,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
}

func chaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 8 << 20
	// The tiered read cache runs through the whole corpus: every reader
	// verification and every invariant content check below exercises
	// cache coherence under faults, kills, and crash→recover loops.
	cfg.ReadCacheBytes = 4 << 20
	return cfg
}

// tolerable classifies errors that scheduled faults legitimately surface
// through churn and drain paths: media aborts, injected erase failures
// (which also retire the block), transient space exhaustion, and calls
// that landed on a crashed controller.
func tolerable(err error) bool {
	return errors.Is(err, core.ErrWriteFailed) ||
		errors.Is(err, core.ErrCrashed) ||
		errors.Is(err, provision.ErrNoSpace) ||
		errors.Is(err, flash.ErrEraseFailed) ||
		errors.Is(err, flash.ErrBadBlock)
}

// --- deterministic workload content ----------------------------------------

const churnPageSize = 4000

// uniqueLPID places writer w's batch wsn page i in a private LPID range.
func uniqueLPID(w int, wsn uint64, i int) addr.LPID {
	return addr.LPID(uint64(w+1)<<20 | wsn<<2 | uint64(i))
}

// churnLPID is writer w's repeatedly-overwritten page; its expected final
// content is the last acknowledged version.
func churnLPID(w int) addr.LPID { return addr.LPID(uint64(w+1) << 20) }

func pageSize(w int, wsn uint64, i int) int {
	return 150 + int((uint64(w)*131+wsn*97+uint64(i)*53)%1900)
}

// pageData is the deterministic content for (lpid, version) — the same
// construction as the core test suite's pageContent, re-derived here so
// the expected bytes never depend on executor state.
func pageData(lpid addr.LPID, version uint64, size int) []byte {
	b := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(uint64(lpid)*1_000_003 + version)))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func buildBatch(s Schedule, w int, wsn uint64) []core.LPage {
	pages := make([]core.LPage, 0, s.Pages+1)
	for i := 0; i < s.Pages; i++ {
		lpid := uniqueLPID(w, wsn, i)
		pages = append(pages, core.LPage{LPID: lpid, Data: pageData(lpid, wsn, pageSize(w, wsn, i))})
	}
	cl := churnLPID(w)
	pages = append(pages, core.LPage{LPID: cl, Data: pageData(cl, wsn, churnPageSize)})
	return pages
}

func traceID(w int, wsn uint64) uint64 { return uint64(w+1)<<32 | wsn }

// --- coordinator: the current controller/server pair ------------------------

// coordinator owns the live controller+server pair and replaces both on a
// crash→recover loop. Writers never see it: they dial fixed proxy
// addresses, and the coordinator repoints the proxies after recovery.
type coordinator struct {
	cfg  core.Config
	scfg server.Config
	dev  *flash.Device

	mu         sync.Mutex
	ctl        *core.Controller
	srv        *server.Server
	addr       string
	recoveries int
}

func (co *coordinator) startLocked(ctl *core.Controller) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(ctl, co.scfg)
	go func() { _ = srv.Serve(ln) }()
	co.ctl, co.srv, co.addr = ctl, srv, ln.Addr().String()
	return nil
}

func (co *coordinator) current() *core.Controller {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ctl
}

func (co *coordinator) address() string {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.addr
}

// crashAndRecover kills the volatile state, drains the dead server, and
// reopens the device read-only into a fresh controller+server. A crash is a
// power cut: from Crash's return to Open, no program or erase of the dead
// controller reaches the device, the server's Drain and the churn
// goroutine's calls included.
func (co *coordinator) crashAndRecover() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.ctl.Crash()
	cut := co.dev.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = co.srv.Drain(ctx) // in-flight requests die on ErrCrashed; tolerated
	cancel()
	if st := co.dev.Stats(); st.WBlocksWritten != cut.WBlocksWritten || st.WriteFailures != cut.WriteFailures || st.EraseAttempts != cut.EraseAttempts {
		return fmt.Errorf("the media moved after Crash returned: %+v, then %+v", cut, st)
	}
	ctl2, err := core.Open(co.dev, co.cfg)
	if err != nil {
		return fmt.Errorf("recovery Open: %w", err)
	}
	co.recoveries++
	return co.startLocked(ctl2)
}

func (co *coordinator) drainFinal() {
	co.mu.Lock()
	srv := co.srv
	co.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Drain(ctx) // drain checkpoint may absorb a scheduled fault
	cancel()
}

// qosStats snapshots the final server's per-tenant admission accounting
// (nil when QoS is disabled). Counters reset when a crash replaces the
// server, so across recoveries only the balance — not the totals — is
// meaningful.
func (co *coordinator) qosStats() map[string]qos.TenantStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.srv.QoSStats()
}

// --- the executor -----------------------------------------------------------

// Run executes one schedule end to end over the real network stack and
// checks the shared invariant set. It is safe to call concurrently with
// itself (each run owns its device, server, proxies, and clients).
func Run(s Schedule, opts Options) Result {
	res := Result{Schedule: s}
	if opts.Deadline == 0 {
		opts.Deadline = 90 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	deadline := time.Now().Add(opts.Deadline)

	var (
		violMu  sync.Mutex
		harness []string
	)
	fail := func(format string, args ...any) {
		violMu.Lock()
		harness = append(harness, "harness: "+fmt.Sprintf(format, args...))
		violMu.Unlock()
	}

	dev := flash.MustNewDevice(chaosGeometry(), flash.Latency{})
	cfg := chaosConfig()
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		res.Violations = []string{fmt.Sprintf("harness: format: %v", err)}
		return res
	}

	// Arm every media fault relative to post-Format sequence points, so
	// offsets are independent of how many programs formatting issued.
	for _, n := range s.ProgramFaults {
		dev.FailNthProgram(n)
	}
	for _, n := range s.EraseFaults {
		dev.FailNthErase(n)
	}

	scfg := server.Config{IOTimeout: 5 * time.Second, IdleTimeout: time.Minute}
	if s.Tagged() {
		// Tagged schedules run the real per-tenant admission path. No rate
		// shaping (it would fight the run deadline) but a finite inflight
		// budget per tenant, so every flush charges and releases real
		// quota — the post-run balance check then proves kills, media
		// aborts, and crash→recover loops never leak admitted bytes.
		scfg.QoS = qos.Config{
			Enabled: true,
			Default: qos.Limits{MaxInflightBytes: 64 << 10},
		}
	}
	co := &coordinator{
		cfg:  cfg,
		scfg: scfg,
		dev:  dev,
	}
	co.mu.Lock()
	err = co.startLocked(ctl)
	co.mu.Unlock()
	if err != nil {
		res.Violations = []string{fmt.Sprintf("harness: start server: %v", err)}
		return res
	}

	proxies := make([]*Proxy, s.Writers)
	for w := range proxies {
		px, perr := NewProxy(co.address())
		if perr != nil {
			res.Violations = []string{fmt.Sprintf("harness: proxy: %v", perr)}
			return res
		}
		defer px.Close()
		proxies[w] = px
	}

	readerProxies := make([]*Proxy, s.Writers)
	for w := range readerProxies {
		px, perr := NewProxy(co.address())
		if perr != nil {
			res.Violations = []string{fmt.Sprintf("harness: reader proxy: %v", perr)}
			return res
		}
		defer px.Close()
		readerProxies[w] = px
	}

	killAt := make([]map[uint64]bool, s.Writers)
	for i := range killAt {
		killAt[i] = map[uint64]bool{}
	}
	for _, k := range s.Kills {
		killAt[k.Writer][k.WSN] = true
	}

	var (
		acked       atomic.Int64
		mediaAborts atomic.Int64
		sids        = make([]uint64, s.Writers)
		ackedHigh   = make([]atomic.Uint64, s.Writers)
	)

	// Crash coordinator: fires each crash→recover loop at its exact global
	// acked threshold, then repoints every proxy at the reborn server.
	stopCrash := make(chan struct{})
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		for _, th := range s.Crashes {
			for acked.Load() < int64(th) {
				select {
				case <-stopCrash:
					return
				default:
				}
				if time.Now().After(deadline) {
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
			logf("chaos: seed=%d crash at acked=%d", s.Seed, acked.Load())
			if cerr := co.crashAndRecover(); cerr != nil {
				fail("crash/recover: %v", cerr)
				return
			}
			for _, px := range proxies {
				px.SetBackend(co.address())
			}
			for _, px := range readerProxies {
				px.SetBackend(co.address())
			}
		}
	}()

	// Background churn: checkpoint/GC pressure racing the writers, and the
	// erase traffic that scheduled erase faults land on. Throttled to a
	// realistic background cadence — every checkpoint rewrites dirty
	// mapping/summary pages, and an unthrottled loop fills the device with
	// page garbage faster than GC can relocate it.
	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		geo := chaosGeometry()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			cur := co.current()
			var cerr error
			if i%8 == 0 {
				cerr = cur.Checkpoint()
			} else {
				cerr = cur.GCNow(i % geo.Channels)
			}
			if cerr != nil && !tolerable(cerr) {
				fail("churn: %v", cerr)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Reader goroutines (one per writer) race the whole fault schedule:
	// each continuously re-reads pages its writer has already seen acked —
	// unique pages are immutable once acknowledged, so their bytes are
	// pinned for the rest of the run, through connection kills, media
	// faults, and crash→recover loops. The readers dial their own proxies
	// (repointed on recovery like the writers') and go through the wire
	// read path and the tiered cache, so a stale cache entry or a torn
	// concurrent read surfaces as a content violation, not a flake.
	var verifiedReads atomic.Int64
	stopRead := make(chan struct{})
	var rwg sync.WaitGroup
	for w := 0; w < s.Writers; w++ {
		rwg.Add(1)
		go func(w int) {
			defer rwg.Done()
			if rerr := runReader(s, w, readerProxies[w], stopRead, deadline, &ackedHigh[w], &verifiedReads); rerr != nil {
				fail("reader %d: %v", w, rerr)
			}
		}(w)
	}

	var wg sync.WaitGroup
	for w := 0; w < s.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag, prio := s.Tenant(w)
			if werr := runWriter(s, w, tag, prio, proxies[w], killAt[w], deadline, &acked, &mediaAborts, &sids[w], &ackedHigh[w]); werr != nil {
				fail("writer %d: %v", w, werr)
			}
		}(w)
	}
	wg.Wait()
	close(stopRead)
	rwg.Wait()

	// All thresholds are ≤ total acked batches, so once the writers are
	// done the coordinator finishes its remaining loops promptly; only a
	// stuck harness needs the stop signal.
	select {
	case <-crashDone:
	case <-time.After(time.Until(deadline)):
	}
	close(stopCrash)
	<-crashDone
	close(stopChurn)
	<-churnDone

	// Drain still-armed countdowns with checkpoint/GC rounds so the fault
	// accounting below is exact: fired = armed − still-pending.
	for i := 0; i < 60; i++ {
		p, e := dev.PendingInjectedFailures()
		if p == 0 && e == 0 {
			break
		}
		cur := co.current()
		if cerr := cur.Checkpoint(); cerr != nil && !tolerable(cerr) {
			fail("fault drain checkpoint: %v", cerr)
			break
		}
		for ch := 0; ch < chaosGeometry().Channels; ch++ {
			if cerr := cur.GCNow(ch); cerr != nil && !tolerable(cerr) {
				fail("fault drain gc: %v", cerr)
				break
			}
		}
	}
	pendP, pendE := dev.PendingInjectedFailures()
	res.FiredProgramFaults = int64(len(s.ProgramFaults) - pendP)
	res.FiredEraseFaults = int64(len(s.EraseFaults) - pendE)

	co.drainFinal()

	for _, px := range proxies {
		res.Kills += px.Kills()
	}
	co.mu.Lock()
	res.Recoveries = co.recoveries
	co.mu.Unlock()
	res.Acked = acked.Load()
	res.MediaAborts = mediaAborts.Load()
	res.VerifiedReads = verifiedReads.Load()

	exp := invariant.Expect{
		ProgramFaults:        res.FiredProgramFaults,
		EraseFaults:          res.FiredEraseFaults,
		MetricsProgramFaults: invariant.Skip,
		MetricsEraseFaults:   invariant.Skip,
		MinMediaAborts:       0,
	}
	if res.Recoveries == 0 {
		// No registry reinstall happened, so the metrics view must agree
		// with the device exactly — fault counts and the per-source
		// program attribution alike — and the programs counter covers
		// the whole run (every batch costs at least one program).
		exp.MetricsProgramFaults = res.FiredProgramFaults
		exp.MetricsEraseFaults = res.FiredEraseFaults
		exp.MinPrograms = int64(s.Writers * s.Batches)
		exp.CheckMetricsAttribution = true
	}
	if s.Tagged() {
		// Quota balance + fairness: every tenant's ledger must be settled
		// on the final server, and (when no recovery reset the counters)
		// every tenant that finished its workload must show at least its
		// acked payload bytes admitted — each batch carries a churn page
		// of churnPageSize bytes, so that is a hard floor on wire bytes.
		exp.Quotas = map[string]invariant.QuotaSnapshot{}
		for tenant, st := range co.qosStats() {
			exp.Quotas[tenant] = invariant.QuotaSnapshot{
				AdmittedBytes:  st.AdmittedBytes,
				ThrottledCount: st.ThrottledCount,
				InflightBytes:  st.InflightBytes,
				Waiters:        st.Waiters,
			}
		}
		if res.Recoveries == 0 {
			exp.MinAdmitted = map[string]int64{}
			for w := 0; w < s.Writers; w++ {
				tag, _ := s.Tenant(w)
				exp.MinAdmitted[tag] += int64(ackedHigh[w].Load()) * churnPageSize
			}
		}
	}
	for w := 0; w < s.Writers; w++ {
		high := ackedHigh[w].Load()
		if high == 0 {
			continue // writer failed before its first ack; harness already red
		}
		tag, prio := s.Tenant(w)
		exp.Sessions = append(exp.Sessions, invariant.Session{
			SID: sids[w], MinWSN: high, Exact: high == uint64(s.Batches),
			Tenant: tag, Priority: prio, CheckTenant: true,
		})
		for wsn := uint64(1); wsn <= high; wsn++ {
			for i := 0; i < s.Pages; i++ {
				lpid := uniqueLPID(w, wsn, i)
				exp.Pages = append(exp.Pages, invariant.Page{LPID: lpid, Want: pageData(lpid, wsn, pageSize(w, wsn, i))})
			}
		}
		cl := churnLPID(w)
		exp.Pages = append(exp.Pages, invariant.Page{LPID: cl, Want: pageData(cl, high, churnPageSize)})
	}
	if opts.ForceViolation {
		// Deliberately wrong expectation: the store is healthy, the check
		// goes red, and the seed/minimize/replay pipeline can be exercised.
		exp.ProgramFaults++
	}

	res.Violations = append(res.Violations, invariant.Check(co.current(), exp)...)
	violMu.Lock()
	res.Violations = append(res.Violations, harness...)
	violMu.Unlock()
	if res.Failed() {
		d := co.current().TraceDump()
		res.Trace = &d
	}
	return res
}

// runWriter drives one session over its proxy: sequential WSNs, arming
// its scheduled connection kills, retrying every failure with the same
// WSN (the retry contract WSN dedup makes idempotent) until the deadline.
// A tagged writer opens its session under its tenant/priority, so its
// flushes run through per-tenant admission.
func runWriter(s Schedule, w int, tenant string, priority uint8, px *Proxy, killAt map[uint64]bool, deadline time.Time,
	acked, mediaAborts *atomic.Int64, sidOut *uint64, ackedOut *atomic.Uint64) error {
	copts := client.Options{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    4,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           s.Seed*1000 + int64(w) + 1,
	}
	cl, err := client.Dial(px.Addr(), copts)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()

	var sid uint64
	for {
		sid, err = cl.OpenSessionTenant(tenant, priority)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("open session: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	*sidOut = sid

	for wsn := uint64(1); wsn <= uint64(s.Batches); wsn++ {
		pages := buildBatch(s, w, wsn)
		if killAt[wsn] {
			px.ArmKill()
		}
		for {
			_, err = cl.FlushTraced(traceID(w, wsn), sid, wsn, pages)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrWriteFailed) {
				mediaAborts.Add(1)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("wsn %d: %w", wsn, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		ackedOut.Store(wsn)
		acked.Add(1)
	}
	return nil
}

// runReader continuously verifies its writer's acknowledged pages over
// the wire while the schedule's faults fire. Unique pages are immutable
// once acked, so for any wsn ≤ the writer's published high-water mark
// the expected bytes are fully determined; a mismatch is a coherence
// violation (stale cache, torn concurrent read, or lost acked write),
// while connection kills, crash windows, and draining servers are
// tolerated churn the retry loop rides out. Every fourth verification
// goes through read_batch so the scatter-gather path runs under faults
// too.
func runReader(s Schedule, w int, px *Proxy, stop <-chan struct{}, deadline time.Time,
	high *atomic.Uint64, verified *atomic.Int64) error {
	copts := client.Options{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           s.Seed*2000 + int64(w) + 1,
	}
	cl, err := client.Dial(px.Addr(), copts)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(s.Seed*3000 + int64(w)))
	check := func(lpid addr.LPID, got []byte, want []byte) error {
		if len(got) != addr.AlignUp(len(want)) {
			return fmt.Errorf("read %d: length %d, want aligned %d", lpid, len(got), addr.AlignUp(len(want)))
		}
		if !bytes.Equal(got[:len(want)], want) {
			return fmt.Errorf("read %d: content differs from acknowledged version", lpid)
		}
		return nil
	}
	for n := 0; ; n++ {
		select {
		case <-stop:
			return nil
		default:
		}
		if time.Now().After(deadline) {
			return nil
		}
		h := high.Load()
		if h == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if n%4 == 3 {
			// One read_batch over up to 4 distinct acked pages.
			count := 4
			if int(h)*s.Pages < count {
				count = int(h) * s.Pages
			}
			lpids := make([]addr.LPID, 0, count)
			wants := make([][]byte, 0, count)
			for len(lpids) < count {
				wsn := uint64(rng.Intn(int(h))) + 1
				i := rng.Intn(s.Pages)
				lpid := uniqueLPID(w, wsn, i)
				lpids = append(lpids, lpid)
				wants = append(wants, pageData(lpid, wsn, pageSize(w, wsn, i)))
			}
			pages, rerr := cl.ReadBatch(lpids)
			if rerr != nil {
				if errors.Is(rerr, core.ErrNotFound) {
					return fmt.Errorf("read_batch: acked pages reported missing: %w", rerr)
				}
				time.Sleep(time.Millisecond) // kill/crash churn; retry
				continue
			}
			for i, got := range pages {
				if got == nil {
					return fmt.Errorf("read_batch: acked page %d missing", lpids[i])
				}
				if cerr := check(lpids[i], got, wants[i]); cerr != nil {
					return cerr
				}
				verified.Add(1)
			}
			continue
		}
		wsn := uint64(rng.Intn(int(h))) + 1
		i := rng.Intn(s.Pages)
		lpid := uniqueLPID(w, wsn, i)
		want := pageData(lpid, wsn, pageSize(w, wsn, i))
		got, rerr := cl.Read(lpid)
		if rerr != nil {
			if errors.Is(rerr, core.ErrNotFound) {
				return fmt.Errorf("read: acked page %d not found: %w", lpid, rerr)
			}
			time.Sleep(time.Millisecond) // kill/crash churn; retry
			continue
		}
		if cerr := check(lpid, got, want); cerr != nil {
			return cerr
		}
		verified.Add(1)
	}
}
