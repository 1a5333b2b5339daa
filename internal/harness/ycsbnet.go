package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
	"eleos/internal/ycsb"
)

// The ycsbnet experiment drives the standard YCSB mixes over loopback
// TCP against the full production read path: read_page/read_batch wire
// commands, backpressure admission, the byte-sized tiered read cache,
// and scatter-gather flash reads, with session-ordered flushes as the
// update half. Where the network experiment measures the write front-end
// alone, this one reports what a key-value deployment actually sees —
// read p50/p99 and update throughput per mix — plus the cache's
// effectiveness: how many wire reads were served without touching flash.
//
// Alongside the three mixes, RunReadSpeedup times in-process concurrent
// readers on the fenced read path with the cache off and on, same
// device, same working set: with the cache on, warm reads must skip
// flash entirely. (The comparison against the pre-refactor global-lock
// read path is frozen in EXPERIMENTS.md; that path is gone.)

// YCSBNetRow is one workload mix's measurement.
type YCSBNetRow struct {
	Workload   string // "A" (50/50), "B" (95% read), "C" (100% read)
	Ops        int
	Reads      int
	Updates    int
	Elapsed    time.Duration
	ReadP50    time.Duration
	ReadP99    time.Duration
	UpdateP50  time.Duration
	WriteMBps  float64 // update payload throughput
	WireReads  int64   // read ops served by the server (read.reads)
	CacheHits  int64   // served from the tiered cache (read.cache_hits)
	FlashLoads int64   // reads that reached flash (read.flash_loads)
}

// ReadSpeedupResult compares the concurrent read path with the cache off
// and on.
type ReadSpeedupResult struct {
	Readers       int
	ReadsPerArm   int
	ConcElapsed   time.Duration // pinned-EBLOCK fence, reads overlap channels
	CachedElapsed time.Duration // warm tiered cache: flash untouched
	CachedSpeedup float64       // concurrent / cached
	FlashReadsHot int64         // RBLOCK reads during the cached arm (want 0)
}

const (
	ynValueBytes = 1024
	ynBatchEvery = 16 // every 16th read goes through read_batch (4 keys)
)

func ycsbnetConfigs() []ycsb.Config {
	base := func() ycsb.Config {
		return ycsb.Config{ValueBytes: ynValueBytes, Theta: 0.99, Seed: 1}
	}
	a := base()
	a.UpdateEvery = 1 // 50/50
	b := base()
	b.UpdateEvery = 19
	b.ReadHeavy = true // 95% reads
	c := base()
	c.UpdateEvery = 0 // 100% reads
	return []ycsb.Config{a, b, c}
}

func ycsbnetName(i int) string { return string(rune('A' + i)) }

// RunYCSBNet runs the three mixes. records is the working-set size (every
// record is preloaded, so YCSB-C never misses), ops the total operation
// count per mix split across clients, cacheBytes the server's read-cache
// capacity (0 disables it).
func RunYCSBNet(records uint64, ops, clients int, cacheBytes int64) ([]YCSBNetRow, error) {
	var rows []YCSBNetRow
	for i, wcfg := range ycsbnetConfigs() {
		wcfg.Records = records
		row, err := runYCSBNetOne(ycsbnetName(i), wcfg, ops, clients, cacheBytes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runYCSBNetOne(name string, wcfg ycsb.Config, ops, clients int, cacheBytes int64) (YCSBNetRow, error) {
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.TypicalNANDLatency())
	dev.SetWallLatencyScale(1)
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 16 << 20
	cfg.ReadCacheBytes = cacheBytes
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		return YCSBNetRow{}, err
	}
	srv := server.New(ctl, server.Config{MaxConns: clients + 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return YCSBNetRow{}, err
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()

	// Preload every record so reads never miss.
	wl, err := ycsb.NewWorkload(wcfg)
	if err != nil {
		return YCSBNetRow{}, err
	}
	loader, err := client.Dial(ln.Addr().String(), client.Options{Seed: 99})
	if err != nil {
		return YCSBNetRow{}, err
	}
	lsess, err := loader.NewSession()
	if err != nil {
		return YCSBNetRow{}, err
	}
	var batch []core.LPage
	for key := uint64(0); key < wcfg.Records; key++ {
		batch = append(batch, core.LPage{LPID: addr.LPID(key + 1), Data: wl.Value(key, 0)})
		if len(batch) == 64 || key == wcfg.Records-1 {
			if err := lsess.Flush(batch); err != nil {
				return YCSBNetRow{}, fmt.Errorf("preload: %w", err)
			}
			batch = batch[:0]
		}
	}

	type clientRes struct {
		readLats, updLats []time.Duration
		reads, updates    int
		updBytes          int64
	}
	results := make([]clientRes, clients)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	perClient := ops / clients
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ccfg := wcfg
			ccfg.Seed = wcfg.Seed + int64(w)*101
			cwl, err := ycsb.NewWorkload(ccfg)
			if err != nil {
				errc <- err
				return
			}
			cl, err := client.Dial(ln.Addr().String(), client.Options{Seed: int64(w + 1)})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			sess, err := cl.NewSession()
			if err != nil {
				errc <- err
				return
			}
			res := &results[w]
			version := uint64(1)
			var pend []addr.LPID
			for i := 0; i < perClient; i++ {
				op := cwl.Next()
				lpid := addr.LPID(op.Key + 1)
				if op.Kind == ycsb.OpUpdate {
					val := cwl.Value(op.Key, version)
					version++
					t0 := time.Now()
					if err := sess.Flush([]core.LPage{{LPID: lpid, Data: val}}); err != nil {
						errc <- fmt.Errorf("client %d update: %w", w, err)
						return
					}
					res.updLats = append(res.updLats, time.Since(t0))
					res.updates++
					res.updBytes += int64(len(val))
					continue
				}
				// A slice of the reads goes through read_batch to keep the
				// scatter-gather path hot; the rest are single read_pages.
				if res.reads%ynBatchEvery < 4 {
					pend = append(pend, lpid)
					res.reads++
					if len(pend) == 4 {
						t0 := time.Now()
						pages, err := cl.ReadBatch(pend)
						lat := time.Since(t0) / time.Duration(len(pend))
						if err != nil {
							errc <- fmt.Errorf("client %d read_batch: %w", w, err)
							return
						}
						for _, p := range pages {
							if p == nil {
								errc <- fmt.Errorf("client %d: preloaded key missing", w)
								return
							}
						}
						for range pend {
							res.readLats = append(res.readLats, lat)
						}
						pend = pend[:0]
					}
					continue
				}
				t0 := time.Now()
				data, err := cl.Read(lpid)
				if err != nil {
					errc <- fmt.Errorf("client %d read: %w", w, err)
					return
				}
				if len(data) == 0 {
					errc <- fmt.Errorf("client %d: empty page", w)
					return
				}
				res.readLats = append(res.readLats, time.Since(t0))
				res.reads++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		return YCSBNetRow{}, err
	}

	snap := ctl.MetricsSnapshot()
	row := YCSBNetRow{
		Workload:   name,
		Elapsed:    elapsed,
		WireReads:  snap.Counter("read.reads") + snap.Counter("read.batches"),
		CacheHits:  snap.Counter("read.cache_hits"),
		FlashLoads: snap.Counter("read.flash_loads"),
	}
	var readLats, updLats []time.Duration
	var updBytes int64
	for _, r := range results {
		row.Reads += r.reads
		row.Updates += r.updates
		readLats = append(readLats, r.readLats...)
		updLats = append(updLats, r.updLats...)
		updBytes += r.updBytes
	}
	row.Ops = row.Reads + row.Updates
	sort.Slice(readLats, func(i, j int) bool { return readLats[i] < readLats[j] })
	sort.Slice(updLats, func(i, j int) bool { return updLats[i] < updLats[j] })
	row.ReadP50 = percentile(readLats, 50)
	row.ReadP99 = percentile(readLats, 99)
	row.UpdateP50 = percentile(updLats, 50)
	if elapsed > 0 {
		row.WriteMBps = float64(updBytes) / (1 << 20) / elapsed.Seconds()
	}
	return row, nil
}

// RunReadSpeedup measures the concurrent read path against the warm
// cache, each arm on a fresh controller with the same seeded working set.
func RunReadSpeedup(readers, readsPerArm int) (ReadSpeedupResult, error) {
	res := ReadSpeedupResult{Readers: readers, ReadsPerArm: readsPerArm}

	conc, _, err := readArm(readers, readsPerArm, 0)
	if err != nil {
		return res, err
	}
	cached, flashHot, err := readArm(readers, readsPerArm, 64<<20)
	if err != nil {
		return res, err
	}
	res.ConcElapsed, res.CachedElapsed = conc, cached
	res.FlashReadsHot = flashHot
	if cached > 0 {
		res.CachedSpeedup = float64(conc) / float64(cached)
	}
	return res, nil
}

// readArm runs one configuration: preload a working set spread across
// channels, warm it once, then time `readers` goroutines reading it.
// Returns the timed elapsed and the RBLOCK reads issued during the timed
// window.
func readArm(readers, reads int, cacheBytes int64) (time.Duration, int64, error) {
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.TypicalNANDLatency())
	cfg := core.DefaultConfig()
	cfg.ReadCacheBytes = cacheBytes
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		return 0, 0, err
	}
	const nPages = 512
	var batch []core.LPage
	for i := 0; i < nPages; i++ {
		data := make([]byte, 2048)
		for j := range data {
			data[j] = byte(i * j)
		}
		batch = append(batch, core.LPage{LPID: addr.LPID(i + 1), Data: data})
		if len(batch) == 64 {
			if err := ctl.WriteBatch(0, 0, batch); err != nil {
				return 0, 0, err
			}
			batch = batch[:0]
		}
	}
	// Warm pass (fills the cache when enabled) before latency emulation
	// starts, so only the timed reads pay wall-clock channel occupancy.
	for i := 0; i < nPages; i++ {
		if _, err := ctl.Read(addr.LPID(i + 1)); err != nil {
			return 0, 0, err
		}
	}
	dev.SetWallLatencyScale(1)
	before := dev.Stats().RBlocksRead
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads/readers; i++ {
				lpid := addr.LPID(1 + (w*131+i*17)%nPages)
				if _, err := ctl.Read(lpid); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		return 0, 0, err
	}
	return elapsed, int64(dev.Stats().RBlocksRead - before), nil
}

// PrintYCSBNet renders the mix table and the speedup microbench.
func PrintYCSBNet(w io.Writer, rows []YCSBNetRow, sp ReadSpeedupResult) {
	fmt.Fprintln(w, "YCSB over loopback TCP (read_page/read_batch wire path, tiered read cache)")
	fmt.Fprintf(w, "%4s %7s %7s %8s %10s %10s %10s %9s %10s %10s %10s\n",
		"mix", "reads", "updates", "rd p50", "rd p99", "upd p50", "wr MB/s",
		"wire rds", "cache hit", "flash ld", "hit %")
	for _, r := range rows {
		hitPct := 0.0
		if r.WireReads > 0 {
			hitPct = 100 * float64(r.CacheHits) / float64(r.CacheHits+r.FlashLoads)
		}
		fmt.Fprintf(w, "%4s %7d %7d %8s %10s %10s %10.2f %9d %10d %10d %9.1f%%\n",
			r.Workload, r.Reads, r.Updates,
			r.ReadP50.Round(10*time.Microsecond), r.ReadP99.Round(10*time.Microsecond),
			r.UpdateP50.Round(10*time.Microsecond), r.WriteMBps,
			r.WireReads, r.CacheHits, r.FlashLoads, hitPct)
	}
	fmt.Fprintf(w, "\nconcurrent-reader microbench (%d readers, %d reads/arm, in-process):\n",
		sp.Readers, sp.ReadsPerArm)
	fmt.Fprintf(w, "  concurrent fence     %10s\n", sp.ConcElapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  warm tiered cache    %10s  (%.2fx, %d flash RBLOCK reads)\n",
		sp.CachedElapsed.Round(time.Millisecond), sp.CachedSpeedup, sp.FlashReadsHot)
}

// ycsbnetJSONRow flattens a row with unit-explicit fields.
type ycsbnetJSONRow struct {
	Workload    string  `json:"workload"`
	Ops         int     `json:"ops"`
	Reads       int     `json:"reads"`
	Updates     int     `json:"updates"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	ReadP50Us   int64   `json:"read_p50_us"`
	ReadP99Us   int64   `json:"read_p99_us"`
	UpdateP50Us int64   `json:"update_p50_us"`
	WriteMBps   float64 `json:"write_mb_per_sec"`
	WireReads   int64   `json:"wire_reads"`
	CacheHits   int64   `json:"cache_hits"`
	FlashLoads  int64   `json:"flash_loads"`
}

// WriteYCSBNetJSON emits BENCH_ycsbnet.json so the read path joins the
// recorded perf trajectory.
func WriteYCSBNetJSON(path string, records uint64, clients int, cacheBytes int64, rows []YCSBNetRow, sp ReadSpeedupResult) error {
	doc := struct {
		Experiment string           `json:"experiment"`
		Transport  string           `json:"transport"`
		Records    uint64           `json:"records"`
		Clients    int              `json:"clients"`
		CacheBytes int64            `json:"cache_bytes"`
		ValueBytes int              `json:"value_bytes"`
		Rows       []ycsbnetJSONRow `json:"rows"`
		Speedup    struct {
			Readers       int     `json:"readers"`
			ReadsPerArm   int     `json:"reads_per_arm"`
			ConcurrentMS  float64 `json:"concurrent_ms"`
			CachedMS      float64 `json:"cached_ms"`
			CachedSpeedup float64 `json:"cached_speedup"`
			FlashReadsHot int64   `json:"flash_rblock_reads_warm"`
		} `json:"read_speedup"`
	}{
		Experiment: "ycsbnet",
		Transport:  "loopback-tcp",
		Records:    records,
		Clients:    clients,
		CacheBytes: cacheBytes,
		ValueBytes: ynValueBytes,
	}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, ycsbnetJSONRow{
			Workload:    r.Workload,
			Ops:         r.Ops,
			Reads:       r.Reads,
			Updates:     r.Updates,
			ElapsedMS:   float64(r.Elapsed.Microseconds()) / 1000,
			ReadP50Us:   r.ReadP50.Microseconds(),
			ReadP99Us:   r.ReadP99.Microseconds(),
			UpdateP50Us: r.UpdateP50.Microseconds(),
			WriteMBps:   r.WriteMBps,
			WireReads:   r.WireReads,
			CacheHits:   r.CacheHits,
			FlashLoads:  r.FlashLoads,
		})
	}
	doc.Speedup.Readers = sp.Readers
	doc.Speedup.ReadsPerArm = sp.ReadsPerArm
	doc.Speedup.ConcurrentMS = float64(sp.ConcElapsed.Microseconds()) / 1000
	doc.Speedup.CachedMS = float64(sp.CachedElapsed.Microseconds()) / 1000
	doc.Speedup.CachedSpeedup = sp.CachedSpeedup
	doc.Speedup.FlashReadsHot = sp.FlashReadsHot
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
