// Command eleosctl operates an ELEOS-formatted simulated device persisted
// as an image file, exercising the controller's public interface: batched
// variable-size writes, reads by LPID, sessions, garbage collection,
// checkpointing, and crash recovery.
//
// Usage:
//
//	eleosctl -img dev.img format [-channels N] [-eblocks N]
//	eleosctl -img dev.img write <lpid>=<text> [<lpid>=<text> ...]
//	eleosctl -img dev.img read <lpid> [...]
//	eleosctl -img dev.img fill -pages N -size BYTES [-seed S]
//	eleosctl -img dev.img gc [-channel N]
//	eleosctl -img dev.img checkpoint
//	eleosctl -img dev.img stats [-json]
//	eleosctl get -addr HOST:PORT <lpid> [...]
//
// Every invocation recovers the controller from the image (Open — the
// paper's §VIII recovery path runs each time), applies the operation, and
// saves the image back, so a kill -9 between invocations is exactly a
// controller crash.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/health"
	"eleos/internal/metrics"
	"eleos/internal/trace"
)

func main() {
	img := flag.String("img", "eleos.img", "device image file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if err := run(*img, flag.Args()); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "eleosctl: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: eleosctl [-img FILE] <command> [args]

commands:
  format [-channels N] [-eblocks N]   create and format a fresh device
  write <lpid>=<text> ...             write one batch of variable-size pages
  read <lpid> ...                     read pages by LPID
  fill -pages N -size BYTES [-seed S] write N random pages (GC exercise)
  gc [-channel N]                     force a garbage-collection pass
  checkpoint                          take a fuzzy checkpoint
  stats [-json] [-addr HOST:PORT]     print media, health, tenant and metrics statistics
                                      (with -addr: fetched from a running eleosd over stats_full)
  top [-addr HOST:PORT] [-interval D] [-n N] [-plain]
                                      live device dashboard polling a running eleosd's
                                      stats_full (throughput, WAF, GC, wear, tenants)
  session-open                        open a durable write-ordering session
  swrite -sid S -wsn N <lpid>=<text>  ordered write (stale WSNs are ACKed, not re-applied)
  session-status -sid S               show a session's highest applied WSN
  trace [-addr HOST:PORT] [-chrome F] dump a running eleosd's flight recorder
                                      (text timeline, or Chrome trace_event JSON with -chrome)
  get [-addr HOST:PORT] [-raw] <lpid> ...
                                      read pages from a running eleosd (one lpid uses
                                      read_page; several use one read_batch round trip)
`)
}

func run(img string, args []string) error {
	cmd, rest := args[0], args[1:]
	if cmd == "format" {
		return doFormat(img, rest)
	}
	if cmd == "trace" {
		// Network command: talks to a running eleosd, never touches the
		// image file.
		return doTrace(rest)
	}
	if cmd == "get" {
		// Network command: read pages from a running eleosd over the
		// read_page/read_batch wire protocol.
		return doGet(rest)
	}
	if cmd == "top" {
		// Network command: live dashboard polling stats_full.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runTop(ctx, os.Stdout, rest)
	}
	if cmd == "stats" && hasAddrFlag(rest) {
		// Network mode: one stats_full round trip to a running eleosd
		// instead of recovering the image.
		return doStatsRemote(rest)
	}
	switch cmd {
	case "write", "read", "fill", "gc", "checkpoint", "stats", "session-open", "swrite", "session-status":
	default: // before the image is loaded: a missing one is not the mistake
		return usageError{fmt.Errorf("unknown command %q", cmd)}
	}
	dev, err := flash.LoadFile(img, flash.Latency{})
	if err != nil {
		return fmt.Errorf("load %s (run 'format' first?): %w", img, err)
	}
	ctl, err := core.Open(dev, core.DefaultConfig())
	if err != nil {
		return fmt.Errorf("recover controller: %w", err)
	}
	switch cmd {
	case "write":
		if err := doWrite(ctl, rest); err != nil {
			return err
		}
	case "read":
		return doRead(ctl, rest) // read-only: skip the image save
	case "fill":
		if err := doFill(ctl, rest); err != nil {
			return err
		}
	case "gc":
		if err := doGC(ctl, rest); err != nil {
			return err
		}
	case "checkpoint":
		if err := ctl.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("checkpoint complete")
	case "stats":
		return doStats(ctl, rest) // read-only: skip the image save
	case "session-open":
		sid, err := ctl.OpenSession()
		if err != nil {
			return err
		}
		fmt.Printf("session %d opened (survives crashes; WSNs start at 1)\n", sid)
	case "swrite":
		if err := doSessionWrite(ctl, rest); err != nil {
			return err
		}
	case "session-status":
		return doSessionStatus(ctl, rest) // read-only
	}
	// Checkpoint before saving so the next Open replays little.
	if err := ctl.Checkpoint(); err != nil {
		return err
	}
	return dev.SaveFile(img)
}

func doFormat(img string, args []string) error {
	fs := flag.NewFlagSet("format", flag.ContinueOnError)
	channels := fs.Int("channels", 4, "flash channels")
	eblocks := fs.Int("eblocks", 64, "eblocks per channel")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	geo := flash.Geometry{
		Channels:          *channels,
		EBlocksPerChannel: *eblocks,
		EBlockBytes:       1 << 20,
		WBlockBytes:       32 << 10,
		RBlockBytes:       4 << 10,
	}
	dev, err := flash.NewDevice(geo, flash.Latency{})
	if err != nil {
		return err
	}
	if _, err := core.Format(dev, core.DefaultConfig()); err != nil {
		return err
	}
	if err := dev.SaveFile(img); err != nil {
		return err
	}
	fmt.Printf("formatted %s: %d channels x %d eblocks (%d MB)\n",
		img, geo.Channels, geo.EBlocksPerChannel, geo.CapacityBytes()>>20)
	return nil
}

// dialServer connects to a running eleosd for a network command: a few
// quick attempts, then the error.
func dialServer(address string) (*client.Client, error) {
	return client.Dial(address, client.Options{DialTimeout: 3 * time.Second, RequestTimeout: 10 * time.Second, MaxAttempts: 3})
}

// doTrace fetches a running eleosd's flight recorder over TCP and
// renders it: a per-batch text timeline by default, or Chrome
// trace_event JSON (loadable in chrome://tracing / Perfetto) with
// -chrome.
func doTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	addrFlag := fs.String("addr", "127.0.0.1:9420", "eleosd address")
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to FILE ('-' for stdout) instead of the text timeline")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	cl, err := dialServer(*addrFlag)
	if err != nil {
		return err
	}
	defer cl.Close()
	d, err := cl.TraceDump()
	if err != nil {
		return err
	}
	return renderTrace(os.Stdout, d, *chrome)
}

// doGet reads pages from a running eleosd: one LPID uses read_page, two
// or more use a single read_batch round trip (scatter-gathered across
// the server's flash channels). Unmapped LPIDs are reported per page,
// not as a command failure.
func doGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	addrFlag := fs.String("addr", "127.0.0.1:9420", "eleosd address")
	raw := fs.Bool("raw", false, "write the raw page bytes of a single LPID to stdout")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	switch {
	case fs.NArg() == 0:
		return usageError{errors.New("get needs lpid arguments")}
	case *raw && fs.NArg() != 1:
		return usageError{errors.New("-raw needs exactly one lpid")}
	}
	var lpids []addr.LPID
	for _, a := range fs.Args() {
		lpid, err := parseLPID(a)
		if err != nil {
			return err
		}
		lpids = append(lpids, lpid)
	}
	cl, err := dialServer(*addrFlag)
	if err != nil {
		return err
	}
	defer cl.Close()

	var pages [][]byte
	if len(lpids) == 1 {
		data, err := cl.Read(lpids[0])
		switch {
		case core.IsNotFound(err):
			pages = [][]byte{nil}
		case err != nil:
			return err
		default:
			pages = [][]byte{data}
		}
	} else {
		if pages, err = cl.ReadBatch(lpids); err != nil {
			return err
		}
	}
	return renderGet(os.Stdout, lpids, pages, *raw)
}

// renderGet prints fetched pages; split from doGet so tests can feed
// fixture pages without a server.
func renderGet(stdout io.Writer, lpids []addr.LPID, pages [][]byte, raw bool) error {
	if raw {
		if pages[0] == nil {
			return fmt.Errorf("lpid %d not found", lpids[0])
		}
		_, err := stdout.Write(pages[0])
		return err
	}
	for i, lpid := range lpids {
		if pages[i] == nil {
			fmt.Fprintf(stdout, "lpid %d: not found\n", lpid)
			continue
		}
		fmt.Fprintf(stdout, "lpid %d (%d bytes stored): %q\n",
			lpid, len(pages[i]), strings.TrimRight(string(pages[i]), "\x00"))
	}
	return nil
}

// renderTrace writes the dump in the selected format; split from doTrace
// so tests can feed a fixture dump without a server.
func renderTrace(stdout io.Writer, d trace.Dump, chromePath string) error {
	switch chromePath {
	case "":
		return trace.Timeline(stdout, d)
	case "-":
		return trace.ChromeJSON(stdout, d)
	}
	f, err := os.Create(chromePath)
	if err != nil {
		return err
	}
	if err := trace.ChromeJSON(f, d); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d trace events (%d dropped) to %s\n", len(d.Events), d.Dropped, chromePath)
	return nil
}

// parseLPID reads one LPID argument; a malformed one is a usage error.
func parseLPID(a string) (addr.LPID, error) {
	lpid, err := strconv.ParseUint(a, 10, 64)
	if err != nil {
		return 0, usageError{fmt.Errorf("bad lpid %q: %v", a, err)}
	}
	return addr.LPID(lpid), nil
}

// parsePages reads <lpid>=<text> arguments; a malformed one is a usage
// error.
func parsePages(args []string) ([]core.LPage, error) {
	var pages []core.LPage
	for _, a := range args {
		lpidStr, text, ok := strings.Cut(a, "=")
		if !ok {
			return nil, usageError{fmt.Errorf("bad page spec %q (want lpid=text)", a)}
		}
		lpid, err := parseLPID(lpidStr)
		if err != nil {
			return nil, err
		}
		pages = append(pages, core.LPage{LPID: lpid, Data: []byte(text)})
	}
	return pages, nil
}

func doWrite(ctl *core.Controller, args []string) error {
	if len(args) == 0 {
		return usageError{errors.New("write needs <lpid>=<text> arguments")}
	}
	pages, err := parsePages(args)
	if err != nil {
		return err
	}
	if err := ctl.WriteBatch(0, 0, pages); err != nil {
		return err
	}
	fmt.Printf("wrote %d pages in one batch\n", len(pages))
	return nil
}

func doRead(ctl *core.Controller, args []string) error {
	if len(args) == 0 {
		return usageError{errors.New("read needs lpid arguments")}
	}
	for _, a := range args {
		lpid, err := parseLPID(a)
		if err != nil {
			return err
		}
		data, err := ctl.Read(lpid)
		if err != nil {
			return err
		}
		fmt.Printf("lpid %d (%d bytes stored): %q\n", lpid, len(data), strings.TrimRight(string(data), "\x00"))
	}
	return nil
}

// fillConfig is `fill`'s command line, checked by Validate before writing.
type fillConfig struct {
	pages, size int
	seed        int64
	extra       []string // arguments left over after the flags
}

// parseFillFlags reads fill's arguments without judging them (Validate
// does); a syntax error comes back after the FlagSet has written it to out.
func parseFillFlags(args []string, out io.Writer) (fillConfig, error) {
	var c fillConfig
	fs := flag.NewFlagSet("fill", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.IntVar(&c.pages, "pages", 100, "pages to write")
	fs.IntVar(&c.size, "size", 2000, "page size in bytes")
	fs.Int64Var(&c.seed, "seed", 1, "rng seed")
	err := fs.Parse(args)
	c.extra = fs.Args()
	return c, err
}

// Validate rejects a negative page count, a page size below one byte and
// a stray argument.
func (c fillConfig) Validate() error {
	switch {
	case len(c.extra) > 0:
		return fmt.Errorf("unexpected argument %q", c.extra[0])
	case c.pages < 0:
		return fmt.Errorf("-pages %d: must not be negative", c.pages)
	case c.size <= 0:
		return fmt.Errorf("-size %d: must be at least 1 byte", c.size)
	}
	return nil
}

func doFill(ctl *core.Controller, args []string) error {
	cfg, err := parseFillFlags(args, os.Stderr)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return usageError{err}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var batch []core.LPage
	for i := 0; i < cfg.pages; i++ {
		data := make([]byte, cfg.size)
		rng.Read(data)
		batch = append(batch, core.LPage{LPID: addr.LPID(1000 + rng.Intn(cfg.pages)), Data: data})
		if len(batch) >= 64 {
			if err := ctl.WriteBatch(0, 0, batch); err != nil {
				return err
			}
			batch = nil
		}
	}
	if len(batch) > 0 {
		if err := ctl.WriteBatch(0, 0, batch); err != nil {
			return err
		}
	}
	fmt.Printf("filled %d pages of %d bytes\n", cfg.pages, cfg.size)
	return nil
}

// gcConfig is `gc`'s command line, checked by Validate against the
// device's channel count.
type gcConfig struct {
	channel int
	extra   []string // arguments left over after the flags
}

// parseGCFlags reads gc's arguments without judging them (Validate does).
func parseGCFlags(args []string, out io.Writer) (gcConfig, error) {
	var c gcConfig
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.IntVar(&c.channel, "channel", -1, "channel to collect (-1 = all)")
	err := fs.Parse(args)
	c.extra = fs.Args()
	return c, err
}

// Validate rejects a channel outside [-1, channels) — -1 collects all —
// and a stray argument.
func (c gcConfig) Validate(channels int) error {
	switch {
	case len(c.extra) > 0:
		return fmt.Errorf("unexpected argument %q", c.extra[0])
	case c.channel < -1 || c.channel >= channels:
		return fmt.Errorf("-channel %d: want -1 (all) or a channel in [0, %d)", c.channel, channels)
	}
	return nil
}

func doGC(ctl *core.Controller, args []string) error {
	geo := ctl.Geometry()
	cfg, err := parseGCFlags(args, os.Stderr)
	if err == nil {
		err = cfg.Validate(geo.Channels)
	}
	if err != nil {
		return usageError{err}
	}
	before := ctl.Stats()
	for ch := 0; ch < geo.Channels; ch++ {
		if cfg.channel >= 0 && ch != cfg.channel {
			continue
		}
		if err := ctl.GCNow(ch); err != nil {
			return err
		}
	}
	after := ctl.Stats()
	fmt.Printf("gc: %d rounds, %d pages moved, %d eblocks freed, %d rblocks read\n",
		after.GCRounds-before.GCRounds, after.GCPagesMoved-before.GCPagesMoved,
		after.GCEBlocksFreed-before.GCEBlocksFreed, (after.GCBytesRead-before.GCBytesRead)/int64(geo.RBlockBytes))
	return nil
}

func doSessionWrite(ctl *core.Controller, args []string) error {
	fs := flag.NewFlagSet("swrite", flag.ContinueOnError)
	sid := fs.Uint64("sid", 0, "session id")
	wsn := fs.Uint64("wsn", 0, "write sequence number")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *sid == 0 || *wsn == 0 {
		return usageError{errors.New("swrite needs -sid and -wsn")}
	}
	if fs.NArg() == 0 {
		return usageError{errors.New("swrite needs page specs")}
	}
	pages, err := parsePages(fs.Args())
	if err != nil {
		return err
	}
	high, _ := ctl.SessionHighestWSN(*sid)
	if err := ctl.WriteBatch(*sid, *wsn, pages); err != nil {
		return err
	}
	if *wsn <= high {
		fmt.Printf("WSN %d already applied (highest %d): acknowledged without re-applying\n", *wsn, high)
	} else {
		fmt.Printf("session %d applied WSN %d (%d pages)\n", *sid, *wsn, len(pages))
	}
	return nil
}

func doSessionStatus(ctl *core.Controller, args []string) error {
	fs := flag.NewFlagSet("session-status", flag.ContinueOnError)
	sid := fs.Uint64("sid", 0, "session id")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	high, err := ctl.SessionHighestWSN(*sid)
	if err != nil {
		return err
	}
	fmt.Printf("session %d: highest applied WSN = %d\n", *sid, high)
	return nil
}

// doStats is `stats` against the image: the recovered controller supplies
// the payload a running eleosd would send over stats_full, preceded by the
// two things that payload does not carry — the device's own media ledger
// and the free space per channel.
func doStats(ctl *core.Controller, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the full metrics snapshot as JSON")
	fs.String("addr", "", "eleosd address (handled in doStatsRemote)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if !*jsonOut {
		printMedia(os.Stdout, ctl)
	}
	return renderStats(os.Stdout, ctl.MetricsSnapshot(), *jsonOut)
}

// renderStats is the one renderer behind both `stats` modes: the snapshot
// as JSON with -json, otherwise the health census, tenant table and
// metrics table of one stats_full snapshot.
func renderStats(w io.Writer, snap metrics.Snapshot, jsonOut bool) error {
	if jsonOut {
		b, err := marshalSnapshot(snap)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	printHealth(w, snap)
	printTenants(w, snap)
	printMetrics(w, snap)
	return nil
}

// hasAddrFlag reports whether the raw argument list selects network mode.
func hasAddrFlag(args []string) bool {
	for _, a := range args {
		if a == "-addr" || a == "--addr" ||
			strings.HasPrefix(a, "-addr=") || strings.HasPrefix(a, "--addr=") {
			return true
		}
	}
	return false
}

// doStatsRemote is `stats -addr`: one stats_full round trip to a running
// eleosd, rendered by the renderer the local mode uses.
func doStatsRemote(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addrFlag := fs.String("addr", "127.0.0.1:9420", "eleosd address")
	jsonOut := fs.Bool("json", false, "emit the full metrics snapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	cl, err := dialServer(*addrFlag)
	if err != nil {
		return err
	}
	defer cl.Close()
	snap, err := cl.StatsFull()
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Printf("eleosd %s\n", *addrFlag)
	}
	return renderStats(os.Stdout, snap, *jsonOut)
}

// topConfig is `top`'s command line, checked by Validate before dialling.
type topConfig struct {
	addr     string
	interval time.Duration
	frames   int
	plain    bool
	extra    []string // arguments left over after the flags
}

// parseTopFlags reads top's arguments without judging them (Validate
// does); a syntax error comes back after the FlagSet has written it to out.
func parseTopFlags(args []string, out io.Writer) (topConfig, error) {
	var c topConfig
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:9420", "eleosd address")
	fs.DurationVar(&c.interval, "interval", time.Second, "sampling interval (0: 1s; clamped to [10ms, 60s])")
	fs.IntVar(&c.frames, "n", 0, "exit after N rendered frames (0: run until interrupted)")
	fs.BoolVar(&c.plain, "plain", false, "append frames instead of redrawing (for logs and pipes)")
	err := fs.Parse(args)
	c.extra = fs.Args()
	return c, err
}

// Validate rejects a negative interval or frame count and a stray
// argument, which ends flag parsing and drops every flag after it.
func (c topConfig) Validate() error {
	switch {
	case len(c.extra) > 0:
		return fmt.Errorf("unexpected argument %q", c.extra[0])
	case c.interval < 0:
		return fmt.Errorf("-interval %v: must not be negative (0 selects 1s)", c.interval)
	case c.frames < 0:
		return fmt.Errorf("-n %d: must not be negative (0 runs until interrupted)", c.frames)
	}
	return nil
}

// period is the sampling period: 0 selects 1s, others clamp to [10ms, 60s].
func (c topConfig) period() time.Duration {
	if c.interval == 0 {
		return time.Second
	}
	return min(max(c.interval, 10*time.Millisecond), time.Minute)
}

// usageError is a command-line mistake, a flag a command's FlagSet could
// not parse or a value its Validate rejected: main exits 2 for it, or 0 for
// -h, once the FlagSet has printed its usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// runTop is the live dashboard: poll stats_full once per period and
// redraw w from each pair of samples, timed by when they arrived. It
// returns nil after -n frames or when ctx ends, else the first error.
func runTop(ctx context.Context, w io.Writer, args []string) error {
	cfg, err := parseTopFlags(args, os.Stderr)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return usageError{err}
	}
	cl, err := dialServer(cfg.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	tick := time.NewTicker(cfg.period())
	defer tick.Stop()
	var prev metrics.Snapshot
	var prevAt time.Time
	for rendered := 0; ; {
		snap, err := cl.StatsFull()
		if err != nil {
			return err
		}
		now := time.Now()
		if !prevAt.IsZero() {
			if !cfg.plain {
				fmt.Fprint(w, "\x1b[H\x1b[2J") // home + clear: redraw in place
			}
			fmt.Fprint(w, renderTop(cfg.addr, prev, snap, now.Sub(prevAt)))
			if rendered++; rendered == cfg.frames {
				return nil
			}
		}
		prev, prevAt = snap, now
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}

// renderTop builds one dashboard frame from two successive stats_full
// samples. Pure (no clock, no I/O) so tests can pin it with fixtures.
func renderTop(target string, prev, cur metrics.Snapshot, dt time.Duration) string {
	var sb strings.Builder
	r := health.Compute(prev, cur, dt)
	fmt.Fprintf(&sb, "eleos top — %s", target)
	fmt.Fprintf(&sb, "   interval=%s\n\n", dt.Round(time.Millisecond))
	fmt.Fprintf(&sb, "write   %8.2f MB/s user  %8.2f MB/s flash   WAF %5.2f  pad %4.1f%%   %7.0f batches/s %9.0f pages/s\n",
		r.UserMBps, r.FlashMBps, r.WAF, 100*r.PadFrac, r.BatchesPS, r.PagesPS)
	fmt.Fprintf(&sb, "gc      %8s moved  %4d eblocks freed   efficiency %s/eblock   read amp %.1f×\n",
		fmtBytes(r.GCMovedBytes), r.GCFreed, fmtBytes(int64(r.GCEfficiency)), r.GCReadAmp)
	fmt.Fprintf(&sb, "read    %8.0f reads/s   cache hit %5.1f%%\n", r.ReadsPS, 100*r.CacheHitRate)
	if r.ThrottledPS > 0 {
		fmt.Fprintf(&sb, "qos     %8.0f throttled/s\n", r.ThrottledPS)
	}
	sb.WriteString("\n")
	printHealth(&sb, cur)
	printTenants(&sb, cur)
	return sb.String()
}

// printHealth renders the device-health census read back from the
// snapshot's health.* gauges: space split, EBLOCK population, and the
// wear summary with its histogram.
func printHealth(w io.Writer, snap metrics.Snapshot) {
	h := health.FromSnapshot(snap)
	if h.EBlocksTotal == 0 {
		return
	}
	fmt.Fprintf(w, "space:  free %s  valid %s  dead %s\n",
		fmtBytes(h.FreeBytes), fmtBytes(h.ValidBytes), fmtBytes(h.DeadBytes))
	fmt.Fprintf(w, "eblocks: %d total  %d free  %d open  %d used  %d bad  %d reserved  %d log\n",
		h.EBlocksTotal, h.FreeEBlocks, h.OpenEBlocks, h.UsedEBlocks, h.BadEBlocks, h.ReservedEBlocks, h.LogEBlocks)
	avg := float64(h.EraseTotal) / float64(h.EBlocksTotal)
	fmt.Fprintf(w, "wear:   erases min %d / avg %.1f / max %d (total %d)\n",
		h.EraseMin, avg, h.EraseMax, h.EraseTotal)
	// One histogram line each, only when they carry signal.
	if h.EraseMax > 0 {
		fmt.Fprintf(w, "  erase histogram: ")
		for i, n := range h.EraseHist {
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "%s:%d ", eraseBucketLabel(i), n)
		}
		fmt.Fprintln(w)
	}
	if h.UsedEBlocks > 0 {
		fmt.Fprintf(w, "  valid-utilization deciles:")
		for _, n := range h.UtilHist {
			fmt.Fprintf(w, " %d", n)
		}
		fmt.Fprintln(w)
	}
}

// eraseBucketLabel names one EraseHist bucket (see health.EraseBucket).
func eraseBucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	lo := int64(1) << (i - 1)
	if i == health.EraseHistBuckets-1 {
		return fmt.Sprintf("%d+", lo)
	}
	hi := (int64(1) << i) - 1
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// printTenants renders the per-tenant QoS and write-attribution table
// merged from the qos.* and write.tenant.* instruments.
func printTenants(w io.Writer, snap metrics.Snapshot) {
	rows := health.Tenants(snap)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "tenants:\n")
	fmt.Fprintf(w, "  %-16s %12s %10s %12s %10s %10s\n",
		"TENANT", "WRITTEN", "PAGES", "ADMITTED", "THROTTLED", "INFLIGHT")
	for _, t := range rows {
		fmt.Fprintf(w, "  %-16s %12s %10d %12s %10d %10s\n",
			t.Tenant, fmtBytes(t.WriteBytes), t.WritePages,
			fmtBytes(t.AdmittedBytes), t.Throttled, fmtBytes(t.InflightBytes))
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// marshalSnapshot renders a metrics snapshot as indented JSON. The schema
// is the JSON encoding of metrics.Snapshot, documented in DESIGN.md §7;
// the golden test pins it.
func marshalSnapshot(s metrics.Snapshot) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// printMetrics renders the registry snapshot as a human-readable table:
// counters and gauges one per line, histograms with count, mean and the
// interpolated p50/p95/p99. The health.* gauges are left to printHealth,
// which renders the census they carry.
func printMetrics(w io.Writer, s metrics.Snapshot) {
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) == 0 {
		return
	}
	fmt.Fprintf(w, "metrics:\n")
	for _, c := range s.Counters {
		fmt.Fprintf(w, "  %-34s %14d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		if !strings.HasPrefix(g.Name, "health.") {
			fmt.Fprintf(w, "  %-34s %14d (gauge)\n", g.Name, g.Value)
		}
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "  %-34s count %-8d mean %-10.0f p50 %-10.0f p95 %-10.0f p99 %.0f\n",
			h.Name, h.Count, h.Mean(), h.P50, h.P95, h.P99)
	}
}

// printMedia renders what no snapshot carries: the device's own ledger
// (flash.Stats, kept by the media, not by a controller's registry) and the
// free space per channel.
func printMedia(w io.Writer, ctl *core.Controller) {
	d := ctl.Device().Stats()
	fmt.Fprintf(w, "media:\n")
	fmt.Fprintf(w, "  wblocks programmed   %10d\n", d.WBlocksWritten)
	fmt.Fprintf(w, "  rblocks read         %10d\n", d.RBlocksRead)
	fmt.Fprintf(w, "  eblocks erased       %10d\n", d.EBlocksErased)
	fmt.Fprintf(w, "free space per channel:")
	for ch := 0; ch < ctl.Geometry().Channels; ch++ {
		fmt.Fprintf(w, " %d:%.0f%%", ch, 100*ctl.FreeFraction(ch))
	}
	fmt.Fprintln(w)
}
