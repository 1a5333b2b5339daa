// Command eleosd serves an ELEOS controller over TCP — the network
// front-end that turns the reproduction into a deployable service.
// Hosts connect with internal/client (or anything speaking the netproto
// framing) and issue open/close session, flush_batch, read and stats
// commands; concurrent connections feed the controller's parallel write
// pipeline directly.
//
// Usage:
//
//	eleosd [-addr :9420] [-img dev.img] [-format] [flags]
//
// With -img, the device is loaded from (and on shutdown saved back to)
// an eleosctl-compatible image file; -format creates it fresh. Without
// -img an in-memory device is formatted, useful for benchmarks and
// demos. SIGINT/SIGTERM triggers a graceful drain: stop accepting,
// finish in-flight requests, checkpoint, then save the image — so a
// restart recovers with (almost) no log replay, and even a kill -9 loses
// only unacknowledged batches.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
)

// config is eleosd's command line, parsed into one value and checked by
// Validate before a device or listener is opened.
type config struct {
	addr        string
	img         string
	format      bool
	channels    int
	eblocks     int
	maxConns    int
	inflightMB  int
	drainSecs   int
	debugAddr   string
	slowBatch   time.Duration
	coalesce    time.Duration
	readCacheMB int
	extra       []string // arguments left over after the flags
}

// parseFlags reads args (the command line without the program name) into
// a config. It does not judge the values; Validate does. A syntax error
// comes back after the FlagSet has written it, with the usage, to out.
func parseFlags(args []string, out io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("eleosd", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&c.addr, "addr", ":9420", "TCP listen address")
	fs.StringVar(&c.img, "img", "", "device image file (empty: in-memory device)")
	fs.BoolVar(&c.format, "format", false, "format a fresh device instead of recovering")
	fs.IntVar(&c.channels, "channels", 8, "flash channels (format only)")
	fs.IntVar(&c.eblocks, "eblocks", 64, "eblocks per channel (format only)")
	fs.IntVar(&c.maxConns, "max-conns", 256, "concurrent connection limit")
	fs.IntVar(&c.inflightMB, "max-inflight-mb", 64, "in-flight batch bytes admitted across all connections (MB)")
	fs.IntVar(&c.drainSecs, "drain-timeout", 30, "graceful drain timeout in seconds (0: close connections at once)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "HTTP debug listen address (pprof, /metrics, /debug/trace; empty: off)")
	fs.DurationVar(&c.slowBatch, "slow-batch", 0, "log flush_batch requests slower than this with their trace breakdown (0: off)")
	fs.DurationVar(&c.coalesce, "coalesce", 0, "merge small concurrent flushes into one controller batch, waiting up to this window (0: off)")
	fs.IntVar(&c.readCacheMB, "read-cache-mb", 0, "byte-sized tiered read cache capacity in MB (0: off)")
	err := fs.Parse(args)
	c.extra = fs.Args()
	return c, err
}

// Validate rejects values the server would otherwise accept and quietly
// misread: a connection limit below one refuses every connection, an
// in-flight bound below one admits one batch at a time, a negative drain
// timeout closes connections at once, a negative cache size or duration
// turns its feature off without saying so, and a stray argument (as in
// "-format false") ends flag parsing, dropping every flag after it.
// The geometry flags are flash.NewDevice's to reject.
func (c config) Validate() error {
	switch {
	case len(c.extra) > 0:
		return fmt.Errorf("unexpected argument %q", c.extra[0])
	case c.maxConns < 1:
		return fmt.Errorf("-max-conns %d: need at least 1", c.maxConns)
	case c.inflightMB < 1:
		return fmt.Errorf("-max-inflight-mb %d: need at least 1", c.inflightMB)
	case c.drainSecs < 0:
		return fmt.Errorf("-drain-timeout %d: must not be negative", c.drainSecs)
	case c.slowBatch < 0:
		return fmt.Errorf("-slow-batch %v: must not be negative (0 turns the log off)", c.slowBatch)
	case c.coalesce < 0:
		return fmt.Errorf("-coalesce %v: must not be negative (0 turns coalescing off)", c.coalesce)
	case c.readCacheMB < 0:
		return fmt.Errorf("-read-cache-mb %d: must not be negative (0 turns the cache off)", c.readCacheMB)
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the FlagSet has printed the error and the usage
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "eleosd: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "eleosd: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	dev, ctl, err := openDevice(cfg)
	if err != nil {
		return err
	}
	srv := server.New(ctl, server.Config{
		MaxConns:           cfg.maxConns,
		MaxInflightBytes:   int64(cfg.inflightMB) << 20,
		SlowBatchThreshold: cfg.slowBatch,
		CoalesceWindow:     cfg.coalesce,
	})
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("eleosd: debug endpoint on http://%s (pprof, /metrics, /debug/trace)", dln.Addr())
		go func() {
			if err := http.Serve(dln, srv.DebugHandler()); err != nil {
				log.Printf("eleosd: debug endpoint: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	geo := ctl.Geometry()
	log.Printf("eleosd: serving %d-channel x %d-eblock device (%d MB) on %s",
		geo.Channels, geo.EBlocksPerChannel, geo.CapacityBytes()>>20, ln.Addr())

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("eleosd: %v: draining (limit %ds)", sig, cfg.drainSecs)
	case err := <-serveDone:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.drainSecs)*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("eleosd: drain: %v", err)
	}
	<-serveDone
	st := ctl.Stats()
	log.Printf("eleosd: drained: %d batches, %d pages, %d stale re-ACKs, %d checkpoints",
		st.BatchesWritten, st.PagesWritten, st.StaleWrites, st.Checkpoints)
	if cfg.img != "" {
		if err := dev.SaveFile(cfg.img); err != nil {
			return fmt.Errorf("save image: %w", err)
		}
		log.Printf("eleosd: image saved to %s", cfg.img)
	}
	return nil
}

func openDevice(cfg config) (*flash.Device, *core.Controller, error) {
	ccfg := core.DefaultConfig()
	ccfg.AutoCheckpointLogBytes = 16 << 20
	ccfg.ReadCacheBytes = int64(cfg.readCacheMB) << 20
	if cfg.img != "" && !cfg.format {
		dev, err := flash.LoadFile(cfg.img, flash.TypicalNANDLatency())
		if err != nil {
			return nil, nil, fmt.Errorf("load %s (use -format to create): %w", cfg.img, err)
		}
		ctl, err := core.Open(dev, ccfg)
		if err != nil {
			return nil, nil, fmt.Errorf("recover controller: %w", err)
		}
		return dev, ctl, nil
	}
	geo := flash.Geometry{
		Channels:          cfg.channels,
		EBlocksPerChannel: cfg.eblocks,
		EBlockBytes:       1 << 20,
		WBlockBytes:       32 << 10,
		RBlockBytes:       4 << 10,
	}
	dev, err := flash.NewDevice(geo, flash.TypicalNANDLatency())
	if err != nil {
		return nil, nil, err
	}
	ctl, err := core.Format(dev, ccfg)
	if err != nil {
		return nil, nil, err
	}
	return dev, ctl, nil
}
