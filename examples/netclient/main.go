// The netclient example shows the network face of ELEOS: an eleosd
// server on loopback and the retrying client library talking to it.
// It demonstrates the parts an in-process example can't — reconnect,
// session-ordered flushes over a socket, WSN-deduplicated retries, and a
// graceful drain — in a single self-contained process.
//
//	go run ./examples/netclient
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// An eleosd in miniature: fresh in-memory device, served on loopback.
	dev := flash.MustNewDevice(flash.Geometry{
		Channels: 4, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}, flash.Latency{})
	ctl, err := core.Format(dev, core.DefaultConfig())
	if err != nil {
		return err
	}
	srv := server.New(ctl, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("eleosd serving on %s\n\n", ln.Addr())

	// Dial with the retrying client and open a durable session.
	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		return err
	}
	sess, err := cl.NewSession()
	if err != nil {
		return err
	}
	fmt.Printf("session %d opened (WSNs start at 1)\n", sess.SID())

	// Three batches of variable-size pages, each one flush_batch command
	// over TCP, applied atomically and in WSN order.
	for b := 0; b < 3; b++ {
		pages := []core.LPage{
			{LPID: addr.LPID(100 + b*3), Data: []byte(fmt.Sprintf("batch %d: a tiny record", b))},
			{LPID: addr.LPID(101 + b*3), Data: []byte(strings.Repeat("compressed-page ", 120))}, // ~1.9 KB
			{LPID: addr.LPID(102 + b*3), Data: make([]byte, 4096)},                              // classic 4K page
		}
		if err := sess.Flush(pages); err != nil {
			return err
		}
		fmt.Printf("flushed batch %d (wsn %d, %d pages)\n", b, sess.NextWSN()-1, len(pages))
	}

	// Retrying an already-acknowledged WSN is safe: the server answers
	// from the session table without re-applying (the §III-A2 dedup the
	// client's automatic retries rely on after a dropped connection).
	high, err := cl.Flush(sess.SID(), 2, []core.LPage{{LPID: 999, Data: []byte("replayed — must not apply")}})
	if err != nil {
		return err
	}
	fmt.Printf("re-sent wsn 2: re-ACKed highest=%d, not re-applied\n", high)
	if _, err := cl.Read(999); err == nil {
		return fmt.Errorf("stale batch was applied")
	}

	// Read back over the wire (stored images are 64-byte aligned).
	data, err := cl.Read(100)
	if err != nil {
		return err
	}
	fmt.Printf("read lpid 100: %q\n", strings.TrimRight(string(data), "\x00"))

	sf, err := cl.StatsFull()
	if err != nil {
		return err
	}
	fmt.Printf("controller: %d batches, %d pages, %d stale re-ACKs\n",
		sf.Counter("core.write.batches"), sf.Counter("core.write.pages"), sf.Counter("core.write.stale"))

	// Graceful drain: in-flight work finishes, then a checkpoint lands so
	// the next open replays (almost) nothing.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	fmt.Println("server drained: checkpointed and stopped")

	// Prove it: recover a controller from the same flash.
	ctl.Crash()
	ctl2, err := core.Open(dev, core.DefaultConfig())
	if err != nil {
		return err
	}
	again, err := ctl2.Read(100)
	if err != nil {
		return err
	}
	fmt.Printf("after crash+recover, lpid 100 still reads: %q\n", strings.TrimRight(string(again), "\x00"))
	return nil
}
