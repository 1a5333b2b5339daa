// recovery demonstrates the §VIII durability machinery: write-buffer
// atomicity across crashes, session WSN ordering surviving recovery, and
// the host-side redo protocol for unacknowledged writes.
package main

import (
	"errors"
	"fmt"
	"log"

	"eleos/internal/core"
	"eleos/internal/flash"
)

func main() {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	ctl, err := core.Format(dev, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. Atomicity: a crash mid-buffer leaves no trace -------------------
	must(ctl.WriteBatch(0, 0, []core.LPage{{LPID: 1, Data: []byte("v1 of page 1")}}))
	ctl.SetCrashPoint("write.after-init") // die with the action logged and nothing programmed or forced
	err = ctl.WriteBatch(0, 0, []core.LPage{
		{LPID: 1, Data: []byte("v2 of page 1")},
		{LPID: 2, Data: []byte("new page 2")},
	})
	fmt.Printf("crash injected mid-write: %v\n", err)

	ctl, err = core.Open(dev, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	data, _ := ctl.Read(1)
	fmt.Printf("after recovery, LPID 1 = %q (the old version — all-or-nothing held)\n", trim(data))
	if _, err := ctl.Read(2); errors.Is(err, core.ErrNotFound) {
		fmt.Println("after recovery, LPID 2 does not exist (the torn buffer left no trace)")
	}

	// --- 2. Sessions: WSN ordering and idempotent redo ----------------------
	sid, err := ctl.OpenSession()
	if err != nil {
		log.Fatal(err)
	}
	must(ctl.WriteBatch(sid, 1, []core.LPage{{LPID: 10, Data: []byte("wsn-1")}}))
	must(ctl.WriteBatch(sid, 2, []core.LPage{{LPID: 10, Data: []byte("wsn-2")}}))
	fmt.Printf("\nsession %x applied WSNs 1 and 2\n", sid)

	ctl.Crash()
	ctl, err = core.Open(dev, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	// The host never saw the ACK for WSN 2, so it redoes it. The recovered
	// session table recognises the stale WSN and acknowledges without
	// re-applying (§III-A2).
	must(ctl.WriteBatch(sid, 2, []core.LPage{{LPID: 10, Data: []byte("wsn-2 REDO")}}))
	data, _ = ctl.Read(10)
	fmt.Printf("after crash + host redo of WSN 2, LPID 10 = %q (not re-applied)\n", trim(data))
	high, _ := ctl.SessionHighestWSN(sid)
	fmt.Printf("session survives recovery with highest WSN = %d; WSN 3 continues the order\n", high)
	must(ctl.WriteBatch(sid, 3, []core.LPage{{LPID: 10, Data: []byte("wsn-3")}}))

	// --- 3. Committed data survives any number of crashes -------------------
	for i := 0; i < 3; i++ {
		ctl.Crash()
		ctl, err = core.Open(dev, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
	}
	data, _ = ctl.Read(10)
	fmt.Printf("\nafter three more crash/recover cycles, LPID 10 = %q\n", trim(data))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func trim(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}
