package flash

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// keeper is the wall-latency emulation's clock, one for the process: the
// parked commands, one alarm kept set to their earliest deadline, and one
// goroutine — started by the first wait, so never while every device runs
// with wall latency off — that wakes each waiter once the clock has passed
// its deadline, never before. time.Sleep cannot serve: an idle P's timer is
// rounded up to the netpoller's millisecond, so a 60 µs read slept 1.1 ms.
var keeper timekeeper

type timekeeper struct {
	mu    sync.Mutex
	waits []*wakeup // ascending by at; at most one per flash channel in the process
	alarm alarm     // set to waits[0].at under mu whenever that changes; nil until the first wait
}

// wakeup is a channel's parked command; one per channel, because a command
// parks holding its channel's lock.
type wakeup struct {
	at time.Time
	ch chan struct{} // one slot, empty: the timekeeper's send never blocks
}

// alarm is a one-shot timer that one goroutine waits on and any may set:
// newAlarm's high-resolution one where the platform has it, else a
// runtimeAlarm.
type alarm interface {
	set(d time.Duration) // fire d from now, replacing the earlier setting
	wait()               // block until it fires; may also return for no reason
}

// runtimeAlarm is the fallback: late by the runtime timer's granularity (a
// millisecond in an idle process), never early.
type runtimeAlarm struct{ *time.Timer }

func newRuntimeAlarm() alarm               { return runtimeAlarm{time.NewTimer(time.Hour)} }
func (a runtimeAlarm) set(d time.Duration) { a.Reset(d) }
func (a runtimeAlarm) wait()               { <-a.C }

// sleepUntil parks the caller until w.at has passed.
func (k *timekeeper) sleepUntil(w *wakeup) {
	if !time.Now().Before(w.at) {
		return
	}
	k.mu.Lock()
	if k.alarm == nil {
		k.alarm = newAlarm()
		go k.run()
	}
	i := sort.Search(len(k.waits), func(i int) bool { return w.at.Before(k.waits[i].at) })
	k.waits = slices.Insert(k.waits, i, w)
	if i == 0 {
		k.alarm.set(time.Until(w.at))
	}
	k.mu.Unlock()
	<-w.ch
}

// run is the timekeeper goroutine; it lives as long as the process. A
// waiter is woken on what the clock says, so an alarm that returns early or
// for no reason only costs a turn of the loop.
func (k *timekeeper) run() {
	for {
		k.alarm.wait()
		k.mu.Lock()
		now, due := time.Now(), 0
		for ; due < len(k.waits) && !k.waits[due].at.After(now); due++ {
			k.waits[due].ch <- struct{}{} // the wakeup is its waiter's again
		}
		k.waits = slices.Delete(k.waits, 0, due) // zeroes the tail: a closed device's channels do not stay reachable
		if len(k.waits) > 0 {
			k.alarm.set(k.waits[0].at.Sub(now))
		}
		k.mu.Unlock()
	}
}
