//go:build linux

package flash

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdAlarm is the high-resolution alarm: a timerfd — a nanosecond
// hrtimer with no slack — read through the runtime's netpoller. No thread
// blocks on the timekeeper's behalf: the idle P that would have slept in
// epoll_wait on a rounded-up runtime timer is woken by the descriptor.
type timerfdAlarm struct {
	f  *os.File // owns fd; open as long as the process, like the timekeeper
	fd uintptr
}

func newAlarm() alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newRuntimeAlarm()
	}
	f := os.NewFile(fd, "timerfd")
	if f.SetReadDeadline(time.Time{}) != nil { // not in the netpoller: a Read would fail, not park
		f.Close()
		return newRuntimeAlarm()
	}
	return timerfdAlarm{f: f, fd: fd}
}

func (a timerfdAlarm) set(d time.Duration) {
	// One shot (no interval) at least 1 ns away: the zero value disarms.
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(max(d, 1)))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("flash: timerfd_settime: " + errno.Error()) // valid descriptor, valid time: a bug, and returning would hang every waiter
	}
}

func (a timerfdAlarm) wait() {
	var expirations [8]byte
	a.f.Read(expirations[:]) // an error is a return for no reason
}
