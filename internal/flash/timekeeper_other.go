//go:build !linux

package flash

func newAlarm() alarm { return newRuntimeAlarm() }
