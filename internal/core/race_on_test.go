//go:build race

package core

// raceEnabled lets allocation gates skip under the race detector, where
// sync.Pool drops buffers at random.
const raceEnabled = true
