//go:build race

package bufpool

// raceEnabled lets the allocation gate skip under the race detector, where
// sync.Pool drops buffers at random.
const raceEnabled = true
