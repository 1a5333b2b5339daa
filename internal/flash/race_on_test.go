//go:build race

package flash

// raceEnabled lets wall-clock bounds skip under the race detector, which
// slows the wake-up chain they measure severalfold.
const raceEnabled = true
