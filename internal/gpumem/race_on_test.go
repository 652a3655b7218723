//go:build race

package gpumem

// raceDetectorEnabled reports whether this test binary was built with
// -race, under which sync.Pool drops a random share of the buffers put
// into it.
const raceDetectorEnabled = true
