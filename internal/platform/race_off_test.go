//go:build !race

package platform

// raceDetectorEnabled reports whether this test binary was built with
// -race. The 10k-admission cached drill scales itself down under the race
// detector: the race run proves memory-safety of the same code paths, the
// full-scale run proves the scale numbers.
const raceDetectorEnabled = false
