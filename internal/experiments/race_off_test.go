//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in. The
// full-size linked-case run is too slow under the detector's ~10x
// overhead for the package's test budget; the linked code paths are
// race-tested in internal/link.
const raceEnabled = false
