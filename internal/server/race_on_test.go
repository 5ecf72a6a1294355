//go:build race

package server

// raceEnabled reports that the test binary was built with the race
// detector, whose instrumentation allocates where the plain build does not
// and whose sync.Pool drops what it is handed at random.
const raceEnabled = true
