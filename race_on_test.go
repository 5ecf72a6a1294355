//go:build race

package sssearch

// raceEnabled reports that the test binary was built with the race
// detector, whose instrumentation allocates where the plain build does not.
const raceEnabled = true
