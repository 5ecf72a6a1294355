//go:build !race

package main

// raceEnabled reports that the binary was built with the race detector.
const raceEnabled = false
