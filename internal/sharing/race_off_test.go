//go:build !race

package sharing

const raceEnabled = false
