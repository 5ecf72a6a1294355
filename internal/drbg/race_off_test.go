//go:build !race

package drbg

const raceEnabled = false
