//go:build !race

package sssearch

const raceEnabled = false
