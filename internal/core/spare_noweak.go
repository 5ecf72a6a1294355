//go:build !go1.24

package core

// spare keeps nothing before Go 1.24, which has no weak pointers: a strong
// spare would pin its tables while the engine is idle. Every query starts
// from empty tables.
type spare struct{}

func (*spare) take() *tables { return nil }

func (*spare) put(*tables) {}
