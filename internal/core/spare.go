//go:build go1.24

package core

import (
	"sync/atomic"
	"weak"
)

// spare holds the tables one query hands to the next, weakly: a collection
// frees them, so an idle engine pins no memory. At most one is held; a
// query takes it with an atomic swap, so two never share it.
type spare struct {
	w atomic.Pointer[weak.Pointer[tables]]
}

// take removes the spare and returns it, nil when there is none or it has
// been collected.
func (s *spare) take() *tables {
	if w := s.w.Swap(nil); w != nil {
		return w.Value()
	}
	return nil
}

// put makes t the spare, in place of any other.
func (s *spare) put(t *tables) {
	w := weak.Make(t)
	s.w.Store(&w)
}
