package serve

// Atomic model hot-swap. SwapModel builds the new model's stage runner
// and publishes the handle with one pointer store. A score request loads
// the handle once, after it has its scoring slot, and scores every one
// of its documents through it, so a response is wholly one generation
// by construction and requests in flight finish on the generation they
// loaded. A request admitted after SwapModel returns scores on the new
// model.

import (
	"fmt"
	"time"
)

// ActiveModel returns the handle new requests score through.
func (s *Server) ActiveModel() *Model {
	return s.model.Load().Model
}

// SwapModel atomically replaces the serving model. Swapping to the
// already-active generation is a no-op. Concurrent swaps serialise;
// each applies exactly once.
func (s *Server) SwapModel(m *Model) error {
	if m == nil || m.Backend == nil {
		return fmt.Errorf("serve: swap: nil model")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.ActiveModel().Generation == m.Generation {
		return nil
	}
	if s.rootCtx.Err() != nil {
		return fmt.Errorf("serve: swap: server stopped")
	}
	start := time.Now()
	s.model.Store(s.load(m))
	s.m.swapDone(m.Generation, time.Since(start))
	return nil
}
