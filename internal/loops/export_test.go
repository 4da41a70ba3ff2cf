package loops

import (
	"sync/atomic"
	"testing"
)

// CountDuplicateCandidates counts every §5.2.3 candidate that reuses an
// earlier candidate's evaluation (see sameTransform) until tb ends.
func CountDuplicateCandidates(tb testing.TB) *atomic.Int64 {
	n := &atomic.Int64{}
	duplicateHook = func() { n.Add(1) }
	tb.Cleanup(func() { duplicateHook = nil })
	return n
}
