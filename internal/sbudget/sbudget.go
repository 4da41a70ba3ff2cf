// Package sbudget implements per-request scheduling budgets: a State carries
// the request's context plus optional wall-clock and rank-pass limits, and
// the schedulers consult it at their cooperative checkpoints (every rank
// pass, every merge round, every loop candidate). A nil *State is the "no
// budget, no cancellation" case and every method on it is a cheap no-op, so
// the default path through the schedulers stays allocation- and
// checkpoint-free.
//
// Exhaustion is reported as an error wrapping ErrExhausted; the facade
// distinguishes it from real failures (and from the caller's own
// context.Canceled / DeadlineExceeded) to trigger graceful degradation to
// the baseline list schedule instead of failing the request.
package sbudget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aisched/internal/faultinject"
	"aisched/internal/metrics"
)

// ErrExhausted is the sentinel every budget-exhaustion error wraps; test
// with errors.Is. Context cancellation is NOT exhaustion — it surfaces as
// the context's own error.
var ErrExhausted = errors.New("scheduling budget exhausted")

// Always-on exhaustion telemetry: every exhaustion increments the counter;
// requests that also carried a wall-clock deadline record how much of it
// remained when the binding limit fired (≈0 when the wall clock itself
// expired, larger when a rank-pass cap fired first — the histogram shows
// which limit binds in practice). Both live on the exhaustion path only, so
// the un-exhausted hot path pays nothing.
var (
	mExhausted = metrics.Default.NewCounter("aisched_budget_exhausted_total",
		"scheduling requests stopped by budget exhaustion (wall-clock, rank-pass, or forced)")
	mRemainingAtExhaust = metrics.Default.NewHistogram("aisched_budget_remaining_at_exhaust_ns",
		"wall-clock budget remaining when a request exhausted (only requests with a wall-clock limit)")
)

// exhaust builds the exhaustion error for reason and records it in the
// process-wide metrics. s may be nil (forced exhaustion without a state).
func (s *State) exhaust(reason string) error {
	mExhausted.Inc()
	if s != nil && !s.deadline.IsZero() {
		mRemainingAtExhaust.Observe(int64(time.Until(s.deadline)))
	}
	return &exhausted{reason: reason}
}

// exhausted wraps ErrExhausted with the specific limit that fired.
type exhausted struct{ reason string }

func (e *exhausted) Error() string        { return "scheduling budget exhausted: " + e.reason }
func (e *exhausted) Is(target error) bool { return target == ErrExhausted }

// Reason extracts the human-readable exhaustion reason from an error
// returned by a budget checkpoint ("" when err does not wrap ErrExhausted).
func Reason(err error) string {
	var e *exhausted
	if errors.As(err, &e) {
		return e.reason
	}
	return ""
}

// State is one request's cancellation and budget envelope. It is shared by
// every goroutine working on the request (the §5.2.3 candidate search runs
// checkpoints concurrently), so the pass counter is atomic and the rest is
// immutable after New.
type State struct {
	ctx       context.Context
	deadline  time.Time // zero = no wall-clock limit
	maxPasses int64     // ≤ 0 = no rank-pass limit
	passes    atomic.Int64
}

// New builds the checkpoint state for one request. It returns nil — the
// zero-overhead "nothing to enforce" state — when the context can never be
// cancelled (Background/TODO have a nil Done channel), no limit is set, and
// no fault-injection checkpoint hook is installed.
func New(ctx context.Context, wallClock time.Duration, maxPasses int) *State {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && wallClock <= 0 && maxPasses <= 0 &&
		faultinject.Checkpoint == nil && faultinject.BudgetExhaust == nil {
		return nil
	}
	s := &State{ctx: ctx, maxPasses: int64(maxPasses)}
	if wallClock > 0 {
		s.deadline = time.Now().Add(wallClock)
	}
	return s
}

// Check is the cooperative checkpoint: it reports the context's error if the
// request was cancelled, or an ErrExhausted-wrapping error if the wall-clock
// budget ran out (forced exhaustion via faultinject counts too). Nil-safe.
func (s *State) Check() error {
	if s == nil {
		return nil
	}
	if h := faultinject.Checkpoint; h != nil {
		h()
	}
	if h := faultinject.BudgetExhaust; h != nil && h() {
		return s.exhaust("forced by fault injection")
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return s.exhaust("wall-clock deadline exceeded")
	}
	return nil
}

// RankPass charges one rank pass against the budget, then runs the regular
// checkpoint. Called by rank.Ctx.RunRanks, so every greedy reschedule in the
// pipeline is automatically both metered and a cancellation point. Nil-safe.
func (s *State) RankPass() error {
	if s == nil {
		return nil
	}
	if s.maxPasses > 0 && s.passes.Add(1) > s.maxPasses {
		return s.exhaust(fmt.Sprintf("rank-pass limit %d exceeded", s.maxPasses))
	}
	return s.Check()
}

// Passes returns the number of rank passes charged so far.
func (s *State) Passes() int64 {
	if s == nil {
		return 0
	}
	return s.passes.Load()
}
