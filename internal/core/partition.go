package core

import (
	"context"
	"fmt"
	"time"
)

// checkBudget enforces context cancellation, MaxRegions and Timeout.
func (s *solver) checkBudget(ctx context.Context, start time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.budgetUsed() > s.opt.MaxRegions {
		return fmt.Errorf("core: exceeded MaxRegions=%d (k=%d)", s.opt.MaxRegions, s.prob.K)
	}
	if s.opt.Timeout > 0 && time.Since(start) > s.opt.Timeout {
		return fmt.Errorf("core: exceeded timeout %v (k=%d)", s.opt.Timeout, s.prob.K)
	}
	return nil
}

// drive runs the partition stage: it processes the region tree from
// root until no region is left, honoring context cancellation and the
// recursion and wall-clock budgets, sequentially or with a
// channel-based worker pool when Options.Workers > 1 (the parallelism
// direction of the paper's future-work section). Pending regions sit on
// a stack, so the sequential driver expands the tree depth-first. Every
// accept and split decision is a function of its region alone (see
// process), so both drivers confirm the same regions and collect the
// same Vall whatever the schedule.
func (s *solver) drive(ctx context.Context, root regionCtx, start time.Time) error {
	if s.opt.Workers > 1 {
		return s.driveParallel(ctx, root, start)
	}
	stack := []regionCtx{root}
	for len(stack) > 0 {
		rc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := s.checkBudget(ctx, start); err != nil {
			return err
		}
		children, err := s.process(ctx, rc)
		if err != nil {
			return err
		}
		stack = append(stack, children...)
	}
	return nil
}

// processOutcome is a worker's report back to the scheduler.
type processOutcome struct {
	children []regionCtx
	err      error
}

// driveParallel is the worker-pool driver. A single scheduler goroutine
// (this one) owns the stack of pending regions and dispatches them to
// workers over a channel; workers report children and errors back on a
// second channel.
// The scheduler stops dispatching on the first error or context
// cancellation, drains in-flight work, and only then returns, so no
// worker is left writing to a closed or abandoned channel.
func (s *solver) driveParallel(ctx context.Context, root regionCtx, start time.Time) error {
	tasks := make(chan regionCtx)
	outcomes := make(chan processOutcome)
	done := make(chan struct{})
	defer close(done)

	for w := 0; w < s.opt.Workers; w++ {
		go func() {
			for rc := range tasks {
				children, err := s.process(ctx, rc)
				if err == nil {
					err = s.checkBudget(ctx, start)
				}
				select {
				case outcomes <- processOutcome{children: children, err: err}:
				case <-done:
					return
				}
			}
		}()
	}
	defer close(tasks)

	var (
		stack       = []regionCtx{root}
		firstErr    error
		inflight    int
		pending     regionCtx
		havePending bool
		ctxDone     = ctx.Done()
	)
	for {
		if !havePending && firstErr == nil && len(stack) > 0 {
			pending, havePending = stack[len(stack)-1], true
			stack = stack[:len(stack)-1]
		}
		if inflight == 0 && (firstErr != nil || !havePending) {
			return firstErr
		}
		sendCh := chan regionCtx(nil)
		if havePending && firstErr == nil {
			sendCh = tasks
		}
		select {
		case sendCh <- pending:
			pending = regionCtx{}
			havePending = false
			inflight++
		case out := <-outcomes:
			inflight--
			if out.err != nil && firstErr == nil {
				firstErr = out.err
			}
			stack = append(stack, out.children...)
		case <-ctxDone:
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			ctxDone = nil // drain in-flight work without re-firing
		}
	}
}
