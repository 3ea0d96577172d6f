package core

import (
	"context"

	"repro/internal/par"
	"repro/internal/symbolic"
)

// elimStep processes supernode k with an intra-supernode parallelism
// budget of inner workers. locks is non-nil only when cousin steps may
// run concurrently; it serializes writes to shared ancestor×ancestor
// blocks.
type elimStep func(k, inner int, locks *par.StripedMutex)

// runSchedule is the one elimination schedule behind every numeric
// driver — the dense solve, the profiled solve, the O(fill)
// factorization and the live-update re-elimination. It calls step once
// per supernode of sn, never before all of the supernode's children have
// returned, and returns ctx.Err() when the context is cancelled between
// steps; whatever the steps wrote must then be discarded.
//
// With one thread, with etree parallelism off, or with a single
// supernode, supernodes run one at a time in ascending (postorder) index
// order with the whole thread budget as intra-supernode parallelism.
// Otherwise cousins run concurrently under kind: ScheduleDAG through
// par.RunDAGCtx, ScheduleLevel as one parallel-for per etree level with
// a barrier between levels and a static threads/width inner split. Any
// two concurrently running supernodes are mutually non-ancestral under
// either, so only their A(k)×A(k) updates can collide, and the striped
// locks handed to step serialize exactly those.
func runSchedule(ctx context.Context, sn *symbolic.Supernodes, threads int, etreeParallel bool, kind ScheduleKind, step elimStep) error {
	threads = par.DefaultThreads(threads)
	if threads == 1 || !etreeParallel || sn.NumSupernodes() == 1 {
		cancellable := ctx.Done() != nil
		for k := range sn.Ranges {
			if cancellable {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			par.Do("eliminate", k, threads, func(k, inner int) { step(k, inner, nil) })
		}
		return nil
	}
	locks := par.NewStripedMutex(1024)
	if kind == ScheduleLevel {
		for _, level := range sn.Levels {
			inner := max(1, threads/len(level))
			lk := locks
			if len(level) == 1 {
				lk = nil // alone in its level: nothing to collide with
			}
			if err := par.ForCtx(ctx, len(level), threads, 1, func(i int) {
				step(level[i], inner, lk)
			}); err != nil {
				return err
			}
		}
		return nil
	}
	return par.RunDAGCtx(ctx, sn.Parent, threads, func(k, inner int) { step(k, inner, locks) })
}
